import pkgutil
import subprocess
import sys
from pathlib import Path

import jugglechain

SCRIPT = """
import importlib, sys
sys.path.insert(0, {root!r})
for name in {modules!r}:
    importlib.import_module(name)
print('numpy' in sys.modules)
"""


def test_no_module_imports_numpy():
    # a fresh interpreter, so nothing else in the test run has loaded numpy
    modules = ["jugglechain"] + [
        f"jugglechain.{m.name}" for m in pkgutil.iter_modules(jugglechain.__path__)
    ]
    assert "jugglechain.asymptotics" in modules
    root = str(Path(jugglechain.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(root=root, modules=modules)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks import *
    assert len(set(jugglechain.__all__)) == len(jugglechain.__all__)
    for name in jugglechain.__all__:
        assert hasattr(jugglechain, name), name
    namespace: dict = {}
    exec("from jugglechain import *", namespace)
    assert set(jugglechain.__all__) <= namespace.keys()
