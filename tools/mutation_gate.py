"""Mutation gate: each entry breaks the library by one exact text edit,
and the tests it names must then fail.

Run from anywhere, with pytest installed:

    python tools/mutation_gate.py

The script copies `src/`, `tests/` and `pyproject.toml` into a temporary
directory and first runs every named test there unmutated: each must pass,
so a mistyped or stale test id fails the gate rather than killing a
mutant.  Then, one entry at a time, it writes the edit into the copy, runs
only that entry's tests (`pytest -x`), and restores the file.  A mutant is
killed when pytest reports a failed test (exit 1); any other outcome, a
pass, an error or no tests collected, is a survivor.  An entry whose old
text does not occur exactly once in its file fails the gate, so the list
moves with the code.  The script prints one line per mutant and then
killed/total with the seconds taken, and exits 0 only when every mutant is
killed.

Entries are only added.  A change that deletes one says why in CHANGES.md.
An equivalent mutant, one that keeps every law, says so in its reason,
with the proof and the stream test that pins it.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, run together: one must fail
    reason: str


MUTANTS = [
    Mutant(
        "sweep-free-plus-one",
        "src/jugglechain/fqoracle.py",
        "descend(i + 1, share * p**free)",
        "descend(i + 1, share * p ** (free + 1))",
        ("tests/test_fqoracle.py::TestLeadCounts::test_sweeps",),
        "a sweep node weighs p^free lines, not p^(free + 1)",
    ),
    Mutant(
        "sweep-no-free-lines",
        "src/jugglechain/fqoracle.py",
        "descend(i + 1, share * p**free)",
        "descend(i + 1, share)",
        ("tests/test_fqoracle.py::TestLeadCounts::test_sweeps",),
        "one node per lead prefix must stand for all p^free lines, not one",
    ),
    Mutant(
        "sweep-free-from-width",
        "src/jugglechain/fqoracle.py",
        "free = width - i  # the columns off V's leads",
        "free = width  # the columns off V's leads",
        ("tests/test_fqoracle.py::TestLeadCounts::test_sweeps",),
        "the i leads of V are not free columns",
    ),
    Mutant(
        "sweep-free-never-decremented",
        "src/jugglechain/fqoracle.py",
        "            free -= 1\n",
        "",
        ("tests/test_fqoracle.py::TestLeadCounts::test_sweeps",),
        "free counts only the columns past the lead",
    ),
    Mutant(
        "all-heads-move-weight",
        "src/jugglechain/chain.py",
        "nums.append(c**b)",
        "nums.append(c ** (b - 1) * (a - c))",
        ("tests/test_acceptance.py::test_criterion_5_transition_oracle",),
        "all b heads has weight c^b, not c^(b-1)(a - c)",
    ),
    Mutant(
        "word-walk-equal-labels-smaller",
        "src/jugglechain/flagchain.py",
        "s + (label < carried)",
        "s + (label <= carried)",
        ("tests/test_acceptance.py::test_criterion_7_flag_stationarity",),
        "a walk's s counts only strictly smaller labels passed",
    ),
    Mutant(
        "hatted-flip-at-equal-labels",
        "src/jugglechain/hatted.py",
        "if c is not None and (a is None or c < a):",
        "if c is not None and (a is None or c <= a):",
        ("tests/test_samplers.py::test_hatted_stream_is_pinned",),
        "equivalent in law: at c == a heads exchanges two equal labels and "
        "tails keeps them, one successor either way, but a coin is spent; "
        "only the pinned stream over repeated labels sees it",
    ),
    Mutant(
        "most-likely-count-tie-upward",
        "src/jugglechain/asymptotics.py",
        "prob_ratio(b, h, c + 1, q) > 1",
        "prob_ratio(b, h, c + 1, q) >= 1",
        ("tests/test_acceptance.py::test_criterion_10_asymptotics",),
        "a ratio exactly 1 resolves to the smaller c",
    ),
    Mutant(
        "word-law-x-for-one-minus-x",
        "src/jugglechain/flagchain.py",
        "grown[kept] = grown.get(kept, 0) + n * c\n"
        "                grown[swapped] = grown.get(swapped, 0) + n * (a - c)",
        "grown[kept] = grown.get(kept, 0) + n * (a - c)\n"
        "                grown[swapped] = grown.get(swapped, 0) + n * c",
        ("tests/test_acceptance.py::test_criterion_5_transition_oracle",),
        "heads (c of a) passes a smaller label and tails (a - c) swaps it: "
        "x = 1/q and 1 - x exchanged",
    ),
]


def run_tests(copy: Path, tests: tuple[str, ...]) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(
        command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def main() -> int:
    start = time.perf_counter()
    texts = {}
    for m in MUTANTS:
        if m.file not in texts:
            texts[m.file] = (ROOT / m.file).read_text()
        found = texts[m.file].count(m.old)
        if found != 1:
            print(f"gate: {m.name}: old text found {found} times in {m.file}, not once")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            ignore = shutil.ignore_patterns("__pycache__")
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        named = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if run_tests(copy, named):
            print("gate: the named tests do not all pass on the unmutated tree")
            return 1
        killed = 0
        for m in MUTANTS:
            began = time.perf_counter()
            path = copy / m.file
            path.write_text(texts[m.file].replace(m.old, m.new))
            try:
                dead = run_tests(copy, m.tests) == 1
            finally:
                path.write_text(texts[m.file])
            killed += dead
            verdict = "killed" if dead else "SURVIVED"
            print(f"{verdict:8} {m.name} ({time.perf_counter() - began:.1f} s)")
    seconds = time.perf_counter() - start
    print(f"mutation gate: {killed}/{len(MUTANTS)} killed in {seconds:.1f} s")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
