"""Where the library lives, and what machine a result was taken on.

Imports only the standard library, so it works before `src/` is on the
path.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Put the checkout's `src/` first on the import path.

    The package is not installed, so the benchmark must find it here;
    without it the run fails instead of timing some other copy.
    """
    if not (SRC / "jugglechain" / "__init__.py").is_file():
        sys.exit(f"perfbench: no jugglechain sources under {SRC}")
    sys.path.insert(0, str(SRC))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not itself
    the top of a git repository."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def describe(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }
