"""The host header every ``BENCH_*.json`` writer records.

The fields ``perfbench/run.py`` prints in its run header — cores, Python,
numpy, git sha and calibration speed — so a committed row's throughput can
be compared across hosts.  Bench modules import it as
``benchmarks.machine`` under pytest and as ``machine`` when run as a
script (``benchmarks/`` is then the first entry of ``sys.path``).
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent


def _git_sha() -> str:
    """HEAD's sha, suffixed ``-dirty`` when tracked files differ from it."""
    try:
        sha = subprocess.run(
            ["git", "-C", str(_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(_ROOT), "status", "--porcelain",
             "--untracked-files=no"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return f"{sha}-dirty" if dirty else sha


def _calibration_mops() -> float:
    """Speed of perfbench's fixed pure-Python loop (median of 5), in M
    iterations/s: compares hosts, not a metric of the program."""
    rates = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i & 7
        rates.append(0.3 / (time.perf_counter() - start))
    return statistics.median(rates)


def machine() -> dict[str, object]:
    """The host fields of ``perfbench/run.py``'s run header."""
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "calibration_mops": round(_calibration_mops(), 3),
    }
