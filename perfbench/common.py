"""Shared plumbing of the benchmark: paths, isolation, servers, oracles.

Everything here runs in the load-generator process.  The system under
test runs in child processes (``opaq serve`` or ``scan_child.py``) that
this module starts, watches and always kills and reaps.
"""

from __future__ import annotations

import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent
SRC = REPO_ROOT / "src"
#: Scratch space for datasets, snapshot and spill directories.  It lives
#: inside the checkout (the benchmark reads and writes nothing outside
#: it) and is emptied when each run ends.
WORK_ROOT = REPO_ROOT / ".perfbench-work"


class BenchError(RuntimeError):
    """A run that cannot produce trustworthy numbers."""


def require_source() -> None:
    """Put the checkout's ``src`` first on the import path, or refuse."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program source at {SRC / 'repro'}: run the benchmark from "
            "the root of a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ----------------------------------------------------------------------
# Isolation
# ----------------------------------------------------------------------


class WorkDir:
    """A fresh private directory for one run, removed on every exit path."""

    def __init__(self, label: str) -> None:
        self.path = WORK_ROOT / f"{label}-{os.getpid()}"
        self._subdirs = 0

    def __enter__(self) -> "WorkDir":
        WORK_ROOT.mkdir(exist_ok=True)
        self.path.mkdir()  # raises if a previous run left it behind
        return self

    def fresh_dir(self, stem: str) -> Path:
        """A new, provably empty directory for one server's state."""
        self._subdirs += 1
        path = self.path / f"{stem}-{self._subdirs}"
        path.mkdir()
        if any(path.iterdir()):
            raise BenchError(f"{path} is not empty; refusing to reuse state")
        return path

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still owns a directory there


def fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    path = path.resolve()
    best, kind = "", "unknown"
    try:
        lines = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1].replace("\\040", " ")
        inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


# ----------------------------------------------------------------------
# Run header
# ----------------------------------------------------------------------


def _git_sha() -> str:
    if not (REPO_ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def calibration_mops() -> float:
    """Speed of a fixed pure-Python loop (median of 5), in M iterations/s.

    Compares machines and noisy neighbours; not a metric of the program.
    """
    rates = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i & 7
        rates.append(0.3 / (time.perf_counter() - start))
    return statistics.median(rates)


def print_header(workload: str, seed: int, seconds: float, dirs: dict[str, Path]) -> None:
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 0
    header = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "calibration_mops": round(calibration_mops(), 3),
        "filesystems": {name: fs_type(path) for name, path in dirs.items()},
    }
    print("# header " + json.dumps(header, sort_keys=True), flush=True)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


class ChildProcess:
    """A supervised child: started with a deadline, always killed and reaped."""

    def __init__(self, argv: list[str], log_path: Path) -> None:
        self.argv = argv
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.started_at = 0.0

    def start(self) -> None:
        self.started_at = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.argv,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
                env=child_env(),
                cwd=str(REPO_ROOT),
                text=True,
            )

    def read_line(self, prefix: str, timeout: float) -> str:
        """The first stdout line starting with ``prefix``, within ``timeout``."""
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"{self.argv[1:3]} printed no {prefix!r} in {timeout:g}s")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError(
                    f"child exited with {self.proc.wait()} before {prefix!r}; "
                    f"log: {self.log_tail()}"
                )
            if line.startswith(prefix):
                return line.strip()

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            return ""

    def kill(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __enter__(self) -> "ChildProcess":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.kill()


class Server(ChildProcess):
    """``opaq serve`` on a free port, reachable over one ServiceClient.

    ``state_dir`` (its snapshot or spill directory) is removed once the
    server is dead, so no state carries over to the next server.
    """

    def __init__(self, serve_args: list[str], log_path: Path, state_dir: Path,
                 ledger_path: Path | None = None) -> None:
        if ledger_path is None:
            argv = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            argv = [sys.executable, str(HERE / "serve_traced.py"), str(ledger_path)]
        super().__init__(argv + ["--port", "0", *serve_args], log_path)
        self.state_dir = state_dir
        self.ledger_path = ledger_path
        self.client = None
        self.setup_s = 0.0

    def start(self) -> None:
        from repro.service import ServiceClient

        super().start()
        line = self.read_line("serving on ", timeout=60)
        url = line.split()[2]
        self.client = ServiceClient(url, timeout=60)
        self.client.health()  # the first operation the system accepts
        self.setup_s = time.perf_counter() - self.started_at

    def read_ledger(self) -> dict:
        """Stop a traced server; it writes its ledger as shutdown begins."""
        assert self.proc is not None and self.ledger_path is not None
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 60
        while not self.ledger_path.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"traced server wrote no ledger; log: {self.log_tail()}")
            time.sleep(0.02)
        # Shutdown work after the ledger (final snapshot, spilling every
        # key) is not measured, so the server is killed, not awaited.
        self.kill()
        return json.loads(self.ledger_path.read_text())

    def kill(self) -> None:
        if self.client is not None:
            self.client.close()
        super().kill()
        shutil.rmtree(self.state_dir, ignore_errors=True)


def measure_setup(make: Callable[[], ChildProcess], runs: int) -> list[float]:
    """Start and stop ``runs`` fresh children; their setup times."""
    times = []
    for _ in range(runs):
        child = make()
        try:
            child.start()
            times.append(child.setup_s)
        finally:
            child.kill()
    return times


# ----------------------------------------------------------------------
# Exact oracle
# ----------------------------------------------------------------------


class CycleOracle:
    """Exact ranks over a prefix of a stream that cycles over fixed parts.

    The stream sends parts ``0..P-1`` over and over.  After ``cycles``
    whole cycles and then the first ``upto`` parts of the next one, each
    element of part ``p`` has been seen ``cycles + (p < upto)`` times.
    Sorting the pool once turns every exact rank of that prefix into a
    cumulative sum of those weights.
    """

    def __init__(self, parts: list, part_ids: list[int] | None = None) -> None:
        """``parts[i]`` is part ``part_ids[i]`` (default ``i``) of the cycle."""
        import numpy as np

        values = np.concatenate(parts)
        if part_ids is None:
            part_ids = np.arange(len(parts))
        part_ids = np.repeat(part_ids, [len(p) for p in parts])
        order = np.argsort(values, kind="stable")
        self.sorted = values[order]
        self.part = part_ids[order]
        self._cum: tuple[tuple[int, int], np.ndarray] | None = None

    def weights_total(self, cycles: int, upto: int) -> int:
        return int(cycles * self.sorted.size + (self.part < upto).sum())

    def _cumulative(self, cycles: int, upto: int):
        """Exact ``count(<= sorted[i])`` of the prefix; the last is kept."""
        import numpy as np

        if self._cum is None or self._cum[0] != (cycles, upto):
            self._cum = ((cycles, upto), np.cumsum(cycles + (self.part < upto).astype(np.int64)))
        return self._cum[1]

    def check(self, cycles: int, upto: int, psi, lower, upper) -> tuple[int, bool]:
        """``(worst observed rank error, every bound encloses)``.

        Observed error follows the summary convention: a lower bound is
        credited with the count of elements ``<=`` it, an upper bound
        with one more than the count ``<`` it.
        """
        import numpy as np

        cum = self._cumulative(cycles, upto)
        psi = np.asarray(psi, dtype=np.int64)
        exact = self.sorted[np.searchsorted(cum, psi, side="left")]

        def count(values, side):
            idx = np.searchsorted(self.sorted, values, side=side)
            return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0)

        below = np.maximum(psi - count(lower, "right"), 0)
        above = np.maximum(count(upper, "left") + 1 - psi, 0)
        observed = int(max(below.max(), above.max()))
        encloses = bool(np.all(lower <= exact) and np.all(exact <= upper))
        return observed, encloses


#: The fractions an accuracy check asks for: dense enough that the worst
#: observed rank error is found, not sampled.
DENSE_PHIS = [i / 10_000 for i in range(1, 10_000)]


def quantile_rank(phis, count: int):
    """``clamp(ceil(phi * count), 1, count)``, the program's rank rule."""
    import numpy as np

    return np.minimum(count, np.maximum(1, np.ceil(np.asarray(phis) * count).astype(np.int64)))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples")
    index = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[index]


def latency_line(name: str, samples_ms: list[float]) -> str:
    return (
        f"{name}: n={len(samples_ms)} p50={percentile(samples_ms, 50):.4f}ms "
        f"p90={percentile(samples_ms, 90):.4f}ms p99={percentile(samples_ms, 99):.4f}ms "
        "(p90/p99 not gated)"
    )
