"""This process's second core: when a run is split, and the one helper
thread that works beside the caller.

A run of at least :data:`_SPLIT_CUTOFF` keys, in a process whose CPU
affinity mask holds two or more CPUs, is read and sorted as two halves:
:meth:`repro.storage.DiskDataset.read_range` reads its second half on
the helper while the calling thread reads the first, and the ``numpy``
selection strategy (:mod:`repro.selection.kernels`) sorts it the same
way.  Both decide with :func:`_slice_count`, so a run that sorts as two
halves is also read as two halves.  Storage and selection both import
this module and neither imports the other.

The helper starts at the first split, never at import; a forked child
starts its own.  It runs whatever job a caller hands it — a ``readinto``
or an ``ndarray.sort``, both of which release the GIL — and hands back
what the job returned or the ``OSError`` it raised, so a failed read of
one half reaches the caller as the one-thread read's error and the
helper keeps serving.  Any other exception ends the helper (its thread
prints the traceback), the waiting caller gets an
:class:`~repro.errors.EstimationError`, and the next split starts a new
helper.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Callable, TypeVar

from repro.errors import EstimationError

T = TypeVar("T")
U = TypeVar("U")

#: Runs of at least this many keys are read and sorted as two halves on
#: two threads.  Measured on a 2-vCPU x86-64 host (numpy 2.4, Python
#: 3.11), uniform doubles, s = 1,000 ranks, median of 25 alternating
#: in-place runs per size, one sort plus gather against two halves plus
#: the select: 100k 0.68 vs 0.85 ms, 150k 1.03 vs 1.06 ms, 200k 1.38 vs
#: 1.28 ms, 300k 2.22 vs 1.78 ms, 500k 3.92 vs 2.64 ms, 1M 7.36 vs
#: 5.36 ms.  The hand-off and the ``O(s log m)`` select cost ~0.4 ms
#: whatever the run size, so the split first pays between 150k and 200k
#: keys; the cutoff sits above that crossover, leaving margin for a busy
#: second CPU.  A read of a cutoff-sized run from the page cache (2 MB)
#: also halves when split.
_SPLIT_CUTOFF = 250_000


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _other_cpus() -> set[int]:
    """The CPUs of this process's affinity mask besides the one this
    thread is running on; empty where Linux's ``/proc`` cannot say."""
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            fields = stat.read().rsplit(b")", 1)[1].split()
        return os.sched_getaffinity(0) - {int(fields[36])}  # field 39: CPU
    except (OSError, AttributeError, ValueError, IndexError):
        return set()


def _slice_count(size: int) -> int:
    """How many halves a run of ``size`` keys is read and sorted as."""
    if size >= max(2, _SPLIT_CUTOFF) and _usable_cpus() >= 2:
        return 2
    return 1


class _Job:
    """One call handed to the helper, and what became of it."""

    __slots__ = ("work", "done", "result", "error")

    def __init__(self, work: Callable[[], Any]) -> None:
        self.work = work
        self.done = threading.Lock()
        self.done.acquire()
        self.result: Any = None
        self.error: OSError | None = None


class _Helper:
    """This process's one helper thread: runs the jobs handed to it.

    Its jobs release the GIL, so a caller running its own half meanwhile
    runs on a second core.  Callers from several threads queue their
    jobs; the helper takes them in turn.
    """

    def __init__(self) -> None:
        # Imported on first use: a process that never splits a run never
        # pays for the queue module.
        from queue import SimpleQueue

        self._jobs: SimpleQueue[_Job] = SimpleQueue()
        self._thread = threading.Thread(
            target=self._serve,
            args=(_other_cpus(),),
            name="opaq-sort-helper",
            daemon=True,
        )
        self._thread.start()

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def _serve(self, cpus: set[int]) -> None:
        # A scheduler that does not balance load across CPUs (a cpuset
        # with load balancing off) keeps a new thread on its creator's
        # CPU, where the two halves would only take turns; so the helper
        # moves itself to the mask's other CPUs.  Affinity is per thread.
        if cpus:
            try:
                os.sched_setaffinity(0, cpus)
            except OSError:
                pass  # stay where the scheduler put us
        while True:
            job = self._jobs.get()
            try:
                job.result = job.work()
            except OSError as exc:  # a read's failure: the caller raises it
                job.error = exc
            job.done.release()
            del job  # waiting for the next job must not pin this run's buffer

    def run_beside(self, theirs: Callable[[], T], mine: Callable[[], U]) -> tuple[T, U]:
        """Run ``theirs`` on the helper while this thread runs ``mine``;
        return both results.

        Either half's ``OSError`` is raised here, ``mine``'s first, and
        only once ``theirs`` is over: both halves work in the caller's
        buffer, which must not change hands while the helper still
        writes to it.
        """
        job = _Job(theirs)
        self._jobs.put(job)
        try:
            own = mine()
        finally:
            # A job that ended the helper never releases; poll for that
            # rather than wait forever.
            while not job.done.acquire(timeout=0.5):
                if not self.alive:
                    raise EstimationError(
                        "the helper thread died; its traceback was printed"
                    )
        if job.error is not None:
            raise job.error
        return job.result, own


_helper: _Helper | None = None
_helper_lock = threading.Lock()


def _running_helper() -> _Helper:
    """This process's helper, started on first use."""
    global _helper
    with _helper_lock:
        if _helper is None or not _helper.alive:
            _helper = _Helper()
        return _helper


def _forget_helper() -> None:
    """In a forked child: the parent's helper thread did not come along,
    and its lock may have been held by a thread that did not either."""
    global _helper, _helper_lock
    _helper = None
    _helper_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)
