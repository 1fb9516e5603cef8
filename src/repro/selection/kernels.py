"""The vectorised multiselect behind the ``numpy`` selection strategy.

Extracting the ``s`` regular samples of a run (section 2.1's multiselect)
dominates the sample phase's per-run cost.  :func:`multiselect_numpy` does
it in C — one ``numpy.partition`` for sparse rank sets, a sort and a
select for dense ones — and is the engine of
:class:`~repro.selection.strategies.NumpyPartitionStrategy`, the default
strategy.

The dense path sorts the run as ``w`` contiguous slices in place, then
selects the ranks from the sorted slices.  ``w = 1`` is a plain sort and
gather.  ``w = 2`` is taken for runs of at least :data:`_SPLIT_CUTOFF`
keys in a process whose CPU affinity mask holds two or more CPUs: the
calling thread sorts one half while this process's one helper thread
sorts the other (``ndarray.sort`` releases the GIL), and a vectorised
merge-path bisection picks each rank from the two sorted halves in
``O(s log m)`` — the halves are never merged.  The helper starts at the
first split, never at import; a forked child starts its own.  It only
ever calls ``ndarray.sort``, so it emits no trace events.

Order statistics depend only on the values, so every ``w`` and every
strategy returns the same samples.  Where ``-0.0`` and ``0.0`` tie at a
selected rank, a sample may carry either sign (the two compare equal);
the sample phase stores every zero it keeps as ``+0.0``, so no summary
sees the difference.  ``tests/selection/test_kernels.py`` pins this
against the ``sort`` strategy over ragged run sizes, duplicate-heavy
data and mixed-sign zeros; ``tests/selection/test_split_sort.py`` does
so with the split forced on small inputs.
"""

from __future__ import annotations

import os
import threading
from typing import Sequence

import numpy as np

from repro.errors import EstimationError

__all__ = ["multiselect_numpy"]


#: Above this many distinct ranks, a full ``numpy.sort`` beats the
#: multi-pivot introselect that ``numpy.partition`` runs for a kth
#: *array*: measured on 12.5k–1M doubles, partition wins ~3× for one or
#: two pivots but is 5–10× *slower* than sort from ~8 pivots on (the
#: recursive per-pivot passes are not vectorised, the sort is).  Both
#: paths return the exact order statistics, so the choice is invisible.
_MULTISELECT_SORT_CUTOFF = 2

#: Runs of at least this many keys sort as two halves on two threads.
#: Measured on a 2-vCPU x86-64 host (numpy 2.4, Python 3.11), uniform
#: doubles, s = 1,000 ranks, median of 25 alternating in-place runs per
#: size, one sort plus gather against two halves plus the select:
#: 100k 0.68 vs 0.85 ms, 150k 1.03 vs 1.06 ms, 200k 1.38 vs 1.28 ms,
#: 300k 2.22 vs 1.78 ms, 500k 3.92 vs 2.64 ms, 1M 7.36 vs 5.36 ms.  The
#: hand-off and the ``O(s log m)`` select cost ~0.4 ms whatever the run
#: size, so the split first pays between 150k and 200k keys; the cutoff
#: sits above that crossover, leaving margin for a busy second CPU.
_SPLIT_CUTOFF = 250_000


def multiselect_numpy(
    values: np.ndarray,
    ranks: Sequence[int] | np.ndarray,
    overwrite_input: bool = False,
) -> np.ndarray:
    """The elements of ``values`` at the given sorted 0-based ranks, in C.

    Sparse rank sets (≤ :data:`_MULTISELECT_SORT_CUTOFF` distinct ranks)
    use one ``numpy.partition`` — the paper's multiselect, O(m) per
    pivot.  Dense rank sets — every run in the sample phase, where
    ``s`` ranks are extracted per run — sort the run and select, which is
    empirically far faster (see the cutoff note) and returns the same
    order statistics.  Duplicated ranks are permitted, matching the
    reference.  NaN ranks above every number, as in ``numpy.sort``.

    ``overwrite_input=True`` lets the function partition or sort
    ``values`` in place instead of a copy, as in ``numpy.median``;
    ``values`` is then left in an unspecified order.
    """
    rank_arr = np.asarray(ranks, dtype=np.int64)
    if rank_arr.size == 0:
        return np.empty(0, dtype=np.float64)
    if np.any(np.diff(rank_arr) < 0):
        raise EstimationError("ranks must be non-decreasing")
    if rank_arr[0] < 0 or rank_arr[-1] >= values.size:
        raise EstimationError(
            f"ranks must lie in [0, {values.size}); got "
            f"[{int(rank_arr[0])}, {int(rank_arr[-1])}]"
        )
    work = np.asarray(values)
    if not overwrite_input:
        work = work.copy()
    unique = np.unique(rank_arr)
    if unique.size <= _MULTISELECT_SORT_CUTOFF:
        work.partition(unique)
        return work[rank_arr].astype(np.float64)
    slices = _sort_slices(work, _slice_count(work.size))
    return _select(slices, rank_arr).astype(np.float64, copy=False)


# ----------------------------------------------------------------------
# Sort w slices in place, then select from them
# ----------------------------------------------------------------------


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
    """How many slices a dense run of ``size`` keys sorts as."""
    if size >= max(2, _SPLIT_CUTOFF) and _usable_cpus() >= 2:
        return 2
    return 1


def _sort(part: np.ndarray) -> None:
    """Sort ``part`` in place: every sort of the dense path, on either
    thread, is this call."""
    part.sort()  # opaq: ignore[one-pass-sort] sorting ONE in-memory run (or half of one) during the sample phase, not the dataset; O(m log m) on a single run


def _sort_slices(work: np.ndarray, count: int) -> list[np.ndarray]:
    """Sort ``work`` in place as ``count`` (1 or 2) contiguous slices."""
    if count == 1:
        _sort(work)
        return [work]
    half = work.size // 2
    head, tail = work[:half], work[half:]
    _running_helper().sort_beside(tail, head)
    return [head, tail]


def _select(slices: list[np.ndarray], ranks: np.ndarray) -> np.ndarray:
    """The keys at ``ranks`` of the sorted union of the sorted ``slices``."""
    if len(slices) == 1:
        return slices[0][ranks]
    head, tail = slices
    return _merge_path_select(head, tail, ranks)


def _merge_path_select(
    a: np.ndarray, b: np.ndarray, ranks: np.ndarray
) -> np.ndarray:
    """The keys at ``ranks`` of the stable merge of sorted ``a`` and ``b``.

    For rank ``k`` the first ``k + 1`` merged keys take some ``i`` keys
    from ``a`` and ``k + 1 - i`` from ``b``; ``a[t]`` is among them
    exactly when ``a[t] <= b[k - t]``, a predicate that holds for a
    prefix of ``t``.  One bisection per rank finds ``i`` — all ranks at
    once, with a shared power-of-two step, so ``O(s log m)`` numpy work —
    and the key at rank ``k`` is the later of ``a[i - 1]`` and
    ``b[k - i]``.  Ties go to ``a`` first, as in a stable merge.
    """
    # NaN sorts last, so either slice holds one only if it ends in one;
    # only then does ``<=`` need numpy.sort's NaN-last order.
    nan_last = a.dtype.kind == "f" and bool(np.isnan(a[-1]) | np.isnan(b[-1]))

    def at_or_below(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        below = x <= y
        if nan_last:
            below |= np.isnan(y)
        return below

    need = ranks + 1
    lo = np.maximum(need - b.size, 0)  # fewest keys the prefix takes from a
    hi = np.minimum(need, a.size)      # most keys it can take from a
    taken = lo
    step = 1 << max(0, int((hi - lo).max()).bit_length() - 1)
    while step:
        t = taken + (step - 1)
        # Inside the bracket 0 <= t < len(a) and 0 <= k - t < len(b); the
        # clipping takes only keep finished ranks' probes in bounds.
        below = at_or_below(a.take(t, mode="clip"), b.take(ranks - t, mode="clip"))
        below &= t < hi
        taken = taken + below * step
        step >>= 1
    last_a = a.take(taken - 1, mode="clip")
    from_b = need - taken
    last_b = b.take(from_b - 1, mode="clip")
    use_b = (from_b > 0) & ((taken == 0) | at_or_below(last_a, last_b))
    return np.where(use_b, last_b, last_a)


# ----------------------------------------------------------------------
# The helper thread
# ----------------------------------------------------------------------


class _SortHelper:
    """This process's one helper thread: sorts the slices handed to it.

    It runs nothing but ``ndarray.sort``, which releases the GIL, so a
    caller sorting its own slice meanwhile runs on a second core.
    Callers from several threads queue their slices; the helper takes
    them in turn.
    """

    def __init__(self) -> None:
        # Imported on first use: a process that never splits a run never
        # pays for the queue module.
        from queue import SimpleQueue

        # Each job is a slice and the lock its caller waits on.
        self._jobs: SimpleQueue[tuple[np.ndarray, threading.Lock]] = SimpleQueue()
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
            part, done = self._jobs.get()
            _sort(part)
            done.release()
            del part  # waiting for the next job must not pin this run's buffer

    def sort_beside(self, theirs: np.ndarray, mine: np.ndarray) -> None:
        """Sort ``theirs`` on the helper while this thread sorts ``mine``."""
        done = threading.Lock()
        done.acquire()
        self._jobs.put((theirs, done))
        _sort(mine)
        # A sort that raised would end the helper (the thread prints its
        # traceback); poll for that rather than wait forever.
        while not done.acquire(timeout=0.5):
            if not self.alive:
                raise EstimationError(
                    "the sort helper thread died; its traceback was printed"
                )


_helper: _SortHelper | None = None
_helper_lock = threading.Lock()


def _running_helper() -> _SortHelper:
    """This process's helper, started on first use."""
    global _helper
    with _helper_lock:
        if _helper is None or not _helper.alive:
            _helper = _SortHelper()
        return _helper


def _forget_helper() -> None:
    """In a forked child: the parent's helper thread did not come along,
    and its lock may have been held by a thread that did not either."""
    global _helper, _helper_lock
    _helper = None
    _helper_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)
