"""The vectorised multiselect behind the ``numpy`` selection strategy.

Extracting the ``s`` regular samples of a run (section 2.1's multiselect)
dominates the sample phase's per-run cost.  :func:`multiselect_numpy` does
it in C — one ``numpy.partition`` for sparse rank sets, a sort and a
select for dense ones — and is the engine of
:class:`~repro.selection.strategies.NumpyPartitionStrategy`, the default
strategy.

The dense path sorts the run as ``w`` contiguous slices in place, then
selects the ranks from the sorted slices.  ``w = 1`` is a plain sort and
gather.  ``w = 2`` is taken for runs of at least
:data:`~repro.cores._SPLIT_CUTOFF` keys in a process whose CPU affinity
mask holds two or more CPUs (:func:`repro.cores._slice_count`, the rule
the run's read follows too): the calling thread sorts one half while
this process's one helper thread (:mod:`repro.cores`) sorts the other
(``ndarray.sort`` releases the GIL), and a vectorised merge-path
bisection picks each rank from the two sorted halves in ``O(s log m)``
— the halves are never merged.  Rank 0, the run's minimum, is then
free: the lower of the two halves' first keys.

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

from functools import partial
from typing import Sequence

import numpy as np

from repro.cores import _running_helper, _slice_count
from repro.errors import EstimationError

__all__ = ["multiselect_numpy"]


#: Above this many distinct ranks, a full ``numpy.sort`` beats the
#: multi-pivot introselect that ``numpy.partition`` runs for a kth
#: *array*.  Rank 0 does not count: numpy selects it by one linear scan
#: for the minimum, not an introselect pass.  Both paths return the
#: exact order statistics, so the choice is invisible.  The sample
#: phase's ranks (0 and ``s`` regular ranks) over uniform doubles, ms,
#: medians of 15 (numpy 2.4.6 on a 2-vCPU AVX-512 Xeon; runs of 1M keys
#: sort as two halves on both cores):
#:
#:     pivots (s)         1      2      3      8
#:     3k   partition  0.019  0.041  0.053  0.070
#:          sort       0.022  0.021  0.032  0.022
#:     100k partition  0.19   1.36   1.72   2.52
#:          sort       0.52   0.52   0.53   0.51
#:     1M   partition  1.77  13.2   16.9   26.4
#:          sort       3.60   3.64   3.82   3.53
#:
#: One pivot partitions in about half a sort; from two on, the pivots'
#: recursive passes (not vectorised, where the sort is) lose.
_MULTISELECT_SORT_CUTOFF = 1


def multiselect_numpy(
    values: np.ndarray,
    ranks: Sequence[int] | np.ndarray,
    overwrite_input: bool = False,
) -> np.ndarray:
    """The elements of ``values`` at the given sorted 0-based ranks, in C.

    Sparse rank sets (≤ :data:`_MULTISELECT_SORT_CUTOFF` distinct ranks
    above 0) use one ``numpy.partition`` — the paper's multiselect, O(m) per
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
    if np.count_nonzero(unique) <= _MULTISELECT_SORT_CUTOFF:
        work.partition(unique)
        return work[rank_arr].astype(np.float64)
    slices = _sort_slices(work, _slice_count(work.size))
    return _select(slices, rank_arr).astype(np.float64, copy=False)


# ----------------------------------------------------------------------
# Sort w slices in place, then select from them
# ----------------------------------------------------------------------


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
    _running_helper().run_beside(partial(_sort, tail), partial(_sort, head))
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
