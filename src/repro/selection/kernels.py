"""The vectorised multiselect behind the ``numpy`` selection strategy.

Extracting the ``s`` regular samples of a run (section 2.1's multiselect)
dominates the sample phase's per-run cost.  :func:`multiselect_numpy` does
it in C — one ``numpy.partition`` for sparse rank sets, one sort and a
gather for dense ones — and is the engine of
:class:`~repro.selection.strategies.NumpyPartitionStrategy`, the default
strategy.  Order statistics are value-deterministic, so every strategy
returns the same samples; ``tests/selection/test_kernels.py`` pins this
against the ``sort`` strategy over ragged run sizes, duplicate-heavy data
and mixed-sign zeros.
"""

from __future__ import annotations

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


def multiselect_numpy(
    values: np.ndarray, ranks: Sequence[int] | np.ndarray
) -> np.ndarray:
    """The elements of ``values`` at the given sorted 0-based ranks, in C.

    Sparse rank sets (≤ :data:`_MULTISELECT_SORT_CUTOFF` distinct ranks)
    use one ``numpy.partition`` — the paper's multiselect, O(m) per
    pivot.  Dense rank sets — every run in the sample phase, where
    ``s`` ranks are extracted per run — sort the run outright and gather,
    which is empirically far faster (see the cutoff note) and returns
    byte-identical order statistics.  Duplicated ranks are permitted,
    matching the reference.
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
    unique = np.unique(rank_arr)
    if unique.size > _MULTISELECT_SORT_CUTOFF:
        parted = np.sort(np.asarray(values))  # opaq: ignore[one-pass-sort] sorting ONE in-memory run during the sample phase, not the dataset; O(m log m) on a single run
    else:
        parted = np.partition(np.asarray(values), unique)
    return parted[rank_arr].astype(np.float64)
