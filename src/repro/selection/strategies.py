"""Pluggable selection strategies for the sample phase.

The paper's sample phase needs one operation: given an in-memory run of
``m`` keys, extract the regular samples at ranks ``m/s, 2m/s, ..., m``.  It
discusses three ways to do it (deterministic selection, randomized
selection, or plain sorting); this module exposes all of them — plus a
vectorised ``numpy.partition`` engine, the pragmatic default — behind one
small interface so the estimator, the tests and the ablation benchmarks can
swap them freely.

Use :func:`get_strategy` to resolve a strategy by name::

    strategy = get_strategy("numpy")
    samples = strategy.multiselect(run, ranks)
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.errors import ConfigError, EstimationError
from repro.obs import current_tracer
from repro.selection.floyd_rivest import floyd_rivest_select
from repro.selection.kernels import multiselect_numpy
from repro.selection.median_of_medians import median_of_medians_select
from repro.selection.multiselect import multiselect


def _count_modelled_work(
    engine: str, size: int, rank_arr: np.ndarray, partitions: int
) -> None:
    """Emit the analytic ``O(m log s)`` work estimate for a vectorised engine.

    The C-level engines (``numpy.partition``, ``numpy.sort``) do not expose
    their comparison counts, so the tracer records the paper's cost-model
    figure instead — ``m * ceil(log2(s + 1))`` comparisons — tagged
    ``engine="modelled"`` to keep it distinguishable from the measured
    counters of the recursive multiselect.  ``s`` counts the distinct
    ranks above 0: rank 0, which the sample phase selects for the run's
    minimum, is a linear scan, not a multiselect pivot.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return
    distinct = int(np.count_nonzero(np.unique(rank_arr)))
    log_s = max(1, int(np.ceil(np.log2(distinct + 1))))
    tracer.count("selection.comparisons", size * log_s, engine="modelled")
    tracer.count("selection.partitions", partitions, engine=engine)

__all__ = [
    "SelectionStrategy",
    "SortStrategy",
    "NumpyPartitionStrategy",
    "MedianOfMediansStrategy",
    "FloydRivestStrategy",
    "get_strategy",
    "STRATEGY_NAMES",
]


class SelectionStrategy(ABC):
    """Extracts order statistics from an in-memory run."""

    #: Registry name; subclasses override.
    name: str = "abstract"
    #: True when :meth:`multiselect` ranks NaN above every number, as
    #: ``numpy.sort`` does; the sample phase then finds a NaN at the top
    #: sample instead of scanning the run for one first.
    nan_last: bool = False

    @abstractmethod
    def select(self, values: np.ndarray, rank: int) -> float:
        """Return the element of 0-based ``rank`` of ``values``."""

    def multiselect(
        self,
        values: np.ndarray,
        ranks: Sequence[int] | np.ndarray,
        overwrite_input: bool = False,
    ) -> np.ndarray:
        """Return the elements at the given sorted 0-based ``ranks``.

        ``overwrite_input=True`` lets the strategy reorder ``values``
        instead of a copy, as in ``numpy.median``; ``values`` is then left
        in an unspecified order.  Without it ``values`` is never changed.

        Default implementation: the paper's recursive median-splitting
        multiselect driven by :meth:`select` (``O(m log s)`` when
        :meth:`select` is linear); it works on copies either way.
        """
        return multiselect(values, ranks, self.select)


class SortStrategy(SelectionStrategy):
    """Sort the run and index it — the simple ``O(m log m)`` baseline."""

    name = "sort"
    nan_last = True

    def select(self, values: np.ndarray, rank: int) -> float:
        if not 0 <= rank < values.size:
            raise EstimationError(
                f"rank {rank} out of range for array of size {values.size}"
            )
        return float(np.sort(values)[rank])

    def multiselect(
        self,
        values: np.ndarray,
        ranks: Sequence[int] | np.ndarray,
        overwrite_input: bool = False,
    ) -> np.ndarray:
        rank_arr = np.asarray(ranks, dtype=np.int64)
        if rank_arr.size and (
            rank_arr.min() < 0 or rank_arr.max() >= values.size
        ):
            raise EstimationError("ranks out of range")
        tracer = current_tracer()
        with tracer.span(
            "phase.multiselect",
            engine=self.name,
            size=int(values.size),
            ranks=int(rank_arr.size),
        ):
            if overwrite_input:
                values.sort()
                ordered = values
            else:
                ordered = np.sort(values)
            out = ordered[rank_arr].astype(np.float64)
        _count_modelled_work(self.name, int(values.size), rank_arr, 1)
        return out


class NumpyPartitionStrategy(SelectionStrategy):
    """Vectorised introselect via :func:`numpy.partition` — the fast default.

    ``numpy.partition`` with a list of kth ranks performs exactly the
    multiselect the paper needs, in C.  The asymptotics match the paper's
    ``O(m log s)``; only the constant differs.
    """

    name = "numpy"
    nan_last = True

    def select(self, values: np.ndarray, rank: int) -> float:
        if not 0 <= rank < values.size:
            raise EstimationError(
                f"rank {rank} out of range for array of size {values.size}"
            )
        return float(np.partition(values, rank)[rank])

    def multiselect(
        self,
        values: np.ndarray,
        ranks: Sequence[int] | np.ndarray,
        overwrite_input: bool = False,
    ) -> np.ndarray:
        rank_arr = np.asarray(ranks, dtype=np.int64)
        if rank_arr.size == 0:
            return np.empty(0, dtype=np.float64)
        tracer = current_tracer()
        with tracer.span(
            "phase.multiselect",
            engine=self.name,
            size=int(values.size),
            ranks=int(rank_arr.size),
        ):
            out = multiselect_numpy(values, rank_arr, overwrite_input)
        _count_modelled_work(self.name, int(values.size), rank_arr, 1)
        return out


class MedianOfMediansStrategy(SelectionStrategy):
    """Deterministic worst-case-linear selection ([Blum et al. 72])."""

    name = "median_of_medians"

    def select(self, values: np.ndarray, rank: int) -> float:
        return median_of_medians_select(values, rank)


class FloydRivestStrategy(SelectionStrategy):
    """Randomized expected-linear selection ([FR75]).

    Deterministic given a seed: the generator is re-derived from the seed
    for every :meth:`select` call so multiselect results do not depend on
    call order.
    """

    name = "floyd_rivest"

    def __init__(self, seed: int = 0x0F2A) -> None:
        self._seed = seed

    def select(self, values: np.ndarray, rank: int) -> float:
        rng = np.random.default_rng((self._seed, values.size, rank))
        return floyd_rivest_select(values, rank, rng)


_REGISTRY = {
    SortStrategy.name: SortStrategy,
    NumpyPartitionStrategy.name: NumpyPartitionStrategy,
    MedianOfMediansStrategy.name: MedianOfMediansStrategy,
    FloydRivestStrategy.name: FloydRivestStrategy,
}

STRATEGY_NAMES = tuple(sorted(_REGISTRY))


def get_strategy(name: str | SelectionStrategy) -> SelectionStrategy:
    """Resolve a strategy by name (or pass an instance through unchanged)."""
    if isinstance(name, SelectionStrategy):
        return name
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ConfigError(
            f"unknown selection strategy {name!r}; choose from {STRATEGY_NAMES}"
        ) from None
