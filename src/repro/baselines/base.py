"""The one-pass ingest interface shared by every streaming estimator.

Random sampling (the paper's Table 7) and the sketch summaries of
:mod:`repro.portfolio` (KLL, GK01, and Table 7's [AS95] intervals) all
consume a data source through this one small interface — feed chunks
with :meth:`~StreamingQuantileEstimator.update`, or a whole source with
:func:`consume` — so a harness can run any of them over the same single
pass of a disk-resident dataset and charge each the same memory budget.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, TypeVar

import numpy as np

from repro.errors import ConfigError, EstimationError
from repro.storage import DiskDataset, RunReader

__all__ = ["StreamingQuantileEstimator", "consume"]


class StreamingQuantileEstimator(ABC):
    """One-pass quantile estimator: validated chunk ingest and a count."""

    #: Registry/display name; subclasses override.
    name: str = "abstract"

    def __init__(self) -> None:
        self._n = 0

    @property
    def n(self) -> int:
        """Elements consumed so far."""
        return self._n

    @property
    @abstractmethod
    def memory_footprint(self) -> int:
        """Keys of memory the estimator's state occupies (for the
        equal-memory comparison of the paper's Table 7)."""

    @abstractmethod
    def _consume(self, chunk: np.ndarray) -> None:
        """Absorb one chunk of keys."""

    def update(self, chunk: np.ndarray) -> None:
        """Absorb one chunk of keys (validating input)."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if chunk.ndim != 1:
            raise ConfigError("chunks must be one-dimensional")
        if chunk.size == 0:
            return
        self._consume(chunk)
        self._n += chunk.size

    def _require_data(self) -> None:
        if self._n == 0:
            raise EstimationError(f"{self.name}: no data consumed yet")


_E = TypeVar("_E", bound=StreamingQuantileEstimator)


def consume(estimator: _E, source, run_size: int = 1 << 17) -> _E:
    """Feed a whole data source through an estimator in one pass.

    ``source`` may be a :class:`~repro.storage.DiskDataset` (read through a
    single-pass reader), a numpy array, or any iterable of chunks.  Returns
    the estimator for chaining.
    """
    if isinstance(source, DiskDataset):
        chunks: Iterable[np.ndarray] = RunReader(source, run_size=run_size)
    elif isinstance(source, np.ndarray):
        chunks = (
            source[i : i + run_size] for i in range(0, source.size, run_size)
        )
    else:
        chunks = source
    for chunk in chunks:
        estimator.update(np.asarray(chunk))
    return estimator
