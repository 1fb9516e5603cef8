"""Random-sampling quantile estimation ([Coc77] in the paper).

Draw a uniform random sample of the data, sort it, and read quantiles off
the sorted sample.  The paper's Table 7 gives this baseline the same memory
OPAQ uses for its sorted sample list.

The single-pass uniform draw uses reservoir sampling (Vitter's Algorithm R,
vectorised per chunk): each element ends up in the reservoir with
probability ``k/n`` without knowing ``n`` in advance — this is what makes
the method one-pass, but also what makes its error *probabilistic*: unlike
OPAQ there is no deterministic bound, only ``O(1/sqrt(k))`` concentration.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.base import StreamingQuantileEstimator
from repro.errors import ConfigError
from repro.metrics.true_quantiles import quantile_rank

__all__ = ["RandomSamplingEstimator"]


class RandomSamplingEstimator(StreamingQuantileEstimator):
    """Reservoir-sampling point estimator.

    Parameters
    ----------
    capacity:
        Reservoir size ``k`` in keys — the memory budget.
    seed:
        Reproducibility seed for the reservoir's randomness.
    """

    name = "random_sampling"

    def __init__(self, capacity: int = 1000, seed: int = 0) -> None:
        super().__init__()
        if capacity <= 0:
            raise ConfigError("capacity must be positive")
        self.capacity = capacity
        self._rng = np.random.default_rng(seed)
        self._reservoir = np.empty(capacity, dtype=np.float64)
        self._filled = 0
        self._sorted_cache: np.ndarray | None = None

    @property
    def memory_footprint(self) -> int:
        return self.capacity

    def _consume(self, chunk: np.ndarray) -> None:
        self._sorted_cache = None
        k = self.capacity
        pos = 0
        # Fill the reservoir first.
        if self._filled < k:
            take = min(k - self._filled, chunk.size)
            self._reservoir[self._filled : self._filled + take] = chunk[:take]
            self._filled += take
            pos = take
        if pos >= chunk.size:
            return
        rest = chunk[pos:]
        # Algorithm R, vectorised: element number t (1-based over the whole
        # stream) replaces a random reservoir slot with probability k/t.
        start = self._n + pos  # elements seen before `rest`
        t = start + np.arange(1, rest.size + 1, dtype=np.float64)
        accept = self._rng.random(rest.size) < (k / t)
        idx = np.flatnonzero(accept)
        if idx.size == 0:
            return
        slots = self._rng.integers(0, k, size=idx.size)
        # Later stream elements must overwrite earlier ones when they pick
        # the same slot; assignment order of fancy indexing guarantees that
        # (last write wins) as idx is increasing.
        self._reservoir[slots] = rest[idx]

    def _sorted(self) -> np.ndarray:
        if self._sorted_cache is None:
            self._sorted_cache = np.sort(self._reservoir[: self._filled])
        return self._sorted_cache

    def query(self, phi: float) -> float:
        """Point estimate of the φ-quantile of everything consumed."""
        self._require_data()
        sample = self._sorted()
        rank = quantile_rank(phi, sample.size)
        return float(sample[rank - 1])

    def query_many(self, phis: Sequence[float]) -> np.ndarray:
        """Point estimates for several fractions."""
        return np.array([self.query(float(phi)) for phi in phis])
