"""Equi-width histograms — the strawman the paper's introduction targets.

"In the past, equi-depth histograms [Koo80, PS84, MD88] have not worked
well for range queries when data distribution skew has been high" — and
equi-*width* histograms (the simplest optimizer statistic, [Koo80]-style)
fare worse still: under skew, most of the mass lands in a few cells and
the uniform-within-cell assumption collapses.

:class:`EquiWidthHistogram` implements that classic statistic over the
same one-pass streaming discipline, so the selectivity-estimation
benchmark can compare it head-to-head with the OPAQ-backed
:class:`~repro.apps.EquiDepthHistogram` on skewed data and reproduce the
introduction's claim quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.values import ingest_values
from repro.errors import ConfigError, EstimationError

__all__ = ["EquiWidthHistogram"]


@dataclass
class EquiWidthHistogram:
    """Fixed-grid equal-width histogram with streaming construction.

    Parameters
    ----------
    lo, hi:
        The value range the grid covers (values outside are clamped into
        the boundary cells, keeping counts exact and values coarse —
        the standard optimizer behaviour).
    cells:
        Number of equal-width buckets; the memory budget in counters.
    """

    lo: float
    hi: float
    cells: int

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ConfigError("need lo < hi")
        if self.cells < 1:
            raise ConfigError("need at least one cell")
        self._counts = np.zeros(self.cells, dtype=np.int64)
        self._width = (self.hi - self.lo) / self.cells
        self._n = 0

    @property
    def n(self) -> int:
        """Values absorbed so far."""
        return self._n

    @property
    def counts(self) -> np.ndarray:
        """Per-cell populations (copy)."""
        return self._counts.copy()

    def update(self, chunk: np.ndarray) -> None:
        """Absorb one chunk of values."""
        chunk = ingest_values(chunk, copy=False)
        if chunk.size == 0:
            return
        # Clamped before the cast: ±inf and huge values have no int64.
        idx = np.clip((chunk - self.lo) / self._width, 0, self.cells - 1).astype(np.int64)
        self._counts += np.bincount(idx, minlength=self.cells)
        self._n += chunk.size

    def _cum_at(self, value: float) -> float:
        """Estimated ``count(x <= value)`` under uniform-within-cell."""
        if value < self.lo:
            return 0.0
        if value >= self.hi:
            return float(self._n)
        position = (value - self.lo) / self._width
        cell = min(int(position), self.cells - 1)
        inside = position - cell
        before = float(self._counts[:cell].sum())
        return before + inside * float(self._counts[cell])

    def selectivity(self, lo: float, hi: float) -> float:
        """Point estimate of ``P(lo <= x <= hi)`` — no bounds available.

        This is the crucial asymmetry versus the OPAQ-backed equi-depth
        histogram: the equal-width estimate comes with no deterministic
        band, and under skew its error is unbounded.
        """
        if hi < lo:
            raise EstimationError("need lo <= hi")
        self._require_data()
        return max(0.0, (self._cum_at(hi) - self._cum_at(np.nextafter(lo, -np.inf)))) / self._n

    def quantile(self, phi: float) -> float:
        """Point estimate of the φ-quantile (uniform-within-cell)."""
        if not 0.0 < phi <= 1.0:
            raise EstimationError("phi must lie in (0, 1]")
        self._require_data()
        cum = np.cumsum(self._counts)
        target = phi * self._n
        cell = min(int(np.searchsorted(cum, target, side="left")), self.cells - 1)
        before = cum[cell] - self._counts[cell]
        inside = (
            (target - before) / self._counts[cell] if self._counts[cell] else 0.5
        )
        return self.lo + (cell + inside) * self._width

    def _require_data(self) -> None:
        if self._n == 0:
            raise EstimationError("no data absorbed yet")
