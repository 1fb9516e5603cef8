"""Greenwald-Khanna ε-approximate quantile summary (SIGMOD 2001).

Published four years *after* OPAQ, GK is the sketch that superseded this
line of work: a one-pass summary of ``O((1/ε)·log(εn))`` tuples answering
any quantile within ``±εn`` ranks deterministically.  It is included as the
modern reference point for the ablation benchmarks (OPAQ's guarantee
``n/s`` with ``r·s`` memory versus GK's ``εn`` with adaptive memory).

Implementation: the classic tuple list ``(v, g, Δ)`` where ``g`` is the
rank gap to the previous tuple and ``Δ`` the extra rank uncertainty.
Inserts keep the list sorted; a periodic compress merges tuples whose
combined span stays under ``2εn``.  Batched insertion (merge-sort a whole
chunk at once) keeps the Python overhead tolerable at the scales the
benchmarks use.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import StreamingQuantileEstimator
from repro.errors import ConfigError

__all__ = ["GreenwaldKhanna"]


class GreenwaldKhanna(StreamingQuantileEstimator):
    """GK01 sketch: deterministic ``±εn`` rank error in one pass."""

    name = "gk01"

    def __init__(self, epsilon: float = 0.001) -> None:
        super().__init__()
        if not 0.0 < epsilon < 0.5:
            raise ConfigError("epsilon must lie in (0, 0.5)")
        self.epsilon = epsilon
        # Parallel arrays: values, g (rank gaps), delta.
        self._v = np.empty(0, dtype=np.float64)
        self._g = np.empty(0, dtype=np.int64)
        self._d = np.empty(0, dtype=np.int64)

    @property
    def memory_footprint(self) -> int:
        return 3 * self._v.size

    @property
    def tuples(self) -> int:
        """Current number of summary tuples."""
        return int(self._v.size)

    def _consume(self, chunk: np.ndarray) -> None:
        chunk = np.sort(chunk)
        n_after = self._n + chunk.size
        cap = max(1, int(2 * self.epsilon * n_after))
        # Batched insert: each new element becomes a tuple with g=1 and
        # delta inherited from its successor's rank band (g_succ + d_succ
        # - 1, the tight choice that keeps tuples compressible), or 0 when
        # it lands beyond either extreme — there its rank is known exactly
        # because the extreme tuples carry no uncertainty.
        pos = np.searchsorted(self._v, chunk, side="right")
        if self._v.size:
            succ = np.clip(pos, 0, self._v.size - 1)
            delta_new = self._g[succ] + self._d[succ] - 1
            delta_new[pos == 0] = 0
            delta_new[pos == self._v.size] = 0
            np.clip(delta_new, 0, max(0, cap - 1), out=delta_new)
        else:
            delta_new = np.zeros(chunk.size, dtype=np.int64)
        # Merge the two sorted tuple sequences.
        total = self._v.size + chunk.size
        v = np.empty(total, dtype=np.float64)
        g = np.empty(total, dtype=np.int64)
        d = np.empty(total, dtype=np.int64)
        mask = np.zeros(total, dtype=bool)
        mask[pos + np.arange(chunk.size)] = True
        v[mask], g[mask], d[mask] = chunk, 1, delta_new
        v[~mask], g[~mask], d[~mask] = self._v, self._g, self._d
        self._v, self._g, self._d = v, g, d
        self._compress(cap)

    def _compress(self, cap: int) -> None:
        """Fold each tuple into its successor while the combined band
        ``g_i + g_{i+1} + Δ_{i+1}`` (plus what was already folded) stays
        within ``cap``.

        The greedy scan reads plain Python lists: indexing numpy scalars
        one tuple at a time costs about four times as much.
        """
        if self._v.size <= 2:
            return
        g = self._g.tolist()
        d = self._d.tolist()
        last = len(g) - 1
        keep = [0]
        keep_g = [g[0]]
        acc_g = 0
        for i in range(1, last):
            if acc_g + g[i] + g[i + 1] + d[i + 1] <= cap:
                acc_g += g[i]  # fold tuple i into its successor
            else:
                keep.append(i)
                keep_g.append(acc_g + g[i])
                acc_g = 0
        keep.append(last)
        keep_g.append(acc_g + g[last])
        self._v = self._v[keep]
        self._g = np.array(keep_g, dtype=np.int64)
        self._d = self._d[keep]

    def rank_error_bound(self) -> float:
        """The deterministic guarantee: ``±εn`` ranks."""
        return self.epsilon * self._n

    def query(self, phi: float) -> float:
        self._require_data()
        target = max(1, int(np.ceil(phi * self._n)))
        bound = int(np.ceil(self.epsilon * self._n))
        rmin = np.cumsum(self._g)
        rmax = rmin + self._d
        # A tuple is a valid answer when its whole rank band lies within
        # target +/- bound; the GK invariant (g_i + d_i <= 2*eps*n)
        # guarantees at least one valid tuple exists.
        valid = np.flatnonzero((rmin >= target - bound) & (rmax <= target + bound))
        if valid.size:
            centre = 0.5 * (rmin[valid] + rmax[valid])
            return float(self._v[valid[np.argmin(np.abs(centre - target))]])
        # Defensive fallback (cannot happen while the invariant holds):
        # smallest band-centre distance.
        centre = 0.5 * (rmin + rmax)
        return float(self._v[int(np.argmin(np.abs(centre - target)))])
