"""KLL as a portfolio engine: mergeable randomized sketch with bounds.

:class:`~repro.baselines.KLLSketch` is the repo's point-estimate
baseline; this module promotes it to a first-class engine.
:class:`KLLSummary` adds what the baseline lacks — exact extremes,
per-query *probabilistic* rank bounds, sketch merge, and versioned
serialisation (magic ``KLLSUM``) including the compactor RNG state, so a
spilled-and-restored sketch continues the exact random sequence it would
have produced in memory.

The guarantee model (documented in ``docs/portfolio.md``): the baseline's
empirical one-sigma rank error is ``sigma = 1.7*n/k``.  Compaction noise
is a sum of independent bounded terms, so the sub-gaussian tail bound
``P(|err| > z*sigma) <= delta`` with ``z = sqrt(2*ln(2/delta))`` gives a
one-sided rank band ``B = ceil(z * 1.7 * n / k)`` at the documented
``delta = 0.01``.  A bound query shifts the estimated rank by ``B`` in
each direction before reading the value, so each served enclosure holds
except with probability ``delta`` — and the summary-wide guarantee
``g = 2B + 2`` follows OPAQ's convention (true rank distance < ``g``).
An uncompacted sketch (single level) stores everything and serves exact
answers (``g = 1``).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.baselines.kll import KLLSketch
from repro.errors import ConfigError, EstimationError
from repro.portfolio.base import (
    ArchiveCodec,
    SketchEngine,
    target_ranks,
    validate_phis,
)

__all__ = ["KLLSummary", "KLLEngine"]

#: Empirical one-sigma coefficient of the baseline sketch (rank error
#: ``~1.7*n/k``; see :meth:`repro.baselines.KLLSketch.rank_error_estimate`).
SIGMA_COEFF = 1.7
#: Documented per-query failure probability of every served bound.
DELTA = 0.01
#: Two-sided sub-gaussian z-score for ``DELTA``: ``sqrt(2*ln(2/delta))``.
Z_SCORE = math.sqrt(2.0 * math.log(2.0 / DELTA))


class KLLSummary(ArchiveCodec, KLLSketch):
    """A KLL sketch with bounds, merge, extremes and serialisation."""

    name = "kll"
    guarantee_kind = "randomized"
    delta = DELTA

    FORMAT_MAGIC = "KLLSUM"
    FORMAT_VERSION = 1
    _SUPPORTED_FORMATS = (1,)

    def __init__(self, k: int = 200, seed: int = 0) -> None:
        super().__init__(k=k, seed=seed)
        self._compactions = 0
        self._min = math.inf
        self._max = -math.inf

    # -- ingest bookkeeping --------------------------------------------

    def _consume(self, chunk: np.ndarray) -> None:
        self._min = min(self._min, float(chunk.min()))
        self._max = max(self._max, float(chunk.max()))
        super()._consume(chunk)

    def _compact(self, level: int) -> None:
        super()._compact(level)
        self._compactions += 1

    @property
    def count(self) -> int:
        return self._n

    @property
    def compactions(self) -> int:
        return self._compactions

    @property
    def minimum(self) -> float:
        self._require_data()
        return self._min

    @property
    def maximum(self) -> float:
        self._require_data()
        return self._max

    def absorb(self, chunk: np.ndarray) -> None:
        self.update(chunk)

    # -- guarantees and bounds -----------------------------------------

    def rank_band(self) -> int:
        """One-sided rank band ``B = ceil(z * 1.7 * n / k)`` at ``delta``.

        Zero while the sketch has never compacted (one level: every item
        is still present at weight 1, answers are exact).
        """
        if self.num_levels == 1:
            return 0
        return int(math.ceil(Z_SCORE * SIGMA_COEFF * self._n / self.k))

    def guaranteed_rank_error(self) -> int:
        """``g = 2B + 2`` (distance < ``g`` w.p. ``1 - delta`` per query).

        Twice the band because a served *bound* is read ``B`` estimated
        ranks away from the target, and its own true rank may deviate by
        another ``B``.  Clipped to ``count`` — beyond that the claim is
        vacuous anyway.
        """
        band = self.rank_band()
        if band == 0:
            return 1
        return int(min(self._n, 2 * band + 2))

    def bounds_arrays(
        self, phis: np.ndarray | Sequence[float]
    ) -> tuple[np.ndarray, ...]:
        """Probabilistic enclosure per φ: values at estimated ranks
        ``psi -/+ B``, falling back to the exact extremes off either end."""
        self._require_data()
        fractions = validate_phis(phis)
        n = self._n
        psi = target_ranks(fractions, n)
        values, weights = self._weighted_items()
        cum = np.cumsum(weights)
        band = self.rank_band()

        # Lower: largest item whose estimated rank is <= psi - B, so its
        # true rank is <= psi w.p. 1 - delta (hence value <= e_psi even
        # under ties — any item at true rank <= psi is <= the value at
        # rank psi).  With band 0 and unit weights this serves the exact
        # quantile itself, keeping the g == 1 claim honest.  Off the end:
        # the exact minimum (always sound).
        lower_idx = np.searchsorted(cum, psi - band, side="right") - 1
        has_lower = lower_idx >= 0
        safe_lo = np.maximum(lower_idx, 0)
        lower = np.where(has_lower, values[safe_lo], self._min)
        max_below = np.where(
            has_lower,
            np.ceil(psi - cum[safe_lo] + band).astype(np.int64),
            psi - 1,
        )

        # Upper: smallest item whose estimated rank is >= psi + B, so its
        # true rank is >= psi w.p. 1 - delta (value >= e_psi).  Off the
        # end: the exact maximum.
        upper_idx = np.searchsorted(cum, psi + band, side="left")
        has_upper = upper_idx < values.size
        safe_hi = np.minimum(upper_idx, values.size - 1)
        upper = np.where(has_upper, values[safe_hi], self._max)
        max_above = np.where(
            has_upper,
            np.ceil(cum[safe_hi] + band - psi).astype(np.int64),
            n - psi,
        )

        max_below = np.maximum(0, np.minimum(max_below, psi - 1))
        max_above = np.maximum(0, np.minimum(max_above, n - psi))
        lower = np.minimum(lower, upper)
        return psi, lower, upper, max_below, max_above, fractions

    # -- merge ----------------------------------------------------------

    def merge(self, other: "KLLSummary") -> "KLLSummary":
        """Combine two sketches over disjoint data (same ``k`` required).

        Level-wise concatenation followed by the standard compaction
        sweep.  The merged sketch continues *this* operand's RNG stream,
        so the result is deterministic given the operands — but not
        independent of operand order (KLL merge is commutative in
        distribution, not bitwise; the conformance suite pins exactly
        this claim).
        """
        if not isinstance(other, KLLSummary):
            raise EstimationError("can only merge with another KLLSummary")
        if self.k != other.k:
            raise ConfigError(
                f"cannot merge KLL sketches with k={self.k} and "
                f"k={other.k}; equal-k merge is the mergeability contract"
            )
        out = KLLSummary(k=self.k, seed=0)
        out._rng.bit_generator.state = self._rng.bit_generator.state
        depth = max(len(self._levels), len(other._levels))
        out._levels = [[] for _ in range(depth)]
        out._sizes = [0] * depth
        for src in (self, other):
            for level, pieces in enumerate(src._levels):
                for piece in pieces:
                    out._levels[level].append(piece.copy())
                    out._sizes[level] += piece.size
        out._n = self._n + other._n
        out._min = min(self._min, other._min)
        out._max = max(self._max, other._max)
        out._compactions = self._compactions + other._compactions
        level = 0
        while level < len(out._levels):
            if out._sizes[level] > out._capacity(level):
                out._compact(level)
            level += 1
        return out

    # -- serialisation ---------------------------------------------------

    def _fields(self) -> tuple[dict[str, np.ndarray], dict[str, object]]:
        """Persisted state (magic ``KLLSUM``).

        Level payloads travel concatenated with per-level totals; the
        compactor RNG state rides in the JSON meta so a restored sketch
        draws the same random sequence it would have in memory.
        """
        self._require_data()
        level_sizes = np.array(self._sizes, dtype=np.int64)
        chunks = [
            piece for pieces in self._levels for piece in pieces
        ]
        level_data = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)
        )
        arrays = {"level_data": level_data, "level_sizes": level_sizes}
        meta = {
            "k": self.k,
            "count": self._n,
            "minimum": self._min,
            "maximum": self._max,
            "compactions": self._compactions,
            "rng": self._rng.bit_generator.state,
        }
        return arrays, meta

    @classmethod
    def _from_fields(
        cls, arrays: dict[str, np.ndarray], meta: dict
    ) -> "KLLSummary":
        out = cls(k=int(meta["k"]), seed=0)
        out._rng.bit_generator.state = meta["rng"]
        sizes = [int(s) for s in arrays["level_sizes"]]
        data = np.ascontiguousarray(arrays["level_data"], dtype=np.float64)
        out._levels = []
        out._sizes = []
        pos = 0
        for size in sizes:
            out._levels.append([data[pos : pos + size].copy()] if size else [])
            out._sizes.append(size)
            pos += size
        if not out._levels:
            out._levels, out._sizes = [[]], [0]
        out._n = int(meta["count"])
        out._min = float(meta["minimum"])
        out._max = float(meta["maximum"])
        out._compactions = int(meta["compactions"])
        return out


class KLLEngine(SketchEngine):
    """The KLL engine: randomized, mergeable, near-optimal space."""

    name = "kll"
    guarantee_kind = "randomized"
    summary_cls = KLLSummary

    def __init__(self, k: int = 200, seed: int = 0) -> None:
        self.k = k
        self.seed = seed

    def _new_summary(self) -> KLLSummary:
        return KLLSummary(k=self.k, seed=self.seed)

    @classmethod
    def for_budget(cls, budget: int, n_hint: int = 0) -> "KLLEngine":
        """Equal-memory construction: total resident items across the
        geometric compactor stack converge to ``~3k`` (ratio 2/3), so a
        budget of ``b`` float64 slots buys ``k = b // 3``."""
        return cls(k=max(8, budget // 3))

    @classmethod
    def key_state(
        cls, epsilon: float, max_samples: int, seed: int = 0
    ) -> KLLSummary:
        """Registry per-key state tuned so the served guarantee meets the
        key's epsilon contract ``g - 1 <= eps*n``.

        ``g = 2*ceil(z*1.7*n/k) + 2`` asymptotically needs only
        ``k >= 2*z*1.7/eps``, but the ceil/+2 constants can breach the
        contract by a couple of ranks right where compaction first kicks
        in (``n`` slightly above ``k``).  Sizing at ``k = 3*z*1.7/eps``
        leaves a third of the budget to absorb those constants: the
        sketch is exact until ``n > k``, and for every larger ``n`` the
        slack ``eps*n - (2*(z*1.7*n/k + 1) + 1) = eps*n/3 - 3`` is
        positive (``eps*n > 3*z*1.7 > 9`` there)."""
        k = max(8, int(math.ceil(3.0 * Z_SCORE * SIGMA_COEFF / epsilon)) + 1)
        return KLLSummary(k=k, seed=seed)

    @classmethod
    def restored_key_state(
        cls,
        loaded: KLLSummary,
        compactions: int,
        *,
        epsilon: float,
        max_samples: int,
    ) -> KLLSummary:
        """A restored sketch carries its whole state (RNG included)."""
        return loaded
