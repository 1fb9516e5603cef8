"""KLL (Karnin, Lang & Liberty 2016): the randomized, mergeable engine.

KLL is near-optimal in space — ``O((1/ε)·sqrt(log(1/ε)))`` items for an
``εn`` rank guarantee *with constant probability* (contrast OPAQ's
deterministic ``n/s`` with ``r·s`` keys, and GK's deterministic ``εn``).
Structure: a stack of compactors.  Level ``h`` holds items of weight
``2^h``; when a level overflows its capacity (``k·c^(depth-h)``,
geometric decay ``c = 2/3``), it sorts itself and promotes every other
item (random even/odd choice) to the level above.

:class:`KLLSummary` is the sketch and its summary in one: exact
extremes, per-query *probabilistic* rank bounds, sketch merge, and
versioned serialisation (magic ``KLLSUM``) including the compactor RNG
state, so a spilled-and-restored sketch continues the exact random
sequence it would have produced in memory.

The guarantee model (documented in ``docs/portfolio.md``): the sketch's
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

from repro.errors import ConfigError, EstimationError
from repro.portfolio.base import (
    SketchEngine,
    SketchSummary,
    target_ranks,
    validate_phis,
)
from repro.portfolio.raw import RawKeyState

__all__ = ["KLLSummary", "KLLEngine"]

#: Empirical one-sigma rank-error coefficient of the sketch: rank error
#: is ``~1.7*n/k``.
SIGMA_COEFF = 1.7
#: Documented per-query failure probability of every served bound.
DELTA = 0.01
#: Two-sided sub-gaussian z-score for ``DELTA``: ``sqrt(2*ln(2/delta))``.
Z_SCORE = math.sqrt(2.0 * math.log(2.0 / DELTA))
#: Geometric capacity decay from the top compactor down.
_DECAY = 2.0 / 3.0


class KLLSummary(SketchSummary):
    """KLL quantile sketch with bounds, merge, extremes and serialisation.

    Parameters
    ----------
    k:
        Capacity of the top compactor — the accuracy knob.  Rank error is
        ``O(n/k)`` with high probability.
    seed:
        Seed for the (essential) compaction randomness.
    """

    name = "kll"
    guarantee_kind = "randomized"
    delta = DELTA

    FORMAT_MAGIC = "KLLSUM"
    FORMAT_VERSION = 1
    _SUPPORTED_FORMATS = (1,)

    def __init__(self, k: int = 200, seed: int = 0) -> None:
        super().__init__()
        if k < 8:
            raise ConfigError("k must be at least 8")
        self.k = k
        self._rng = np.random.default_rng(seed)
        self._levels: list[list[np.ndarray]] = [[]]
        self._sizes: list[int] = [0]

    # -- the compactor stack -------------------------------------------

    def _capacity(self, level: int) -> int:
        depth = len(self._levels) - 1
        return max(8, int(self.k * _DECAY ** (depth - level)))

    def _compact(self, level: int) -> None:
        items = np.sort(np.concatenate(self._levels[level]))
        leftover = None
        if items.size % 2:
            # An odd item cannot pair up; it stays at this level so the
            # total represented weight is conserved exactly.
            leftover = items[-1:]
            items = items[:-1]
        keep_odd = bool(self._rng.integers(0, 2))
        promoted = items[1::2] if keep_odd else items[0::2]
        self._levels[level] = [] if leftover is None else [leftover]
        self._sizes[level] = 0 if leftover is None else 1
        if level + 1 == len(self._levels):
            self._levels.append([])
            self._sizes.append(0)
        self._levels[level + 1].append(promoted)
        self._sizes[level + 1] += promoted.size
        self._compactions += 1

    def _compact_overflowing(self) -> None:
        """One bottom-up sweep compacting every level over capacity."""
        level = 0
        while level < len(self._levels):
            if self._sizes[level] > self._capacity(level):
                self._compact(level)
            level += 1

    def _consume(self, chunk: np.ndarray) -> None:
        self._track_extremes(chunk)
        self._levels[0].append(chunk)
        self._sizes[0] += chunk.size
        self._compact_overflowing()

    @property
    def memory_footprint(self) -> int:
        return sum(self._sizes)

    @property
    def num_levels(self) -> int:
        return len(self._levels)

    def _weighted_items(self) -> tuple[np.ndarray, np.ndarray]:
        values = []
        weights = []
        for h, pieces in enumerate(self._levels):
            if not pieces:
                continue
            v = np.concatenate(pieces)
            values.append(v)
            weights.append(np.full(v.size, 2.0**h))
        v = np.concatenate(values)
        w = np.concatenate(weights)
        order = np.argsort(v, kind="stable")
        return v[order], w[order]

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

    def merge(self, other: SketchSummary) -> "KLLSummary":
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
        out._compact_overflowing()
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
    def raw_limit(cls, epsilon: float, max_samples: int) -> int:
        """Level 0's capacity ``k``: a one-level sketch compacts past it."""
        return cls.key_state(epsilon, max_samples).k

    @classmethod
    def key_state_from_raw(
        cls, raw: RawKeyState, epsilon: float, max_samples: int, seed: int = 0
    ) -> KLLSummary:
        """A one-level sketch holding the values, its RNG not yet drawn."""
        state = cls.key_state(epsilon, max_samples, seed)
        state._levels[0].append(raw.values)
        state._sizes[0] = state._n = raw.values.size
        state._min, state._max = raw.minimum, raw.maximum
        return state
