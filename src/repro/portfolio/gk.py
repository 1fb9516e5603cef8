"""GK01 as a portfolio engine: deterministic bounds from the tuple bands.

:class:`~repro.baselines.GreenwaldKhanna` is the repo's point-estimate
baseline; :class:`GKSummary` promotes it with per-query deterministic
bounds, a one-shot merge, and versioned serialisation (magic ``GKSUM``).

The bound derivation works straight off the tuple invariant.  With
``rmin = cumsum(g)`` and ``rmax = rmin + delta``, tuple ``i``'s value has
true rank (count of elements at or below it) inside ``[rmin_i, rmax_i]``.
For target rank ``psi``:

* **lower** — the largest tuple with ``rmax < psi``: at most ``psi - 1``
  elements sit at or below it, so its value is at most ``e_psi`` under
  any duplication (the same tie-safety argument the OPAQ quantile phase
  makes).  Its rank distance is ``psi - rmin_i <= max(g + delta)``.
* **upper** — the smallest tuple with ``rmin >= psi``: at least ``psi``
  elements sit at or below it, so its value is at least ``e_psi``.  Its
  distance is ``rmax_j - psi < max(g + delta)``.

The summary-wide guarantee is therefore ``g = max_i(g_i + delta_i) + 1``
(distance < ``g``), computed from the *actual* tuple state — it stays
honest whatever ingest or merge history produced the tuples, rather than
trusting the ``2*eps*n`` bookkeeping invariant.  The first and last
tuples hold the exact extremes (inserts beyond either end carry
``delta = 0``), so extreme quantiles get finite bounds for free.  Below
~``1/eps`` elements the compress pass never fires and the tuple list is
the sorted data itself (every ``g == 1``, ``delta == 0``); that state
serves the exact order statistic with ``g == 1``, as OPAQ and KLL do for
their uncompacted state.

Merge is one-shot: values interleave and each side's rank band is
widened by its rank interval in the *other* summary (predecessor
``rmin``, successor ``rmax - 1``).  That construction is exact but the
compress pass afterwards works against the summed epsilon — repeated
pairwise merging degrades ``eps`` additively, which is why the
multi-tenant registry feeds GK keys by streaming ``absorb``, never by
merge trees.  (KLL is the engine whose merge does not decay.)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.gk01 import GreenwaldKhanna
from repro.errors import EstimationError
from repro.portfolio.base import (
    ArchiveCodec,
    SketchEngine,
    target_ranks,
    validate_phis,
)

__all__ = ["GKSummary", "GKEngine"]


class GKSummary(ArchiveCodec, GreenwaldKhanna):
    """A GK01 sketch with bounds, merge, extremes and serialisation."""

    name = "gk"
    guarantee_kind = "deterministic"

    FORMAT_MAGIC = "GKSUM"
    FORMAT_VERSION = 1
    _SUPPORTED_FORMATS = (1,)

    def __init__(self, epsilon: float = 0.01) -> None:
        super().__init__(epsilon=epsilon)
        self._compactions = 0

    # -- ingest bookkeeping --------------------------------------------

    def _compress(self, cap: int) -> None:
        before = self._v.size
        super()._compress(cap)
        if self._v.size < before:
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
        return float(self._v[0])

    @property
    def maximum(self) -> float:
        self._require_data()
        return float(self._v[-1])

    def absorb(self, chunk: np.ndarray) -> None:
        self.update(chunk)

    # -- guarantees and bounds -----------------------------------------

    def _holds_the_data(self) -> bool:
        """True while the tuple list is the data itself: one tuple per
        element, every ``g == 1`` and every ``delta == 0`` (a key below
        ~``1/eps`` elements never compresses)."""
        return (
            self._v.size == self._n
            and not self._d.any()
            and bool((self._g == 1).all())
        )

    def guaranteed_rank_error(self) -> int:
        """``max_i(g_i + delta_i) + 1``: deterministic, from actual state;
        ``1`` (exact) while the tuples are the data itself."""
        if self._v.size == 0 or self._holds_the_data():
            return 1
        return int(np.max(self._g + self._d)) + 1

    def bounds_arrays(
        self, phis: np.ndarray | Sequence[float]
    ) -> tuple[np.ndarray, ...]:
        """Deterministic enclosure per φ from the tuple rank bands."""
        self._require_data()
        fractions = validate_phis(phis)
        n = self._n
        psi = target_ranks(fractions, n)
        if self._holds_the_data():
            # Uncompressed: tuple psi - 1 is the element of rank psi.
            exact = self._v[psi - 1]
            zeros = np.zeros(psi.size, dtype=np.int64)
            return psi, exact, exact.copy(), zeros, zeros.copy(), fractions
        rmin = np.cumsum(self._g)
        # Monotone envelope: merged summaries can carry locally loose
        # rmax values; the running max is still a valid upper bound for
        # every later (larger) value and restores sortedness for the
        # binary search.
        rmax = np.maximum.accumulate(rmin + self._d)

        lower_idx = np.searchsorted(rmax, psi, side="left") - 1
        has_lower = lower_idx >= 0
        safe_lo = np.maximum(lower_idx, 0)
        lower = np.where(has_lower, self._v[safe_lo], self._v[0])
        max_below = np.where(has_lower, psi - rmin[safe_lo], psi - 1)

        upper_idx = np.minimum(
            np.searchsorted(rmin, psi, side="left"), self._v.size - 1
        )
        upper = self._v[upper_idx]
        max_above = rmax[upper_idx] - psi

        max_below = np.maximum(0, np.minimum(max_below, psi - 1))
        max_above = np.maximum(0, np.minimum(max_above, n - psi))
        lower = np.minimum(lower, upper)
        return psi, lower, upper, max_below, max_above, fractions

    # -- merge ----------------------------------------------------------

    def _copy(self) -> "GKSummary":
        out = GKSummary(epsilon=self.epsilon)
        out._v = self._v.copy()
        out._g = self._g.copy()
        out._d = self._d.copy()
        out._n = self._n
        out._compactions = self._compactions
        return out

    def merge(self, other: "GKSummary") -> "GKSummary":
        """One-shot merge over disjoint data.

        Deterministic (no randomness) but **not** commutative bitwise:
        the compress pass walks the interleaved tuples left to right, so
        ``a.merge(b)`` and ``b.merge(a)`` may retain different tuples —
        both within the summed-epsilon bound.  The merged epsilon is
        ``eps_a + eps_b`` (the additive decay of one-shot GK merging).
        """
        if not isinstance(other, GKSummary):
            raise EstimationError("can only merge with another GKSummary")
        if other._n == 0:
            return self._copy()
        if self._n == 0:
            out = other._copy()
            out.epsilon = self.epsilon
            return out

        def banded(
            values: np.ndarray,
            rmin_own: np.ndarray,
            rmax_own: np.ndarray,
            v_other: np.ndarray,
            rmin_other: np.ndarray,
            rmax_other: np.ndarray,
            n_other: int,
        ) -> tuple[np.ndarray, np.ndarray]:
            """Widen one side's rank bands by its interval in the other:
            at least the predecessor's ``rmin`` of the other summary sits
            at or below each value, at most ``rmax - 1`` of the strict
            successor does."""
            pred = np.searchsorted(v_other, values, side="right") - 1
            lo = np.where(pred >= 0, rmin_other[np.maximum(pred, 0)], 0)
            succ = np.searchsorted(v_other, values, side="right")
            has_succ = succ < v_other.size
            hi = np.where(
                has_succ,
                rmax_other[np.minimum(succ, v_other.size - 1)] - 1,
                n_other,
            )
            return rmin_own + lo, rmax_own + hi

        rmin_a = np.cumsum(self._g)
        rmax_a = rmin_a + self._d
        rmin_b = np.cumsum(other._g)
        rmax_b = rmin_b + other._d
        lo_a, hi_a = banded(
            self._v, rmin_a, rmax_a, other._v, rmin_b, rmax_b, other._n
        )
        lo_b, hi_b = banded(
            other._v, rmin_b, rmax_b, self._v, rmin_a, rmax_a, self._n
        )
        values = np.concatenate([self._v, other._v])
        rmin = np.concatenate([lo_a, lo_b])
        rmax = np.concatenate([hi_a, hi_b])
        order = np.argsort(values, kind="stable")
        values, rmin, rmax = values[order], rmin[order], rmax[order]
        # Ranks are non-decreasing in value, so the running max of the
        # lower bounds (and its envelope on the upper bounds) tightens
        # without losing soundness; it also guarantees g >= 0.
        rmin = np.maximum.accumulate(rmin)
        rmax = np.maximum(rmax, rmin)

        out = GKSummary(epsilon=min(0.499, self.epsilon + other.epsilon))
        out._v = values
        out._g = np.diff(rmin, prepend=0)
        out._d = rmax - rmin
        out._n = self._n + other._n
        out._compactions = self._compactions + other._compactions
        out._compress(max(1, int(2 * out.epsilon * out._n)))
        return out

    # -- serialisation ---------------------------------------------------

    def _fields(self) -> tuple[dict[str, np.ndarray], dict[str, object]]:
        """Persisted state (magic ``GKSUM``): the tuple arrays."""
        self._require_data()
        arrays = {"v": self._v, "g": self._g, "d": self._d}
        meta = {
            "epsilon": self.epsilon,
            "count": self._n,
            "compactions": self._compactions,
        }
        return arrays, meta

    @classmethod
    def _from_fields(
        cls, arrays: dict[str, np.ndarray], meta: dict
    ) -> "GKSummary":
        out = cls(epsilon=float(meta["epsilon"]))
        out._v = np.ascontiguousarray(arrays["v"], dtype=np.float64)
        out._g = np.ascontiguousarray(arrays["g"], dtype=np.int64)
        out._d = np.ascontiguousarray(arrays["d"], dtype=np.int64)
        out._n = int(meta["count"])
        out._compactions = int(meta["compactions"])
        return out


class GKEngine(SketchEngine):
    """The GK engine: deterministic ``eps*n`` bounds, adaptive memory."""

    name = "gk"
    guarantee_kind = "deterministic"
    summary_cls = GKSummary

    #: Empirical steady-state tuple count of the batched implementation
    #: is ``~C/eps`` (the compress cap is ``2*eps*n`` and folded gaps
    #: settle near half of it); ``C = 2.5`` is the conservative end the
    #: equal-memory benchmark verifies against its budget.
    TUPLES_PER_INV_EPS = 2.5

    def __init__(self, epsilon: float = 0.01) -> None:
        self.epsilon = epsilon

    def _new_summary(self) -> GKSummary:
        return GKSummary(epsilon=self.epsilon)

    @classmethod
    def for_budget(cls, budget: int, n_hint: int = 0) -> "GKEngine":
        """Equal-memory construction: a tuple costs 3 slots, so a budget
        of ``b`` slots supports ``~b/3`` tuples, i.e.
        ``eps = C / (b/3)``."""
        tuples = max(8, budget // 3)
        return cls(epsilon=min(0.4, max(1e-9, cls.TUPLES_PER_INV_EPS / tuples)))

    @classmethod
    def key_state(
        cls, epsilon: float, max_samples: int, seed: int = 0
    ) -> GKSummary:
        """Registry per-key state: the served guarantee is
        ``max(g + delta) + 1 <= 2*eps_gk*n + 1``, so running GK at half
        the contract epsilon keeps ``g - 1 <= eps*n`` deterministically."""
        return GKSummary(epsilon=epsilon / 2.0)

    @classmethod
    def restored_key_state(
        cls,
        loaded: GKSummary,
        compactions: int,
        *,
        epsilon: float,
        max_samples: int,
    ) -> GKSummary:
        """A restored GK summary carries its whole state."""
        return loaded
