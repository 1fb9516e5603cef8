"""AS95 as a portfolio engine: the honest no-guarantee reference point.

The paper's motivating baseline ([AS95] adaptive intervals) "does not
provide an upper bound of the error rate" — and the portfolio keeps that
property visible instead of papering over it.  :class:`IntervalSummary`
answers the shared ``bounds_arrays`` surface with a **degenerate
enclosure**: ``lower == upper`` is the interpolated point estimate, and
``max_below``/``max_above`` are the vacuous clamps (``psi - 1`` and
``n - psi``) that say "the truth may be anywhere".  Correspondingly
``guaranteed_rank_error()`` is ``count`` (``guarantee_kind = "none"``),
so every consumer that checks "distance < guarantee" remains formally
correct while learning nothing — which is exactly AS95's contract.

Two honest exceptions: while the first buffer is still pending (the
structure is unseeded) answers are exact, and the tracked extremes are
always exact.  The summary is not mergeable — splitting/merging interval
histograms with drifted boundaries has no error story at all — and
:meth:`merge` says so with a typed error.

Serialisation (magic ``AS95SUM``) persists boundaries, counts and any
pending seed buffer, so a spilled key resumes exactly where it left off.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.baselines.as95 import AdaptiveIntervalEstimator
from repro.errors import EstimationError
from repro.portfolio.base import (
    ArchiveCodec,
    SketchEngine,
    target_ranks,
    validate_phis,
)

__all__ = ["IntervalSummary", "AS95Engine"]


class IntervalSummary(ArchiveCodec, AdaptiveIntervalEstimator):
    """An AS95 interval histogram with the portfolio summary surface."""

    name = "as95"
    guarantee_kind = "none"

    FORMAT_MAGIC = "AS95SUM"
    FORMAT_VERSION = 1
    _SUPPORTED_FORMATS = (1,)

    def __init__(self, intervals: int = 64, split_factor: float = 2.0) -> None:
        super().__init__(intervals=intervals, split_factor=split_factor)
        self._compactions = 0
        self._min = math.inf
        self._max = -math.inf

    # -- ingest bookkeeping --------------------------------------------

    def _consume(self, chunk: np.ndarray) -> None:
        self._min = min(self._min, float(chunk.min()))
        self._max = max(self._max, float(chunk.max()))
        super()._consume(chunk)

    @property
    def count(self) -> int:
        return self._n

    @property
    def compactions(self) -> int:
        """Always 0: AS95 has no discrete lossy events to count — the
        whole structure is lossy from the first split onward."""
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

    def guaranteed_rank_error(self) -> int:
        """``count`` — the vacuous guarantee (no error bound exists).

        Exception: while everything is still in the unseeded buffer the
        answers are exact, and the summary says so (``1``).
        """
        self._require_data()
        if self._bounds is None:
            return 1
        return self._n

    def bounds_arrays(
        self, phis: np.ndarray | Sequence[float]
    ) -> tuple[np.ndarray, ...]:
        """Degenerate enclosure: the point estimate with vacuous bands."""
        self._require_data()
        fractions = validate_phis(phis)
        n = self._n
        psi = target_ranks(fractions, n)
        if self._bounds is None:
            data = np.sort(np.concatenate(self._pending))
            estimate = data[psi - 1]
            zeros = np.zeros(psi.size, dtype=np.int64)
            return psi, estimate.copy(), estimate.copy(), zeros, zeros.copy(), fractions
        counts = self._counts
        cum = np.cumsum(counts)
        target = fractions * cum[-1]
        cell = np.minimum(
            np.searchsorted(cum, target, side="left"), counts.size - 1
        )
        before = cum[cell] - counts[cell]
        inside = np.where(
            counts[cell] > 0,
            (target - before) / np.maximum(counts[cell], 1e-300),
            0.5,
        )
        left = self._bounds[cell]
        right = self._bounds[cell + 1]
        estimate = np.clip(left + inside * (right - left), self._min, self._max)
        max_below = psi - 1
        max_above = n - psi
        return psi, estimate, estimate.copy(), max_below, max_above, fractions

    # -- merge ----------------------------------------------------------

    def merge(self, other: "IntervalSummary") -> "IntervalSummary":
        raise EstimationError(
            "as95 summaries are not mergeable: interval histograms with "
            "independently drifted boundaries have no sound combination "
            "(pick kll for a mergeable sketch or opaq/gk for merge with "
            "deterministic bounds)"
        )

    # -- serialisation ---------------------------------------------------

    def _fields(self) -> tuple[dict[str, np.ndarray], dict[str, object]]:
        """Persisted state (magic ``AS95SUM``)."""
        self._require_data()
        seeded = self._bounds is not None
        empty = np.empty(0, dtype=np.float64)
        pending = (
            np.concatenate(self._pending) if self._pending else empty
        )
        arrays = {
            "bounds": self._bounds if seeded else empty,
            "counts": self._counts if seeded else empty,
            "pending": pending,
        }
        meta = {
            "intervals": self.intervals,
            "split_factor": self.split_factor,
            "count": self._n,
            "minimum": self._min,
            "maximum": self._max,
            "seeded": seeded,
        }
        return arrays, meta

    @classmethod
    def _from_fields(
        cls, arrays: dict[str, np.ndarray], meta: dict
    ) -> "IntervalSummary":
        """The pending buffer reloads as one chunk; seeding sorts the
        concatenation either way, so resumed ingest behaves identically."""
        out = cls(
            intervals=int(meta["intervals"]),
            split_factor=float(meta["split_factor"]),
        )
        if bool(meta["seeded"]):
            out._bounds = np.ascontiguousarray(
                arrays["bounds"], dtype=np.float64
            )
            out._counts = np.ascontiguousarray(
                arrays["counts"], dtype=np.float64
            )
        pending = np.ascontiguousarray(arrays["pending"], dtype=np.float64)
        if pending.size:
            out._pending = [pending]
            out._pending_size = int(pending.size)
        out._n = int(meta["count"])
        out._min = float(meta["minimum"])
        out._max = float(meta["maximum"])
        return out


class AS95Engine(SketchEngine):
    """The AS95 engine: smallest state, point estimates, no guarantee."""

    name = "as95"
    guarantee_kind = "none"
    summary_cls = IntervalSummary

    def __init__(self, intervals: int = 64, split_factor: float = 2.0) -> None:
        self.intervals = intervals
        self.split_factor = split_factor

    def _new_summary(self) -> IntervalSummary:
        return IntervalSummary(
            intervals=self.intervals, split_factor=self.split_factor
        )

    @classmethod
    def for_budget(cls, budget: int, n_hint: int = 0) -> "AS95Engine":
        """Equal-memory construction: an interval costs ~2 slots (a
        boundary and a count), the paper's own accounting."""
        return cls(intervals=max(4, (budget - 1) // 2))

    @classmethod
    def key_state(
        cls, epsilon: float, max_samples: int, seed: int = 0
    ) -> IntervalSummary:
        """Registry per-key state: intervals sized to the key's sample
        target (2 slots each vs OPAQ's 3 per sample).  The epsilon
        contract is *not* honoured — AS95 has no error bound; the served
        guarantee says so."""
        return IntervalSummary(intervals=max(4, max_samples))

    @classmethod
    def restored_key_state(
        cls,
        loaded: IntervalSummary,
        compactions: int,
        *,
        epsilon: float,
        max_samples: int,
    ) -> IntervalSummary:
        """A restored interval summary carries its whole state."""
        return loaded
