"""The one-pass interval algorithm of Agrawal & Swami ([AS95]).

The paper describes it as: "The algorithm partitions the range of the
values into k intervals and counts the values in each interval.  The
boundaries of intervals are determined on-the-fly and are continuously
adjusted as data is read from disk."  Its limitation — the reason OPAQ
exists — is that "it does not provide an upper bound of the error rate."

:class:`IntervalSummary` follows that published description:

* the first buffer of data seeds ``k`` equi-depth interval boundaries;
* subsequent values increment the count of the interval they fall in;
* values outside the current range extend the extreme intervals;
* whenever one interval's count grows past ``split_factor`` times the
  average, it is split at its midpoint (counts halved — the on-the-fly
  adjustment that keeps intervals balanced without a second pass) and the
  pair of adjacent intervals with the smallest combined count is merged to
  keep the memory constant;
* a quantile is answered by linear interpolation inside the interval that
  contains the target rank.

The interpolation step is where the distribution dependence (and hence
the unbounded error) comes from: inside an interval the value mass is
assumed uniform, which skewed or duplicate-heavy data violates.

As a portfolio engine it keeps that property visible instead of
papering over it.  :class:`IntervalSummary` answers the shared
``bounds_arrays`` surface with a **degenerate enclosure**: ``lower == upper`` is the interpolated point estimate, and
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

__all__ = ["IntervalSummary", "AS95Engine"]


class IntervalSummary(SketchSummary):
    """Adaptive equi-depth interval counts ([AS95]) with the portfolio
    summary surface.

    Parameters
    ----------
    intervals:
        ``k`` — the number of intervals.  Memory is ~2 keys per interval
        (a boundary and a count), so an equal-memory comparison against
        OPAQ with ``r*s`` samples uses ``k = r*s / 2``.
    split_factor:
        An interval is split when its count exceeds ``split_factor``
        times the average interval count.

    ``compactions`` stays 0: AS95 has no discrete lossy events to count —
    the whole structure is lossy from the first split onward.
    """

    name = "as95"
    guarantee_kind = "none"

    FORMAT_MAGIC = "AS95SUM"
    FORMAT_VERSION = 1
    _SUPPORTED_FORMATS = (1,)

    def __init__(self, intervals: int = 64, split_factor: float = 2.0) -> None:
        super().__init__()
        if intervals < 4:
            raise ConfigError("need at least 4 intervals")
        if split_factor <= 1.0:
            raise ConfigError("split_factor must exceed 1")
        self.intervals = intervals
        self.split_factor = split_factor
        self._bounds: np.ndarray | None = None  # k+1 boundaries
        self._counts: np.ndarray | None = None  # k counts
        self._pending: list[np.ndarray] = []
        self._pending_size = 0

    @property
    def memory_footprint(self) -> int:
        return 2 * self.intervals + 1

    # -- the interval histogram ----------------------------------------

    def _seed(self) -> None:
        """Build the initial boundaries from the buffered first chunk."""
        first = np.sort(np.concatenate(self._pending))
        self._pending.clear()
        k = self.intervals
        # Equi-depth seed boundaries from the first buffer's quantiles.
        grid = np.linspace(0, first.size - 1, k + 1).astype(np.int64)
        bounds = first[grid].astype(np.float64)
        # De-duplicate collapsed boundaries (heavy ties in the first chunk)
        # by nudging with the smallest representable step.
        for i in range(1, bounds.size):
            if bounds[i] <= bounds[i - 1]:
                bounds[i] = np.nextafter(bounds[i - 1], np.inf)
        self._bounds = bounds
        self._counts = np.zeros(k, dtype=np.float64)
        self._ingest(first)

    def _ingest(self, chunk: np.ndarray) -> None:
        bounds, counts = self._bounds, self._counts
        lo, hi = chunk.min(), chunk.max()
        if lo < bounds[0]:
            bounds[0] = lo
        if hi > bounds[-1]:
            bounds[-1] = hi
        idx = np.clip(np.searchsorted(bounds, chunk, side="right") - 1, 0, counts.size - 1)
        counts += np.bincount(idx, minlength=counts.size)
        self._rebalance()

    def _rebalance(self) -> None:
        bounds, counts = self._bounds, self._counts
        total = counts.sum()
        if total <= 0:
            return
        limit = self.split_factor * total / counts.size
        # Split the heaviest offender; pay for it by merging the lightest
        # adjacent pair.  A few iterations per chunk keep things balanced.
        for _ in range(8):
            heavy = int(np.argmax(counts))
            if counts[heavy] <= limit:
                break
            pair_sums = counts[:-1] + counts[1:]
            # Do not merge into the interval being split.
            pair_sums = pair_sums.copy()
            for j in (heavy - 1, heavy):
                if 0 <= j < pair_sums.size:
                    pair_sums[j] = np.inf
            light = int(np.argmin(pair_sums))
            if not np.isfinite(pair_sums[light]):
                break
            mid = 0.5 * (bounds[heavy] + bounds[heavy + 1])
            if not bounds[heavy] < mid < bounds[heavy + 1]:
                break  # interval too narrow to split (ties)
            new_bounds = np.delete(bounds, light + 1)
            new_counts = counts.copy()
            new_counts[light] += new_counts[light + 1]
            new_counts = np.delete(new_counts, light + 1)
            # Indices shift after the merge when the split point is later.
            h = heavy if heavy < light else heavy - 1
            new_bounds = np.insert(new_bounds, h + 1, mid)
            half = new_counts[h] / 2.0
            new_counts[h] = half
            new_counts = np.insert(new_counts, h + 1, half)
            self._bounds = bounds = new_bounds
            self._counts = counts = new_counts

    def _consume(self, chunk: np.ndarray) -> None:
        self._track_extremes(chunk)
        if self._bounds is None:
            self._pending.append(chunk.copy())
            self._pending_size += chunk.size
            # Seed once we have enough to draw k meaningful boundaries.
            if self._pending_size >= 4 * self.intervals:
                self._seed()
            return
        self._ingest(chunk)

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
        # An infinite end (data holding ±inf) leaves nothing to
        # interpolate: such a cell answers its other end.
        right = self._bounds[cell + 1]
        left = np.where(np.isfinite(self._bounds[cell]), self._bounds[cell], right)
        right = np.where(np.isfinite(right), right, left)
        span = np.subtract(right, left, out=np.zeros_like(left), where=left != right)
        estimate = np.clip(left + inside * span, self._min, self._max)
        max_below = psi - 1
        max_above = n - psi
        return psi, estimate, estimate.copy(), max_below, max_above, fractions

    # -- merge ----------------------------------------------------------

    def merge(self, other: SketchSummary) -> "IntervalSummary":
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
    def raw_limit(cls, epsilon: float, max_samples: int) -> int:
        """One short of the seed buffer: ``4 × intervals`` elements seed
        the interval boundaries."""
        return 4 * cls.key_state(epsilon, max_samples).intervals - 1

    @classmethod
    def key_state_from_raw(
        cls, raw: RawKeyState, epsilon: float, max_samples: int, seed: int = 0
    ) -> IntervalSummary:
        """An unseeded summary whose buffer holds the values."""
        state = cls.key_state(epsilon, max_samples, seed)
        state._pending = [raw.values]
        state._pending_size = state._n = raw.values.size
        state._min, state._max = raw.minimum, raw.maximum
        return state
