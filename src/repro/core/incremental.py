"""Incremental OPAQ (paper section 4).

"It is easy to use the OPAQ algorithm to deal with new data incrementally.
If the sorted samples are kept from the runs of the old data, one need only
compute the sorted samples from the new runs and merge with the old sorted
samples."

:class:`IncrementalOPAQ` maintains a live :class:`~repro.core.OPAQSummary`
across batches: each :meth:`update` samples only the new data, so a
nightly-ingest pipeline keeps query-ready quantile bounds without ever
re-reading history.

The merge itself waits until something needs it.  A merge that no
compaction follows only appends, and merging the waiting runs later, in
arrival order, gives the same list (``a.merge(b, c)`` equals
``a.merge(b).merge(c)`` byte for byte).  So :meth:`update` keeps each new
run's summary pending, and the pending runs merge into the summary in one
k-way :meth:`~repro.core.OPAQSummary.merge` only when the next run would
push the sample list past ``max_samples`` (the compaction point) or when
:attr:`IncrementalOPAQ.summary` is read.  Every summary a reader sees
equals the eager merge-then-compact chain's.
"""

from __future__ import annotations

from typing import Sequence


from repro.core.bounds import QuantileBounds
from repro.core.config import OPAQConfig
from repro.core.estimator import OPAQ
from repro.core.protocols import DataSource
from repro.core.quantile_phase import bounds_for, quantile_bounds
from repro.core.summary import OPAQSummary
from repro.errors import EstimationError

__all__ = ["IncrementalOPAQ"]


class IncrementalOPAQ:
    """Maintains an OPAQ summary over a growing data set."""

    def __init__(self, config: OPAQConfig, max_samples: int | None = None) -> None:
        """``max_samples`` bounds the retained sample list: whenever a
        merge would exceed it, the summary is compacted
        (:meth:`~repro.core.OPAQSummary.compact_to`), trading a
        proportionally looser guarantee for bounded memory — the sensible
        default for a summary that lives for months of ingests."""
        if max_samples is not None and max_samples < 2:
            raise EstimationError("max_samples must be at least 2")
        self.config = config
        self.max_samples = max_samples
        self._estimator = OPAQ(config)
        self._summary: OPAQSummary | None = None
        #: Run summaries sampled since the last merge, in arrival order.
        self._pending: list[OPAQSummary] = []
        self._batches = 0

    @property
    def summary(self) -> OPAQSummary:
        """The current summary; raises until the first batch arrives.

        Merges the pending runs first (no compaction: a merge that would
        have compacted already ran in :meth:`update`).
        """
        if self._summary is None:
            raise EstimationError("no data ingested yet")
        if self._pending:
            self._summary = self._summary.merge(*self._pending)
            self._pending = []
        return self._summary

    @property
    def parts(self) -> tuple[OPAQSummary, ...]:
        """The summary, then the pending runs in arrival order.

        Empty before the first batch.  Merging the parts in this order
        gives :attr:`summary` byte for byte, without changing this
        estimator: the tuple is a value its owner can hand to readers on
        other threads.
        """
        if self._summary is None:
            return ()
        return (self._summary, *self._pending)

    @property
    def count(self) -> int:
        """Total elements ingested so far."""
        return sum(part.count for part in self.parts)

    @property
    def batches(self) -> int:
        """Number of :meth:`update` calls absorbed."""
        return self._batches

    def update(self, batch: DataSource) -> None:
        """Ingest one batch (array, dataset, or run iterable).

        Only the new batch is read; history is represented solely by the
        retained samples.  The batch's run summary merges into the
        summary here only when that merge reaches the compaction point;
        otherwise it waits for the next one, or for a read of
        :attr:`summary`.
        """
        new = self._estimator.summarize(batch)
        limit = self.max_samples
        if self._summary is None:
            self._summary = new if limit is None else new.compact_to(limit)
        elif limit is not None and (
            sum(part.num_samples for part in self.parts) + new.num_samples > limit
        ):
            self._summary = self._summary.merge(*self._pending, new).compact_to(
                limit
            )
            self._pending = []
        else:
            self._pending.append(new)
        self._batches += 1

    def summarize(self, source: DataSource) -> OPAQSummary:
        """Ingest ``source`` as one batch and return the merged summary.

        The :class:`~repro.core.QuantileEstimator` spelling of
        :meth:`update` — unlike :meth:`OPAQ.summarize` it *accumulates*:
        the returned summary covers everything ingested so far.
        """
        self.update(source)
        return self.summary

    def bounds(
        self, summary: OPAQSummary, phis: Sequence[float]
    ) -> list[QuantileBounds]:
        """Quantile bounds from a summary (typically :attr:`summary`)."""
        return bounds_for(summary, phis)

    def bound(self, summary: OPAQSummary, phi: float) -> QuantileBounds:
        """Single-quantile convenience."""
        return quantile_bounds(summary, phi)

    def estimate(
        self, source: DataSource, phis: Sequence[float]
    ) -> list[QuantileBounds]:
        """Ingest one batch and query the accumulated summary."""
        return self.bounds(self.summarize(source), phis)

    def guaranteed_rank_error(self) -> int:
        """Current worst-case rank error (grows with batch count: the
        bound is ``~n/s`` per *batch generation*, i.e. proportional to the
        number of runs merged — identical to a single pass that used the
        same run layout)."""
        return self.summary.guaranteed_rank_error()
