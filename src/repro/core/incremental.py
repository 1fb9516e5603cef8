"""Incremental OPAQ (paper section 4).

"It is easy to use the OPAQ algorithm to deal with new data incrementally.
If the sorted samples are kept from the runs of the old data, one need only
compute the sorted samples from the new runs and merge with the old sorted
samples."

:class:`IncrementalOPAQ` maintains a live :class:`~repro.core.OPAQSummary`
across batches: each :meth:`update` samples only the new data, so a
nightly-ingest pipeline keeps query-ready quantile bounds without ever
re-reading history.

The merge itself waits until something needs it: the summary and the
runs sampled since live in a :class:`LazySummary`, which argues once why
a deferred merge reads back byte-identical to merging each run on
arrival.  The same type holds the service's rollups
(:mod:`repro.service.tenancy.tree`), and :func:`fold` is the one merge of
a list of parts that shard readers, epochs and rollup levels run.
"""

from __future__ import annotations

from typing import Sequence, Union, cast

import numpy as np

from repro.core.bounds import QuantileBounds
from repro.core.config import OPAQConfig
from repro.core.estimator import OPAQ
from repro.core.protocols import DataSource
from repro.core.quantile_phase import bounds_for, quantile_bounds
from repro.core.summary import OPAQSummary
from repro.errors import EstimationError

__all__ = ["IncrementalOPAQ", "LazySummary", "Part", "exact_delta", "fold"]

#: A part of a lazy summary: a summary, or a sorted, non-empty float64
#: array standing for its exact summary (:func:`exact_delta`).
Part = Union[OPAQSummary, np.ndarray]


def exact_delta(data: np.ndarray) -> OPAQSummary:
    """Sorted data -> exact summary (unit gaps, rank guarantee 1).

    ``data`` must already be a sorted, non-empty float64 array owned by
    the caller; it is trusted, not checked.  Each element is its own
    group, so its floor IS the element — without explicit floors they
    default to the conservative ``-inf``, which is harmless while gaps
    are 1 but makes every group a straddler for every value after
    compaction, blowing the guarantee up to ``~s*(k-1)`` instead of
    ``~k``.
    """
    return OPAQSummary._trusted(
        samples=data,
        gaps=np.ones(data.size, dtype=np.int64),
        num_runs=1,
        count=data.size,
        minimum=float(data[0]),
        maximum=float(data[-1]),
        floors=data,
    )


def fold(parts: Sequence[Part], max_samples: int | None = None) -> OPAQSummary | None:
    """``parts`` (a summary first) merged in order in one k-way merge, then
    compacted to ``max_samples`` if given; ``None`` when there are none."""
    if not parts:
        return None
    merged = cast(OPAQSummary, parts[0]).merge(*parts[1:])
    return merged if max_samples is None else merged.compact_to(max_samples)


class LazySummary:
    """A base summary plus the parts absorbed since, merged only when
    needed; every read equals the eager chain
    ``summary = summary.merge(part).compact_to(max_samples)`` byte for byte.

    *Trigger.*  A merge that no compaction follows only appends.  So a
    part waits while the samples held (the base's plus each waiting
    part's) and its own stay within ``max_samples``; a part that would
    cross the bound runs the chain's step for every waiting part at once,
    ``base.merge(*waiting, part).compact_to(max_samples)``.  Without a
    bound every part waits.  The first part becomes the base, compacted
    as the chain's first step is.

    *Tie order.*  :meth:`~repro.core.OPAQSummary.merge` is one stable
    argsort of the concatenated parts: equal samples keep earlier parts'
    before later ones', and the extremes fold left to right.  So
    ``a.merge(b, c)`` equals ``a.merge(b).merge(c)`` byte for byte, and
    merging the waiting parts later, in arrival order, lays ties out as
    merging each on arrival did: :meth:`folded`, and :func:`fold` of
    :attr:`parts`, are the eager chain's summary.

    A part is a summary or a sorted, non-empty float64 array standing for
    its exact summary (``merge`` takes both; a waiting element costs one
    slot where a folded sample costs three).  An array is copied when it
    is kept, so the caller's buffer is never pinned.  Not thread-safe.
    """

    __slots__ = ("max_samples", "_base", "_waiting", "_held")

    def __init__(self, max_samples: int | None = None) -> None:
        self.max_samples = max_samples
        self._base: OPAQSummary | None = None
        self._waiting: list[Part] = []  # in arrival order
        self._held = 0  # samples held: the base's plus every waiting part's

    def absorb(self, part: Part) -> None:
        """Let ``part`` wait, or merge everything now if it would push
        the held samples past ``max_samples``."""
        size = part.num_samples if isinstance(part, OPAQSummary) else part.size
        limit = self.max_samples
        if self._base is None:
            base = part if isinstance(part, OPAQSummary) else exact_delta(part.copy())
            self._base = base if limit is None else base.compact_to(limit)
            self._held = self._base.num_samples
        elif limit is None or self._held + size <= limit:
            self._waiting.append(part if isinstance(part, OPAQSummary) else part.copy())
            self._held += size
        else:
            self._base = self._base.merge(*self._waiting, part).compact_to(limit)
            self._waiting = []
            self._held = self._base.num_samples

    @property
    def parts(self) -> tuple[Part, ...]:
        """The base, then the waiting parts in arrival order (empty before
        the first part); reading them merges nothing."""
        return () if self._base is None else (self._base, *self._waiting)

    @property
    def count(self) -> int:
        """Elements absorbed so far, waiting parts included."""
        parts = self.parts
        return sum(p.count if isinstance(p, OPAQSummary) else p.size for p in parts)

    def folded(self) -> OPAQSummary | None:
        """The summary with the waiting parts merged in (no compaction:
        one that would compact ran in :meth:`absorb`); ``None`` before
        the first part."""
        if self._waiting:
            self._base = fold(self.parts)
            self._waiting = []
        return self._base


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
        self._lazy = LazySummary(max_samples)
        self._batches = 0

    @property
    def summary(self) -> OPAQSummary:
        """The current summary, waiting runs merged in; raises until the
        first batch arrives."""
        summary = self._lazy.folded()
        if summary is None:
            raise EstimationError("no data ingested yet")
        return summary

    @property
    def parts(self) -> tuple[Part, ...]:
        """The summary, then the runs waiting to merge, in arrival order
        (empty before the first batch): a value its owner can hand to
        readers on other threads, whose :func:`fold` is :attr:`summary`."""
        return self._lazy.parts

    @property
    def count(self) -> int:
        """Total elements ingested so far."""
        return self._lazy.count

    @property
    def batches(self) -> int:
        """Number of :meth:`update` calls absorbed."""
        return self._batches

    def update(self, batch: DataSource) -> None:
        """Ingest one batch (array, dataset, or run iterable).

        Only the new batch is read; history is represented solely by the
        retained samples.  The batch's run summary waits in a
        :class:`LazySummary`.
        """
        self._lazy.absorb(self._estimator.summarize(batch))
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
