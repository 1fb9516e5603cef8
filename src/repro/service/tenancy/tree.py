"""The aggregation tree: shard → node → global rollups over cold keys.

Cross-key queries (``tenant=*``) must not touch cold keys — restoring a
million spilled summaries to answer "global p99" would defeat the point
of spilling them.  Instead the registry feeds every ingest frame's data
into this tree at the moment it arrives, while the per-key summaries go
their own way: each shard's sorted slice of the frame, and each
metric's.

The tree leans entirely on the merge algebra pinned by
``tests/core/test_merge_algebra.py``: merge is associative and
order-insensitive *in its bounds*, so folding deltas shard-by-shard and
then merging shards through an intermediate node level yields the same
class of guarantee as one flat merge — but recomputes only the paths
whose shard versions actually moved.  Each level is compacted to
``max_samples``; the resulting guarantee is the **rollup's own** (it is
reported per answer) and is deliberately *not* covered by the per-key
epsilon contract: a rollup summarises unbounded cross-key mass in
bounded space, which is exactly the trade the Cormode–Veselý lower
bound says must cost either memory or guarantee.

**Lazy feed.**  A rollup holds its folded summary plus a buffer of the
exact slices absorbed since.  A slice that fits — the rollup's samples,
its buffered elements and the slice stay within ``max_samples`` — is
copied into the buffer as raw float64 and nothing is merged: merging it
would not have compacted, and the paper's incremental merge (section 4)
gives the same list when the waiting pieces merge later, in arrival
order.  Any other part (a slice that would cross the bound, a larger
slice, or a whole summary) folds the buffer and merges the part in one
stable sort, then compacts.  A reader folds first.  Every rollup a
reader sees, and every record :meth:`AggregationTree.save_to` writes,
is therefore byte-identical to merging and compacting each part on
arrival, and a buffered element costs one slot where a folded sample
costs three (sample, gap, floor).

Alongside the shard level the tree keeps one rollup per *metric*
(``tenant=*, metric=m``).  Metric cardinality is assumed small (it is a
schema axis, not a data axis); per-tenant rollups are intentionally
absent — they would scale with key count, which is the thing this
subsystem exists to avoid.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from repro.core.summary import OPAQSummary
from repro.errors import ConfigError, EstimationError
from repro.portfolio.opaq import exact_delta
from repro.selection import is_sorted
from repro.service.tenancy.store import SpillStore

__all__ = ["AggregationTree"]

_SHARD_AUX = "rollup-shard-"
_METRIC_AUX = "rollup-metric-"
_EMPTY = np.empty(0)


def _strided_delta(data: np.ndarray, max_samples: int) -> OPAQSummary:
    """Sorted data -> pre-compacted delta of at most ``max_samples + 1``
    groups, built directly with strided slicing.

    Each group of ``k`` consecutive sorted elements is represented by its
    maximum (the sample) with the group minimum as floor — the same
    bookkeeping a full construction + :meth:`~OPAQSummary.compact` would
    produce, without materialising the frame-sized intermediate summary.
    The tree's eager path: its guarantee (``~k``) is the rollup's own and
    never enters any per-key budget.
    """
    n = data.size
    if n <= max_samples:
        # Small path copies so the summary never pins a caller buffer.
        return exact_delta(data.copy())
    k = -(-n // max_samples)
    q, r = divmod(n, k)
    last = np.arange(1, q + 1, dtype=np.int64) * k - 1
    samples = data[last]
    floors = data[last - (k - 1)]
    gaps = np.full(q, k, dtype=np.int64)
    if r:
        samples = np.append(samples, data[-1])
        floors = np.append(floors, data[n - r])
        gaps = np.append(gaps, r)
    return OPAQSummary._trusted(
        samples=samples,
        gaps=gaps,
        num_runs=1,
        count=n,
        minimum=float(data[0]),
        maximum=float(data[-1]),
        floors=floors,
    )


class _Rollup:
    """One rollup: its folded summary plus the slices absorbed since.

    ``_values[:_ends[-1]]`` holds the buffered slices back to back, each
    sorted, in arrival order; ``_ends`` marks where each one stops.  The
    buffer grows geometrically (never past twice what it holds, nor past
    ``max_samples``) and is released by the fold.  The first part an
    empty rollup absorbs becomes its summary, so buffered slices always
    follow one.  ``version`` counts absorbs, so the tree's caches can
    tell when the rollup moved.
    """

    __slots__ = ("_lock", "_max", "_summary", "_values", "_ends", "version")

    def __init__(self, max_samples: int) -> None:
        self._lock = threading.Lock()
        self._max = max_samples
        self._summary: OPAQSummary | None = None
        self._values = _EMPTY
        self._ends: list[int] = []
        self.version = 0

    def absorb(self, part: OPAQSummary | np.ndarray) -> None:
        """Buffer a sorted slice that fits, or merge ``part`` now."""
        is_slice = not isinstance(part, OPAQSummary)
        if is_slice and part.size == 0:
            raise EstimationError("a rollup slice must be non-empty")
        # Deltas are built unchecked, so a slice that fits under the
        # bound is checked here, on either path.  A larger one is not:
        # the registry sorts it, and a pass would slow large frames.
        if is_slice and part.size <= self._max and not is_sorted(part):
            raise EstimationError("a rollup slice must be sorted")
        with self._lock:
            fill = self._ends[-1] if self._ends else 0
            current = self._summary
            if (
                is_slice
                and current is not None
                and current.num_samples + fill + part.size <= self._max
            ):
                end = fill + part.size
                if end > self._values.size:
                    grown = np.empty(min(max(end, 2 * self._values.size), self._max))
                    grown[:fill] = self._values[:fill]
                    self._values = grown
                self._values[fill:end] = part
                self._ends.append(end)
            else:
                delta = _strided_delta(part, self._max) if is_slice else part
                merged = (
                    delta if current is None
                    else current.merge(*self._slices(), delta)
                )
                self._summary = merged.compact_to(self._max)
                self._values = _EMPTY
                self._ends = []
            self.version += 1

    def folded(self) -> tuple[int, OPAQSummary | None]:
        """``(version, summary)`` with the buffer folded in."""
        with self._lock:
            if self._summary is not None and self._ends:
                self._summary = self._summary.merge(*self._slices())
                self._values = _EMPTY
                self._ends = []
            return self.version, self._summary

    def _slices(self) -> list[np.ndarray]:
        """The buffered slices, oldest first."""
        starts = [0, *self._ends[:-1]]
        return [self._values[a:b] for a, b in zip(starts, self._ends)]


class AggregationTree:
    """Two cached levels over per-shard rollup summaries.

    ``absorb`` is called on the ingest path (per frame, per shard) and
    touches only that shard's rollup lock.  ``global_summary`` rebuilds
    node and root caches lazily, keyed by the vector of shard versions —
    an idle tree answers from cache, a busy one recomputes only the
    nodes whose shards moved.  Summaries are frozen dataclasses, so a
    reference read under a lock stays valid outside it.
    """

    def __init__(self, num_shards: int, max_samples: int) -> None:
        if num_shards < 1:
            raise ConfigError("num_shards must be at least 1")
        self._num_shards = num_shards
        self._max_samples = max_samples
        self._fanout = max(2, math.isqrt(max(num_shards - 1, 0)) + 1)
        self._num_nodes = -(-num_shards // self._fanout)
        self._shards = [_Rollup(max_samples) for _ in range(num_shards)]
        # node cache[i] = (shard-version vector it was built from, summary)
        self._nodes: list[tuple[tuple[int, ...], OPAQSummary | None] | None]
        self._nodes = [None] * self._num_nodes
        self._root: tuple[tuple[int, ...], OPAQSummary | None] | None = None
        self._cache_lock = threading.Lock()
        self._metrics: dict[str, _Rollup] = {}
        self._metric_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Ingest side
    # ------------------------------------------------------------------

    def absorb(self, shard: int, delta: OPAQSummary | np.ndarray) -> None:
        """Fold one shard's frame delta (a summary, or the frame's sorted
        slice for that shard) into its level-0 rollup."""
        self._shards[shard].absorb(delta)

    def absorb_metric(self, metric: str, delta: OPAQSummary | np.ndarray) -> None:
        """Fold one frame's per-metric slice (or a summary) into that
        metric's rollup."""
        with self._metric_lock:
            rollup = self._metrics.get(metric) or _Rollup(self._max_samples)
            rollup.absorb(delta)
            self._metrics[metric] = rollup

    # ------------------------------------------------------------------
    # Query side
    # ------------------------------------------------------------------

    def shard_summary(self, shard: int) -> OPAQSummary | None:
        return self._shards[shard].folded()[1]

    def metric_summary(self, metric: str) -> OPAQSummary | None:
        with self._metric_lock:
            rollup = self._metrics.get(metric)
            return None if rollup is None else rollup.folded()[1]

    def metrics(self) -> list[str]:
        with self._metric_lock:
            return sorted(self._metrics)

    def _shard_state(
        self, lo: int, hi: int
    ) -> tuple[tuple[int, ...], list[OPAQSummary]]:
        versions: list[int] = []
        summaries: list[OPAQSummary] = []
        for i in range(lo, hi):
            version, summary = self._shards[i].folded()
            versions.append(version)
            if summary is not None:
                summaries.append(summary)
        return tuple(versions), summaries

    @staticmethod
    def _merge_all(
        parts: list[OPAQSummary], max_samples: int
    ) -> OPAQSummary | None:
        if not parts:
            return None
        return parts[0].merge(*parts[1:]).compact_to(max_samples)

    def global_summary(self) -> OPAQSummary | None:
        """The root rollup: everything ever ingested, in bounded space.

        Lock order is strictly ``cache lock -> shard rollup lock``;
        ``absorb`` takes only the shard rollup's lock, so the orders
        compose without a cycle.
        """
        with self._cache_lock:
            node_parts: list[OPAQSummary] = []
            all_versions: list[int] = []
            for node in range(self._num_nodes):
                lo = node * self._fanout
                hi = min(lo + self._fanout, self._num_shards)
                versions, summaries = self._shard_state(lo, hi)
                all_versions.extend(versions)
                cached = self._nodes[node]
                if cached is None or cached[0] != versions:
                    cached = (versions, self._merge_all(summaries, self._max_samples))
                    self._nodes[node] = cached
                if cached[1] is not None:
                    node_parts.append(cached[1])
            key = tuple(all_versions)
            if self._root is None or self._root[0] != key:
                self._root = (key, self._merge_all(node_parts, self._max_samples))
            return self._root[1]

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        root = self.global_summary()
        with self._metric_lock:
            metric_count = len(self._metrics)
        return {
            "num_shards": self._num_shards,
            "num_nodes": self._num_nodes,
            "fanout": self._fanout,
            "metrics": metric_count,
            "global_count": 0 if root is None else root.count,
            "global_samples": 0 if root is None else root.num_samples,
            "global_guarantee": (
                0 if root is None else root.guaranteed_rank_error()
            ),
        }

    def save_to(self, store: SpillStore) -> None:
        """Persist shard and metric rollups so a warm restart serves the
        same cross-key answers (node/root levels are derived caches)."""
        for i in range(self._num_shards):
            summary = self.shard_summary(i)
            if summary is not None:
                store.save_aux(f"{_SHARD_AUX}{i}", summary)
        with self._metric_lock:
            rollups = list(self._metrics.items())
        for metric, rollup in rollups:
            summary = rollup.folded()[1]
            if summary is not None:
                store.save_aux(f"{_METRIC_AUX}{metric}", summary)

    def load_from(self, store: SpillStore) -> None:
        """Reload rollups saved by :meth:`save_to`.

        A shard rollup is just a partition of the ingest history, so if
        the shard count changed across the restart the extra partitions
        fold into ``index % num_shards`` — the global and metric answers
        do not depend on the partitioning.
        """
        for name in store.aux_names():
            summary = store.load_aux(name)
            if summary is None:
                continue
            if name.startswith(_SHARD_AUX):
                index = int(name[len(_SHARD_AUX):]) % self._num_shards
                self.absorb(index, summary)
            elif name.startswith(_METRIC_AUX):
                self.absorb_metric(name[len(_METRIC_AUX):], summary)
