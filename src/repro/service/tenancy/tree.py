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

**Lazy feed.**  Each rollup is a
:class:`~repro.core.incremental.LazySummary` bounded by
``max_samples``: a frame's sorted slice (or a restored summary) waits,
copied, while it fits, and merges with everything waiting at the
rollup's compaction point or when something reads the rollup.  That
type's docstring argues why every rollup a reader sees, and every
record :meth:`AggregationTree.save_to` writes, is byte-identical to
merging and compacting each part on arrival.  A slice larger than the
bound enters as its strided delta (:func:`_strided_delta`).

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

from repro.core.incremental import LazySummary, Part, fold
from repro.core.summary import OPAQSummary
from repro.errors import ConfigError, EstimationError
from repro.selection import is_sorted
from repro.service.tenancy.store import SpillStore

__all__ = ["AggregationTree"]

_SHARD_AUX = "rollup-shard-"
_METRIC_AUX = "rollup-metric-"


def _checked(part: Part) -> Part:
    """``part``, once an array slice is non-empty and sorted."""
    if isinstance(part, np.ndarray) and (part.size == 0 or not is_sorted(part)):
        raise EstimationError("a rollup slice must be non-empty and sorted")
    return part


def _strided_delta(data: np.ndarray, max_samples: int) -> OPAQSummary:
    """Sorted data of more than ``max_samples`` elements -> a
    pre-compacted delta of at most ``max_samples`` groups, built directly
    with strided slicing.

    Each group of ``k`` consecutive sorted elements is represented by its
    maximum (the sample) with the group minimum as floor — the same
    bookkeeping a full construction + :meth:`~OPAQSummary.compact` would
    produce, without materialising the frame-sized intermediate summary.
    Its guarantee (``~k``) is the rollup's own and never enters any
    per-key budget.
    """
    n = data.size
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
    """One rollup: a :class:`LazySummary` under its own lock.  ``version``
    counts absorbs, so the tree's caches can tell when the rollup moved."""

    __slots__ = ("lock", "lazy", "version")

    def __init__(self, max_samples: int) -> None:
        self.lock = threading.Lock()
        self.lazy = LazySummary(max_samples)
        self.version = 0

    def folded(self) -> tuple[int, OPAQSummary | None]:
        """``(version, summary)`` with the waiting parts merged in."""
        with self.lock:
            return self.version, self.lazy.folded()


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

    def absorb(self, shard: int, delta: Part) -> None:
        """Fold one shard's frame delta (a summary, or the frame's sorted
        slice for that shard) into its level-0 rollup."""
        self._feed(self._shards[shard], _checked(delta))

    def absorb_metric(self, metric: str, delta: Part) -> None:
        """Fold one frame's per-metric slice (or a summary) into that
        metric's rollup."""
        delta = _checked(delta)
        # A lookup needs no lock (rollups are never removed); creating
        # one takes it, so two feeders agree on the rollup.
        rollup = self._metrics.get(metric)
        if rollup is None:
            with self._metric_lock:
                rollup = self._metrics.setdefault(metric, _Rollup(self._max_samples))
        self._feed(rollup, delta)

    def _feed(self, rollup: _Rollup, part: Part) -> None:
        if isinstance(part, np.ndarray) and part.size > self._max_samples:
            part = _strided_delta(part, self._max_samples)
        with rollup.lock:
            rollup.lazy.absorb(part)
            rollup.version += 1

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
                    cached = (versions, fold(summaries, self._max_samples))
                    self._nodes[node] = cached
                if cached[1] is not None:
                    node_parts.append(cached[1])
            key = tuple(all_versions)
            if self._root is None or self._root[0] != key:
                self._root = (key, fold(node_parts, self._max_samples))
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
