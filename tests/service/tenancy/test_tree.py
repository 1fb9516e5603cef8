"""The aggregation tree: rollup correctness, caching, persistence, and
the lazy feed's byte-identity with merging every part on arrival."""

import sys
import threading

import numpy as np
import pytest

from repro.core.incremental import LazySummary, fold
from repro.core.quantile_phase import bounds_arrays
from repro.core.summary import OPAQSummary
from repro.errors import EstimationError
from repro.portfolio import opaq
from repro.service.tenancy import (
    AggregationTree,
    RegistryConfig,
    SpillStore,
    SummaryRegistry,
)
from repro.service.tenancy.tree import _strided_delta


def exact_delta(data):
    return opaq.exact_delta(np.sort(np.asarray(data, dtype=np.float64)))


class TestRollups:
    def test_global_count_is_exact(self, rng):
        tree = AggregationTree(num_shards=4, max_samples=256)
        total = 0
        for shard in range(4):
            for _ in range(3):
                chunk = rng.uniform(size=500)
                tree.absorb(shard, exact_delta(chunk))
                total += chunk.size
        root = tree.global_summary()
        assert root.count == total

    def test_global_bounds_enclose_truth(self, rng):
        tree = AggregationTree(num_shards=4, max_samples=512)
        everything = []
        for shard in range(4):
            chunk = rng.normal(size=2_000)
            tree.absorb(shard, exact_delta(chunk))
            everything.append(chunk)
        data = np.sort(np.concatenate(everything))
        root = tree.global_summary()
        phis = np.array([0.1, 0.5, 0.9])
        _, lower, upper, _, _, _ = bounds_arrays(root, phis)
        for i, phi in enumerate(phis):
            truth = data[int(np.ceil(phi * data.size)) - 1]
            assert lower[i] <= truth <= upper[i]

    def test_metric_rollups_are_per_metric(self, rng):
        tree = AggregationTree(num_shards=2, max_samples=128)
        tree.absorb_metric("latency", exact_delta(rng.uniform(size=300)))
        tree.absorb_metric("bytes", exact_delta(rng.uniform(size=200)))
        assert tree.metrics() == ["bytes", "latency"]
        assert tree.metric_summary("latency").count == 300
        assert tree.metric_summary("bytes").count == 200
        assert tree.metric_summary("missing") is None

    def test_empty_tree_has_no_root(self):
        assert AggregationTree(num_shards=3, max_samples=64).global_summary() is None


class TestCaching:
    def test_cache_hit_returns_same_object(self, rng):
        tree = AggregationTree(num_shards=4, max_samples=128)
        for shard in range(4):
            tree.absorb(shard, exact_delta(rng.uniform(size=100)))
        first = tree.global_summary()
        assert tree.global_summary() is first

    def test_absorb_invalidates_only_downstream(self, rng):
        tree = AggregationTree(num_shards=4, max_samples=128)
        for shard in range(4):
            tree.absorb(shard, exact_delta(rng.uniform(size=100)))
        before = tree.global_summary()
        tree.absorb(0, exact_delta(rng.uniform(size=50)))
        after = tree.global_summary()
        assert after is not before
        assert after.count == before.count + 50


class TestPersistence:
    def test_save_load_roundtrip(self, rng, tmp_path):
        tree = AggregationTree(num_shards=3, max_samples=256)
        for shard in range(3):
            tree.absorb(shard, exact_delta(rng.uniform(size=400)))
        tree.absorb_metric("latency", exact_delta(rng.uniform(size=150)))
        with SpillStore(tmp_path) as store:
            tree.save_to(store)
        with SpillStore(tmp_path) as store:
            fresh = AggregationTree(num_shards=3, max_samples=256)
            fresh.load_from(store)
        assert fresh.global_summary().count == tree.global_summary().count
        assert fresh.metric_summary("latency").count == 150

    def test_load_folds_extra_partitions_on_shard_shrink(self, rng, tmp_path):
        tree = AggregationTree(num_shards=4, max_samples=256)
        for shard in range(4):
            tree.absorb(shard, exact_delta(rng.uniform(size=250)))
        with SpillStore(tmp_path) as store:
            tree.save_to(store)
        with SpillStore(tmp_path) as store:
            narrower = AggregationTree(num_shards=2, max_samples=256)
            narrower.load_from(store)
        # Partition-invariance of the merge algebra: same global count.
        assert narrower.global_summary().count == 1_000


# ----------------------------------------------------------------------
# The lazy feed: each rollup is a LazySummary of its slices
# (tests/core/test_lazy_summary.py holds that type to the eager
# merge-then-compact chain).
# ----------------------------------------------------------------------

MAX = 16


def as_bytes(summary: OPAQSummary | None) -> bytes | None:
    """The summary's record, once its invariants check out: rollups are
    merged and compacted unchecked."""
    if summary is None:
        return None
    summary.validate()
    return summary.to_bytes()


class TestLazyFeed:
    def test_rollups_are_lazy_summaries_of_their_slices(self, rng, tmp_path):
        """Rollups are LazySummaries of their slices (those past the bound
        as strided deltas), the root folds them through the node level,
        and saving and reloading, into fewer shards too, keeps the bytes."""
        tree = AggregationTree(num_shards=4, max_samples=MAX)  # shard 3 stays empty
        shards = [LazySummary(MAX) for _ in range(3)]
        metric = LazySummary(MAX)
        for i, size in enumerate([1, 5, MAX, MAX + 1, 3, 2 * MAX + 3, 7] * 3):
            values = np.sort(rng.integers(-3, 4, size=size) / 2.0)  # heavy ties
            tree.absorb(i % 3, values)
            tree.absorb_metric("m", values)
            part = values if size <= MAX else _strided_delta(values, MAX)
            shards[i % 3].absorb(part)
            metric.absorb(part)
            if i % 4 == 0:  # reads in between fold the waiting slices
                tree.global_summary()
        expected = [lazy.folded() for lazy in shards] + [None]
        for i in range(4):
            assert as_bytes(tree.shard_summary(i)) == as_bytes(expected[i])
        assert as_bytes(tree.metric_summary("m")) == as_bytes(metric.folded())
        # Four shards, fanout 2: nodes {0, 1} and {2, 3}, shard 3 empty.
        nodes = [fold(expected[:2], MAX), fold(expected[2:3], MAX)]
        root = tree.global_summary()
        assert as_bytes(root) == as_bytes(fold(nodes, MAX))
        stats = tree.stats()
        assert (stats["global_count"], stats["global_samples"]) == (
            root.count, root.num_samples
        )
        assert stats["global_guarantee"] == root.guaranteed_rank_error()
        with SpillStore(tmp_path) as store:
            tree.save_to(store)
            for i in range(3):
                saved = store.load_aux(f"rollup-shard-{i}")
                assert as_bytes(saved) == as_bytes(expected[i])
        with SpillStore(tmp_path) as store:
            narrower = AggregationTree(num_shards=2, max_samples=MAX)
            narrower.load_from(store)
        restored = LazySummary(MAX)
        for summary in expected[:3:2]:  # saved shards 0 and 2 fold into 0
            restored.absorb(summary)
        assert as_bytes(narrower.shard_summary(0)) == as_bytes(restored.folded())
        assert as_bytes(narrower.shard_summary(1)) == as_bytes(expected[1])
        assert as_bytes(narrower.metric_summary("m")) == as_bytes(metric.folded())

    def test_buffered_slice_is_a_copy(self):
        tree = AggregationTree(num_shards=1, max_samples=64)
        tree.absorb_metric("m", np.array([1.0, 2.0]))
        values = np.array([3.0, 4.0])
        tree.absorb_metric("m", values)
        values[:] = 0.0
        np.testing.assert_array_equal(
            tree.metric_summary("m").samples, [1.0, 2.0, 3.0, 4.0]
        )

    def test_a_slice_past_the_bound_is_checked_too(self):
        """An unsorted slice larger than ``max_samples`` used to become a
        rollup whose minimum exceeded its maximum."""
        tree = AggregationTree(num_shards=1, max_samples=16)
        unsorted = np.arange(100, 0, -1.0)
        with pytest.raises(EstimationError, match="sorted"):
            tree.absorb(0, unsorted)
        with pytest.raises(EstimationError, match="sorted"):
            tree.absorb_metric("m", unsorted)
        assert tree.shard_summary(0) is None and tree.metrics() == []

    @pytest.mark.parametrize("bad", [np.array([]), np.array([2.0, 1.0])])
    def test_unsorted_or_empty_slice_is_refused(self, bad):
        tree = AggregationTree(num_shards=1, max_samples=64)
        for _ in range(2):  # into an empty rollup, then into its buffer
            with pytest.raises(EstimationError):
                tree.absorb(0, bad)
            with pytest.raises(EstimationError):
                tree.absorb_metric("m", bad)
            tree.absorb(0, np.array([0.5]))
            tree.absorb_metric("m", np.array([0.5]))
        assert tree.shard_summary(0).count == tree.metric_summary("m").count == 2
        assert tree.metrics() == ["m"]


def test_concurrent_absorbs_and_reads_lose_nothing():
    """Feeders and readers race on shared rollups with a short switch
    interval: a lost buffer append or fold would lose elements."""
    tree = AggregationTree(num_shards=2, max_samples=64)
    fed = [0] * 4  # one slot per feeder, so the tally itself never races
    errors: list[BaseException] = []

    def feed(slot: int) -> None:
        local = np.random.default_rng(slot)
        try:
            for i in range(150):
                values = np.sort(local.normal(size=int(local.integers(1, 40))))
                tree.absorb(i % 2, values)
                tree.absorb_metric("m", values)
                fed[slot] += values.size
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    def read() -> None:
        try:
            for _ in range(100):
                tree.global_summary()
                tree.metric_summary("m")
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=feed, args=(i,)) for i in range(len(fed))]
    threads += [threading.Thread(target=read) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for summary in (tree.metric_summary("m"), tree.global_summary()):
        summary.validate()
        assert summary.count == sum(fed)


def test_frames_below_the_bound_build_no_rollup_summary_until_read(
    monkeypatch, rng
):
    """After a rollup's first frame, frames that fit under the bound
    build no ``OPAQSummary`` at all, checked or trusted (key folds are
    held off by the fold threshold); a read of the metric rollup then
    builds exactly one."""
    config = RegistryConfig(
        memory_budget=10**6,
        num_shards=1,
        fold_threshold=10**6,
        rollup_max_samples=1_024,
    )
    built: list[int] = []
    post_init = OPAQSummary.__post_init__
    trusted = OPAQSummary._trusted.__func__

    def counting(self):
        built.append(self.count)
        post_init(self)

    def counting_trusted(cls, *args, **kwargs):
        summary = trusted(cls, *args, **kwargs)
        built.append(summary.count)
        return summary

    monkeypatch.setattr(OPAQSummary, "__post_init__", counting)
    monkeypatch.setattr(OPAQSummary, "_trusted", classmethod(counting_trusted))
    with SummaryRegistry(config) as registry:
        registry.ingest("t", "m", rng.normal(size=10))
        assert len(built) == 2  # the shard's and the metric's first part
        built.clear()
        for _ in range(20):
            registry.ingest("t", "m", rng.normal(size=10))
        assert built == []
        assert registry.quantiles("*", "m", [0.5]).count == 210
        assert built == [210]
        built.clear()
        assert registry.quantiles("*", "m", [0.5]).count == 210
        assert built == []
