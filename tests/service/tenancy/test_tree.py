"""The aggregation tree: rollup correctness, caching, persistence, and
the lazy feed's byte-identity with merging every part on arrival."""

import math
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
# The lazy feed: buffered slices read back byte-identical to the eager
# merge-then-compact chain.
# ----------------------------------------------------------------------

MAX = 16
SHARDS = 3


def eager_merge(a: OPAQSummary, b: OPAQSummary) -> OPAQSummary:
    """The two-way merge every rollup absorb ran before the lazy feed:
    one stable argsort, ``a``'s ties before ``b``'s."""
    samples = np.concatenate([a.samples, b.samples])
    order = samples.argsort(kind="stable")
    return OPAQSummary(
        samples=samples[order],
        gaps=np.concatenate([a.gaps, b.gaps])[order],
        floors=np.concatenate([a.floors, b.floors])[order],
        num_runs=a.num_runs + b.num_runs,
        count=a.count + b.count,
        minimum=min(a.minimum, b.minimum),
        maximum=max(a.maximum, b.maximum),
    )


def chain(parts: list[OPAQSummary]) -> OPAQSummary | None:
    merged = None
    for part in parts:
        merged = part if merged is None else eager_merge(merged, part)
    return None if merged is None else merged.compact_to(MAX)


class EagerTree:
    """The oracle: merge and compact every part on arrival."""

    def __init__(self) -> None:
        self.shards: list[OPAQSummary | None] = [None] * SHARDS
        self.metrics: dict[str, OPAQSummary] = {}

    @staticmethod
    def _fed(current: OPAQSummary | None, values: np.ndarray) -> OPAQSummary:
        delta = _strided_delta(values, MAX)
        merged = delta if current is None else eager_merge(current, delta)
        return merged.compact_to(MAX)

    def absorb(self, shard: int, values: np.ndarray) -> None:
        self.shards[shard] = self._fed(self.shards[shard], values)

    def absorb_metric(self, metric: str, values: np.ndarray) -> None:
        self.metrics[metric] = self._fed(self.metrics.get(metric), values)

    def global_summary(self) -> OPAQSummary | None:
        fanout = max(2, math.isqrt(SHARDS - 1) + 1)
        nodes = []
        for lo in range(0, SHARDS, fanout):
            node = chain([s for s in self.shards[lo:lo + fanout] if s is not None])
            if node is not None:
                nodes.append(node)
        return chain(nodes)


def as_bytes(summary: OPAQSummary | None) -> bytes | None:
    """The summary's record, once its invariants check out: rollups are
    merged and compacted unchecked."""
    if summary is None:
        return None
    summary.validate()
    return summary.to_bytes()


# Heavy duplicates, both signed zeros, and slices from 1 to 2 x MAX.
_values = st.lists(
    st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(-4, 4),
    min_size=1,
    max_size=2 * MAX,
)
_ops = st.one_of(
    st.tuples(st.just("absorb"), st.integers(0, SHARDS - 1), _values),
    st.tuples(st.just("absorb_metric"), st.sampled_from(["a", "b"]), _values),
    st.tuples(
        st.just("read"),
        st.sampled_from(["shard", "metric", "global", "stats", "save_load"]),
        st.integers(0, SHARDS - 1),
    ),
)


def check_save_load(tree: AggregationTree, oracle: EagerTree) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        with SpillStore(Path(tmp)) as store:
            tree.save_to(store)
            for i, summary in enumerate(oracle.shards):
                saved = store.load_aux(f"rollup-shard-{i}")
                assert as_bytes(saved) == as_bytes(summary)
            for metric, summary in oracle.metrics.items():
                saved = store.load_aux(f"rollup-metric-{metric}")
                assert as_bytes(saved) == as_bytes(summary)
        with SpillStore(Path(tmp)) as store:
            fresh = AggregationTree(num_shards=SHARDS, max_samples=MAX)
            fresh.load_from(store)
    for i, summary in enumerate(oracle.shards):
        assert as_bytes(fresh.shard_summary(i)) == as_bytes(summary)
    for metric, summary in oracle.metrics.items():
        assert as_bytes(fresh.metric_summary(metric)) == as_bytes(summary)
    assert as_bytes(fresh.global_summary()) == as_bytes(oracle.global_summary())


class TestLazyFeed:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_ops, min_size=1, max_size=40))
    def test_every_read_equals_the_eager_chain(self, ops):
        tree = AggregationTree(num_shards=SHARDS, max_samples=MAX)
        oracle = EagerTree()
        for op, where, arg in ops:
            if op == "absorb":
                values = np.sort(np.array(arg, dtype=np.float64))
                tree.absorb(where, values)
                oracle.absorb(where, values)
            elif op == "absorb_metric":
                values = np.sort(np.array(arg, dtype=np.float64))
                tree.absorb_metric(where, values)
                oracle.absorb_metric(where, values)
            elif where == "shard":
                assert as_bytes(tree.shard_summary(arg)) == as_bytes(oracle.shards[arg])
            elif where == "metric":
                for metric in ("a", "b"):
                    assert as_bytes(tree.metric_summary(metric)) == as_bytes(
                        oracle.metrics.get(metric)
                    )
            elif where == "global":
                assert as_bytes(tree.global_summary()) == as_bytes(
                    oracle.global_summary()
                )
            elif where == "stats":
                root = oracle.global_summary()
                stats = tree.stats()
                assert stats["global_count"] == (0 if root is None else root.count)
                assert stats["global_samples"] == (
                    0 if root is None else root.num_samples
                )
                assert stats["global_guarantee"] == (
                    0 if root is None else root.guaranteed_rank_error()
                )
            else:
                check_save_load(tree, oracle)
        check_save_load(tree, oracle)

    def test_buffered_slice_is_a_copy(self):
        tree = AggregationTree(num_shards=1, max_samples=64)
        tree.absorb_metric("m", np.array([1.0, 2.0]))
        values = np.array([3.0, 4.0])
        tree.absorb_metric("m", values)
        values[:] = 0.0
        np.testing.assert_array_equal(
            tree.metric_summary("m").samples, [1.0, 2.0, 3.0, 4.0]
        )

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
