"""The summary registry: budget, epsilon contract, spill/evict, rollups."""

import errno

import numpy as np
import pytest

from repro.errors import ConfigError, DataError, EstimationError, ServiceError
from repro.service.tenancy import (
    RegistryConfig,
    SummaryRegistry,
    compact_within_budget,
)
from repro.service.tenancy import store as store_module


def small_config(tmp_path=None, **kw):
    defaults = dict(
        memory_budget=200_000,
        num_shards=2,
        per_key_epsilon=0.05,
        max_key_samples=64,
        fold_threshold=512,
        rollup_max_samples=256,
    )
    if tmp_path is not None:
        defaults["spill_dir"] = tmp_path / "spills"
    defaults.update(kw)
    return RegistryConfig(**defaults)


class TestConfig:
    def test_defaults_validate(self):
        config = RegistryConfig()
        assert config.shard_budget == config.memory_budget // config.num_shards

    @pytest.mark.parametrize(
        "field, value",
        [
            ("memory_budget", 0),
            ("num_shards", 0),
            ("per_key_epsilon", 0.0),
            ("per_key_epsilon", 1.5),
            ("max_key_samples", 1),
            ("fold_threshold", 0),
            ("rollup_max_samples", 1),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            RegistryConfig(**{field: value})


class TestIngestAndQuery:
    def test_single_key_bounds_enclose_truth(self, rng):
        data = rng.normal(size=20_000)
        with SummaryRegistry(small_config()) as registry:
            registry.ingest("acme", "latency", data)
            answer = registry.quantiles("acme", "latency", [0.25, 0.5, 0.99])
        data = np.sort(data)
        assert answer.count == 20_000 and answer.source == "resident"
        for i, phi in enumerate(answer.phis):
            truth = data[int(np.ceil(phi * data.size)) - 1]
            assert answer.lower[i] <= truth <= answer.upper[i]

    def test_per_key_epsilon_contract_holds(self, rng):
        config = small_config()
        with SummaryRegistry(config) as registry:
            for batch in range(10):
                registry.ingest("acme", "latency", rng.uniform(size=2_000))
            answer = registry.quantiles("acme", "latency", [0.5])
        assert answer.epsilon_bound <= config.per_key_epsilon
        assert (answer.guarantee - 1) <= config.per_key_epsilon * answer.count

    def test_keys_are_isolated(self, rng):
        with SummaryRegistry(small_config()) as registry:
            registry.ingest("a", "m", np.full(100, 1.0))
            registry.ingest("b", "m", np.full(50, 9.0))
            a = registry.quantiles("a", "m", [0.5])
            b = registry.quantiles("b", "m", [0.5])
        assert a.count == 100 and a.upper[0] == 1.0
        assert b.count == 50 and b.lower[0] == 9.0

    def test_unknown_key_is_estimation_error(self):
        with SummaryRegistry(small_config()) as registry:
            with pytest.raises(EstimationError, match="no data"):
                registry.quantiles("ghost", "latency", [0.5])

    def test_frame_validation(self):
        registry = SummaryRegistry(small_config())
        with pytest.raises(DataError, match="counts"):
            registry.ingest_frame(["a\x1fm"], np.array([2, 3]), np.zeros(5))
        with pytest.raises(DataError, match="sum"):
            registry.ingest_frame(["a\x1fm"], np.array([3]), np.zeros(5))
        with pytest.raises(DataError, match="finite"):
            registry.ingest_frame(
                ["a\x1fm"], np.array([1]), np.array([np.nan])
            )
        with pytest.raises(DataError):
            registry.ingest("*", "latency", [1.0])  # wildcard ingest

    def test_closed_registry_refuses(self):
        registry = SummaryRegistry(small_config())
        registry.close()
        with pytest.raises(ServiceError, match="closed"):
            registry.ingest("a", "m", [1.0])
        with pytest.raises(ServiceError, match="closed"):
            registry.quantiles("a", "m", [0.5])


class TestBudget:
    def test_used_slots_never_exceed_budget(self, rng, tmp_path):
        config = small_config(tmp_path, memory_budget=30_000)
        with SummaryRegistry(config) as registry:
            for i in range(200):
                registry.ingest(f"t{i}", "m", rng.uniform(size=200))
                stats = registry.stats()
                assert stats["used_slots"] <= stats["budget_slots"]
            assert registry.stats()["spills"] > 0

    def test_budget_pressure_without_spill_dir_is_retryable(self, rng):
        config = small_config(memory_budget=2_000, per_key_overhead=512)
        registry = SummaryRegistry(config)
        with pytest.raises(ServiceError, match="budget"):
            for i in range(100):
                registry.ingest(f"t{i}", "m", rng.uniform(size=64))

    def test_spilled_key_restores_on_query(self, rng, tmp_path):
        # Tight enough that even the post-fold summaries (~200 slots per
        # key, 60 keys per shard) overflow a shard and force spills.
        config = small_config(tmp_path, memory_budget=9_000)
        data = {}
        with SummaryRegistry(config) as registry:
            for i in range(120):
                values = rng.uniform(size=250)
                data[i] = values
                registry.ingest(f"t{i}", "m", values)
            assert registry.stats()["spilled_keys"] > 0
            # The oldest keys were evicted; query one back.
            answer = registry.quantiles("t0", "m", [0.5])
            assert answer.source == "restored"
            assert answer.count == 250
            truth = np.sort(data[0])[124]
            assert answer.lower[0] <= truth <= answer.upper[0]

    def test_churn_keeps_spill_disk_bounded(self, rng, tmp_path, monkeypatch):
        """STATS reports the spill log's live and on-disk bytes, and under
        spill/restore churn disk stays within 2 x live + one segment."""
        segment = 16 << 10
        monkeypatch.setattr(store_module, "_SEGMENT_BYTES", segment)
        config = small_config(tmp_path, memory_budget=9_000)
        with SummaryRegistry(config) as registry:
            assert registry.stats()["spill_bytes_on_disk"] == 0
            for i in range(300):
                registry.ingest(f"t{i % 90}", "m", rng.uniform(size=250))
                if i % 3 == 0:  # an ingested key, often a cold one
                    registry.quantiles(f"t{(i * 7) % min(i + 1, 90)}", "m", [0.5])
                stats = registry.stats()
                live, disk = stats["spill_bytes_live"], stats["spill_bytes_on_disk"]
                assert disk <= 2 * live + segment, (i, live, disk)
            assert stats["restores"] > 0 and 0 < live < disk
            spill_files = sorted((tmp_path / "spills").glob("segment-*.log"))
            assert int(spill_files[0].stem[8:]) > 1  # reclaimed segments
        with SummaryRegistry(small_config()) as registry:
            assert registry.stats()["spill_bytes_live"] == 0


class TestSpillFailure:
    def test_failed_spill_keeps_the_key_and_its_charge(
        self, rng, tmp_path, monkeypatch
    ):
        """A spill that hits a full disk evicts nothing: the key keeps its
        folded state and its slot charge, and the caller gets a retryable
        ServiceError instead of a raw OSError."""
        config = small_config(
            tmp_path, memory_budget=1_300, num_shards=1, fold_threshold=256
        )
        registry = SummaryRegistry(config)
        shard = registry._shards[0]
        acknowledged = {}
        failed = None
        with monkeypatch.context() as patch:
            patch.setattr(store_module.os, "pwrite", _enospc)
            for i in range(20):
                metric = f"m{i}"
                try:
                    registry.ingest("t", metric, rng.uniform(size=300))
                except ServiceError as exc:
                    assert "retry" in str(exc)
                    failed = metric
                    break
                acknowledged[metric] = 300
        assert failed is not None and "m0" in acknowledged
        # Every resident key is billed exactly: overhead + folded summary.
        assert all(e.pending_count == 0 for e in shard.entries.values())
        assert registry.stats()["used_slots"] == sum(
            config.per_key_overhead + e.state.memory_footprint
            for e in shard.entries.values()
        )
        assert registry.stats()["spills"] == 0
        # The disk has room again: the key that failed to spill, and every
        # other acknowledged key, answers with its full count.
        for metric, count in acknowledged.items():
            assert registry.quantiles("t", metric, [0.5]).count == count
        assert registry.stats()["spills"] > 0
        stats = registry.stats()
        assert stats["used_slots"] <= stats["budget_slots"]
        registry.close()


def _enospc(fd, data, offset):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestRollups:
    def test_global_rollup_counts_everything(self, rng):
        with SummaryRegistry(small_config()) as registry:
            registry.ingest("a", "latency", rng.uniform(size=4_000))
            registry.ingest("b", "latency", rng.uniform(size=3_000))
            registry.ingest("a", "bytes", rng.uniform(size=1_000))
            metric = registry.quantiles("*", "latency", [0.5])
            everything = registry.quantiles("*", "*", [0.5])
        assert metric.source == "rollup:metric" and metric.count == 7_000
        assert everything.source == "rollup:global" and everything.count == 8_000
        assert metric.compactions == -1

    def test_rollups_do_not_touch_cold_keys(self, rng, tmp_path):
        config = small_config(tmp_path, memory_budget=9_000)
        with SummaryRegistry(config) as registry:
            for i in range(120):
                registry.ingest(f"t{i}", "m", rng.uniform(size=250))
            restores_before = registry.stats()["restores"]
            answer = registry.quantiles("*", "*", [0.5])
            assert answer.count == 120 * 250
            assert registry.stats()["restores"] == restores_before

    def test_tenant_wildcard_requires_concrete_metric_or_star(self):
        with SummaryRegistry(small_config()) as registry:
            with pytest.raises(DataError, match="per-tenant rollups"):
                registry.quantiles("acme", "*", [0.5])


class TestCompactWithinBudget:
    def test_backs_off_rather_than_break_epsilon(self, rng):
        from repro.service.tenancy.registry import _exact_delta

        data = np.sort(rng.uniform(size=50_000))
        summary = _exact_delta(data)
        compacted, did = compact_within_budget(
            summary, epsilon=0.001, target=8
        )
        assert (compacted.guaranteed_rank_error() - 1) <= 0.001 * 50_000
        # A laxer epsilon admits a tighter compaction.
        laxer, _ = compact_within_budget(summary, epsilon=0.05, target=8)
        assert laxer.num_samples <= compacted.num_samples
