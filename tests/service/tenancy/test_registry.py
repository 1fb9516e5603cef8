"""The summary registry: budget, epsilon contract, spill/evict, rollups."""

import errno

import numpy as np
import pytest

from repro.errors import ConfigError, DataError, EstimationError, ServiceError
from repro.portfolio import OpaqKeyState, RawKeyState
from repro.service.tenancy import (
    RegistryConfig,
    SummaryRegistry,
    compact_within_budget,
)
from repro.service.tenancy import store as store_module
from tests.service.tenancy.test_determinism import answer_fingerprint


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


    def test_failed_delta_append_keeps_the_pending_data_and_its_charge(
        self, rng, tmp_path, monkeypatch
    ):
        """A spilled key's delta that hits a full disk keeps the key's
        pending data resident and billed: the ingest that needed the
        room fails retryably, ``used_slots`` still equals the resident
        charges plus the blocks they hold, and the data lands later."""
        config = small_config(
            tmp_path, memory_budget=100, num_shards=1, fold_threshold=10_000
        )
        registry = SummaryRegistry(config)
        shard = registry._shards[0]
        registry.ingest("t", "a", rng.uniform(size=300))
        assert registry.stats()["spilled_keys"] == 1  # evicted whole
        registry.ingest("t", "a", rng.uniform(size=10))
        with monkeypatch.context() as patch:
            patch.setattr(store_module.os, "pwrite", _enospc)
            with pytest.raises(ServiceError, match="retry"):
                registry.ingest("t", "b", rng.uniform(size=200))
        entry = shard.entries["t\x1fa"]
        assert entry.state is None and entry.pending_count == 10
        blocks = {id(b): b for e in shard.entries.values() for b, _, _ in e.pending}
        assert registry.stats()["used_slots"] == sum(
            e.charged for e in shard.entries.values()
        ) + sum(b.data.size for b in blocks.values())
        assert registry.stats()["delta_appends"] == 0
        assert registry.quantiles("t", "a", [0.5]).count == 310
        # The disk has room again: the next budget pass sends the delta.
        registry.ingest("t", "c", rng.uniform(size=1))
        stats = registry.stats()
        assert stats["delta_appends"] == 1 and "t\x1fa" not in shard.entries
        assert stats["used_slots"] <= stats["budget_slots"]
        assert registry.quantiles("t", "a", [0.5]).count == 310
        registry.close()


def _enospc(fd, data, offset):
    raise OSError(errno.ENOSPC, "No space left on device")


def chained_registry(tmp_path, rng, engine="opaq"):
    """A one-shard registry holding ``t/a`` spilled with two deltas,
    plus 50 pending elements that fill its chain to the bound (64), and
    ``t/cold`` spilled whole."""
    config = small_config(
        tmp_path,
        memory_budget=2_000,
        num_shards=1,
        fold_threshold=10_000,
        engine=engine,
    )
    registry = SummaryRegistry(config)
    data = [rng.normal(size=300)]
    registry.ingest("t", "a", data[-1])
    registry.ingest("t", "cold", rng.normal(size=100))
    registry.spill_all()
    for size in (10, 10):
        data.append(rng.normal(size=size))
        registry.ingest("t", "a", data[-1])
        registry.spill_all()  # the pending data becomes a delta
    assert len(registry._store.record("t\x1fa").deltas) == 2
    data.append(rng.normal(size=50))
    registry.ingest("t", "a", data[-1])
    return registry, np.sort(np.concatenate(data))


def segment_bytes(tmp_path):
    return {p.name: p.read_bytes() for p in (tmp_path / "spills").glob("segment-*.log")}


class TestBlindWrites:
    def test_query_of_a_spilled_key_is_read_only(self, rng, tmp_path):
        registry, truth = chained_registry(tmp_path, rng)
        keys = ("spilled_keys", "resident_keys", "used_slots", "restores")
        before = {k: registry.stats()[k] for k in keys}
        disk = segment_bytes(tmp_path)
        first = registry.quantiles("t", "a", [0.1, 0.5, 0.9])
        second = registry.quantiles("t", "a", [0.1, 0.5, 0.9])
        cold = registry.quantiles("t", "cold", [0.5])
        assert first.source == second.source == cold.source == "restored"
        assert first.count == truth.size == second.count
        np.testing.assert_array_equal(first.lower, second.lower)
        np.testing.assert_array_equal(first.upper, second.upper)
        assert {k: registry.stats()[k] for k in keys} == before
        assert segment_bytes(tmp_path) == disk
        assert registry.stats()["disk_reads"] == 3
        for i, psi in enumerate(first.psi):
            assert first.lower[i] <= truth[int(psi) - 1] <= first.upper[i]
        registry.close()

    def test_stats_count_deltas_disk_reads_and_restores(self, rng, tmp_path):
        registry, truth = chained_registry(tmp_path, rng)
        stats = registry.stats()
        assert stats["delta_appends"] == 2 and stats["restores"] == 0
        registry.quantiles("t", "a", [0.5])
        assert registry.stats()["disk_reads"] == 1
        # The chain is full: the next fold brings the key back.
        registry.spill_all()
        stats = registry.stats()
        assert stats["restores"] == 1 and stats["delta_appends"] == 2
        record = registry._store.record("t\x1fa")
        assert record.pending == 0 and record.deltas == ()
        assert registry.quantiles("t", "a", [0.5]).count == truth.size
        registry.close()

    @pytest.mark.parametrize("engine", ["opaq", "kll", "gk", "as95"])
    def test_chain_answers_bit_identically_from_disk_and_folded_back(
        self, rng, tmp_path, engine
    ):
        registry, truth = chained_registry(tmp_path, rng, engine)
        phis = [0.01, 0.25, 0.5, 0.75, 0.99]
        from_disk = registry.quantiles("t", "a", phis)
        assert from_disk.source == "restored" and from_disk.engine == engine
        assert registry.stats()["restores"] == 0
        # Budget pressure: the fold-first pass reaches the full chain
        # first (it is least recently used) and folds it back, then
        # folds the newcomer; nothing is evicted.
        registry.ingest("t", "b", rng.normal(size=3_000))
        stats = registry.stats()
        assert stats["restores"] == 1 and stats["evictions"] == 0
        assert "t\x1fa" not in registry._store
        folded = registry.quantiles("t", "a", phis)
        assert folded.source == "resident" and folded.count == truth.size
        assert answer_fingerprint(folded) == answer_fingerprint(from_disk)
        if engine in ("opaq", "gk"):
            for i, psi in enumerate(folded.psi):
                assert folded.lower[i] <= truth[int(psi) - 1] <= folded.upper[i]
        registry.close()


class TestValidateOnce:
    def test_only_decoded_records_are_checked(self, rng, tmp_path, monkeypatch):
        """Summaries enter a registry from its spill directory and are
        checked there, once per decoded record; the merges, compactions
        and deltas the registry and its rollups build are never checked.
        """
        from repro.core.summary import OPAQSummary
        from repro.portfolio import opaq
        from repro.service.tenancy import tree

        validated: list[OPAQSummary] = []
        decoded: list[OPAQSummary] = []
        trusted: dict[str, list[OPAQSummary]] = {}
        validate = OPAQSummary.validate
        from_fields = OPAQSummary._from_fields.__func__

        def counting_validate(self):
            validated.append(self)
            validate(self)

        def counting_from_fields(cls, *args):
            summary = from_fields(cls, *args)
            decoded.append(summary)
            return summary

        def recording(name, build):
            def wrapped(*args, **kwargs):
                summary = build(*args, **kwargs)
                if summary is not args[0]:  # merge/compact may return self
                    trusted.setdefault(name, []).append(summary)
                return summary
            return wrapped

        monkeypatch.setattr(OPAQSummary, "validate", counting_validate)
        monkeypatch.setattr(
            OPAQSummary, "_from_fields", classmethod(counting_from_fields)
        )
        for owner, name in [
            (OPAQSummary, "merge"),
            (OPAQSummary, "compact"),
            (opaq, "exact_delta"),
            (tree, "exact_delta"),
            (tree, "_strided_delta"),
        ]:
            monkeypatch.setattr(owner, name, recording(name, getattr(owner, name)))

        config = small_config(
            tmp_path, memory_budget=300, num_shards=1, fold_threshold=64
        )
        with SummaryRegistry(config) as registry:
            registry.ingest("t", "a", rng.normal(size=300))
            registry.ingest("t", "b", rng.normal(size=300))
            assert registry.stats()["spills"] == 1  # the budget evicts t/a
            registry.ingest("t", "a", rng.normal(size=20))
            registry.ingest("t", "c", rng.normal(size=100))
            assert registry.stats()["delta_appends"] == 1
            cold = registry.quantiles("t", "a", [0.5])
            assert cold.source == "restored" and cold.count == 320
            registry.ingest("t", "a", rng.normal(size=70))  # folds it back
            stats = registry.stats()
            assert stats["restores"] == 1 and stats["disk_reads"] == 1
            assert registry.quantiles("t", "a", [0.5]).count == 390
        with SummaryRegistry(config) as reopened:  # decodes the rollups
            assert reopened.quantiles("*", "*", [0.5]).count == 790
            assert reopened.quantiles("t", "a", [0.5]).count == 390

        assert sorted(trusted) == [
            "_strided_delta", "compact", "exact_delta", "merge"
        ]
        # t/a's record for the cold query, the fold-back and the query
        # after the restart, and the four rollups (one shard, three metrics).
        assert len(decoded) == 7
        assert len(validated) == len(decoded)
        assert all(v is d for v, d in zip(validated, decoded))
        built = {id(s) for summaries in trusted.values() for s in summaries}
        assert not any(id(s) in built for s in validated)


_ENGINE_NAMES = ("opaq", "kll", "gk", "as95")


class TestEngineRepin:
    @pytest.mark.parametrize(
        "old, new",
        [(a, b) for a in _ENGINE_NAMES for b in _ENGINE_NAMES if a != b],
    )
    def test_spilled_keys_keep_their_records_engine(self, rng, tmp_path, old, new):
        """Re-pinning a tenant across a warm restart moves its new keys
        only: a spilled key answers through the engine its record names
        on a read-only query, after a delta append, and after folding
        back at the chain bound.  Every key stays small enough that no
        engine compacts, so every answer encloses the sorted oracle."""

        def registry_for(engine):
            return SummaryRegistry(small_config(
                tmp_path,
                num_shards=1,
                per_key_epsilon=0.005,
                fold_threshold=50,
                tenant_engines={"acme": engine},
            ))

        def check(answer, data, source, engine):
            truth = np.sort(np.concatenate(data))
            assert answer.engine == engine and answer.source == source
            assert answer.count == truth.size and answer.compactions == 0
            for i, psi in enumerate(answer.psi):
                assert answer.lower[i] <= truth[int(psi) - 1] <= answer.upper[i]

        phis = [0.1, 0.5, 0.9]
        data = [rng.normal(size=40)]
        with registry_for(old) as registry:
            registry.ingest("acme", "a", data[-1])
        registry = registry_for(new)
        check(registry.quantiles("acme", "a", phis), data, "restored", old)
        data.append(rng.normal(size=20))
        registry.ingest("acme", "a", data[-1])
        registry.spill_all()
        assert registry.stats()["delta_appends"] == 1
        check(registry.quantiles("acme", "a", phis), data, "restored", old)
        # 20 stored + 50 pending reach the chain bound (64): the fold at
        # the fold threshold brings the key back into memory.
        data.append(rng.normal(size=50))
        registry.ingest("acme", "a", data[-1])
        assert registry.stats()["restores"] == 1
        check(registry.quantiles("acme", "a", phis), data, "resident", old)
        fresh = [rng.normal(size=30)]
        registry.ingest("acme", "fresh", fresh[-1])
        check(registry.quantiles("acme", "fresh", phis), fresh, "resident", new)
        registry.close()
        with registry_for(new) as registry:
            check(registry.quantiles("acme", "a", phis), data, "restored", old)
            check(registry.quantiles("acme", "fresh", phis), fresh, "restored", new)


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
        from repro.portfolio.opaq import exact_delta

        data = np.sort(rng.uniform(size=50_000))
        summary = exact_delta(data)
        compacted, did = compact_within_budget(
            summary, epsilon=0.001, target=8
        )
        assert (compacted.guaranteed_rank_error() - 1) <= 0.001 * 50_000
        # A laxer epsilon admits a tighter compaction.
        laxer, _ = compact_within_budget(summary, epsilon=0.05, target=8)
        assert laxer.num_samples <= compacted.num_samples


class TestRawKeys:
    """Keys start raw: their sorted values, one slot per element, until
    their engine would compact."""

    def test_raw_keys_bill_one_slot_per_element(self, rng):
        config = small_config(num_shards=1)
        registry = SummaryRegistry(config)
        sizes = {"a": 10, "b": 64, "c": 65}  # max_key_samples is 64
        data = {m: rng.normal(size=n) for m, n in sizes.items()}
        for metric, values in data.items():
            registry.ingest("t", metric, values)
            answer = registry.quantiles("t", metric, [0.25, 0.5, 1.0])
            truth = np.sort(values)
            if sizes[metric] <= 64:
                np.testing.assert_array_equal(answer.lower, truth[answer.psi - 1])
                np.testing.assert_array_equal(answer.upper, truth[answer.psi - 1])
                assert answer.guarantee == 1
        entries = registry._shards[0].entries
        assert isinstance(entries["t\x1fa"].state, RawKeyState)
        assert isinstance(entries["t\x1fb"].state, RawKeyState)
        assert isinstance(entries["t\x1fc"].state, OpaqKeyState)  # promoted
        overhead = config.per_key_overhead
        assert registry.stats()["used_slots"] == (
            (10 + overhead) + (64 + overhead)
            + (entries["t\x1fc"].state.memory_footprint + overhead)
        )
        registry.close()

    def test_spilled_raw_key_answers_without_a_summary(
        self, rng, tmp_path, monkeypatch
    ):
        from repro.core.summary import OPAQSummary

        registry = SummaryRegistry(small_config(tmp_path, num_shards=1))
        values = rng.normal(size=40)
        registry.ingest("t", "a", values)
        registry.spill_all()
        registry.ingest("t", "a", values[:5])  # pending, beside the raw base
        assert registry._store.record("t\x1fa").raw
        built = []
        trusted = OPAQSummary._trusted.__func__
        monkeypatch.setattr(
            OPAQSummary, "_trusted",
            classmethod(lambda cls, **kw: built.append(1) or trusted(cls, **kw)),
        )
        answer = registry.quantiles("t", "a", [0.1, 0.5, 1.0])
        truth = np.sort(np.concatenate([values, values[:5]]))
        assert answer.source == "restored" and answer.count == 45
        np.testing.assert_array_equal(answer.upper, truth[answer.psi - 1])
        assert built == []
        assert registry.stats()["disk_reads"] == 1
        registry.close()
