"""Spill/restore determinism: the registry's bit-identity properties.

The spill path may not cost accuracy or determinism: a key that went
cold, spilled to disk and came back must answer queries **bit-identical**
to the moment it left memory — across process restarts too — and every
key's ``(g - 1) <= ε·count`` contract must survive arbitrary spill churn.
"""

import struct

import numpy as np
import pytest

from repro.service.tenancy import RegistryConfig, SummaryRegistry

PHI_GRID = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99]


def answer_fingerprint(answer) -> bytes:
    """Byte-exact identity of a served keyed answer.

    Floats travel as raw IEEE-754 doubles (no repr rounding); the
    fingerprint covers everything the wire protocol frames.
    """
    blob = struct.pack(
        "!QQqd", answer.count, answer.guarantee, answer.compactions,
        answer.epsilon_bound,
    )
    for arr in (answer.phis, answer.psi, answer.lower, answer.upper,
                answer.max_below, answer.max_above):
        blob += np.ascontiguousarray(arr).tobytes()
    return blob


def config(tmp_path, **kw):
    defaults = dict(
        memory_budget=60_000,
        num_shards=2,
        per_key_epsilon=0.02,
        max_key_samples=64,
        fold_threshold=256,
        rollup_max_samples=512,
        spill_dir=tmp_path / "spills",
    )
    defaults.update(kw)
    return RegistryConfig(**defaults)


#: Tenants served by sketch engines in the churn tests (the rest: opaq).
ENGINES = {"tenant1": "gk", "tenant2": "kll"}


def assert_encloses(answer, parts):
    """Deterministic engines' bounds enclose the exact quantile ranks."""
    if answer.engine not in ("opaq", "gk"):
        return
    truth = np.sort(np.concatenate(parts))
    assert answer.count == truth.size
    for i, psi in enumerate(answer.psi):
        assert answer.lower[i] <= truth[int(psi) - 1] <= answer.upper[i]


def keyed_workload(seed, keys=40, batches=4, batch=300):
    rng = np.random.default_rng(seed)
    for _ in range(batches):
        for i in range(keys):
            yield f"tenant{i % 8}", f"metric{i}", rng.normal(size=batch)


@pytest.mark.parametrize("seed", [0, 7, 1234])
class TestSpillRestoreBitIdentity:
    def test_evict_spill_restore_query_is_bit_identical(self, seed, tmp_path):
        """spill_all() -> restore serves the same bytes as never evicting."""
        registry = SummaryRegistry(config(tmp_path))
        pairs = set()
        for tenant, metric, values in keyed_workload(seed):
            registry.ingest(tenant, metric, values)
            pairs.add((tenant, metric))
        pairs = sorted(pairs)

        before = {
            pair: answer_fingerprint(registry.quantiles(*pair, PHI_GRID))
            for pair in pairs
        }
        # Some keys already went cold under the budget during ingest;
        # spill_all() evicts whatever is still resident, so afterwards
        # every key answers from disk.
        assert registry.spill_all() > 0
        assert registry.stats()["resident_keys"] == 0

        for pair in pairs:
            answer = registry.quantiles(*pair, PHI_GRID)
            assert answer.source == "restored"
            assert answer_fingerprint(answer) == before[pair], pair
        registry.close()

    def test_warm_restart_is_bit_identical(self, seed, tmp_path):
        """close() + a fresh registry over the spill dir: same bytes."""
        registry = SummaryRegistry(config(tmp_path))
        pairs = set()
        for tenant, metric, values in keyed_workload(seed):
            registry.ingest(tenant, metric, values)
            pairs.add((tenant, metric))
        pairs = sorted(pairs)
        before = {
            pair: answer_fingerprint(registry.quantiles(*pair, PHI_GRID))
            for pair in pairs
        }
        rollup_before = answer_fingerprint(registry.quantiles("*", "*", PHI_GRID))
        registry.close()

        restarted = SummaryRegistry(config(tmp_path))
        for pair in pairs:
            answer = restarted.quantiles(*pair, PHI_GRID)
            assert answer.source == "restored"
            assert answer_fingerprint(answer) == before[pair], pair
        # Cross-key rollups survive the restart bit-identically too.
        assert (
            answer_fingerprint(restarted.quantiles("*", "*", PHI_GRID))
            == rollup_before
        )
        restarted.close()

    def test_per_key_guarantee_survives_spill_churn(self, seed, tmp_path):
        """(g-1) <= ε·count for every key, however often it spilled, and
        every opaq and gk answer encloses the key's exact quantiles."""
        cfg = config(tmp_path, memory_budget=25_000, tenant_engines=ENGINES)
        registry = SummaryRegistry(cfg)
        data = {}
        for tenant, metric, values in keyed_workload(seed, keys=60):
            registry.ingest(tenant, metric, values)
            data.setdefault((tenant, metric), []).append(values)
        stats = registry.stats()
        assert stats["spills"] > 0, "workload must actually spill"
        assert stats["used_slots"] <= stats["budget_slots"]
        for pair in sorted(data):
            answer = registry.quantiles(*pair, PHI_GRID)
            assert answer.epsilon_bound <= cfg.per_key_epsilon, pair
            assert (answer.guarantee - 1) <= cfg.per_key_epsilon * answer.count
            assert_encloses(answer, data[pair])
        registry.close()

    def test_blind_write_churn_keeps_every_answer_sound(self, seed, tmp_path):
        """Small batches under a tight budget: spilled keys grow delta
        chains up to the ``max_key_samples`` bound and fold back.  Every
        answer along the way keeps the ε contract and (opaq, gk)
        encloses the exact quantiles; a warm restart reads the chains
        back bit-identically."""
        cfg = config(tmp_path, memory_budget=6_000, tenant_engines=ENGINES)
        registry = SummaryRegistry(cfg)
        data = {}
        stream = keyed_workload(seed, keys=60, batches=24, batch=12)
        for step, (tenant, metric, values) in enumerate(stream):
            registry.ingest(tenant, metric, values)
            data.setdefault((tenant, metric), []).append(values)
            if step % 37 == 0:
                pair = sorted(data)[step % len(data)]
                answer = registry.quantiles(*pair, PHI_GRID)
                assert (answer.guarantee - 1) <= cfg.per_key_epsilon * answer.count
                assert_encloses(answer, data[pair])
        stats = registry.stats()
        assert stats["delta_appends"] > 0 and stats["restores"] > 0
        assert stats["disk_reads"] > 0
        store = registry._store
        for key in store.keys():
            assert store.record(key).pending < cfg.max_key_samples
        before = {}
        for pair in sorted(data):
            answer = registry.quantiles(*pair, PHI_GRID)
            assert (answer.guarantee - 1) <= cfg.per_key_epsilon * answer.count
            assert_encloses(answer, data[pair])
            before[pair] = answer_fingerprint(answer)
        registry.close()

        restarted = SummaryRegistry(cfg)
        for pair in sorted(data):
            answer = restarted.quantiles(*pair, PHI_GRID)
            assert answer_fingerprint(answer) == before[pair], pair
        restarted.close()
