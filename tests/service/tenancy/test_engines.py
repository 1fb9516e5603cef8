"""Per-tenant engine selection in the multi-tenant registry.

The portfolio makes the per-key summary engine pluggable: the registry
config pins a default engine plus per-tenant overrides (by name or by
policy alias), every answer records the engine that served it, and a
mixed-engine spill directory restores each key through its own engine's
loader.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, DataError
from repro.portfolio import ENGINES
from repro.service.tenancy import RegistryConfig, SummaryRegistry
from repro.service.tenancy.store import SpillStore

MIXED = (
    ("acme", "kll"),
    ("globex", "smallest-memory"),  # policy alias -> gk
    ("umbrella", "as95"),
)


def config(tmp_path=None, **kw):
    defaults = dict(
        memory_budget=200_000,
        num_shards=2,
        per_key_epsilon=0.05,
        max_key_samples=64,
        fold_threshold=512,
        rollup_max_samples=256,
        tenant_engines=MIXED,
    )
    if tmp_path is not None:
        defaults["spill_dir"] = tmp_path / "spills"
    defaults.update(kw)
    return RegistryConfig(**defaults)


class TestConfig:
    def test_policy_aliases_resolve_at_construction(self):
        cfg = config()
        assert cfg.engine_for("acme") == "kll"
        assert cfg.engine_for("globex") == "gk"
        assert cfg.engine_for("umbrella") == "as95"
        assert cfg.engine_for("anyone-else") == "opaq"

    def test_mapping_form_is_accepted(self):
        cfg = config(tenant_engines={"a": "mergeable-sketch"})
        assert cfg.engine_for("a") == "kll"

    def test_unknown_engine_fails_construction(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            config(engine="quantum")
        with pytest.raises(ConfigError, match="unknown engine"):
            config(tenant_engines=(("a", "quantum"),))

    def test_malformed_pairs_fail_construction(self):
        with pytest.raises(ConfigError, match="pairs"):
            config(tenant_engines=(("a", "kll", "extra"),))
        with pytest.raises(ConfigError, match="empty"):
            config(tenant_engines=(("", "kll"),))


class TestServing:
    def test_answers_carry_their_engine(self, rng):
        with SummaryRegistry(config()) as registry:
            for tenant in ("acme", "globex", "umbrella", "initech"):
                registry.ingest(tenant, "latency", rng.normal(size=4_000))
            for tenant, expected in (
                ("acme", "kll"),
                ("globex", "gk"),
                ("umbrella", "as95"),
                ("initech", "opaq"),
            ):
                answer = registry.quantiles(tenant, "latency", [0.5, 0.99])
                assert answer.engine == expected
                assert answer.count == 4_000

    def test_epsilon_contract_holds_for_guaranteed_engines(self, rng):
        with SummaryRegistry(config()) as registry:
            for tenant in ("acme", "globex", "initech"):
                for _ in range(6):
                    registry.ingest(tenant, "m", rng.uniform(size=2_000))
            for tenant in ("acme", "globex", "initech"):
                answer = registry.quantiles(tenant, "m", [0.5])
                assert answer.epsilon_bound <= 0.05, (tenant, answer)

    def test_as95_guarantee_is_vacuous_and_says_so(self, rng):
        with SummaryRegistry(config()) as registry:
            registry.ingest("umbrella", "m", rng.normal(size=3_000))
            answer = registry.quantiles("umbrella", "m", [0.5])
        assert answer.guarantee == answer.count

    def test_rollups_stay_opaq_whatever_the_tenants_run(self, rng):
        with SummaryRegistry(config()) as registry:
            registry.ingest("acme", "m", rng.normal(size=2_000))
            registry.ingest("umbrella", "m", rng.normal(size=2_000))
            answer = registry.quantiles("*", "m", [0.5])
        assert answer.engine == "opaq"
        assert answer.count == 4_000

    def test_stats_count_resident_keys_by_engine(self, rng):
        with SummaryRegistry(config()) as registry:
            registry.ingest("acme", "a", rng.normal(size=1_000))
            registry.ingest("acme", "b", rng.normal(size=1_000))
            registry.ingest("initech", "a", rng.normal(size=1_000))
            stats = registry.stats()
        assert stats["default_engine"] == "opaq"
        assert stats["resident_keys_by_engine"] == {"kll": 2, "opaq": 1}


class TestMixedSpill:
    def test_mixed_engines_spill_and_restore(self, rng, tmp_path):
        frames = {
            tenant: rng.normal(size=6_000)
            for tenant in ("acme", "globex", "umbrella", "initech")
        }
        cfg = config(tmp_path)
        with SummaryRegistry(cfg) as registry:
            for tenant, data in frames.items():
                registry.ingest(tenant, "latency", data)
            assert registry.spill_all() == 4

        # A fresh registry over the same spill directory serves every
        # key through its own engine's loader.
        with SummaryRegistry(cfg) as registry:
            for tenant, expected in (
                ("acme", "kll"),
                ("globex", "gk"),
                ("umbrella", "as95"),
                ("initech", "opaq"),
            ):
                answer = registry.quantiles(tenant, "latency", [0.25, 0.75])
                assert answer.source == "restored"
                assert answer.engine == expected
                assert answer.count == 6_000
                ground = np.sort(frames[tenant])
                if expected in ("opaq", "gk"):
                    for i, psi in enumerate(answer.psi):
                        truth = ground[int(psi) - 1]
                        assert answer.lower[i] <= truth <= answer.upper[i]

    def test_unknown_engine_in_manifest_fails_loudly(self, rng, tmp_path):
        cfg = config(tmp_path)
        with SummaryRegistry(cfg) as registry:
            registry.ingest("acme", "m", rng.normal(size=2_000))
            registry.spill_all()

        store = SpillStore(tmp_path / "spills")  # only knows opaq
        with pytest.raises(DataError, match="engine 'kll'"):
            store.restore("acme\x1fm")
