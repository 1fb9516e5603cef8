"""One keyed query batch against one query per key.

``SummaryRegistry.quantiles_many`` answers a batch in one pass (φ
checked once, target ranks computed once per distinct count, raw keys
answered from their sorted values) and ``quantiles`` is its one-pair
case.  Over a spilling registry holding every kind of key, a batch must
serve the same answers as the same pairs queried one by one, and leave
the same spill directory behind: the same folds, evictions and appends,
in the same order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DataError, EstimationError
from repro.portfolio import RawKeyState
from repro.service.tenancy import RegistryConfig, SummaryRegistry
from repro.service.tenancy.keys import compose_key

PHIS = [0.01, 0.25, 0.5, 0.9, 1.0]

#: Tenant -> engine: ``g`` keys are gk, ``k`` keys kll, every other opaq.
ENGINE_PINS = {"g": "gk", "k": "kll"}

#: The batch: resident raw keys with and without pending data, promoted
#: keys of three engines, spilled keys, spilled keys holding pending
#: data, a repeated key and both rollups, interleaved.
PAIRS = [
    ("r", "m0"), ("c", "m0"), ("o", "m0"), ("*", "lat"), ("r", "m1"),
    ("c", "m1"), ("g", "m0"), ("k", "m0"), ("c", "m2"), ("r", "m0"),
    ("*", "*"), ("o", "m1"), ("c", "m3"), ("g", "m1"), ("r", "m2"),
    ("k", "m1"), ("c", "m4"), ("r", "m3"), ("c", "m5"), ("o", "m0"),
    ("r", "m4"),
]


def config(spill_dir):
    return RegistryConfig(
        memory_budget=2_500,
        num_shards=2,
        per_key_epsilon=0.05,
        max_key_samples=64,
        fold_threshold=128,
        rollup_max_samples=256,
        spill_dir=spill_dir,
        tenant_engines=ENGINE_PINS,
    )


def ingest(registry, tenant, metric, values):
    registry.ingest_frame(
        [compose_key(tenant, metric)], np.array([values.size]), values
    )


def populate(registry):
    """The same keys, in the same order, into every registry."""
    rng = np.random.default_rng(31)
    # Cold keys first: later ingest pushes them out to the spill store.
    for i in range(12):
        ingest(registry, "c", f"m{i}", rng.normal(size=150))
    # Promoted keys of three engines, folded at the threshold.
    for tenant in ("o", "g", "k"):
        for i in range(2):
            ingest(registry, tenant, f"m{i}", rng.normal(size=400))
    # Raw keys of four counts, folded (one absorb each), then pending
    # data on top of two that takes both past the compaction point.
    for i, size in enumerate((40, 40, 20, 25, 33)):
        ingest(registry, "r", f"m{i}", rng.normal(size=200)[:size])
    registry.quantiles_many([("r", f"m{i}") for i in range(5)], PHIS)
    for i, size in ((0, 30), (2, 50)):
        ingest(registry, "r", f"m{i}", rng.normal(size=size))
    # Pending data for spilled keys: blind writes that stay resident.
    for i in range(0, 6, 2):
        ingest(registry, "c", f"m{i}", rng.normal(size=8))
    for i in range(4):
        registry.ingest_frame(
            [compose_key("r", "lat"), compose_key("o", "lat")],
            np.array([3, 2]),
            rng.normal(size=5),
        )


def key_kinds(registry):
    """What each pair's key is right now: ``raw``, ``raw+pending``, an
    engine name, ``spilled`` or ``spilled+pending``."""
    store = registry._store
    kinds = {}
    for tenant, metric in PAIRS:
        if tenant == "*":
            continue
        key = compose_key(tenant, metric)
        entry = registry._shards[registry._shard_of(key)].entries.get(key)
        if entry is None or entry.state is None:
            assert key in store, key
            kinds[key] = "spilled" if entry is None else "spilled+pending"
        elif type(entry.state) is RawKeyState:
            kinds[key] = "raw+pending" if entry.pending_count else "raw"
        else:
            kinds[key] = entry.spec.name
    return kinds


def fields(answer):
    """Every field of a KeyAnswer, arrays as their bytes and dtype."""
    out = []
    for name in (
        "tenant", "metric", "source", "count", "guarantee", "epsilon_bound",
        "compactions", "engine",
    ):
        out.append((name, getattr(answer, name)))
    for name in ("phis", "psi", "lower", "upper", "max_below", "max_above"):
        arr = getattr(answer, name)
        out.append((name, arr.dtype.str, arr.shape, arr.tobytes()))
    return out


def directory_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_the_registry_holds_every_kind_of_key(tmp_path):
    with SummaryRegistry(config(tmp_path / "spill")) as registry:
        populate(registry)
        kinds = set(key_kinds(registry).values())
    assert kinds == {
        "raw", "raw+pending", "opaq", "gk", "kll", "spilled", "spilled+pending"
    }


def test_one_batch_equals_one_query_per_key(tmp_path):
    batch_dir, single_dir = tmp_path / "batch", tmp_path / "single"
    batch = SummaryRegistry(config(batch_dir))
    single = SummaryRegistry(config(single_dir))
    populate(batch)
    populate(single)
    assert directory_bytes(batch_dir) == directory_bytes(single_dir)
    before = batch.stats()

    batched = batch.quantiles_many(PAIRS, PHIS)
    one_by_one = [single.quantiles(tenant, metric, PHIS) for tenant, metric in PAIRS]

    assert [fields(a) for a in batched] == [fields(a) for a in one_by_one]
    # Raw answers of several counts share one batch.
    assert len({a.count for a in batched if a.guarantee == 1}) >= 3
    sources = {a.source for a in batched}
    assert sources == {"resident", "restored", "rollup:metric", "rollup:global"}
    assert {a.engine for a in batched} == {"opaq", "gk", "kll"}
    after = batch.stats()
    # The batch folded pending data, read chains and evicted keys.
    assert after["folds"] > before["folds"]
    assert after["disk_reads"] > before["disk_reads"]
    assert after["spills"] > before["spills"]
    assert batch.stats() == single.stats()
    assert directory_bytes(batch_dir) == directory_bytes(single_dir)
    batch.close()
    single.close()
    assert directory_bytes(batch_dir) == directory_bytes(single_dir)


def test_raw_answers_share_read_only_ranks_per_count(tmp_path):
    with SummaryRegistry(config(tmp_path / "spill")) as registry:
        populate(registry)
        first, other, again = registry.quantiles_many(
            [("r", "m1"), ("r", "m3"), ("r", "m1")], PHIS
        )
    assert first.count == again.count == 40 and other.count == 25
    assert first.psi is again.psi and first.psi is not other.psi
    assert not first.psi.flags.writeable
    assert not first.max_below.flags.writeable


@pytest.mark.parametrize(
    "pair, match",
    [
        (("", "m0"), "tenant must be a non-empty string"),
        (("r", ""), "metric must be a non-empty string"),
        (("r\x1fx", "m0"), "reserved key separator"),
        (("r", "m\x1f0"), "reserved key separator"),
        (("t" * 256, "m0"), "exceeds 255 UTF-8 bytes"),
        (("r", "é" * 128), "exceeds 255 UTF-8 bytes"),
        (("r", "*"), "per-tenant rollups are not maintained"),
    ],
)
def test_a_bad_key_is_a_data_error(tmp_path, pair, match):
    with SummaryRegistry(config(tmp_path / "spill")) as registry:
        populate(registry)
        with pytest.raises(DataError, match=match):
            registry.quantiles_many([("r", "m1"), pair], PHIS)
        with pytest.raises(DataError, match=match):
            registry.quantiles(*pair, PHIS)


def test_a_component_of_255_bytes_is_a_key(tmp_path):
    with SummaryRegistry(config(tmp_path / "spill")) as registry:
        ingest(registry, "t" * 255, "é" * 127, np.arange(5.0))
        (answer,) = registry.quantiles_many([("t" * 255, "é" * 127)], [0.5])
    assert answer.count == 5 and answer.upper[0] == 2.0


@pytest.mark.parametrize(
    "phis", [[], [0.0], [0.5, 1.5], [0.5, float("nan")], [[0.5]]]
)
def test_an_invalid_phi_raises_before_any_key_is_folded(tmp_path, phis):
    spill_dir = tmp_path / "spill"
    with SummaryRegistry(config(spill_dir)) as registry:
        populate(registry)
        kinds, stats = key_kinds(registry), registry.stats()
        files = directory_bytes(spill_dir)
        assert kinds[compose_key("r", "m0")] == "raw+pending"
        with pytest.raises(EstimationError):
            registry.quantiles_many(PAIRS, phis)
        with pytest.raises(EstimationError):
            registry.quantiles("r", "m0", phis)
        # Nothing was folded, evicted, read or appended.
        assert key_kinds(registry) == kinds
        assert registry.stats() == stats
        assert directory_bytes(spill_dir) == files


def test_an_unknown_key_fails_after_the_keys_before_it(tmp_path):
    with SummaryRegistry(config(tmp_path / "spill")) as registry:
        populate(registry)
        key = compose_key("r", "m0")
        assert key_kinds(registry)[key] == "raw+pending"
        with pytest.raises(EstimationError, match="no data"):
            registry.quantiles_many([("r", "m0"), ("ghost", "m0")], PHIS)
        # The first key's pending data was folded, as one query would.
        assert key_kinds(registry)[key] == "opaq"
