"""The one ingest policy, through every entry point.

Every path takes its values through :func:`repro.core.values.ingest_values`:
NaN is refused, ``±inf`` is an ordered value like any other, and every
zero the program keeps is ``+0.0``.  These tests drive infinities
through the keyed registry under spill churn, and mixed-sign zeros
through ``opaq summarize``, the stream service, the keyed registry and
every engine's ``summarize``, then look for a negative zero in whatever
each path keeps or answers.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import OPAQConfig, OPAQSummary, exact_quantiles
from repro.core.summary import unpack_fields
from repro.core.values import ingest_values
from repro.errors import DataError
from repro.portfolio import ENGINES, RawKeyState, make_engine
from repro.service import QuantileService, ServiceConfig
from repro.service.tenancy import RegistryConfig, SummaryRegistry, compose_key
from repro.storage import DatasetWriter, DiskDataset
from tests.portfolio.conftest import bounds_arrays_of, observed_rank_error
from tests.service.tenancy.test_determinism import answer_fingerprint

PHIS = [0.0001, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0]
#: One tenant per engine.
TENANTS = {f"t_{name}": name for name in sorted(ENGINES)}


def negative_zeros(*objs) -> int:
    """How many zeros with the sign bit set ``objs`` hold, looking
    through dicts, sequences, arrays and floats."""
    found = 0
    for obj in objs:
        if isinstance(obj, dict):
            found += negative_zeros(*obj.values())
        elif isinstance(obj, (list, tuple)):
            found += negative_zeros(*obj)
        elif isinstance(obj, (float, np.floating, np.ndarray)):
            arr = np.asarray(obj)
            if arr.dtype.kind == "f":
                found += int(np.count_nonzero((arr == 0) & np.signbit(arr)))
    return found


#: Both signs of zero: alone, so zeros are every sample, floor and
#: extreme, and among other values.
ZERO_POOLS = {"zeros": [-0.0, 0.0], "mixed": [-3.0, -0.0, 0.0, 0.0, 1.5]}


def signed_zeros(rng, pool, size):
    data = rng.choice(ZERO_POOLS[pool], size=size)
    data[size // 2] = -0.0
    return data


class TestPolicy:
    def test_returns_contiguous_float64_and_keeps_the_input(self):
        values = np.array([[3, -0.0], [np.inf, -np.inf]])[:, 1]
        kept = ingest_values(values)
        assert kept.dtype == np.float64 and kept.flags.c_contiguous
        assert kept.tobytes() == np.array([0.0, -np.inf]).tobytes()
        assert np.signbit(values[0])  # the caller's array is untouched
        checked = ingest_values(np.arange(4.0), copy=False)
        assert checked.tobytes() == np.arange(4.0).tobytes()

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.zeros((2, 2)), "one-dimensional"),
            (1.5, "one-dimensional"),
            (["a", "b"], "not numeric"),
            ([object()], "not numeric"),
            ([1.0, np.nan], "NaN"),
        ],
        ids=["2-D", "scalar", "strings", "objects", "NaN"],
    )
    def test_refusals_are_data_errors(self, bad, match):
        with pytest.raises(DataError, match=match):
            ingest_values(bad)

    @pytest.mark.parametrize(
        "counts",
        [[2.9], ["a"], None, [None], [np.inf]],
        ids=["fraction", "string", "missing", "none", "inf"],
    )
    def test_keyed_counts_are_whole_numbers(self, counts):
        """A frame's counts are refused, not truncated or crashed on."""
        key = compose_key("t", "m")
        with SummaryRegistry(RegistryConfig(num_shards=1)) as registry:
            with pytest.raises(DataError, match="counts"):
                registry.ingest_frame([key], counts, [1.0, 2.0])
            assert registry.ingest_frame([key], [2.0], [1.0, 2.0]) == {
                "elements": 2, "keys": 1
            }


def test_infinities_through_the_keyed_registry(tmp_path):
    """±inf-laced keys on every engine, under a budget that spills,
    appends deltas and folds back: the deterministic engines enclose
    every exact quantile, every engine's observed rank error stays below
    its guarantee, rollups answer ±inf at the extreme φ, and a warm
    restart answers the same bytes."""
    cfg = RegistryConfig(
        memory_budget=6_000,
        num_shards=2,
        per_key_epsilon=0.02,
        max_key_samples=64,
        fold_threshold=256,
        rollup_max_samples=512,
        spill_dir=tmp_path / "spills",
        tenant_engines=TENANTS,
    )
    rng = np.random.default_rng(11)
    registry = SummaryRegistry(cfg)
    pairs = [(t, f"m{i}") for t in TENANTS for i in range(4)]
    data: dict[tuple[str, str], list[np.ndarray]] = {}
    for _ in range(40):
        keys, counts, parts = [], [], []
        for pair in pairs:
            values = rng.normal(size=int(rng.integers(4, 40)))
            laced = rng.random(values.size) < 0.1
            values[laced] = rng.choice([-np.inf, np.inf], size=int(laced.sum()))
            keys.append(compose_key(*pair))
            counts.append(values.size)
            parts.append(values)
            data.setdefault(pair, []).append(values)
        registry.ingest_frame(keys, np.array(counts), np.concatenate(parts))
    stats = registry.stats()
    assert stats["spills"] > 0 and stats["delta_appends"] > 0
    assert stats["restores"] > 0

    before = {}
    for pair in pairs:
        truth = np.concatenate(data[pair])
        answer = registry.quantiles(*pair, PHIS)
        assert answer.engine == TENANTS[pair[0]]
        assert answer.count == truth.size
        psi = np.asarray(answer.psi)
        assert observed_rank_error(truth, psi, answer.lower, answer.upper) < answer.guarantee
        if answer.engine in ("opaq", "gk"):
            exact = np.sort(truth)[psi - 1]
            assert np.all(answer.lower <= exact) and np.all(exact <= answer.upper)
        before[pair] = answer_fingerprint(answer)
    everything = np.concatenate([np.concatenate(v) for v in data.values()])
    for rollup in [("*", "m0"), ("*", "*")]:
        answer = registry.quantiles(*rollup, PHIS)
        before[rollup] = answer_fingerprint(answer)
        assert answer.lower[0] == -np.inf and answer.upper[-1] == np.inf
    assert everything.min() == -np.inf and everything.max() == np.inf
    registry.close()

    restarted = SummaryRegistry(cfg)
    for pair, fingerprint in before.items():
        assert answer_fingerprint(restarted.quantiles(*pair, PHIS)) == fingerprint, pair
    restarted.close()


@pytest.mark.parametrize("pool", sorted(ZERO_POOLS))
@pytest.mark.parametrize(
    "strategy", ["numpy", "sort", "floyd_rivest", "median_of_medians"]
)
def test_summarize_stores_no_negative_zero(tmp_path, strategy, pool, capsys):
    path = tmp_path / "zeros.opaq"
    with DatasetWriter(path) as writer:
        writer.append(signed_zeros(np.random.default_rng(3), pool, 6_000))
    out = tmp_path / "zeros.npz"
    args = [
        "summarize", str(path), "--out", str(out), "--run-size", "1000",
        "--sample-size", "50", "--strategy", strategy,
    ]
    assert main(args) == 0
    capsys.readouterr()
    with np.load(out) as archive:
        arrays = {name: archive[name] for name in archive.files if name != "meta"}
        meta = json.loads(archive["meta"].tobytes().decode())
    assert negative_zeros(arrays, meta) == 0
    assert np.count_nonzero(OPAQSummary.load(out).samples == 0) > 0


@pytest.mark.parametrize("pool", sorted(ZERO_POOLS))
def test_exact_refinement_answers_no_negative_zero(tmp_path, pool):
    path = tmp_path / "zeros.opaq"
    with DatasetWriter(path) as writer:
        writer.append(signed_zeros(np.random.default_rng(8), pool, 10_000))
    config = OPAQConfig(run_size=1_000, sample_size=50)
    values, bounds, _ = exact_quantiles(DiskDataset.open(path), PHIS, config)
    assert negative_zeros(values) == 0
    assert np.all([b.lower <= v <= b.upper for b, v in zip(bounds, values)])


def test_the_stream_service_keeps_no_negative_zero(tmp_path):
    """An epoch over zeros alone, then one over zeros among other
    values: neither epoch record nor answer holds a negative zero."""
    rng = np.random.default_rng(4)
    config = ServiceConfig(
        num_shards=2, run_size=1_000, sample_size=50, snapshot_dir=tmp_path
    )
    with QuantileService(config) as service:
        log = service._snapshotter._log
        for epoch, pool in enumerate(("zeros", "mixed"), start=1):
            batch = signed_zeros(rng, pool, 4_000)
            original = batch.tobytes()
            service.ingest(batch)
            service.snapshot()
            assert batch.tobytes() == original  # a caller's batch is never rewritten
            vector = service.query_arrays(PHIS)
            assert negative_zeros(vector.lower, vector.upper) == 0
            # The epoch's record, read back from the epoch log.
            assert log.aux_names() == [f"epoch-{epoch:08d}"]
            record = log.load_aux(f"epoch-{epoch:08d}").to_bytes()
            assert negative_zeros(unpack_fields(record)) == 0


def test_the_keyed_registry_keeps_no_negative_zero(tmp_path):
    """Key states (raw and promoted), spill records read back, key
    answers and rollups: no negative zero anywhere."""
    cfg = RegistryConfig(
        memory_budget=200_000,
        num_shards=2,
        per_key_epsilon=0.05,
        max_key_samples=64,
        fold_threshold=512,
        rollup_max_samples=256,
        spill_dir=tmp_path / "spills",
        tenant_engines=TENANTS,
    )
    rng = np.random.default_rng(5)
    registry = SummaryRegistry(cfg)
    # Per engine and pool: a key that stays raw and one promoted past
    # its engine's limit.
    metrics = [f"{pool}-{size}" for pool in ZERO_POOLS for size in ("raw", "promoted")]
    pairs = [(t, m) for t in TENANTS for m in metrics]
    for size in (2, 4, 80):
        keys, counts, parts = [], [], []
        for tenant, metric in pairs:
            n = size if metric.endswith("-raw") else 50 * size
            keys.append(compose_key(tenant, metric))
            counts.append(n)
            parts.append(signed_zeros(rng, metric.partition("-")[0], n))
        frame = np.concatenate(parts)
        original = frame.tobytes()
        registry.ingest_frame(keys, np.array(counts), frame)
        assert frame.tobytes() == original
    answers = [registry.quantiles(*pair, PHIS) for pair in pairs]
    answers += [registry.quantiles("*", metric, PHIS) for metric in [*metrics, "*"]]
    for answer in answers:
        assert negative_zeros(answer.lower, answer.upper) == 0
    kinds = set()
    for shard in registry._shards:
        for entry in shard.entries.values():
            assert entry.pending_count == 0  # the queries folded it
            state = entry.state
            kinds.add(type(state) is RawKeyState)
            if isinstance(state, RawKeyState):
                assert negative_zeros(state.values, state.minimum, state.maximum) == 0
            else:
                assert negative_zeros(unpack_fields(state.to_bytes())) == 0
    assert kinds == {True, False}
    registry.spill_all()
    store = registry._store
    for tenant, metric in pairs:
        base, record, _ = store.restore(compose_key(tenant, metric), keep=True)
        fields = base if record.raw else unpack_fields(base.to_bytes())
        assert negative_zeros(fields, record.minimum, record.maximum, record.values) == 0
    registry.close()


@pytest.mark.parametrize("pool", sorted(ZERO_POOLS))
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_every_engines_summary_keeps_no_negative_zero(name, pool):
    data = signed_zeros(np.random.default_rng(6), pool, 20_000)
    original = data.tobytes()
    summary = make_engine(name).summarize(data)
    assert data.tobytes() == original
    assert negative_zeros(
        unpack_fields(summary.to_bytes()),
        bounds_arrays_of(summary, PHIS),
        summary.minimum,
        summary.maximum,
    ) == 0
