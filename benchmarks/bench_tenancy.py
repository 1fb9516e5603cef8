"""Multi-tenant registry scaling: resident keys vs. keyed throughput.

Not a paper experiment — release engineering for
:mod:`repro.service.tenancy`.  The registry's promise is *key-count*
scaling under one fixed memory budget: millions of ``(tenant, metric)``
summaries, each carrying its own compaction history and so its own
served guarantee.  This bench records what that promise costs at
10k/100k/1M keys:

* **keyed ingest throughput** — elements/second through the binary wire
  (``INGEST_KEYED`` frames via :class:`~repro.service.ServiceClient`),
  including the inline folds that turn pending batches into compacted
  per-key summaries.  The per-element price rises as keys shrink: a
  4000-element key amortises its fold far better than a 16-element one,
  which is the honest trade a per-key backend makes.
* **keyed query throughput** — keys answered per second for 3-φ vectors
  over a deterministic sample of resident keys, plus the global
  ``("*", "*")`` rollup served from the aggregation tree.
* **residency** — ``used_slots`` vs. the fixed ``budget_slots``, plus
  resident/spilled key counts: the registry must stay at or under
  budget at every scale (the invariant
  ``tests/service/tenancy/test_registry.py`` pins functionally).
* **per-key guarantee** — every sampled answer must satisfy
  ``epsilon_bound <= per_key_epsilon``; the worst observed bound is
  recorded per row.

A separate **churn** row squeezes a deliberately undersized budget so
LRU spill actually cycles (the scale rows size their budget to the
folded working set, so spilling stays incidental there), tops the
oldest, spilled keys up with a small batch each to price blind writes
(each key's batch goes to disk as a delta, the key is not restored),
and re-queries those keys to price a cold read of a base plus its
delta.

The report's ``machine`` object records the host next to the rows, with
the fields ``perfbench/run.py`` prints in its header (cores, Python,
numpy, git sha, calibration speed).

Run as a script to (re)generate the committed trajectory file::

    PYTHONPATH=src python benchmarks/bench_tenancy.py

which writes ``BENCH_tenancy.json`` at the repo root, or through
pytest-benchmark like the other benches.  The pytest path runs a
reduced sweep (no 1M-key row) unless ``REPRO_FULL=1``; the committed
JSON always comes from the full script run.
"""

from __future__ import annotations

import gc
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.experiments.harness import full_scale
from repro.service import (
    QuantileService,
    ServiceClient,
    ServiceConfig,
    ThreadedBinaryServer,
)
from repro.service.tenancy import RegistryConfig, SummaryRegistry

try:  # pytest-benchmark path; absent when run as a plain script
    from benchmarks.conftest import run_once
    from benchmarks.machine import machine
except ImportError:  # pragma: no cover - script mode
    from machine import machine
    run_once = None

_EPSILON = 0.02
_MAX_KEY_SAMPLES = 256
_PHIS = np.array([0.5, 0.9, 0.99])
_METRICS = 32  # distinct metric names; tenants grow with the key count
_QUERY_SAMPLE = 1_024  # resident keys probed per row
_QUERY_BATCH = 256  # key pairs per QUANTILES_KEYED request
_QUERY_SECONDS = 0.5  # keep querying for at least this long
_OUT = Path(__file__).resolve().parent.parent / "BENCH_tenancy.json"

#: (keys, elements_per_key, keys_per_frame, ingest_repeats).  Budgets are
#: derived, not listed: 1.3x the folded working set (see ``_budget``).
#: The first row is the headline — big keys, best-of-3 — and the ladder
#: then trades elements-per-key for key-count at roughly constant data.
_FULL_SCALES = (
    (10_000, 4_000, 1_000, 3),
    (100_000, 100, 10_000, 1),
    (1_000_000, 16, 62_500, 1),
)
#: CI sweep: same shape, no 1M-key row, smaller headline.
_CI_SCALES = (
    (5_000, 4_000, 1_000, 1),
    (50_000, 100, 10_000, 1),
)

_CHURN_KEYS = 2_000
_CHURN_EL = 200
_CHURN_TOPUP_EL = 16


def _pair(i: int) -> tuple[str, str]:
    """Deterministic (tenant, metric) for key index ``i``."""
    return f"t{i // _METRICS}", f"m{i % _METRICS}"


def _budget(keys: int, el_per_key: int) -> int:
    """Fixed slot budget: 1.3x the working set of folded OPAQ keys.

    A folded key occupies ``per_key_overhead + 3*num_samples`` slots
    with ``num_samples <= min(el_per_key, max_key_samples)``; the slack
    absorbs in-flight ingest blocks and shard imbalance without ever
    letting residency grow past the recorded ceiling.  Keys of at most
    ``max_key_samples`` elements stay raw, one slot per element, so the
    smaller rows' keys fit with room to spare; the formula is kept so
    budgets stay comparable across recordings.
    """
    slots_per_key = 4 + 3 * min(el_per_key, _MAX_KEY_SAMPLES)
    return int(1.3 * keys * slots_per_key)


def _frames(
    keys: int, el_per_key: int, keys_per_frame: int, data: np.ndarray
) -> list[dict[tuple[str, str], np.ndarray]]:
    """Pre-build the keyed batches so prep is outside the ingest clock."""
    frames = []
    for lo in range(0, keys, keys_per_frame):
        hi = min(lo + keys_per_frame, keys)
        frames.append(
            {
                _pair(i): data[i * el_per_key : (i + 1) * el_per_key]
                for i in range(lo, hi)
            }
        )
    return frames


def _measure_scale(
    keys: int,
    el_per_key: int,
    keys_per_frame: int,
    repeats: int,
    spill_root: Path,
) -> dict[str, object]:
    elements = keys * el_per_key
    budget = _budget(keys, el_per_key)
    data = np.random.default_rng(7).uniform(size=elements)
    frames = _frames(keys, el_per_key, keys_per_frame, data)
    probe = [
        _pair(i)
        for i in np.linspace(
            0, keys - 1, min(_QUERY_SAMPLE, keys), dtype=np.int64
        )
    ]

    best_ingest = 0.0
    row: dict[str, object] = {}
    for rep in range(repeats):
        tenancy = RegistryConfig(
            memory_budget=budget,
            num_shards=8,
            per_key_epsilon=_EPSILON,
            max_key_samples=_MAX_KEY_SAMPLES,
            # Whole keys arrive in one frame here, so the fold (and the
            # compaction that enforces epsilon) happens inline: the
            # ingest number prices durable *summaries*, not raw buffers.
            fold_threshold=el_per_key,
            spill_dir=spill_root / f"scale-{keys}-{rep}",
        )
        service = QuantileService(ServiceConfig(tenancy=tenancy))
        server = ThreadedBinaryServer(service, port=0)
        server.start()
        try:
            with ServiceClient(server.url, timeout=600.0) as client:
                start = time.perf_counter()
                for frame in frames:
                    client.ingest_keyed(frame)
                ingest_seconds = time.perf_counter() - start
                best_ingest = max(best_ingest, elements / ingest_seconds)

                answered = 0
                worst_bound = 0.0
                epsilon_ok = True
                start = time.perf_counter()
                while time.perf_counter() - start < _QUERY_SECONDS:
                    lo = answered % len(probe)
                    pairs = probe[lo : lo + _QUERY_BATCH] or probe
                    for answer in client.quantiles_keyed(pairs, _PHIS):
                        worst_bound = max(worst_bound, answer.epsilon_bound)
                        epsilon_ok = epsilon_ok and (
                            answer.guarantee - 1
                            <= _EPSILON * answer.count
                        )
                    answered += len(pairs)
                query_seconds = (time.perf_counter() - start) / answered

                start = time.perf_counter()
                (rollup,) = client.quantiles_keyed([("*", "*")], _PHIS)
                rollup_seconds = time.perf_counter() - start
                tenancy_stats = client.stats()["tenancy"]
        finally:
            server.stop()
            service.close(final_snapshot=False)
        assert rollup.count == elements, rollup.count
        row = {
            "keys": keys,
            "elements_per_key": el_per_key,
            "elements": elements,
            "keys_per_frame": keys_per_frame,
            "ingest_repeats": repeats,
            "budget_slots": budget,
            "used_slots": int(tenancy_stats["used_slots"]),
            "resident_keys": int(tenancy_stats["resident_keys"]),
            "spilled_keys": int(tenancy_stats["spilled_keys"]),
            "folds": int(tenancy_stats["folds"]),
            "spills": int(tenancy_stats["spills"]),
            "ingest_seconds": elements / best_ingest,
            "ingest_elements_per_second": best_ingest,
            "query_keys_per_second": 1.0 / query_seconds,
            "query_phis": int(_PHIS.size),
            "rollup_seconds": rollup_seconds,
            "rollup_count": int(rollup.count),
            "probed_keys": len(probe),
            "worst_epsilon_bound": worst_bound,
            "epsilon_ok": bool(epsilon_ok),
        }
        assert row["used_slots"] <= budget, row
        assert epsilon_ok and worst_bound <= _EPSILON, row
    return row


def _measure_churn(spill_root: Path) -> dict[str, object]:
    """Undersized budget, in-process registry: price the spill cycle."""
    keys, el = _CHURN_KEYS, _CHURN_EL
    # ~4 resident keys' worth per shard: most of the working set must
    # live on disk, so ingest itself churns the LRU spill path.
    config = RegistryConfig(
        memory_budget=keys * (4 + 3 * 64) // 8,
        num_shards=4,
        per_key_epsilon=0.05,
        max_key_samples=64,
        fold_threshold=el,
        spill_dir=spill_root / "churn",
    )
    rng = np.random.default_rng(11)
    data = rng.uniform(size=keys * el)
    oldest = [_pair(i) for i in range(256)]
    topup = rng.uniform(size=len(oldest) * _CHURN_TOPUP_EL)
    with SummaryRegistry(config) as registry:
        start = time.perf_counter()
        for lo in range(0, keys, 500):
            hi = min(lo + 500, keys)
            names = [
                "\x1f".join(_pair(i)) for i in range(lo, hi)
            ]
            registry.ingest_frame(
                names,
                np.full(hi - lo, el, dtype=np.int64),
                data[lo * el : hi * el],
            )
        ingest_seconds = time.perf_counter() - start
        stats_after_ingest = registry.stats()

        start = time.perf_counter()
        registry.ingest_frame(
            ["\x1f".join(pair) for pair in oldest],
            np.full(len(oldest), _CHURN_TOPUP_EL, dtype=np.int64),
            topup,
        )
        topup_seconds = time.perf_counter() - start

        worst_bound = 0.0
        start = time.perf_counter()
        for tenant, metric in oldest:
            answer = registry.quantiles(tenant, metric, _PHIS)
            worst_bound = max(worst_bound, answer.epsilon_bound)
        cold_query_seconds = (time.perf_counter() - start) / len(oldest)
        stats = registry.stats()
    row = {
        "keys": keys,
        "elements_per_key": el,
        "budget_slots": config.memory_budget,
        "used_slots": int(stats["used_slots"]),
        "resident_keys": int(stats["resident_keys"]),
        "spilled_keys": int(stats["spilled_keys"]),
        "spills": int(stats["spills"]),
        "restores": int(stats["restores"]),
        "evictions": int(stats["evictions"]),
        "delta_appends": int(stats["delta_appends"]),
        "disk_reads": int(stats["disk_reads"]),
        "ingest_elements_per_second": keys * el / ingest_seconds,
        "topup_elements_per_key": _CHURN_TOPUP_EL,
        "topup_elements_per_second": topup.size / topup_seconds,
        "requeried_cold_keys": len(oldest),
        "seconds_per_cold_query": cold_query_seconds,
        "worst_epsilon_bound": worst_bound,
    }
    assert stats_after_ingest["spills"] > 0, stats_after_ingest
    assert stats["delta_appends"] > 0 and stats["disk_reads"] > 0, stats
    assert row["used_slots"] <= row["budget_slots"], row
    assert worst_bound <= config.per_key_epsilon, row
    return row


def main(scales=_FULL_SCALES, out: Path | None = _OUT) -> dict[str, object]:
    gc_was_enabled = gc.isenabled()
    gc.disable()  # keep collector pauses out of the throughput clocks
    try:
        with tempfile.TemporaryDirectory(prefix="opaq-bench-") as tmp:
            spill_root = Path(tmp)
            rows = [
                _measure_scale(keys, el, per_frame, repeats, spill_root)
                for keys, el, per_frame, repeats in scales
            ]
            churn = _measure_churn(spill_root)
    finally:
        if gc_was_enabled:
            gc.enable()
    report = {
        "benchmark": "tenancy",
        "machine": machine(),
        "per_key_epsilon": _EPSILON,
        "max_key_samples": _MAX_KEY_SAMPLES,
        "query_phis": [float(phi) for phi in _PHIS],
        "scales": rows,
        "churn": churn,
    }
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")
    for row in rows:
        print(
            f"{row['keys']:>9,} keys x {row['elements_per_key']:>5,} el: "
            f"{row['ingest_elements_per_second']:,.0f} el/s ingest, "
            f"{row['query_keys_per_second']:,.0f} keys/s query, "
            f"used {row['used_slots']:,}/{row['budget_slots']:,} slots, "
            f"worst eps {row['worst_epsilon_bound']:.4f}"
        )
    print(
        f"churn {churn['keys']:,} keys @ budget {churn['budget_slots']:,}: "
        f"{churn['spills']} spills, {churn['delta_appends']} delta appends, "
        f"{churn['disk_reads']} disk reads, {churn['restores']} restores, "
        f"{churn['seconds_per_cold_query'] * 1e3:.2f} ms/cold query"
    )
    if out is not None:
        print(f"wrote {out}")
    return report


def bench_tenancy_scaling(benchmark):
    """One sweep under pytest-benchmark (headline numbers in extra_info).

    CI scale by default; ``REPRO_FULL=1`` runs (and rewrites the JSON
    for) the full 10k/100k/1M ladder.
    """
    full = full_scale()
    report = run_once(
        benchmark,
        main,
        _FULL_SCALES if full else _CI_SCALES,
        out=_OUT if full else None,
    )
    for row in report["scales"]:
        key = f"keys_{row['keys']}"
        benchmark.extra_info[f"{key}_ingest_eps"] = row[
            "ingest_elements_per_second"
        ]
        benchmark.extra_info[f"{key}_query_kps"] = row["query_keys_per_second"]
        # Residency and the per-key contract are hard invariants at
        # every scale; the throughput floor is set far below any
        # observed run (wire ingest benches >5M el/s on one modest
        # core at the headline row) to keep CI flake-free.
        assert row["used_slots"] <= row["budget_slots"]
        assert row["epsilon_ok"] and row["worst_epsilon_bound"] <= _EPSILON
    assert (
        report["scales"][0]["ingest_elements_per_second"] > 1e6
    )
    churn = report["churn"]
    assert churn["spills"] > 0 and churn["delta_appends"] > 0
    assert churn["disk_reads"] > 0
    benchmark.extra_info["churn_ms_per_cold_query"] = (
        churn["seconds_per_cold_query"] * 1e3
    )


if __name__ == "__main__":
    main()
