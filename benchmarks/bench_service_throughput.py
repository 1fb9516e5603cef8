"""Serving throughput at the wire: binary protocol v3.

Not a paper experiment — release engineering for :mod:`repro.service`.
Every number here crosses a real socket through
:class:`~repro.service.client.ServiceClient` to a live
:class:`~repro.service.ThreadedBinaryServer`, so it prices framed numpy
payloads and pipelined φ-vector queries, not in-process calls.

Measured at 1/4/8 shards over the same 1M-element dataset:

* **ingest throughput** — elements/second for batched ``ingest`` calls
  (passes of 4 × 250k batches, repeated until at least
  ``_INGEST_SECONDS`` have passed) plus the epoch snapshot: the full
  cost of making the data queryable through the wire;
* **query throughput** — 9-φ dectile vectors answered per second, with
  the client pipelining ``quantiles_many`` at depth ``_PIPELINE`` (all
  request frames written before replies are read — the server answers in
  order).  Counts are per *vector*, not per φ.  A repeated φ-vector
  against an unchanged epoch hits the server's encoded-reply cache —
  deliberately part of the measured path, since a dashboard polling
  fixed fractions is the canonical query workload.

Both guarantee levels are recorded per row (``guarantee_merged`` for the
served epoch, ``guarantee_per_shard`` for the worst shard) because they
are different numbers and the merged one degrades as shards rise.

Each shard count runs in a fresh interpreter and first takes one
unrecorded warm-up repeat, so a row does not depend on what the calling
process ran before it; the row is then the best of ``_REPEATS`` timed
repeats on each axis.

Run as a script to (re)generate the committed trajectory file::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py

which writes ``BENCH_service.json`` at the repo root, headed by the host
fields of :mod:`benchmarks.machine`, or through pytest-benchmark like the
other benches for ``--benchmark-json`` output.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from pathlib import Path

import numpy as np

from repro.metrics import dectile_fractions
from repro.service import (
    QuantileService,
    ServiceClient,
    ServiceConfig,
    ThreadedBinaryServer,
)

try:  # pytest-benchmark path; absent when run as a plain script
    from benchmarks.conftest import run_once
    from benchmarks.machine import machine
except ImportError:  # pragma: no cover - script mode
    from machine import machine
    run_once = None

_N = 1_000_000
_BATCH = 250_000
_SHARD_COUNTS = (1, 4, 8)
_PIPELINE = 32  # quantiles_many depth
_INGEST_SECONDS = 0.5  # each timed ingest repeat lasts at least this long
_QUERY_SECONDS = 1.0  # measure queries for about this long per row
_REPEATS = 5  # best-of, to shave scheduler noise off the record
_OUT = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _config(shards: int) -> ServiceConfig:
    """Fixed *total* sample budget across shard counts.

    Per-shard sample size scales as ``1/shards`` so every row holds the
    same total sample memory — scale-out at constant resources, the
    paper's parallel framing — rather than silently giving the 8-shard
    row 8× the budget.  Run size stays fixed: the paper's ``m`` is a
    property of the memory block a run is folded in, not of the shard
    count, and holding it constant keeps the per-run fold count (and so
    the fold bookkeeping) comparable across rows.
    """
    return ServiceConfig(
        num_shards=shards,
        run_size=100_000,
        sample_size=1_000 // shards,
        queue_capacity=64,
    )


def _repeat(shards: int, data: np.ndarray) -> dict[str, float]:
    """One repeat on a fresh service: ingest passes over ``data`` for at
    least ``_INGEST_SECONDS`` and a snapshot, then queries for about
    ``_QUERY_SECONDS``."""
    phis = dectile_fractions()
    with QuantileService(_config(shards)) as service:
        with ThreadedBinaryServer(service, port=0) as server:
            with ServiceClient(server.url, timeout=60.0) as client:
                ingested = 0
                start = time.perf_counter()
                while ingested == 0 or time.perf_counter() - start < _INGEST_SECONDS:
                    for begin in range(0, data.size, _BATCH):
                        client.ingest(data[begin : begin + _BATCH])
                    ingested += data.size
                client.snapshot()
                ingest_seconds = time.perf_counter() - start

                vectors = 0
                start = time.perf_counter()
                while time.perf_counter() - start < _QUERY_SECONDS:
                    replies = client.quantiles_many([phis] * _PIPELINE)
                    vectors += len(replies)
                query_seconds = (time.perf_counter() - start) / vectors

                vec = replies[-1]
                assert vec.count == ingested
                stats = client.stats()
        service.close(final_snapshot=False)
    return {
        "elements": ingested,
        "ingest_seconds": ingest_seconds,
        "query_seconds_per_vector": query_seconds,
        "guarantee_merged": vec.guarantee,
        "guarantee_per_shard": max(s["guarantee"] for s in stats["per_shard"]),
    }


def _measure(shards: int) -> dict[str, float]:
    """One unrecorded warm-up repeat, then the best of ``_REPEATS`` on
    each axis independently (the axes do not interact: ingest finishes
    before querying starts)."""
    data = np.random.default_rng(7).uniform(size=_N)
    _repeat(shards, data)
    repeats = [_repeat(shards, data) for _ in range(_REPEATS)]
    ingest = max(repeats, key=lambda r: r["elements"] / r["ingest_seconds"])
    query = min(r["query_seconds_per_vector"] for r in repeats)
    return {
        "shards": shards,
        "elements": ingest["elements"],
        "ingest_seconds": ingest["ingest_seconds"],
        "ingest_elements_per_second": ingest["elements"] / ingest["ingest_seconds"],
        "query_seconds_per_vector": query,
        "queries_per_second": 1.0 / query,
        "pipeline_depth": _PIPELINE,
        # The last repeat's epoch: its count and both guarantee levels.
        "epoch_count": repeats[-1]["elements"],
        "guarantee_merged": repeats[-1]["guarantee_merged"],
        "guarantee_per_shard": repeats[-1]["guarantee_per_shard"],
    }


def _measure_fresh(shards: int) -> dict[str, float]:
    """:func:`_measure` in a fresh interpreter.

    glibc's malloc raises its mmap and trim thresholds once a large
    block is freed; after that, the server keeps the memory of its frame
    buffers instead of faulting fresh pages in for every frame, and
    ingest runs about twice as fast (42M against 84M el/s on the 2-vCPU
    host that recorded the committed file).  A row measured in a
    process that ran something else first would record that history.
    """
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(_measure, (shards,))


def main() -> dict[str, object]:
    rows = [_measure_fresh(shards) for shards in _SHARD_COUNTS]
    report = {
        "benchmark": "service_throughput",
        "machine": machine(),
        "pass_elements": _N,
        "min_ingest_seconds": _INGEST_SECONDS,
        "query_phis": len(dectile_fractions()),
        "rows": rows,
    }
    _OUT.write_text(json.dumps(report, indent=2) + "\n")
    for row in rows:
        print(
            f"shards={row['shards']}: "
            f"{row['ingest_elements_per_second']:,.0f} elements/s ingest, "
            f"{row['queries_per_second']:,.0f} vectors/s query "
            f"(merged guarantee {row['guarantee_merged']}, "
            f"per-shard {row['guarantee_per_shard']})"
        )
    print(f"wrote {_OUT}")
    return report


def bench_service_ingest_and_query(benchmark):
    """One full sweep under pytest-benchmark (headline numbers in extra_info)."""
    report = run_once(benchmark, main)
    for row in report["rows"]:
        key = f"shards_{row['shards']}"
        benchmark.extra_info[f"{key}_ingest_eps"] = row[
            "ingest_elements_per_second"
        ]
        benchmark.extra_info[f"{key}_query_qps"] = row["queries_per_second"]
        # Even the single-shard path must sustain a meaningful rate; the
        # floor is far below any observed run to avoid CI flake.
        assert row["ingest_elements_per_second"] > 1e5


if __name__ == "__main__":
    main()
