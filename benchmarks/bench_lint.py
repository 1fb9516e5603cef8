"""Lint cost, cold vs warm: what the incremental cache buys.

Not a paper experiment — release engineering for :mod:`repro.analysis`.
Measures a full ``opaq lint --deep`` over ``src/repro`` three ways:

* **uncached** — the baseline every run paid before v3;
* **cold** — first run with ``--cache`` (pays the baseline plus the
  serialisation cost of writing the cache);
* **warm** — second run against the populated cache (hash checks plus
  replay; no parsing, no CFGs, no fixpoints).

The budget the CI ``lint-deep`` job also enforces: **warm under half of
cold**.  In practice warm lands near a tenth.  Byte-identical output is
asserted for every variant — a cache that bought speed by drifting would
be worse than no cache.  The JSON's ``machine`` object records the host.

Run as a script to (re)generate the committed trajectory file::

    PYTHONPATH=src python benchmarks/bench_lint.py

which writes ``BENCH_lint.json`` at the repo root, or through
pytest-benchmark like the other benches for ``--benchmark-json`` output.
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

from repro.analysis import lint_paths, render_text

try:  # pytest-benchmark path; absent when run as a plain script
    from benchmarks.conftest import run_once
    from benchmarks.machine import machine
except ImportError:  # pragma: no cover - script mode
    from machine import machine
    run_once = None

_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
_OUT = Path(__file__).resolve().parent.parent / "BENCH_lint.json"


def _timed_lint(cache: Path | None) -> tuple[float, object]:
    start = time.perf_counter()
    result = lint_paths([_SRC], deep=True, cache=cache)
    return time.perf_counter() - start, result


def main() -> dict[str, object]:
    with tempfile.TemporaryDirectory() as td:
        cache = Path(td) / "opaqlint-cache.json"
        uncached_seconds, uncached = _timed_lint(None)
        cold_seconds, cold = _timed_lint(cache)
        warm_seconds, warm = _timed_lint(cache)
        cache_bytes = cache.stat().st_size

    texts = [render_text(r) for r in (uncached, cold, warm)]
    assert len(set(texts)) == 1, "runner variants drifted"
    stats = warm.cache_stats
    assert stats is not None and stats.files_reused == stats.files_total

    report = {
        "benchmark": "lint_deep_cache",
        "machine": machine(),
        "files": warm.files_checked,
        "deep_rules": stats.deep_rules_total,
        "uncached_seconds": uncached_seconds,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_over_cold": warm_seconds / cold_seconds,
        "speedup": cold_seconds / warm_seconds,
        "cache_bytes": cache_bytes,
    }
    _OUT.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"lint --deep over {report['files']} files: "
        f"uncached {uncached_seconds:.2f}s, cold {cold_seconds:.2f}s, "
        f"warm {warm_seconds:.2f}s ({report['speedup']:.1f}x)"
    )
    print(f"wrote {_OUT}")
    return report


def bench_lint_cold_vs_warm(benchmark):
    """One full sweep under pytest-benchmark (headline numbers in extra_info)."""
    report = run_once(benchmark, main)
    benchmark.extra_info["cold_seconds"] = report["cold_seconds"]
    benchmark.extra_info["warm_seconds"] = report["warm_seconds"]
    benchmark.extra_info["speedup"] = report["speedup"]
    # The whole point of the cache; CI enforces the same budget.
    assert report["warm_over_cold"] < 0.5


if __name__ == "__main__":
    main()
