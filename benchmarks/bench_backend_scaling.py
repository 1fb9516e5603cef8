"""Backend scaling: real cores vs the cost model (Tables 11-12 analogue).

Not a paper experiment — release engineering for
:mod:`repro.parallel.backends`.  The paper measured POPAQ on a 16-node
SP/2; this repo normally *simulates* that machine.  This benchmark runs
the identical SPMD program on the real execution backends and asks the
two questions the simulation cannot answer alone:

* **speed-up** — at fixed ``n``, how does wall-clock fall as ``p`` grows
  on the ``thread`` and ``process`` backends, against the ``serial``
  reference and against the simulated prediction (paper Figure 6)?
* **size-up** — growing ``n`` with ``p`` (``n/p`` fixed), does wall-clock
  stay flat (paper Figure 5)?

Every row carries both *measured* per-phase seconds (workers timing
themselves with ``time.perf_counter``) and the *modelled* replay of the
same run layout through :class:`~repro.parallel.machine.SimulatedMachine`,
so the committed JSON mirrors the paper's phase-fraction tables twice:
once as the model predicts, once as the hardware delivers.

Honesty note: real speed-up needs real cores.  The JSON's ``machine``
object records the host (``cores`` is ``os.cpu_count()``); on a
single-core box the measured process-backend speed-up hovers near 1x
(or below — fork and queue overhead is real) while the *modelled*
speed-up shows what the same program does on ``p`` actual processors.
The pytest wrapper therefore always asserts the modelled sample-phase
speed-up at ``p=4`` is >= 2x, and additionally asserts it for the
*measured* numbers only when the machine has at least 4 cores.

Run as a script to (re)generate the committed trajectory file::

    PYTHONPATH=src python benchmarks/bench_backend_scaling.py

which writes ``BENCH_backends.json`` at the repo root, or through
pytest-benchmark like the other benches for ``--benchmark-json`` output.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core import OPAQConfig
from repro.parallel import ParallelOPAQ

try:  # pytest-benchmark path; absent when run as a plain script
    from benchmarks.conftest import run_once
    from benchmarks.machine import machine
except ImportError:  # pragma: no cover - script mode
    from machine import machine
    run_once = None

_N = 1_000_000
_PROCS = (1, 2, 4, 8)
_BACKENDS = ("serial", "thread", "process")
_PHIS = (0.25, 0.5, 0.75)
#: The paper's "sample phase" = the per-processor local pass.
_SAMPLE_PHASES = ("io", "sampling", "local_merge")
_OUT = Path(__file__).resolve().parent.parent / "BENCH_backends.json"


_CONFIG = OPAQConfig(run_size=100_000, sample_size=1_000)


def _sample_phase_seconds(phase_seconds: dict[str, float]) -> float:
    return sum(phase_seconds.get(phase, 0.0) for phase in _SAMPLE_PHASES)


def _measure(backend: str, p: int, data: np.ndarray) -> dict[str, object]:
    """One real execution: wall-clock, measured and modelled phases."""
    popaq = ParallelOPAQ(p, _CONFIG, backend=backend)
    start = time.perf_counter()
    result = popaq.run(data, _PHIS)
    wall = time.perf_counter() - start

    reports = result.worker_reports or []
    measured_sample = max(
        (_sample_phase_seconds(r.phase_seconds) for r in reports),
        default=0.0,
    )
    modelled_sample = max(
        _sample_phase_seconds(result.machine.phases(proc).times)
        for proc in range(p)
    )
    return {
        "backend": backend,
        "p": p,
        "elements": int(data.size),
        "wall_seconds": wall,
        "measured_phase_seconds": result.measured_phase_totals(),
        "measured_phase_fractions": result.measured_phase_fractions(),
        "measured_sample_phase_seconds": measured_sample,
        "modelled_total_seconds": result.total_time,
        "modelled_phase_fractions": result.phase_fractions(),
        "modelled_sample_phase_seconds": modelled_sample,
    }


def _speedup_sweep(data: np.ndarray) -> list[dict[str, object]]:
    """Fixed ``n``, growing ``p`` (Figure 6's real-hardware analogue)."""
    rows = []
    baselines: dict[str, dict[str, object]] = {}
    for backend in _BACKENDS:
        for p in _PROCS:
            row = _measure(backend, p, data)
            base = baselines.setdefault(backend, row)  # the p=1 row
            row["speedup_vs_p1"] = (
                float(base["wall_seconds"]) / float(row["wall_seconds"])
            )
            row["measured_sample_phase_speedup"] = _ratio(
                base["measured_sample_phase_seconds"],
                row["measured_sample_phase_seconds"],
            )
            row["modelled_sample_phase_speedup"] = _ratio(
                base["modelled_sample_phase_seconds"],
                row["modelled_sample_phase_seconds"],
            )
            rows.append(row)
    serial = {r["p"]: r for r in rows if r["backend"] == "serial"}
    for row in rows:
        row["speedup_vs_serial"] = _ratio(
            serial[row["p"]]["wall_seconds"], row["wall_seconds"]
        )
    return rows


def _sizeup_sweep(rng: np.random.Generator) -> list[dict[str, object]]:
    """``n/p`` fixed, growing both (Figure 5's real-hardware analogue)."""
    per_proc = _N // max(_PROCS)
    rows = []
    base: dict[str, dict[str, object]] = {}
    for backend in _BACKENDS:
        for p in _PROCS:
            data = rng.uniform(size=per_proc * p)
            row = _measure(backend, p, data)
            first = base.setdefault(backend, row)
            # Perfect size-up holds at 1.0: p-fold data, p-fold cores,
            # flat wall-clock.
            row["sizeup_ratio"] = (
                float(row["wall_seconds"]) / float(first["wall_seconds"])
            )
            rows.append(row)
    return rows


def _ratio(num: object, den: object) -> float | None:
    num, den = float(num), float(den)  # type: ignore[arg-type]
    return num / den if den else None


def main() -> dict[str, object]:
    rng = np.random.default_rng(11)
    data = rng.uniform(size=_N)
    speedup = _speedup_sweep(data)
    sizeup = _sizeup_sweep(rng)
    report = {
        "benchmark": "backend_scaling",
        "machine": machine(),
        "elements": _N,
        "backends": list(_BACKENDS),
        "procs": list(_PROCS),
        "speedup": speedup,
        "sizeup": sizeup,
    }
    _OUT.write_text(json.dumps(report, indent=2) + "\n")
    for row in speedup:
        print(
            f"{row['backend']:>7} p={row['p']}: "
            f"{row['wall_seconds']:.3f}s wall, "
            f"speed-up x{row['speedup_vs_p1']:.2f} vs p=1, "
            f"sample phase x{row['modelled_sample_phase_speedup']:.2f} "
            f"modelled / x{row['measured_sample_phase_speedup']:.2f} measured"
        )
    print(f"cores={report['machine']['cores']}; wrote {_OUT}")
    return report


def bench_backend_scaling(benchmark):
    """One full sweep under pytest-benchmark (headline numbers in extra_info)."""
    report = run_once(benchmark, main)
    by_key = {
        (row["backend"], row["p"]): row for row in report["speedup"]
    }
    process_p4 = by_key[("process", 4)]
    cores = report["machine"]["cores"]
    benchmark.extra_info["cores"] = cores
    benchmark.extra_info["process_p4_speedup_vs_serial"] = process_p4[
        "speedup_vs_serial"
    ]
    benchmark.extra_info["process_p4_modelled_sample_speedup"] = process_p4[
        "modelled_sample_phase_speedup"
    ]
    # The cost-model replay of the real run layout must show the paper's
    # near-linear sample phase regardless of local hardware.
    assert process_p4["modelled_sample_phase_speedup"] >= 2.0
    if (cores or 1) >= 4:
        # Real cores available: demand real speed-up (the ISSUE's bar).
        assert process_p4["measured_sample_phase_speedup"] >= 2.0
        assert process_p4["speedup_vs_serial"] > 1.0


if __name__ == "__main__":
    main()
