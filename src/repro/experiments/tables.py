"""Reproduction of every table in the paper's evaluation (Tables 3-12).

Each ``tableN()`` function runs the corresponding experiment at the active
scale and returns a :class:`~repro.experiments.harness.TableResult` whose
``paper_reference`` carries the numbers printed in the paper for
side-by-side comparison.  The benchmark suite calls these and prints the
rendered tables; EXPERIMENTS.md records a snapshot.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import RandomSamplingEstimator, consume
from repro.core.config import OPAQConfig
from repro.experiments.harness import (
    DEFAULT_SEED,
    PAPER_RUNS,
    TableResult,
    opaq_error_report,
    paper_dataset,
    resolve_n,
    sorted_copy,
)
from repro.metrics import (
    dectile_fractions,
    rera_point_estimates,
    true_quantiles,
)
from repro.obs import MemorySink, phase_seconds, tracing
from repro.parallel import MachineModel, ParallelOPAQ, predict_merge_time
from repro.metrics import score_bounds
from repro.portfolio import IntervalSummary

__all__ = [
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "table12",
    "parallel_error_reports",
]

_DECTILE_LABELS = [f"{k}0%" for k in range(1, 10)]
_SAMPLE_SIZES = (250, 500, 1000)


# ----------------------------------------------------------------------
# Tables 3/4: error rates versus sample size (n = 1M)
# ----------------------------------------------------------------------

def table3(seed: int = DEFAULT_SEED) -> TableResult:
    """RERA per dectile for s in {250, 500, 1000}, uniform and Zipf."""
    n = resolve_n(1_000_000)
    result = TableResult(
        title=(
            f"Table 3: RERA (%) of OPAQ, n={n:,}, "
            f"s in {_SAMPLE_SIZES} (paper: n=1M)"
        ),
        header=["Dectile"]
        + [f"unif s={s}" for s in _SAMPLE_SIZES]
        + [f"zipf s={s}" for s in _SAMPLE_SIZES],
        paper_reference={
            # Paper Table 3, 50% row.
            "median_row": {"unif": (0.38, 0.18, 0.09), "zipf": (0.30, 0.16, 0.07)},
            "bound": "RERA <= 2/s*100 (0.8 / 0.4 / 0.2)",
        },
    )
    reports = {
        (dist, s): opaq_error_report(dist, n, s, seed=seed)
        for dist in ("uniform", "zipf")
        for s in _SAMPLE_SIZES
    }
    for k, label in enumerate(_DECTILE_LABELS):
        cells = [label]
        for dist in ("uniform", "zipf"):
            for s in _SAMPLE_SIZES:
                cells.append(f"{reports[(dist, s)].rera[k]:.2f}")
        result.add_row(*cells)
    result.notes.append(
        "doubling s should roughly halve RERA; all values must stay under "
        "the analytic bound 200/s"
    )
    return result


def table4(seed: int = DEFAULT_SEED) -> TableResult:
    """RERL and RERN for s in {250, 500, 1000}, uniform and Zipf."""
    n = resolve_n(1_000_000)
    result = TableResult(
        title=(
            f"Table 4: RERL/RERN (%) of OPAQ, n={n:,}, "
            f"s in {_SAMPLE_SIZES} (paper: n=1M)"
        ),
        header=["Rate"]
        + [f"unif s={s}" for s in _SAMPLE_SIZES]
        + [f"zipf s={s}" for s in _SAMPLE_SIZES],
        paper_reference={
            "RERL": {"unif": (1.88, 0.99, 0.46), "zipf": (1.88, 0.89, 0.52)},
            "RERN": {"unif": (2.62, 1.15, 0.60), "zipf": (2.68, 1.09, 0.53)},
            "bound": "RERL, RERN <= q/s*100 (4.0 / 2.0 / 1.0)",
        },
    )
    reports = {
        (dist, s): opaq_error_report(dist, n, s, seed=seed)
        for dist in ("uniform", "zipf")
        for s in _SAMPLE_SIZES
    }
    for rate in ("RERL", "RERN"):
        cells = [rate]
        for dist in ("uniform", "zipf"):
            for s in _SAMPLE_SIZES:
                rep = reports[(dist, s)]
                cells.append(f"{(rep.rerl if rate == 'RERL' else rep.rern):.2f}")
        result.add_row(*cells)
    return result


# ----------------------------------------------------------------------
# Tables 5/6: error rates versus data size (s = 1000)
# ----------------------------------------------------------------------

_PAPER_SIZES = (1_000_000, 5_000_000, 10_000_000)


def table5(seed: int = DEFAULT_SEED) -> TableResult:
    """RERA per dectile for n in {1M, 5M, 10M}, s = 1000."""
    sizes = [resolve_n(n) for n in _PAPER_SIZES]
    labels = [f"{n/1e6:g}M" for n in _PAPER_SIZES]
    result = TableResult(
        title=(
            f"Table 5: RERA (%) of OPAQ, s=1000, n={sizes} "
            "(paper: 1M/5M/10M)"
        ),
        header=["Dectile"]
        + [f"unif {L}" for L in labels]
        + [f"zipf {L}" for L in labels],
        paper_reference={
            "typical": 0.09,
            "claim": "accuracy independent of n at fixed s",
        },
    )
    reports = {
        (dist, n): opaq_error_report(dist, n, 1000, seed=seed)
        for dist in ("uniform", "zipf")
        for n in sizes
    }
    for k, label in enumerate(_DECTILE_LABELS):
        cells = [label]
        for dist in ("uniform", "zipf"):
            for n in sizes:
                cells.append(f"{reports[(dist, n)].rera[k]:.2f}")
        result.add_row(*cells)
    return result


def table6(seed: int = DEFAULT_SEED) -> TableResult:
    """RERL and RERN for n in {1M, 5M, 10M}, s = 1000."""
    sizes = [resolve_n(n) for n in _PAPER_SIZES]
    labels = [f"{n/1e6:g}M" for n in _PAPER_SIZES]
    result = TableResult(
        title=f"Table 6: RERL/RERN (%) of OPAQ, s=1000, n={sizes}",
        header=["Rate"]
        + [f"unif {L}" for L in labels]
        + [f"zipf {L}" for L in labels],
        paper_reference={
            "RERL": {"unif": (0.46, 0.51, 0.53), "zipf": (0.52, 0.53, 0.54)},
            "RERN": {"unif": (0.60, 0.58, 0.55), "zipf": (0.53, 0.54, 0.54)},
        },
    )
    reports = {
        (dist, n): opaq_error_report(dist, n, 1000, seed=seed)
        for dist in ("uniform", "zipf")
        for n in sizes
    }
    for rate in ("RERL", "RERN"):
        cells = [rate]
        for dist in ("uniform", "zipf"):
            for n in sizes:
                rep = reports[(dist, n)]
                cells.append(f"{(rep.rerl if rate == 'RERL' else rep.rern):.2f}")
        result.add_row(*cells)
    return result


# ----------------------------------------------------------------------
# Table 7: OPAQ versus [AS95] and random sampling at equal memory
# ----------------------------------------------------------------------

def table7(seed: int = DEFAULT_SEED) -> TableResult:
    """Per-dectile RERA of OPAQ, the [AS95] interval algorithm and random
    sampling, all given the same memory (3000 keys, the paper's setup)."""
    n = resolve_n(1_000_000)
    memory = 3000  # r*s = 3*1000 in the paper's footnote
    phis = dectile_fractions()
    result = TableResult(
        title=(
            f"Table 7: RERA (%) comparison at equal memory "
            f"({memory} keys), n={n:,}"
        ),
        header=["Dectile"]
        + [f"unif {alg}" for alg in ("OPAQ", "AS95", "RSamp")]
        + [f"zipf {alg}" for alg in ("OPAQ", "AS95", "RSamp")],
        paper_reference={
            "median_row": {
                "unif": {"OPAQ": 0.13, "AS95": 0.5, "RSamp": 0.5},
                "zipf": {"OPAQ": 0.12, "AS95": 0.5, "RSamp": 0.1},
            },
            "claim": (
                "OPAQ comparable or better; only OPAQ's error is "
                "deterministically bounded"
            ),
        },
    )
    per_alg: dict[tuple[str, str], np.ndarray] = {}
    for dist in ("uniform", "zipf"):
        data = paper_dataset(dist, n, seed)
        sd = sorted_copy(dist, n, seed)
        trues = true_quantiles(sd, phis)
        # OPAQ: r=3 runs of s=1000 -> exactly 3000 retained sample keys.
        rep = opaq_error_report(dist, n, memory // PAPER_RUNS, seed=seed)
        per_alg[(dist, "OPAQ")] = rep.rera
        # Stream in run-sized chunks: a one-pass algorithm must not see
        # the whole data set at once (its seeding would then be exact).
        chunk = -(-n // (PAPER_RUNS * 8))
        as95 = consume(
            IntervalSummary(intervals=memory // 2),
            np.asarray(data),
            run_size=chunk,
        )
        # AS95's enclosure is degenerate: lower == upper, its estimate.
        _, as95_estimates, _, _, _, _ = as95.bounds_arrays(phis)
        per_alg[(dist, "AS95")] = rera_point_estimates(
            sd, trues, as95_estimates
        )
        rsamp = consume(
            RandomSamplingEstimator(capacity=memory, seed=seed),
            np.asarray(data),
            run_size=chunk,
        )
        per_alg[(dist, "RSamp")] = rera_point_estimates(
            sd, trues, rsamp.query_many(phis)
        )
    for k, label in enumerate(_DECTILE_LABELS):
        cells = [label]
        for dist in ("uniform", "zipf"):
            for alg in ("OPAQ", "AS95", "RSamp"):
                cells.append(f"{per_alg[(dist, alg)][k]:.2f}")
        result.add_row(*cells)
    result.notes.append(
        "paper reports AS95/random-sampling numbers from [AS95]; here all "
        "three run on the same data"
    )
    result.notes.append(
        "memory parity counts retained sample keys (r*s = 3000), as the "
        "paper does; this implementation carries two bookkeeping words "
        "per sample for merge/compaction generality, which a divisible-"
        "case deployment compresses to O(1) (constant gaps, closed-form "
        "bounds)"
    )
    return result


# ----------------------------------------------------------------------
# Table 8: analytic cost of the two global merges
# ----------------------------------------------------------------------

def table8(model: MachineModel | None = None) -> TableResult:
    """The paper's Table 8 formulas, evaluated: predicted global-merge
    time for both methods across p and per-processor list sizes."""
    model = model or MachineModel.sp2()
    result = TableResult(
        title="Table 8: predicted global merge time (ms), two-level model",
        header=["rs per proc"]
        + [f"bitonic p={p}" for p in (2, 4, 8, 16)]
        + [f"sample p={p}" for p in (2, 4, 8, 16)],
        paper_reference={
            "bitonic": "O((n/p log s + rs(1+log p)log p)mu + (1+log p)log p(tau+rs beta))",
            "sample": "O((n/p log s + s' + (p-1)log rs + rs log p)mu + ...)",
            "claim": "bitonic better for small p and small lists",
        },
    )
    for rs in (125, 500, 2000, 8000, 16000):
        cells = [str(rs)]
        for method in ("bitonic", "sample"):
            for p in (2, 4, 8, 16):
                t = predict_merge_time(p, rs, model, method)
                cells.append(f"{t * 1e3:.3f}")
        result.add_row(*cells)
    return result


# ----------------------------------------------------------------------
# Tables 9/10: parallel error rates (p = 8)
# ----------------------------------------------------------------------

_PAPER_PARALLEL_SIZES = (
    500_000,
    1_000_000,
    2_000_000,
    4_000_000,
    8_000_000,
    16_000_000,
    32_000_000,
)


def parallel_error_reports(
    sizes=None,
    p: int = 8,
    sample_size: int = 1024,
    seed: int = DEFAULT_SEED,
):
    """Run parallel OPAQ for each total size; return {n: ErrorReport}.

    Matches the paper's setup: 8 processors, 1024 samples per run, uniform
    data, run size fixed so each processor holds a few runs.
    """
    if sizes is None:
        sizes = [resolve_n(n) for n in _PAPER_PARALLEL_SIZES]
    phis = dectile_fractions()
    reports = {}
    for n in sizes:
        data = paper_dataset("uniform", n, seed)
        per_proc = -(-n // p)
        run_size = max(sample_size, -(-per_proc // PAPER_RUNS))
        config = OPAQConfig(
            run_size=run_size, sample_size=min(sample_size, run_size)
        )
        par = ParallelOPAQ(p, config, merge_method="sample")
        res = par.run(np.asarray(data), phis=phis)
        bounds = res.bounds(phis)
        reports[n] = score_bounds(
            np.sort(np.asarray(data)),
            phis,
            np.array([b.lower for b in bounds]),
            np.array([b.upper for b in bounds]),
            sample_size=sample_size,
            p=p,
            total_time=res.total_time,
        )
    return reports


def table9(seed: int = DEFAULT_SEED) -> TableResult:
    """Parallel RERA per dectile versus total data size (p = 8)."""
    sizes = [resolve_n(n) for n in _PAPER_PARALLEL_SIZES]
    labels = [f"{n/1e6:g}M" for n in _PAPER_PARALLEL_SIZES]
    reports = parallel_error_reports(sizes=sizes, seed=seed)
    result = TableResult(
        title=f"Table 9: parallel RERA (%), p=8, 1024 samples/run, n={sizes}",
        header=["Dectile"] + labels,
        paper_reference={"typical": 0.09, "claim": "independent of n"},
    )
    for k, label in enumerate(_DECTILE_LABELS):
        result.add_row(label, *(f"{reports[n].rera[k]:.2f}" for n in sizes))
    return result


def table10(seed: int = DEFAULT_SEED) -> TableResult:
    """Parallel RERL and RERN versus total data size (p = 8)."""
    sizes = [resolve_n(n) for n in _PAPER_PARALLEL_SIZES]
    labels = [f"{n/1e6:g}M" for n in _PAPER_PARALLEL_SIZES]
    reports = parallel_error_reports(sizes=sizes, seed=seed)
    result = TableResult(
        title=f"Table 10: parallel RERL/RERN (%), p=8, n={sizes}",
        header=["Rate"] + labels,
        paper_reference={
            "RERL": (0.62, 0.62, 0.54, 0.61, 0.53, 0.54, 0.51),
            "RERN": (0.67, 0.60, 0.59, 0.61, 0.56, 0.54, 0.52),
        },
    )
    result.add_row("RERL", *(f"{reports[n].rerl:.2f}" for n in sizes))
    result.add_row("RERN", *(f"{reports[n].rern:.2f}" for n in sizes))
    return result


# ----------------------------------------------------------------------
# Tables 11/12: where the time goes
# ----------------------------------------------------------------------

_PER_PROC_SIZES = (500_000, 1_000_000, 2_000_000, 4_000_000)
_PROC_COUNTS = (1, 2, 4, 8, 16)


def _parallel_timing_run(
    per_proc: int, p: int, seed: int = DEFAULT_SEED, sample_size: int = 1024
):
    """One simulated parallel run sized by per-processor elements."""
    n = per_proc * p
    data = paper_dataset("uniform", n, seed)
    run_size = max(sample_size, -(-per_proc // PAPER_RUNS))
    config = OPAQConfig(run_size=run_size, sample_size=min(sample_size, run_size))
    par = ParallelOPAQ(p, config, merge_method="sample")
    return par.run(np.asarray(data), phis=dectile_fractions())


def _traced_phase_seconds(per_proc: int, p: int, seed: int) -> dict[str, float]:
    """Phase -> simulated seconds, read back from the emitted trace events.

    Tables 11 and 12 consume the observability stream rather than poking
    at the machine object: the run executes under an in-memory sink and
    the phase times come from the ``spmd.phase_seconds`` counters, which
    cross-checks that the emitted events carry the full cost model.
    """
    sink = MemorySink()
    with tracing(sink):
        _parallel_timing_run(per_proc, p, seed=seed)
    return phase_seconds(sink.events)


def table11(seed: int = DEFAULT_SEED) -> TableResult:
    """Fraction of the total time spent in I/O (paper: ~0.5 everywhere)."""
    sizes = [resolve_n(s) for s in _PER_PROC_SIZES]
    labels = [f"{s/1e6:g}M" for s in _PER_PROC_SIZES]
    result = TableResult(
        title=f"Table 11: I/O fraction of total time, n/p={sizes}",
        header=["Size"] + [f"{p} Proc." for p in _PROC_COUNTS],
        paper_reference={
            "rows": {
                "0.5M": (0.54, 0.53, 0.52, 0.52, 0.50),
                "1M": (0.53, 0.40, 0.52, 0.51, 0.50),
                "2M": (0.53, 0.57, 0.51, 0.51, 0.53),
                "4M": (0.52, 0.49, 0.51, 0.52, 0.51),
            }
        },
    )
    for label, per_proc in zip(labels, sizes):
        cells = [label]
        for p in _PROC_COUNTS:
            phases = _traced_phase_seconds(per_proc, p, seed)
            total = sum(phases.values())
            cells.append(f"{phases.get('io', 0.0) / total if total else 0.0:.2f}")
        result.add_row(*cells)
    result.notes.append("fractions computed from emitted trace events")
    return result


def table12(seed: int = DEFAULT_SEED) -> TableResult:
    """Per-phase fraction of the total time at n/p = 4M (scaled)."""
    per_proc = resolve_n(4_000_000)
    result = TableResult(
        title=f"Table 12: phase fractions of total time, n/p={per_proc:,}",
        header=["Phase"] + [f"{p} Proc." for p in _PROC_COUNTS],
        paper_reference={
            "I/O": (0.52, 0.49, 0.51, 0.52, 0.51),
            "Sampling": (0.47, 0.44, 0.47, 0.46, 0.45),
            "Local Merg.": (0.004, 0.051, 0.003, 0.004, 0.009),
            "Global Merg.": (0.0, 0.002, 0.005, 0.010, 0.015),
        },
    )
    fractions = {}
    for p in _PROC_COUNTS:
        phases = _traced_phase_seconds(per_proc, p, seed)
        total = sum(phases.values())
        fractions[p] = (
            {ph: t / total for ph, t in phases.items()} if total else {}
        )
    for phase, label in (
        ("io", "I/O"),
        ("sampling", "Sampling"),
        ("local_merge", "Local Merg."),
        ("global_merge", "Global Merg."),
    ):
        result.add_row(
            label,
            *(f"{fractions[p].get(phase, 0.0):.3f}" for p in _PROC_COUNTS),
        )
    result.notes.append(
        "paper: I/O + sampling >= 83% of the total, merges small"
    )
    result.notes.append("fractions computed from emitted trace events")
    return result
