"""Ablation A6: adversarial arrival order — where OPAQ's distribution
independence actually bites.

Table 7's workloads arrive in random order, which flatters the interval
method ([AS95]): its on-the-fly boundary adjustment sees a representative
prefix, and its midpoint splits are exactly right for uniform values.
Feed it *skewed values in sorted order* and the splits misallocate counts:
its worst error climbs past OPAQ's deterministic bound, while OPAQ's error
(a function of ranks only) stays put.  This is the paper's core claim —
"it does not provide an upper bound of the error rate" — made measurable.
"""

import numpy as np

from benchmarks.conftest import run_once
from repro.baselines import consume
from repro.core import OPAQ, OPAQConfig, bounds_for
from repro.experiments import TableResult
from repro.metrics import (
    dectile_fractions,
    rera_bound,
    rera_per_quantile,
    rera_point_estimates,
    true_quantiles,
)
from repro.portfolio import IntervalSummary
from repro.workloads import make_generator

_N = 100_000
_S = 1000  # r = 3 runs -> r*s = 3000 keys, equal to 1500 intervals


def _opaq_rera(arr, sd, trues, phis):
    config = OPAQConfig(run_size=-(-_N // 3), sample_size=_S)
    bounds = bounds_for(OPAQ(config).summarize(arr), phis)
    return rera_per_quantile(
        sd,
        trues,
        np.array([b.lower for b in bounds]),
        np.array([b.upper for b in bounds]),
    )


def _as95_rera(arr, sd, trues, phis):
    est = consume(IntervalSummary(intervals=1500), arr, run_size=5000)
    # AS95's enclosure is degenerate: lower == upper, its estimate.
    _, estimates, _, _, _, _ = est.bounds_arrays(phis)
    return rera_point_estimates(sd, trues, estimates)


def _sorted_arrival():
    data = make_generator("zipf", parameter=0.2).generate(_N, seed=31)
    sd = np.sort(data)
    phis = dectile_fractions()
    trues = true_quantiles(sd, phis)
    result = TableResult(
        title=(
            f"Ablation A6: random vs sorted arrival, skewed values "
            f"(zipf 0.2, n={_N:,}, equal memory, max RERA %)"
        ),
        header=["method", "random arrival", "sorted arrival", "guaranteed bound"],
    )
    rows = {}
    for name, fn in (("OPAQ", _opaq_rera), ("AS95", _as95_rera)):
        random_err = float(fn(data, sd, trues, phis).max())
        sorted_err = float(fn(sd.copy(), sd, trues, phis).max())
        rows[name] = (random_err, sorted_err)
        bound = f"{rera_bound(_S):.2f}" if name == "OPAQ" else "none"
        result.add_row(name, f"{random_err:.3f}", f"{sorted_err:.3f}", bound)
    result.paper_reference["rows"] = rows
    return result


def bench_sorted_arrival(benchmark, show):
    result = run_once(benchmark, _sorted_arrival)
    show(result)
    rows = result.paper_reference["rows"]
    opaq_random, opaq_sorted = rows["OPAQ"]
    as95_random, as95_sorted = rows["AS95"]
    # OPAQ honours its bound under both orders.
    assert opaq_random <= rera_bound(_S)
    assert opaq_sorted <= rera_bound(_S)
    # The interval method degrades under sorted skewed arrival — past the
    # bound OPAQ guarantees with the same memory.
    assert as95_sorted > as95_random
    assert as95_sorted > rera_bound(_S)
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["opaq_bound"] = rera_bound(_S)
