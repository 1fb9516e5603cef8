"""OPAQ: one-pass quantile estimation for disk-resident data.

A full reproduction of Alsabti, Ranka & Singh, *"A One-Pass Algorithm for
Accurately Estimating Quantiles for Disk-Resident Data"*, VLDB 1997 — the
OPAQ algorithm, its parallel formulation (simulated), the estimators it
is compared against, and every experiment of the paper's evaluation.

Quick start::

    import numpy as np
    from repro import OPAQ

    data = np.random.default_rng(0).uniform(size=1_000_000)
    [median] = OPAQ.quantiles(data, [0.5], sample_size=1000)
    print(median.lower, median.upper, median.max_between)  # <= 2n/s apart

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.core` — OPAQ itself (sample phase, quantile phase, exact/
  rank/incremental extensions).
- :mod:`repro.selection` — selection substrate (median-of-medians,
  Floyd-Rivest, multiselect, k-way merge).
- :mod:`repro.storage` — disk-resident datasets, single-pass run reading,
  memory model.
- :mod:`repro.workloads` — the paper's synthetic data (uniform,
  Zipf(0.86), n/10 duplicates) and extra stress distributions.
- :mod:`repro.metrics` — ground truth and the RERA/RERL/RERN error rates.
- :mod:`repro.baselines` — random sampling, Table 7's sampling
  competitor, and the single-pass ingest base it shares with the sketches.
- :mod:`repro.portfolio` — every quantile engine behind one surface: OPAQ,
  KLL, GK01 and Table 7's [AS95] interval method, one class each.
- :mod:`repro.parallel` — the simulated SP-2: cost model, bitonic and
  sample merges, parallel OPAQ.
- :mod:`repro.apps` — equi-depth histograms, external sort, load
  balancing.
- :mod:`repro.experiments` — the table/figure reproduction harness.
- :mod:`repro.service` — the sharded quantile-serving subsystem
  (``opaq serve``; see docs/service.md).
"""

from repro.core import (
    OPAQ,
    DataSource,
    IncrementalOPAQ,
    OPAQConfig,
    OPAQSummary,
    QuantileBounds,
    QuantileEstimator,
    RankBounds,
    estimate_quantiles,
    estimate_rank,
    exact_quantiles,
)
from repro.errors import (
    ConfigError,
    DataError,
    EstimationError,
    ParallelError,
    ReproError,
    ServiceError,
    SinglePassViolation,
)
from repro.storage import DatasetWriter, DiskDataset, MemoryModel, RunReader

__version__ = "1.0.0"

__all__ = [
    "OPAQ",
    "OPAQConfig",
    "OPAQSummary",
    "QuantileBounds",
    "QuantileEstimator",
    "DataSource",
    "RankBounds",
    "IncrementalOPAQ",
    "estimate_quantiles",
    "estimate_rank",
    "exact_quantiles",
    "DiskDataset",
    "DatasetWriter",
    "RunReader",
    "MemoryModel",
    "ReproError",
    "ConfigError",
    "DataError",
    "EstimationError",
    "ParallelError",
    "ServiceError",
    "SinglePassViolation",
    "__version__",
]
