"""Exact quantiles with one extra pass (paper section 4).

"The OPAQ algorithm can be extended to find the exact quantile value.  This
will require one extra pass over the data set.  In the extra pass, we keep
the elements which are in the interval [e_l..e_u].  We also count the number
of elements which are less than e_l to find the rank of e_l.  The number of
elements in the interval is at most 2n/s (Lemma 3); the exact value of the
quantile is the element (in the sorted retained list) with rank ψ − R_{e_l}."

This module implements the extension for *many* quantiles in the same extra
pass: the second pass filters each run against all bound windows at once,
so the total cost stays one read of the data plus O(q · 2n/s) retained keys.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.bounds import QuantileBounds
from repro.core.config import OPAQConfig
from repro.core.quantile_phase import bounds_for
from repro.core.sample_phase import build_summary
from repro.core.summary import OPAQSummary
from repro.core.values import ingest_values
from repro.errors import EstimationError
from repro.storage import DiskDataset, RunReader

__all__ = ["refine_exact", "exact_quantiles"]


def refine_exact(
    runs: Iterable[np.ndarray],
    bounds: Sequence[QuantileBounds],
) -> np.ndarray:
    """Second pass: turn bound pairs into exact quantile values.

    Parameters
    ----------
    runs:
        A fresh iteration over the same data the bounds were computed from
        (the caller provides the second pass; a
        :class:`~repro.storage.RunReader` with ``max_passes=2`` does this
        naturally).
    bounds:
        Bound pairs from the quantile phase.

    Returns
    -------
    numpy.ndarray
        The exact quantile values, one per input bound.
    """
    if not bounds:
        return np.empty(0, dtype=np.float64)
    lowers = np.array([b.lower for b in bounds])
    uppers = np.array([b.upper for b in bounds])
    kept: list[list[np.ndarray]] = [[] for _ in bounds]
    below = np.zeros(len(bounds), dtype=np.int64)
    total = 0
    for run in runs:
        run = ingest_values(run, copy=False)
        total += run.size
        for k in range(len(bounds)):
            below[k] += int(np.count_nonzero(run < lowers[k]))
            window = run[(run >= lowers[k]) & (run <= uppers[k])]
            if window.size:
                kept[k].append(window)
    values = np.empty(len(bounds), dtype=np.float64)
    for k, b in enumerate(bounds):
        if b.rank > total:
            raise EstimationError(
                f"bound rank {b.rank} exceeds the {total} elements seen in "
                "the refinement pass; did the data change between passes?"
            )
        local_rank = b.rank - int(below[k])  # 1-based rank inside the window
        window = (
            np.sort(ingest_values(np.concatenate(kept[k])))  # +0.0 kept
            if kept[k]
            else np.empty(0, dtype=np.float64)
        )
        if not 1 <= local_rank <= window.size:
            raise EstimationError(
                f"quantile phi={b.phi} fell outside its refinement window "
                f"(rank {local_rank} of {window.size} kept elements); the "
                "second pass must read exactly the data of the first"
            )
        values[k] = window[local_rank - 1]
    return values


def exact_quantiles(
    dataset: DiskDataset,
    phis: Sequence[float],
    config: OPAQConfig,
) -> tuple[np.ndarray, list[QuantileBounds], OPAQSummary]:
    """Two-pass exact quantiles of a disk-resident dataset.

    Pass 1 builds the OPAQ summary and bound pairs; pass 2 refines them to
    exact values.  Returns ``(values, bounds, summary)`` so callers can also
    inspect how tight the one-pass bounds already were.
    """
    config.validate_for(dataset.count)
    reader = RunReader(dataset, run_size=config.run_size, max_passes=2)
    summary = build_summary(reader, config)
    bounds = bounds_for(summary, phis)
    values = refine_exact(reader.runs(), bounds)
    return values, bounds, summary
