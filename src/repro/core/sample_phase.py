"""The sample phase (paper section 2.1, Figure 1).

One pass over the data as runs; from each run, extract the ``s`` regular
samples — the elements of rank ``m/s, 2m/s, ..., m`` — with a selection
algorithm rather than a sort, then merge the per-run sorted sample lists
into one sorted list of ``r*s`` samples.

Each sample carries its *sub-run size* (the number of run elements it
represents — exactly ``m/s`` when ``s`` divides ``m``) through the merge;
the summary's rank guarantees are computed from these.  Ragged runs (a last
run shorter than ``m``, or caller-supplied runs of varying sizes) get a
proportionally scaled sample count so every sample still represents a
sub-run of roughly ``m/s`` elements.

:class:`RunSampler` is the per-run loop of one pass: the sequential
estimator, the simulated parallel machine and every SPMD worker drive it
run by run, then merge; :func:`assemble_summary` turns a merged list into
an :class:`~repro.core.summary.OPAQSummary`.  Selection and merge go
through this module's ``sample_run`` and ``kway_merge`` attributes, which
the per-layer ledger of ``perfbench/`` wraps by name.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence

import numpy as np

from repro.core.config import OPAQConfig
from repro.core.summary import OPAQSummary
from repro.errors import EstimationError
from repro.obs import current_tracer
from repro.selection import SelectionStrategy, kway_merge, regular_sample_ranks

__all__ = [
    "RunSampler",
    "assemble_summary",
    "sample_run",
    "build_summary",
    "scaled_sample_count",
]


def scaled_sample_count(run_size: int, nominal_run: int, nominal_s: int) -> int:
    """Sample count for a run of ``run_size`` when full runs get ``nominal_s``.

    Keeps the sub-run size (elements per sample) as close to
    ``nominal_run / nominal_s`` as possible: a half-size run gets half the
    samples.  Always at least 1 and at most ``run_size``.
    """
    if run_size <= 0:
        raise EstimationError("run must be non-empty")
    scaled = round(nominal_s * run_size / nominal_run)
    return max(1, min(run_size, scaled))


def sample_run(
    run: np.ndarray,
    sample_count: int,
    strategy: SelectionStrategy,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract the regular samples of one run with ``strategy``.

    Returns ``(samples, gaps, floors)``: the sorted samples at 0-based
    ranks ``floor(i*m/s) - 1`` for ``i = 1..s``; each sample's sub-run
    size (the gap to the previous sample rank; gaps sum to the run size);
    and each sub-run's floor — the previous sample's value (``-inf`` for
    the first), below which none of the sub-run's elements can fall.
    """
    run = np.asarray(run)
    if run.ndim != 1:
        raise EstimationError("a run must be a one-dimensional array")
    if np.isnan(run).any():
        # NaNs have no rank; letting them through would silently corrupt
        # every guarantee downstream.
        raise EstimationError("run contains NaN keys; quantiles are undefined")
    ranks = regular_sample_ranks(run.size, sample_count)
    samples = strategy.multiselect(run, ranks)
    gaps = np.diff(np.concatenate([[-1], ranks])).astype(np.int64)
    floors = np.concatenate([[-np.inf], samples[:-1]])
    return samples, gaps, floors


class RunTally(Protocol):
    """What one pass saw, beside its samples: a :class:`RunSampler`, or
    the report a parallel worker sends back in its place."""

    num_runs: int
    count: int
    minimum: float
    maximum: float


class RunSampler:
    """The sample phase over one pass's runs, one :meth:`add` per run.

    Each run yields its scaled sample count's regular samples, packed
    with their ``(gap, floor)`` payload rows for the r-way merge;
    ``run_layout`` records ``(run size, sample count)`` per run, the
    quantities the parallel cost model charges.  Runs are read as
    float64; empty runs are skipped.
    """

    def __init__(self, config: OPAQConfig) -> None:
        self._run_size = config.run_size
        self._sample_size = config.sample_size
        self._strategy = config.selection_strategy()
        self._samples: list[np.ndarray] = []
        self._payloads: list[np.ndarray] = []
        self.run_layout: list[tuple[int, int]] = []
        self.num_runs = 0
        self.count = 0
        self.minimum = np.inf
        self.maximum = -np.inf

    def add(self, run: np.ndarray) -> None:
        """Sample one run and tally it."""
        run = np.asarray(run, dtype=np.float64)
        if run.size == 0:
            return
        s_k = scaled_sample_count(run.size, self._run_size, self._sample_size)
        samples, gaps, floors = sample_run(run, s_k, self._strategy)
        self._samples.append(samples)
        self._payloads.append(
            np.column_stack([gaps.astype(np.float64), floors])
        )
        self.run_layout.append((int(run.size), int(s_k)))
        self.num_runs += 1
        self.count += int(run.size)
        self.minimum = min(self.minimum, float(run.min()))
        self.maximum = max(self.maximum, float(run.max()))

    def merge(self) -> tuple[np.ndarray, np.ndarray]:
        """The r-way merge of the runs' sample lists, as ``(samples,
        payload)``; the per-run lists are released."""
        lists, self._samples = self._samples, []
        payloads, self._payloads = self._payloads, []
        merged, payload = kway_merge(lists, payloads=payloads)
        return merged, payload


def assemble_summary(
    samples: np.ndarray, payload: np.ndarray, tallies: Sequence[RunTally]
) -> OPAQSummary:
    """The summary of a merged sample list whose ``(gap, floor)`` payload
    rows :meth:`RunSampler.merge` produced, over the passes ``tallies``
    describe."""
    return OPAQSummary(
        samples=samples,
        gaps=payload[:, 0].astype(np.int64),
        floors=payload[:, 1],
        num_runs=sum(t.num_runs for t in tallies),
        count=sum(t.count for t in tallies),
        minimum=min(t.minimum for t in tallies),
        maximum=max(t.maximum for t in tallies),
    )


def build_summary(
    runs: Iterable[np.ndarray], config: OPAQConfig
) -> OPAQSummary:
    """Run the full sample phase over an iterable of runs.

    Parameters
    ----------
    runs:
        Any iterable of one-dimensional arrays — typically a
        :class:`repro.storage.RunReader`, which also enforces the one-pass
        discipline and accounts I/O.
    config:
        Run size ``m``, per-run sample count ``s`` and selection strategy.

    Returns
    -------
    OPAQSummary
        The merged sorted sample list with rank bookkeeping.
    """
    tracer = current_tracer()
    sampler = RunSampler(config)
    with tracer.span("phase.sample"):
        for run in runs:
            sampler.add(run)
        if not sampler.num_runs:
            raise EstimationError("no data: the run iterable was empty")
        merged, payload = sampler.merge()
    tracer.count("sample.runs", sampler.num_runs)
    tracer.count("sample.elements", sampler.count)
    tracer.count("sample.list_length", int(merged.size))
    return assemble_summary(merged, payload, [sampler])
