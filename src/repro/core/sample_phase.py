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

The sampler holds the paper's one run buffer of ``m`` float64 keys, so
``r·s + m`` is the pass's real residency: a
:class:`~repro.storage.RunReader` reads each run straight into it (a run
that sorts as two halves is read as two halves too, on two threads), any
other run is copied in, and the selection sorts it in place
(``overwrite_input=True``) — a caller's array is never reordered.  An
:class:`~repro.core.OPAQ` estimator lends its sampler the buffer it kept
from its last pass and takes it back at the end, so one estimator's
passes reuse one buffer.  A run costs the read and the sort and no other
O(m) pass: ``sample_run`` selects rank 0, the run's minimum, along with
the regular samples, and the maximum is the last sample (rank ``m - 1``
is always selected).  Runs take the ingest policy
(:mod:`repro.core.values`) at O(s): its samples and minimum keep every
zero as ``+0.0``, and the ``numpy`` and ``sort`` strategies, which rank
NaN last, reveal a NaN in the samples.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from repro.core.config import OPAQConfig
from repro.core.summary import OPAQSummary
from repro.core.values import ingest_values
from repro.errors import EstimationError
from repro.obs import current_tracer
from repro.selection import SelectionStrategy, kway_merge, regular_sample_ranks
from repro.storage import RunReader

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
    overwrite_input: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.float64]:
    """Extract the regular samples of one run with ``strategy``.

    Returns ``(samples, gaps, floors, minimum)``: the sorted samples at
    0-based ranks ``floor(i*m/s) - 1`` for ``i = 1..s``; each sample's
    sub-run size (the gap to the previous sample rank; gaps sum to the
    run size); each sub-run's floor — the previous sample's value
    (``-inf`` for the first), below which none of the sub-run's
    elements can fall; and the run's minimum, its key of rank 0, which
    the same selection picks.

    ``overwrite_input=True`` lets the selection reorder ``run`` in place
    instead of a copy, as in ``numpy.median``.
    """
    # A NaN-last strategy shows a NaN in the samples; others scan.
    run = ingest_values(run, copy=False, scan=not strategy.nan_last)
    ranks = regular_sample_ranks(run.size, sample_count)
    picked = ingest_values(
        strategy.multiselect(
            run, np.concatenate([[0], ranks]), overwrite_input=overwrite_input
        )
    )
    minimum, samples = picked[0], picked[1:]
    gaps = np.diff(np.concatenate([[-1], ranks])).astype(np.int64)
    floors = np.concatenate([[-np.inf], samples[:-1]])
    return samples, gaps, floors, minimum


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
    quantities the parallel cost model charges.  Runs are sampled as
    float64 in the sampler's one run buffer, grown to the largest run; a
    caller may lend it one (``buffer``) and take it back from
    :attr:`buffer` after the pass.  Empty runs are skipped.
    """

    def __init__(self, config: OPAQConfig, buffer: np.ndarray | None = None) -> None:
        self._run_size = config.run_size
        self._sample_size = config.sample_size
        self._strategy = config.selection_strategy()
        self._buffer = np.empty(0, dtype=np.float64) if buffer is None else buffer
        self._samples: list[np.ndarray] = []
        self._payloads: list[np.ndarray] = []
        self.run_layout: list[tuple[int, int]] = []
        self.num_runs = 0
        self.count = 0
        self.minimum = np.inf
        self.maximum = -np.inf

    @property
    def buffer(self) -> np.ndarray:
        """The run buffer, as large as the pass's largest run needed."""
        return self._buffer

    def read(self, runs: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Iterate ``runs`` for :meth:`add`: a :class:`RunReader` reads
        each run into the sampler's buffer, so :meth:`add` copies nothing;
        any other iterable passes through."""
        if isinstance(runs, RunReader):
            return runs.runs(out=self._room(min(runs.run_size, runs.dataset.count)))
        return iter(runs)

    def add(self, run: np.ndarray) -> None:
        """Sample one run and tally it; ``run`` itself is never reordered."""
        run = ingest_values(run, copy=False, scan=False)
        if run.size == 0:
            return
        if run.base is not self._buffer:  # not read in place by read()
            held = self._room(run.size)[: run.size]
            np.copyto(held, run)
            run = held
        s_k = scaled_sample_count(run.size, self._run_size, self._sample_size)
        samples, gaps, floors, lowest = sample_run(
            run, s_k, self._strategy, overwrite_input=True
        )
        self._samples.append(samples)
        self._payloads.append(
            np.column_stack([gaps.astype(np.float64), floors])
        )
        self.run_layout.append((int(run.size), int(s_k)))
        self.num_runs += 1
        self.count += int(run.size)
        self.minimum = min(self.minimum, float(lowest))
        self.maximum = max(self.maximum, float(samples[-1]))

    def _room(self, size: int) -> np.ndarray:
        """The run buffer, grown to hold at least ``size`` keys."""
        if self._buffer.size < size:
            self._buffer = np.empty(size, dtype=np.float64)
        return self._buffer

    def merge(self) -> tuple[np.ndarray, np.ndarray]:
        """The r-way merge of the runs' sample lists, as ``(samples,
        payload)``; the per-run lists are released."""
        lists, self._samples = self._samples, []
        payloads, self._payloads = self._payloads, []
        merged, payload = kway_merge(lists, payloads=payloads)
        return merged, payload

    def summarize(self, runs: Iterable[np.ndarray]) -> OPAQSummary:
        """The whole sample phase over ``runs``: every run sampled, the
        lists merged, the summary assembled (see :func:`build_summary`)."""
        tracer = current_tracer()
        with tracer.span("phase.sample"):
            for run in self.read(runs):
                self.add(run)
            if not self.num_runs:
                raise EstimationError("no data: the run iterable was empty")
            merged, payload = self.merge()
        tracer.count("sample.runs", self.num_runs)
        tracer.count("sample.elements", self.count)
        tracer.count("sample.list_length", int(merged.size))
        return assemble_summary(merged, payload, [self])


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
    return RunSampler(config).summarize(runs)
