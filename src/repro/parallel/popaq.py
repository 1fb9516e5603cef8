"""Parallel OPAQ on the simulated machine (paper section 3).

Each of the ``p`` processors owns ``n/p`` elements, runs the sequential
sample phase on its own disk (``r = (n/p)/m`` runs), and the ``p`` local
sorted sample lists are merged globally with either the bitonic merge or
the sample merge.  The quantile phase is unchanged except that the total
number of runs is ``r·p`` — the identical index arithmetic applies, so the
parallel algorithm inherits Lemmas 1–3 verbatim (the paper notes this
explicitly).

The returned :class:`ParallelResult` carries both the *real* global
summary (bounds computed from it are genuinely correct for the input data)
and the *simulated* clock/phase breakdown for the timing experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.config import OPAQConfig
from repro.core.quantile_phase import bounds_for
from repro.core.sample_phase import RunSampler, assemble_summary
from repro.core.summary import OPAQSummary
from repro.core.values import ingest_values
from repro.errors import ConfigError
from repro.obs import current_tracer
from repro.parallel.backends import (
    WorkerReport,
    get_backend,
    popaq_worker,
    validate_backend,
)
from repro.parallel.bitonic import bitonic_merge
from repro.parallel.machine import MachineModel, SimulatedMachine
from repro.parallel.sample_merge import sample_merge
from repro.storage import DiskDataset, RunReader

__all__ = ["ParallelOPAQ", "ParallelResult", "predict_merge_time"]

PHASE_IO = "io"
PHASE_SAMPLING = "sampling"
PHASE_LOCAL_MERGE = "local_merge"
PHASE_GLOBAL_MERGE = "global_merge"
PHASE_QUANTILE = "quantile"


@dataclass
class ParallelResult:
    """Everything one parallel OPAQ execution produced.

    ``machine`` always carries the *modelled* timings: for a simulated
    execution they are the execution; for a real backend they are the
    cost-model replay of the same run layout, so
    :meth:`phase_fractions` (modelled) and
    :meth:`measured_phase_fractions` (wall-clock) line up phase by phase —
    the real-vs-modelled comparison of the backend benchmark.
    """

    summary: OPAQSummary
    machine: SimulatedMachine
    num_procs: int
    merge_method: str
    bucket_expansion: float = 1.0
    backend: str = "simulated"
    worker_reports: list[WorkerReport] | None = None

    @property
    def total_time(self) -> float:
        """Simulated wall-clock (slowest processor)."""
        return self.machine.elapsed()

    def phase_fractions(self) -> dict[str, float]:
        """Phase -> fraction of mean total time (paper Tables 11/12)."""
        return self.machine.phase_fractions()

    def measured_phase_totals(self) -> dict[str, float] | None:
        """Phase -> mean measured seconds per worker (real backends only).

        ``None`` for simulated executions, which measure nothing.  The
        global-merge phase runs on rank 0 alone but is averaged over all
        workers, mirroring :meth:`SimulatedMachine.phase_totals`.
        """
        if self.worker_reports is None:
            return None
        acc: dict[str, float] = {}
        for report in self.worker_reports:
            for phase, seconds in report.phase_seconds.items():
                acc[phase] = acc.get(phase, 0.0) + seconds
        return {phase: t / self.num_procs for phase, t in sorted(acc.items())}

    def measured_phase_fractions(self) -> dict[str, float] | None:
        """Phase -> fraction of measured time (real backends only)."""
        totals = self.measured_phase_totals()
        if totals is None:
            return None
        denom = sum(totals.values())
        if denom == 0:
            return {}
        return {phase: t / denom for phase, t in totals.items()}

    def measured_elapsed(self) -> float | None:
        """Slowest worker's summed measured phase seconds (real backends
        only) — the wall-clock analogue of :attr:`total_time`."""
        if self.worker_reports is None:
            return None
        return max(
            sum(report.phase_seconds.values())
            for report in self.worker_reports
        )

    def io_fraction(self) -> float:
        """The paper's Table 11 number."""
        return self.phase_fractions().get(PHASE_IO, 0.0)

    def bounds(self, phis) -> list:
        """Quantile bounds from the global summary."""
        return bounds_for(self.summary, phis)


def predict_merge_time(
    p: int,
    list_size: int,
    model: MachineModel,
    method: str,
    oversample: int | None = None,
) -> float:
    """Analytic merge time from the paper's Table 8 formulas.

    ``list_size`` is ``r·s``, the per-processor sorted sample list size.
    Used by the Table 8 benchmark and cross-checked against the simulated
    execution in the tests.
    """
    if p < 2:
        return 0.0
    log_p = math.ceil(math.log2(p))
    rs = list_size
    if method == "bitonic":
        steps = log_p * (log_p + 1) / 2
        compute = 2 * rs * steps * model.mu
        comm = steps * (model.tau + rs * model.beta)
        return compute + comm
    if method == "sample":
        s_prime = oversample or p
        compute = (
            s_prime + (p - 1) * math.log2(max(2, rs)) + rs * log_p
        ) * model.mu
        gather_bcast = 2 * log_p * (model.tau + s_prime * model.beta)
        all_to_all = 2 * (p * model.tau + rs * model.beta)
        return compute + gather_bcast + all_to_all
    raise ConfigError(f"unknown merge method {method!r}")


class ParallelOPAQ:
    """The parallel formulation of OPAQ over a simulated machine."""

    def __init__(
        self,
        num_procs: int,
        config: OPAQConfig,
        model: MachineModel | None = None,
        merge_method: str = "sample",
        oversample: int | None = None,
        overlap_io: bool = False,
        backend: str = "simulated",
    ) -> None:
        """``overlap_io`` enables the paper's future-work optimisation:
        reading the next run proceeds concurrently with sampling the
        current one, so each run costs ``max(io, sampling)`` instead of
        their sum.  Accuracy is unaffected (the same bytes are read).

        ``backend`` selects the execution substrate: ``"simulated"`` (the
        default) runs on the cost model's per-processor clocks, while
        ``"serial"``, ``"thread"`` and ``"process"`` run the same SPMD
        program on real workers (see :mod:`repro.parallel.backends`) and
        *replay* the run layout through the cost model, so the result
        carries measured and modelled timings side by side."""
        if num_procs < 1:
            raise ConfigError("need at least one processor")
        if merge_method not in ("sample", "bitonic"):
            raise ConfigError("merge_method must be 'sample' or 'bitonic'")
        if merge_method == "bitonic" and num_procs & (num_procs - 1):
            raise ConfigError("bitonic merge requires a power-of-two p")
        validate_backend(backend)
        self.p = num_procs
        self.config = config
        self.model = model or MachineModel.sp2()
        self.merge_method = merge_method
        self.oversample = oversample
        self.overlap_io = overlap_io
        self.backend = backend

    # ------------------------------------------------------------------

    def _partition_runs(self, partition):
        """Iterate one processor's data as runs."""
        m = self.config.run_size
        if isinstance(partition, DiskDataset):
            # RunReader emits the io.* trace events itself.
            return RunReader(partition, run_size=m)
        arr = ingest_values(partition, copy=False, scan=False)
        return self._array_runs(arr, m)

    @staticmethod
    def _array_runs(arr, m):
        """Yield in-memory runs, charging the same io.* trace counters a
        :class:`RunReader` would for the equivalent disk-resident data."""
        tracer = current_tracer()
        if not tracer.enabled:
            yield from (arr[i : i + m] for i in range(0, arr.size, m))
            return
        element_size = arr.dtype.itemsize
        for index, start in enumerate(range(0, arr.size, m)):
            run = arr[start : start + m]
            tracer.count("io.elements", int(run.size), run=index)
            tracer.count("io.bytes", int(run.size) * element_size, run=index)
            yield run

    def _emit_spmd_counters(self, machine: SimulatedMachine) -> None:
        """Record the execution's SPMD traffic and simulated time.

        All values are deterministic functions of the input and config
        (simulated, not measured), so they participate in the trace-stream
        determinism contract and double as cost-model oracles.
        """
        tracer = current_tracer()
        if not tracer.enabled:
            return
        tracer.count("spmd.procs", self.p, merge=self.merge_method)
        tracer.count("spmd.messages", machine.comm.messages)
        tracer.count("spmd.keys", machine.comm.keys)
        tracer.count("spmd.comm_seconds", machine.comm.seconds)
        tracer.count("spmd.elapsed_seconds", machine.elapsed())
        for phase, seconds in sorted(machine.phase_totals().items()):
            tracer.count("spmd.phase_seconds", seconds, phase=phase)

    def scatter(self, data) -> list[np.ndarray]:
        """Block-partition a dataset/array across the processors."""
        if isinstance(data, DiskDataset):
            data = data.read_all()
        arr = ingest_values(data, copy=False, scan=False)
        return [part for part in np.array_split(arr, self.p)]

    def run(self, partitions, phis=None) -> ParallelResult:
        """Execute parallel OPAQ.

        Parameters
        ----------
        partitions:
            One data source per processor (list of arrays/datasets), or a
            single array to be block-partitioned by :meth:`scatter`.
        phis:
            Optional fractions; when given, the quantile phase is charged
            and the bounds are computed (and discarded — call
            :meth:`ParallelResult.bounds` for the values, it is free).
        """
        if isinstance(partitions, (np.ndarray, DiskDataset)):
            partitions = self.scatter(partitions)
        if len(partitions) != self.p:
            raise ConfigError(
                f"{len(partitions)} partitions for {self.p} processors"
            )
        if self.backend != "simulated":
            return self._run_real(partitions, phis)
        machine = SimulatedMachine(self.p, self.model)
        samplers: list[RunSampler] = []
        local_lists: list[np.ndarray] = []
        local_payloads: list[np.ndarray] = []
        for proc, partition in enumerate(partitions):
            sampler = RunSampler(self.config)
            for run in sampler.read(self._partition_runs(partition)):
                sampler.add(run)
            if not sampler.num_runs:
                raise ConfigError(f"processor {proc} received no data")
            merged, merged_payload = sampler.merge()
            self._charge_local_phase(machine, proc, sampler.run_layout)
            samplers.append(sampler)
            local_lists.append(merged)
            local_payloads.append(merged_payload)

        # Global merge of the p local sample lists.
        expansion = 1.0
        if self.p == 1:
            global_samples, global_payload = local_lists[0], local_payloads[0]
        elif self.merge_method == "bitonic":
            blocks, pays = bitonic_merge(
                local_lists, machine, payloads=local_payloads, phase=PHASE_GLOBAL_MERGE
            )
            global_samples = np.concatenate(blocks)
            global_payload = np.concatenate(pays)
        else:
            blocks, pays, expansion = sample_merge(
                local_lists,
                machine,
                payloads=local_payloads,
                oversample=self.oversample,
                phase=PHASE_GLOBAL_MERGE,
            )
            global_samples = np.concatenate(blocks)
            global_payload = np.concatenate(pays)
        machine.barrier(PHASE_GLOBAL_MERGE)

        summary = assemble_summary(global_samples, global_payload, samplers)
        if phis is not None:
            # Constant work per quantile on the coordinating processor.
            ops = len(list(phis)) * max(1.0, math.log2(max(2, summary.num_samples)))
            machine.charge_compute(0, ops, PHASE_QUANTILE)
        self._emit_spmd_counters(machine)
        return ParallelResult(
            summary=summary,
            machine=machine,
            num_procs=self.p,
            merge_method=self.merge_method,
            bucket_expansion=expansion,
        )

    # ------------------------------------------------------------------
    # Real execution backends
    # ------------------------------------------------------------------

    def _run_real(self, partitions, phis) -> ParallelResult:
        """Execute the SPMD program on a real backend (see ``backend=``).

        The data-path result is the workers' own: the global sample list
        is gathered to rank 0 and r-way merged there (an order-preserving
        merge of the same per-partition lists the simulated merge networks
        move, so the merged *values* are identical).  The cost model is
        then replayed over the measured run layout, giving the modelled
        timings that sit next to the workers' measured phase seconds.
        """
        backend = get_backend(self.backend)
        results = backend.run(
            popaq_worker, [(part, self.config) for part in partitions]
        )
        reports: list[WorkerReport] = [res["report"] for res in results]
        root = results[0]
        summary = assemble_summary(root["samples"], root["payload"], reports)
        machine = self._replay_model(reports)
        if phis is not None:
            ops = len(list(phis)) * max(1.0, math.log2(max(2, summary.num_samples)))
            machine.charge_compute(0, ops, PHASE_QUANTILE)
        self._emit_spmd_counters(machine)
        self._emit_worker_timings(backend.name, reports)
        return ParallelResult(
            summary=summary,
            machine=machine,
            num_procs=self.p,
            merge_method=self.merge_method,
            backend=backend.name,
            worker_reports=reports,
        )

    def _charge_local_phase(
        self,
        machine: SimulatedMachine,
        proc: int,
        run_layout: list[tuple[int, int]],
    ) -> None:
        """Charge one processor's reads, sampling and local merge for the
        ``(run size, sample count)`` layout of its runs."""
        for run_size, s_k in run_layout:
            sampling_ops = run_size * max(1.0, math.log2(max(2, s_k)))
            if self.overlap_io:
                machine.charge_overlapped(
                    proc,
                    {
                        PHASE_IO: self.model.read_cost(run_size),
                        PHASE_SAMPLING: self.model.compute_cost(sampling_ops),
                    },
                )
            else:
                machine.charge_io(proc, run_size, PHASE_IO)
                machine.charge_compute(proc, sampling_ops, PHASE_SAMPLING)
        list_len = sum(s for _, s in run_layout)
        machine.charge_compute(
            proc,
            list_len * max(1.0, math.log2(max(2, len(run_layout)))),
            PHASE_LOCAL_MERGE,
        )

    def _replay_model(self, reports: list[WorkerReport]) -> SimulatedMachine:
        """Charge a fresh simulated machine for the run layout a real
        execution reported — the modelled half of real-vs-modelled.

        Per-run I/O, sampling and the local merge replay exactly as the
        simulated execution charges them; the global merge is charged from
        the paper's Table 8 closed forms (:func:`predict_merge_time`)
        because the real gather-merge has no simulated network to walk.
        """
        machine = SimulatedMachine(self.p, self.model)
        for proc, report in enumerate(reports):
            self._charge_local_phase(machine, proc, report.run_layout)
        if self.p > 1:
            lengths = [sum(s for _, s in r.run_layout) for r in reports]
            list_size = round(sum(lengths) / len(lengths))
            merge_time = predict_merge_time(
                self.p, list_size, self.model, self.merge_method, self.oversample
            )
            for proc in range(self.p):
                machine.charge(proc, merge_time, PHASE_GLOBAL_MERGE)
        machine.barrier(PHASE_GLOBAL_MERGE)
        return machine

    def _emit_worker_timings(
        self, backend_name: str, reports: list[WorkerReport]
    ) -> None:
        """Record each worker's measured phase seconds as obs spans.

        The durations were measured inside the workers (possibly in other
        processes), so they are recorded after the fact; the attributes
        stay deterministic, the duration is — as for every span — the
        sanctioned nondeterministic field.
        """
        tracer = current_tracer()
        if not tracer.enabled:
            return
        for report in reports:
            for phase, seconds in sorted(report.phase_seconds.items()):
                tracer.record_span(
                    "backend.phase",
                    seconds,
                    backend=backend_name,
                    rank=report.rank,
                    phase=phase,
                )
