"""The POPAQ SPMD program the real backends execute.

This is the same program the simulated machine charges (paper section 3),
written against the :class:`~repro.parallel.backends.base.Comm` interface:
each rank reads its partition run by run, extracts the regular samples,
merges its per-run sample lists locally, and the ``p`` local sorted lists
are gathered to rank 0 for the global r-way merge.

Determinism contract: rank 0 receives **in rank order** (``1, 2, ..., p-1``)
— never "whichever worker finishes first" — so the merged sample list is a
pure function of the partitions and the configuration, identical across
the serial, thread and process backends and bit-identical (as a value
array) to the simulated execution's global merge of the same partitions.

Workers measure their own phase seconds with ``time.perf_counter`` (the
sanctioned reporting timer; see OPQ301) and *return* them: a worker may be
running in a forked process whose tracer cannot reach the caller's sink,
so the driver — :meth:`repro.parallel.ParallelOPAQ.run` — emits the
spans from the reports instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.core.config import OPAQConfig
from repro.core.sample_phase import RunSampler
from repro.errors import ConfigError
from repro.parallel.backends.base import Comm
from repro.selection import kway_merge
from repro.storage import DiskDataset, RunReader

__all__ = ["WorkerReport", "popaq_worker"]


@dataclass
class WorkerReport:
    """What one rank measured and touched — the modelled replay's input.

    ``run_layout`` holds ``(run size, sample count)`` per run, exactly the
    quantities the simulated machine charges for; the driver replays them
    through a :class:`~repro.parallel.machine.SimulatedMachine` to produce
    the modelled timings that sit next to the measured ``phase_seconds``.
    """

    rank: int
    num_runs: int
    count: int
    minimum: float
    maximum: float
    run_layout: list[tuple[int, int]]
    phase_seconds: dict[str, float]


def _iter_runs(partition: Any, run_size: int) -> Iterator[np.ndarray]:
    """One rank's partition as runs: a real disk reader for disk-resident
    data, plain slicing for in-memory (or shared-memory) arrays."""
    if isinstance(partition, DiskDataset):
        return iter(RunReader(partition, run_size=run_size))
    arr = np.asarray(partition, dtype=np.float64)
    return (arr[i : i + run_size] for i in range(0, arr.size, run_size))


def popaq_worker(
    comm: Comm, partition: Any, config: OPAQConfig
) -> dict[str, Any]:
    """One rank of POPAQ (see module docstring).

    Rank 0 returns ``{"samples", "payload", "report"}`` — the globally
    merged sample list with its (gap, floor) payload rows; every other
    rank returns just ``{"report"}``.
    """
    phase = {"io": 0.0, "sampling": 0.0, "local_merge": 0.0}
    sampler = RunSampler(config)
    runs = _iter_runs(partition, config.run_size)
    while True:
        t0 = time.perf_counter()
        run = next(runs, None)  # the read (for disk partitions) is the io phase
        phase["io"] += time.perf_counter() - t0
        if run is None:
            break
        t0 = time.perf_counter()
        sampler.add(run)
        phase["sampling"] += time.perf_counter() - t0
    if not sampler.num_runs:
        raise ConfigError(f"processor {comm.rank} received no data")
    t0 = time.perf_counter()
    merged, merged_payload = sampler.merge()
    phase["local_merge"] += time.perf_counter() - t0
    report = WorkerReport(
        rank=comm.rank,
        num_runs=sampler.num_runs,
        count=sampler.count,
        minimum=sampler.minimum,
        maximum=sampler.maximum,
        run_layout=sampler.run_layout,
        phase_seconds=phase,
    )
    if comm.rank != 0:
        comm.send(0, (merged, merged_payload))
        comm.barrier()
        return {"report": report}
    lists = [merged]
    payloads = [merged_payload]
    for src in range(1, comm.size):
        # Rank-order receives ARE the determinism contract: arrival order
        # must never influence the merged list (cf. lint rule OPQ403 on
        # the simulated machine's send sequences).
        peer_samples, peer_payload = comm.recv(src)
        lists.append(peer_samples)
        payloads.append(peer_payload)
    t0 = time.perf_counter()
    global_samples, global_payload = kway_merge(lists, payloads=payloads)
    phase["global_merge"] = time.perf_counter() - t0
    comm.barrier()
    return {
        "samples": global_samples,
        "payload": global_payload,
        "report": report,
    }
