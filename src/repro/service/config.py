"""Configuration of the sharded quantile service.

One validated object carries every knob of the serving subsystem: how
ingest is partitioned (shards, queue bounds, backpressure timeout), how
each shard summarises (the per-shard :class:`~repro.core.OPAQConfig` and
its compaction bound), and how epochs advance (snapshot cadence in
*ingested elements* — never wall time, so a replayed ingest schedule
reproduces the exact same epoch boundaries and therefore the exact same
served answers).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.config import OPAQConfig
from repro.errors import ConfigError
from repro.parallel.backends import validate_backend
from repro.service.router import ROUTER_POLICIES
from repro.service.tenancy.config import RegistryConfig

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Parameters of one :class:`~repro.service.QuantileService`.

    Parameters
    ----------
    num_shards:
        Number of ingest shards, each a worker thread with its own
        :class:`~repro.core.IncrementalOPAQ`.
    run_size:
        ``m`` for the per-shard estimators: a shard folds its buffered
        elements into the summary in runs of at most this many keys.
    sample_size:
        ``s`` per run — the accuracy/memory knob, exactly as in the
        single-pass algorithm.
    queue_capacity:
        Bound of each shard's ingest queue, in *batches*.  The queues are
        deliberately bounded (lint rule OPQ601): a full queue blocks the
        producer — that blocking is the backpressure signal.
    ingest_timeout:
        Seconds a blocked producer waits for queue space before the
        submission fails with :class:`~repro.errors.ServiceError`.
    flush_threshold:
        A shard buffers routed elements and folds them into its summary
        once at least this many are pending (default: ``run_size``).
        Buffered-but-unfolded elements are invisible to queries until the
        next fold or snapshot; :meth:`QuantileService.stats` reports them
        as staleness.
    max_shard_samples:
        Compaction bound of each shard's retained sample list (forwarded
        to :class:`~repro.core.IncrementalOPAQ`); ``None`` grows without
        bound.
    max_merged_samples:
        Compaction bound applied to the merged epoch snapshot; ``None``
        keeps every sample of every shard.
    snapshot_every:
        Advance the epoch automatically once this many elements have been
        ingested since the last snapshot (``None``: epochs advance only on
        explicit :meth:`QuantileService.snapshot` calls).  Counted in
        elements, not seconds, so epoch boundaries are deterministic.
    snapshot_dir:
        Directory for persisted epoch snapshots (``None``: in-memory
        only).  The service warm-restarts from the newest snapshot found
        here.
    snapshot_retain:
        How many persisted epochs to keep on disk (older ones are
        pruned).
    backend:
        Execution backend for :meth:`QuantileService.estimate`, the batch
        counterpart of the streaming path: ``"serial"`` (default),
        ``"thread"``, ``"process"`` or ``"simulated"`` (see
        :mod:`repro.parallel.backends`).  The streaming ingest path always
        uses its own shard worker threads regardless.
    router_policy:
        How ingest batches are partitioned across shards: ``"hash"``
        (default; per-key SplitMix64, batch-boundary-independent) or
        ``"chunk"`` (contiguous slices, zero routing cost — the serving
        layer's high-throughput choice).  Either way the merged epoch
        summary covers exactly the ingested multiset; see
        :mod:`repro.service.router`.
    tenancy:
        Configuration of the multi-tenant summary registry serving the
        keyed opcodes (``INGEST_KEYED`` / ``QUANTILES_KEYED``):
        memory budget, shard count, per-key epsilon, spill directory
        (see :class:`~repro.service.tenancy.RegistryConfig`).  ``None``
        runs the registry with its defaults — in-memory only, so under
        budget pressure keyed ingest reports backpressure instead of
        spilling.
    """

    num_shards: int = 4
    run_size: int = 100_000
    sample_size: int = 1000
    queue_capacity: int = 64
    ingest_timeout: float = 30.0
    flush_threshold: int | None = None
    max_shard_samples: int | None = 100_000
    max_merged_samples: int | None = None
    snapshot_every: int | None = None
    snapshot_dir: str | Path | None = None
    snapshot_retain: int = 3
    backend: str = "serial"
    router_policy: str = "hash"
    tenancy: RegistryConfig | None = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigError("num_shards must be at least 1")
        if self.queue_capacity < 1:
            raise ConfigError(
                "queue_capacity must be at least 1: unbounded ingest queues "
                "turn overload into memory exhaustion instead of backpressure"
            )
        if self.ingest_timeout <= 0:
            raise ConfigError("ingest_timeout must be positive seconds")
        if self.flush_threshold is not None and self.flush_threshold < 1:
            raise ConfigError("flush_threshold must be at least 1")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be at least 1 element")
        if self.snapshot_retain < 1:
            raise ConfigError("snapshot_retain must be at least 1")
        if self.max_merged_samples is not None and self.max_merged_samples < 2:
            raise ConfigError("max_merged_samples must be at least 2")
        # Delegate run/sample validation (and strategy resolution)
        # to the core config so the two layers cannot drift apart; backend
        # names resolve against the parallel layer's registry.
        self.opaq_config()
        validate_backend(self.backend)
        if self.router_policy not in ROUTER_POLICIES:
            raise ConfigError(
                f"unknown router_policy {self.router_policy!r}; choose from "
                f"{ROUTER_POLICIES}"
            )

    def opaq_config(self) -> OPAQConfig:
        """The per-shard estimator configuration."""
        return OPAQConfig(
            run_size=self.run_size,
            sample_size=self.sample_size,
        )

    @property
    def effective_flush_threshold(self) -> int:
        """Elements a shard buffers before folding (defaults to ``m``)."""
        return self.flush_threshold or self.run_size
