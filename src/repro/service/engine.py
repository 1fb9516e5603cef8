"""The quantile service: router + shard workers + snapshotter + queries.

:class:`QuantileService` is the in-process subsystem the binary wire
layer (:mod:`repro.service.aio`) wraps.  Data flow::

    ingest(batch) --route--> [shard queue]* --worker--> IncrementalOPAQ*
                                                             |
                         snapshot() / snapshot_every: barrier, merge,
                         compact, persist (epoch log), atomic swap
                                                             |
    query(phi) <------ current EpochSnapshot (immutable, lock-free) <-+

Queries are answered from the current epoch's merged summary with the
paper's deterministic enclosure: the true φ-quantile of the snapshotted
data lies in ``[lower, upper]`` with at most ``2·guarantee`` elements
between the bounds, where ``guarantee`` is recomputed exactly from the
merged run layout (:meth:`~repro.core.OPAQSummary.guaranteed_rank_error`).
Elements ingested after the served epoch are reported as ``staleness``,
never silently mixed into an answer.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.bounds import QuantileBounds
from repro.core.quantile_phase import bounds_arrays
from repro.errors import DataError, EstimationError, ServiceError
from repro.obs import current_tracer
from repro.service.config import ServiceConfig
from repro.service.proto import QuantileVector
from repro.service.router import ShardRouter
from repro.service.shard import ShardWorker
from repro.service.snapshot import EpochSnapshot, Snapshotter
from repro.service.tenancy.config import RegistryConfig
from repro.service.tenancy.keys import split_key
from repro.service.tenancy.registry import KeyAnswer, SummaryRegistry

__all__ = ["QuantileService", "QueryResult", "QuantileVector"]


@dataclass(frozen=True)
class QueryResult:
    """Answers for one query call, tied to the epoch that produced them."""

    epoch: int
    count: int
    guarantee: int
    staleness: int
    bounds: list[QuantileBounds]


class QuantileService:
    """Sharded, epoch-snapshotted quantile serving over OPAQ summaries."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self._router = ShardRouter(self.config.num_shards)
        self._workers = [
            ShardWorker(shard, self.config)
            for shard in range(self.config.num_shards)
        ]
        self._snapshotter = Snapshotter(
            self._workers,
            self.config.snapshot_dir,
            max_merged_samples=self.config.max_merged_samples,
        )
        self._restored = self._snapshotter.restore()
        # The multi-tenant registry behind the keyed opcodes.  Built
        # eagerly: with a spill directory configured it replays the
        # spill log here, so a warm restart serves keyed answers
        # before the first keyed ingest.
        self._registry = SummaryRegistry(self.config.tenancy or RegistryConfig())
        #: Guards the operational counters below: ingest() and query() run
        #: on whatever thread calls them — under the binary server, ingest
        #: on the executor's threads and queries on the event loop — so
        #: the += updates race without it.
        self._state_lock = threading.Lock()
        #: Elements accepted into shard queues this process lifetime.
        self._accepted = 0
        #: Elements since the last epoch or failed trigger: what the
        #: ``snapshot_every`` trigger counts.
        self._since_snapshot = 0
        self._queries = 0
        self._closed = False
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------

    def ingest(
        self, values: Sequence[float] | np.ndarray, timeout: float | None = None
    ) -> dict[str, int]:
        """Route one batch across the shards (blocking backpressure).

        Pass a 1-D ``np.ndarray`` (or any numeric sequence): a scalar
        is refused, as per-element calls are exactly the per-request
        overhead the batched API exists to amortise.

        Returns ``{"accepted": n, "epoch": current}``; raises
        :class:`~repro.errors.ServiceError` when a shard queue stays full
        past the backpressure timeout and
        :class:`~repro.errors.DataError` for what the ingest policy
        refuses (:mod:`repro.core.values`).  An epoch that
        ``snapshot_every`` triggers and that fails (a full disk under
        the epoch log) does not fail the accepted batch: it is counted
        as ``service.snapshot.failed`` and counts as the trigger's
        attempt, so it is retried once another ``snapshot_every``
        elements arrive, not on every ingest.
        """
        self._check_open()
        parts = self._router.split(values)
        accepted = 0
        for worker, part in zip(self._workers, parts):
            if part.size:
                worker.submit(part, timeout=timeout)
                accepted += int(part.size)
        with self._state_lock:
            self._accepted += accepted
            self._since_snapshot += accepted
        tracer = current_tracer()
        tracer.count("service.ingest.elements", accepted)
        tracer.count("service.ingest.batches", 1, shards=self.config.num_shards)
        if (
            self.config.snapshot_every is not None
            and self._since_snapshot >= self.config.snapshot_every
        ):
            try:
                self.snapshot()
            except ServiceError:
                tracer.count("service.snapshot.failed", 1)
                with self._state_lock:
                    self._since_snapshot = 0
        current = self._snapshotter.current
        return {
            "accepted": accepted,
            "epoch": current.epoch if current else 0,
        }

    # ------------------------------------------------------------------
    # Keyed (multi-tenant) path
    # ------------------------------------------------------------------

    @property
    def registry(self) -> SummaryRegistry:
        """The multi-tenant summary registry behind the keyed opcodes."""
        return self._registry

    def ingest_keyed(
        self,
        keys: Sequence[str],
        counts: Sequence[int] | np.ndarray,
        values: Sequence[float] | np.ndarray,
    ) -> dict[str, int]:
        """Route one keyed frame into the registry.

        ``keys`` are composite ``tenant\\x1fmetric`` strings (the wire
        form; see :func:`~repro.service.tenancy.compose_key`), ``counts``
        the per-key element counts and ``values`` the concatenation of
        every key's elements in key order.  Returns
        ``{"elements": n, "keys": k}``.  Keyed data lives entirely in the
        registry — it does not advance the epoch machinery or appear in
        the unkeyed quantile answers.
        """
        self._check_open()
        return self._registry.ingest_frame(keys, counts, values)

    def quantiles_keyed(
        self,
        keys: Sequence[str],
        phis: Sequence[float] | np.ndarray,
    ) -> list[KeyAnswer]:
        """One :class:`~repro.service.tenancy.KeyAnswer` per composite key.

        Wildcard components (``"*"``) select aggregation-tree rollups;
        concrete keys are served resident or restored from the spill
        store, each with the rank-error guarantee its own compaction
        history justifies.
        """
        self._check_open()
        pairs = [split_key(key) for key in keys]
        return self._registry.quantiles_many(pairs, phis)

    # ------------------------------------------------------------------
    # Snapshot / epoch control
    # ------------------------------------------------------------------

    def snapshot(self) -> EpochSnapshot:
        """Advance one epoch now (barrier + merge + persist + swap).

        A failed persist raises the epoch log's retryable
        :class:`~repro.errors.ServiceError`; the served epoch is
        unchanged.
        """
        self._check_open()
        snapshot = self._snapshotter.run_epoch()
        with self._state_lock:
            self._since_snapshot = 0
        return snapshot

    @property
    def current_epoch(self) -> EpochSnapshot | None:
        """The served epoch (None until data is snapshotted)."""
        return self._snapshotter.current

    @property
    def restored_epoch(self) -> EpochSnapshot | None:
        """The epoch adopted from disk at startup, if any."""
        return self._restored

    # ------------------------------------------------------------------
    # Query path (lock-free; never blocks on writers)
    # ------------------------------------------------------------------

    def quantiles(self, phis: Sequence[float] | np.ndarray) -> QueryResult:
        """Quantile bounds for a whole φ-vector — the primary query call.

        Array-in/array-out: every fraction is answered in one vectorised
        ``searchsorted`` sweep over the merged summary
        (:func:`~repro.core.quantile_phase.bounds_arrays`), bit-identical
        to the scalar path but with per-call cost independent of the
        number of fractions.
        """
        vector = self.query_arrays(phis)
        bounds = [
            QuantileBounds(
                phi=float(vector.phis[i]),
                rank=int(vector.ranks[i]),
                lower=float(vector.lower[i]),
                upper=float(vector.upper[i]),
                max_below=int(vector.max_below[i]),
                max_above=int(vector.max_above[i]),
            )
            for i in range(len(vector.phis))
        ]
        return QueryResult(
            epoch=vector.epoch,
            count=vector.count,
            guarantee=vector.guarantee,
            staleness=vector.staleness,
            bounds=bounds,
        )

    def query_arrays(
        self, phis: Sequence[float] | np.ndarray
    ) -> QuantileVector:
        """The wire-native form of :meth:`quantiles`: parallel arrays.

        This is the serving hot path — no per-φ object construction, so
        protocol v3 can frame the answer straight from the arrays.
        """
        snapshot = self._snapshotter.current
        if snapshot is None:
            raise EstimationError(
                "no epoch snapshot to serve yet: ingest data and call "
                "snapshot() (or configure snapshot_every)"
            )
        try:
            wanted = np.ascontiguousarray(phis, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise DataError(
                f"unparseable quantile fractions: {exc}"
            ) from None
        tracer = current_tracer()
        with tracer.span("service.query", queries=int(wanted.size)):
            psi, lower, upper, max_below, max_above, fractions = bounds_arrays(
                snapshot.summary, wanted
            )
        with self._state_lock:
            self._queries += fractions.size
        tracer.count(
            "service.query.count", fractions.size, epoch=snapshot.epoch
        )
        return QuantileVector(
            epoch=snapshot.epoch,
            count=snapshot.count,
            guarantee=snapshot.guarantee,
            staleness=self.staleness,
            phis=fractions,
            ranks=psi,
            lower=lower,
            upper=upper,
            max_below=max_below,
            max_above=max_above,
        )

    def query(self, phis: Sequence[float] | float) -> QueryResult:
        """Deprecated-compat spelling of :meth:`quantiles`.

        Vector input delegates unchanged; scalar input (``query(0.5)``)
        is deprecated — pass ``quantiles([0.5])``.
        """
        if isinstance(phis, (int, float)):
            warnings.warn(
                "scalar query(phi) is deprecated; call quantiles([phi]) "
                "with a fraction vector",
                DeprecationWarning,
                stacklevel=2,
            )
            phis = [float(phis)]
        return self.quantiles(phis)

    @property
    def staleness(self) -> int:
        """Elements accepted but not yet covered by the served epoch."""
        snapshot = self._snapshotter.current
        covered = snapshot.count if snapshot else 0
        restored = self._restored.count if self._restored else 0
        return restored + self._accepted - covered

    def stats(self) -> dict[str, object]:
        """Operational counters (the wire layer's ``/stats`` body)."""
        snapshot = self._snapshotter.current
        return {
            "shards": self.config.num_shards,
            "accepted": self._accepted,
            "queries": self._queries,
            "epoch": snapshot.epoch if snapshot else 0,
            "count": snapshot.count if snapshot else 0,
            "guarantee": snapshot.guarantee if snapshot else None,
            "staleness": self.staleness,
            "samples": snapshot.summary.num_samples if snapshot else 0,
            "closed": self._closed,
            "tenancy": self._registry.stats(),
            "per_shard": [self._shard_stats(w) for w in self._workers],
        }

    @staticmethod
    def _shard_stats(worker: ShardWorker) -> dict[str, object]:
        # One read of the shard summary: each read merges the shard's
        # published parts.
        summary = worker.summary
        return {
            "shard": worker.shard_id,
            "ingested": worker.ingested,
            "pending_batches": worker.pending,
            "folds": worker.folds,
            "samples": summary.num_samples if summary is not None else 0,
            # The shard's own error budget.  The merged epoch's
            # "guarantee" above is NOT the max of these: merging
            # composes the budgets (see the accounting pinned in
            # tests/core/test_merge_algebra.py), which is why it
            # degrades as shards rise — reported separately here so
            # the trade is visible, never hidden.
            "guarantee": (
                summary.guaranteed_rank_error() if summary is not None else None
            ),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, final_snapshot: bool = True) -> None:
        """Stop the workers; by default flush a final epoch first.

        Idempotent.  With ``final_snapshot`` the shutdown epoch lands in
        the epoch log, so a subsequent warm restart serves every element
        this process ever accepted.  A final epoch that fails to persist
        raises its retryable :class:`~repro.errors.ServiceError` only
        after the workers are stopped and the registry (which spills its
        keys) and both logs are closed.
        """
        if self._closed:
            return
        failure: ServiceError | None = None
        if final_snapshot and (
            self.staleness or self._snapshotter.current is None
        ):
            try:
                self.snapshot()
            except EstimationError:
                pass  # nothing ingested: nothing to persist
            except ServiceError as exc:
                failure = exc
        for worker in self._workers:
            worker.stop()
        # Registry shutdown spills every resident key when a spill
        # directory is configured — the keyed half of the warm restart.
        self._registry.close()
        self._snapshotter.close()
        # A monotonic bool latch: racing readers see either open or
        # closed, both of which are coherent states.
        self._closed = True
        if failure is not None:
            raise failure
        current_tracer().count("service.closed", 1)

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("service is closed")

    def __enter__(self) -> "QuantileService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
