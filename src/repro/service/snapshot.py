"""Epoch snapshots: merge, swap, persist, warm-restart.

The serving subsystem separates *ingest state* (per-shard incremental
summaries, written only by their worker threads) from *query state* (one
merged, compacted, immutable :class:`~repro.core.OPAQSummary` per epoch).
The :class:`Snapshotter` advances epochs: it barriers every shard (fold
everything submitted so far, and merge the shard's waiting runs),
merges the restored base and every shard's published parts — its
summary, then any runs it has not merged yet — **in shard-id order**,
in one :func:`~repro.core.incremental.fold` (deterministic, and
byte-identical to merging the shard summaries one after another; see
:class:`~repro.core.incremental.LazySummary`), optionally compacts to a
memory bound, and swaps the new epoch in under the swap lock (lint rule
OPQ602).
Readers never take that lock — they read the current epoch reference,
which CPython swaps atomically.

Epochs are numbered densely from 1 and advance on *data volume*, never on
wall time, so a replayed ingest schedule reproduces identical epochs.

Given a directory, the Snapshotter persists each epoch in a segment log
(:class:`~repro.service.tenancy.SpillStore`, the spill store's format)
as one summary record named ``epoch-NNNNNNNN``.  Once the new record is
whole, the previous epoch's record is dropped with a tombstone.  A
restarted service serves the highest-numbered epoch record and drops any
older one a crash left live, so queries answer identically before and
after the restart.  The log's crash handling covers epochs: a torn
append is truncated at the next open, and a failed append raises the
log's retryable :class:`~repro.errors.ServiceError` before the swap, so
the served epoch stays as it was.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.core.incremental import Part, fold
from repro.core.summary import OPAQSummary
from repro.errors import DataError, EstimationError
from repro.obs import current_tracer
from repro.service.shard import ShardWorker
from repro.service.tenancy.store import SpillStore

__all__ = ["EpochSnapshot", "Snapshotter"]

_EPOCH = "epoch-"
#: What builds before the epoch log left in a snapshot directory.
_RETIRED = ("LATEST.json", "epoch-*.npz")


def _epoch_name(epoch: int) -> str:
    return f"{_EPOCH}{epoch:08d}"


@dataclass(frozen=True)
class EpochSnapshot:
    """One served epoch: an immutable merged summary plus bookkeeping."""

    epoch: int
    summary: OPAQSummary

    @property
    def count(self) -> int:
        """Elements covered by this epoch."""
        return self.summary.count

    @functools.cached_property
    def guarantee(self) -> int:
        """Worst-case rank distance of either served bound from the truth
        (the paper's ``n/s``, recomputed exactly for the merged run
        layout; ``2×`` this bounds the elements between the bounds).

        Cached: the summary is immutable once the epoch is published, and
        the reduction over its bookkeeping arrays is pure query-path
        overhead if repeated per request.
        """
        return self.summary.guaranteed_rank_error()


def _open_log(directory: str | os.PathLike) -> SpillStore:
    """The epoch log in ``directory``; a directory that holds epochs in
    the retired layout (one ``.npz`` per epoch plus a manifest) is
    refused with a ``DataError`` naming it."""
    path = Path(directory)
    for pattern in _RETIRED:
        found = next(path.glob(pattern), None)
        if found is not None:
            raise DataError(
                f"{path} holds epochs in the retired layout ({found.name}); "
                "this build keeps epochs in a segment log — point "
                "snapshot_dir at a fresh directory or discard this one"
            )
    return SpillStore(path)


class Snapshotter:
    """Advances epochs: barrier, merge, compact, persist, swap."""

    def __init__(
        self,
        workers: list[ShardWorker],
        directory: str | os.PathLike | None = None,
        max_merged_samples: int | None = None,
    ) -> None:
        self._workers = workers
        self._log = None if directory is None else _open_log(directory)
        self._max_merged_samples = max_merged_samples
        # The swap lock: serialises epoch advances against each other and
        # guards the served-reference assignment.  Readers never take it.
        self._lock = threading.Lock()
        self._snapshot: EpochSnapshot | None = None
        #: Summary restored from disk at startup; merged under every
        #: subsequent epoch (shard summaries only cover post-restart data).
        self._base: OPAQSummary | None = None

    @property
    def current(self) -> EpochSnapshot | None:
        """The served epoch — a lock-free atomic reference read."""
        return self._snapshot

    def restore(self) -> EpochSnapshot | None:
        """Warm-restart: adopt the highest-numbered persisted epoch, if
        any, and drop any older epoch record a crash left live."""
        if self._log is None:
            return None
        epochs = sorted(
            int(name[len(_EPOCH) :])
            for name in self._log.aux_names()
            if name.startswith(_EPOCH)
        )
        if not epochs:
            return None
        summary = self._log.load_aux(_epoch_name(epochs[-1]))
        assert summary is not None  # named by the log's own index
        for stale in epochs[:-1]:
            self._log.drop_aux(_epoch_name(stale))
        restored = EpochSnapshot(epoch=epochs[-1], summary=summary)
        with self._lock:
            self._base = summary
            self._snapshot = restored
        return restored

    def run_epoch(self, flush: bool = True) -> EpochSnapshot:
        """Advance one epoch and return the new served snapshot.

        With ``flush`` (the default) every shard first folds everything
        submitted before this call — the barrier that makes the epoch a
        consistent cut of the ingest stream.  A failed persist raises
        before the swap: the served epoch is unchanged.
        """
        tracer = current_tracer()
        with self._lock:
            if flush:
                # Two-phase barrier: enqueue every shard's flush first,
                # then wait — the tail folds run concurrently instead of
                # shard-by-shard.
                controls = [w.begin_flush() for w in self._workers]
                for worker, control in zip(self._workers, controls):
                    worker.finish_flush(control)
            # Shard-id order, each shard's parts in arrival order:
            # deterministic.
            parts: list[Part] = [] if self._base is None else [self._base]
            for worker in self._workers:
                parts.extend(worker.parts)
            with tracer.span("service.snapshot.merge", shards=len(self._workers)):
                merged = fold(parts, self._max_merged_samples)
                if merged is None:
                    raise EstimationError(
                        "cannot snapshot an empty service: no data ingested yet"
                    )
            previous = self._snapshot
            snapshot = EpochSnapshot(
                epoch=(previous.epoch if previous else 0) + 1, summary=merged
            )
            # Build the guarantee (the summary's rank arrays) here, off
            # the query path: left to the first query, it would run inline
            # on the binary server's event loop.
            snapshot.guarantee
            if self._log is not None:
                with tracer.span("service.snapshot.persist", epoch=snapshot.epoch):
                    self._log.save_aux(_epoch_name(snapshot.epoch), merged)
                    if previous is not None:
                        self._log.drop_aux(_epoch_name(previous.epoch))
            self._snapshot = snapshot
        tracer.count("service.snapshot.epoch", 1, epoch=snapshot.epoch)
        tracer.count("service.snapshot.samples", snapshot.summary.num_samples)
        tracer.count("service.snapshot.count", snapshot.count)
        return snapshot

    def close(self) -> None:
        """Close the epoch log.  Idempotent."""
        if self._log is not None:
            self._log.close()
