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

:class:`SnapshotStore` persists each epoch as a versioned summary file
plus a ``LATEST.json`` manifest (written atomically via rename), and a
restarted service warm-restarts from the newest manifest: queries answer
identically before and after the restart.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.core.incremental import Part, fold
from repro.core.summary import OPAQSummary
from repro.errors import DataError, EstimationError
from repro.obs import current_tracer
from repro.service.shard import ShardWorker

__all__ = ["EpochSnapshot", "SnapshotStore", "Snapshotter"]

#: Manifest file format: bump when the layout changes.
_MANIFEST_MAGIC = "OPAQSNAP"
_MANIFEST_VERSION = 1


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


class SnapshotStore:
    """Directory-backed persistence of epoch snapshots.

    Layout::

        <dir>/epoch-00000007.npz   # OPAQSummary.save payload (versioned)
        <dir>/LATEST.json          # atomic manifest -> newest epoch

    The manifest is written to a temporary name and ``os.replace``d into
    place, so a reader (or a warm-restarting service) always sees either
    the previous complete snapshot or the new complete snapshot, never a
    torn one.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Sweep temporaries torn off by a crash mid-save: a *.tmp.npz
        # or LATEST.json.tmp can only be an incomplete write (the commit
        # point is the os.replace), so removing them is always safe.
        for torn in self.directory.glob("*.tmp.npz"):
            torn.unlink(missing_ok=True)
        (self.directory / "LATEST.json.tmp").unlink(missing_ok=True)

    def _epoch_path(self, epoch: int) -> Path:
        return self.directory / f"epoch-{epoch:08d}.npz"

    @property
    def manifest_path(self) -> Path:
        return self.directory / "LATEST.json"

    def save(self, snapshot: EpochSnapshot, retain: int = 3) -> Path:
        """Persist one epoch and point the manifest at it."""
        path = self._epoch_path(snapshot.epoch)
        tmp = path.with_name(path.name + ".tmp.npz")
        snapshot.summary.save(tmp)
        os.replace(tmp, path)
        manifest = {
            "magic": _MANIFEST_MAGIC,
            "version": _MANIFEST_VERSION,
            "epoch": snapshot.epoch,
            "file": path.name,
            "count": snapshot.count,
            "guarantee": snapshot.guarantee,
        }
        tmp_manifest = self.manifest_path.with_name("LATEST.json.tmp")
        tmp_manifest.write_text(json.dumps(manifest, indent=2) + "\n")
        os.replace(tmp_manifest, self.manifest_path)
        self.prune(retain)
        return path

    def load_latest(self) -> EpochSnapshot | None:
        """The newest complete snapshot, or ``None`` on a fresh store."""
        if not self.manifest_path.exists():
            # No manifest but epoch archives present: a crash landed an
            # epoch before the first manifest swap (or the manifest was
            # deleted).  Serve the newest complete archive over nothing.
            return self._latest_from_files()
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise DataError(
                f"unreadable snapshot manifest {self.manifest_path}: {exc}"
            ) from None
        if manifest.get("magic") != _MANIFEST_MAGIC:
            raise DataError(
                f"{self.manifest_path} is not an OPAQ snapshot manifest "
                f"(magic {manifest.get('magic')!r})"
            )
        version = manifest.get("version")
        if version != _MANIFEST_VERSION:
            raise DataError(
                f"snapshot manifest {self.manifest_path} has version "
                f"{version!r}; this build supports version "
                f"{_MANIFEST_VERSION} — upgrade the library or discard the "
                "snapshot directory"
            )
        referenced = self.directory / str(manifest["file"])
        try:
            summary = OPAQSummary.load(referenced)
        except (OSError, DataError):
            # The referenced archive vanished out from under the manifest
            # (external meddling, partial copy): fall back to the newest
            # epoch file that still loads rather than refusing to start.
            return self._latest_from_files()
        return EpochSnapshot(epoch=int(manifest["epoch"]), summary=summary)

    def _latest_from_files(self) -> EpochSnapshot | None:
        """Newest loadable ``epoch-*.npz``, ignoring the manifest.

        The recovery path for a store whose manifest is missing or
        points at a vanished file — e.g. a crash after the epoch archive
        landed but before the ``LATEST.json`` swap committed it.
        """
        for path in sorted(self.directory.glob("epoch-*.npz"), reverse=True):
            try:
                summary = OPAQSummary.load(path)
            except (OSError, DataError):
                continue  # torn or foreign file: keep scanning backwards
            epoch_digits = path.stem.rsplit("-", 1)[-1]
            if not epoch_digits.isdigit():
                continue
            return EpochSnapshot(epoch=int(epoch_digits), summary=summary)
        return None

    def _referenced_file(self) -> str | None:
        """Filename the manifest currently commits to, if readable."""
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return None
        name = manifest.get("file")
        return str(name) if name is not None else None

    def prune(self, retain: int) -> None:
        """Drop all but the ``retain`` newest persisted epochs.

        The manifest-referenced archive is never unlinked, whatever its
        sort position: after a crash between an epoch write and the
        manifest swap, the newest *file* is an uncommitted orphan and
        the manifest still points one epoch back — pruning by recency
        alone could delete the only epoch a warm restart can serve.
        """
        keep = self._referenced_file()
        epochs = sorted(self.directory.glob("epoch-*.npz"))
        for stale in epochs[:-retain] if retain > 0 else epochs:
            if stale.name == keep:
                continue
            stale.unlink(missing_ok=True)


class Snapshotter:
    """Advances epochs: barrier, merge, compact, persist, swap."""

    def __init__(
        self,
        workers: list[ShardWorker],
        store: SnapshotStore | None = None,
        max_merged_samples: int | None = None,
        retain: int = 3,
    ) -> None:
        self._workers = workers
        self._store = store
        self._max_merged_samples = max_merged_samples
        self._retain = retain
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
        """Warm-restart: adopt the newest persisted epoch, if any."""
        if self._store is None:
            return None
        restored = self._store.load_latest()
        if restored is not None:
            with self._lock:
                self._base = restored.summary
                self._snapshot = restored
        return restored

    def run_epoch(self, flush: bool = True) -> EpochSnapshot:
        """Advance one epoch and return the new served snapshot.

        With ``flush`` (the default) every shard first folds everything
        submitted before this call — the barrier that makes the epoch a
        consistent cut of the ingest stream.
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
            if self._store is not None:
                with tracer.span("service.snapshot.persist", epoch=snapshot.epoch):
                    self._store.save(snapshot, retain=self._retain)
            self._snapshot = snapshot
        tracer.count("service.snapshot.epoch", 1, epoch=snapshot.epoch)
        tracer.count("service.snapshot.samples", snapshot.summary.num_samples)
        tracer.count("service.snapshot.count", snapshot.count)
        return snapshot
