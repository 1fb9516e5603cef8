"""The spill store: cold key summaries in an append-only segment log.

Every operation appends one self-checking record to the *active*
segment file (``segment-NNNNNNNNNN.log``): a spill carries the key's
summary, a *delta* carries data the spilled key received since, a
restore appends a *tombstone* for the key, and :meth:`SpillStore.save_aux`
carries a named rollup summary.  An in-memory index maps each spilled
key to its *chain* — its base record and its deltas, in append order —
and each aux name to its record, so a restore is one ``os.pread`` per
record.  No file is created, renamed or deleted per key — disk traffic
is sequential appends plus one file per :data:`_SEGMENT_BYTES`.

**Record layout.**  A 17-byte header — ``<IBII`` body length, op code,
meta length, CRC-32 of the body, then a CRC-32 of those 13 bytes — and
a body of JSON meta followed by the payload.

* A *spill* (a chain's base) has meta key, count, compactions, epsilon
  and engine, and its payload is the engine's summary as one byte
  record (``to_bytes``: the same fields, magic and version as its
  ``.npz`` archive, without the zip container).  A base that reclaim
  consolidated also lists ``deltas``, the element counts of the delta
  chunks appended to its payload.
* A *delta* is input data, not a summary: meta key, count and ``base``
  (the segment and offset of the base it extends); payload the key's
  pending elements, sorted, as raw little-endian float64.  A reader
  sorts the chain's deltas together and absorbs them into the base in
  one call of the key state's own ``absorb``.

Every segment opens with a head record naming the format (magic
``OPAQSPILL``, version 3).  Restores are **byte-identical**: arrays
travel raw and scalars as ``repr``-exact JSON floats, so a restored key
answers with the same bytes as one that never left memory (pinned by
the determinism property tests).

**Chains.**  A new spill or a tombstone of a key kills its whole chain.
``restore(key, keep=True)`` reads a chain without touching the log —
the read-only path of a query.

**Crash windows.**  A record counts only when it is whole: its header
checks, its body is all there and the body's CRC matches.

* *Torn tail* — a crash mid-append (a spill or a delta) leaves an
  incomplete record at the end of the newest segment; the next open
  truncates it, and the key reads its base and its earlier deltas.  An
  incomplete record anywhere else, or a complete record that fails its
  CRC, is corruption and raises :class:`~repro.errors.DataError`.
* *Restore* — the tombstone is appended after the read, so a crash in
  between leaves the key spilled and the next open restores the same
  bytes.
* *Failed append* — a short or failed write (``ENOSPC``, ``EIO``)
  truncates the segment back to its last whole record before the error
  is raised, so later appends never land behind garbage; the store
  raises a retryable :class:`~repro.errors.ServiceError` and its index
  is unchanged.
* *Reclaim* — live records are copied forward before the old segment
  is unlinked; a chain with deltas moves as **one** consolidated spill
  record (the base's payload followed by the deltas' values), so a
  key's newest base always follows everything it supersedes.  A crash
  before the unlink leaves both copies on disk, and replay (oldest
  segment first) lets the consolidated copy supersede the old chain:
  each element is served once.
* *Vanished segment* — a sealed segment deleted from under the store
  takes exactly its own records with it: keys whose newest base it held
  go missing (or fall back to an older spill of theirs), their later
  deltas name a base that is gone and are dropped as dead, and every
  other key restores byte-identically.

There is no ``fsync``: the log survives a process crash (the page
cache holds every completed write) but not a host crash.

**Bounded disk.**  Segments roll over at :data:`_SEGMENT_BYTES`.  Bytes
of superseded spills and their deltas, restored keys, tombstones and
segment heads are *dead*.  Whenever the sealed segments hold more dead
bytes than :data:`_RECLAIM_RATIO` times the live bytes, the oldest
sealed segment is reclaimed: the chains and aux records with a live
record in it are appended to the active segment and its file is
unlinked.  Disk use therefore stays at most ``(1 + _RECLAIM_RATIO) ×
live`` plus the active segment.  Reclaiming oldest-first is what lets a
reclaimed segment's tombstones be dropped: every record they cancel is
older, so it sits in the same segment or in one already gone.

A directory in the pre-log layout (a ``SPILLS.jsonl`` manifest plus one
``spill-*.npz`` archive per key), or with segments of an older version,
is refused with a ``DataError``.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.summary import OPAQSummary
from repro.errors import DataError, ServiceError
from repro.obs import current_tracer

__all__ = ["SpillStore", "SpillRecord"]

_MAGIC = "OPAQSPILL"
_VERSION = 3
#: A segment is sealed once the next record would grow it past this size
#: (a record larger than this gets a segment of its own).
_SEGMENT_BYTES = 4 << 20
#: Reclaim while sealed segments hold more than this many dead bytes per
#: live byte.
_RECLAIM_RATIO = 1

#: Body length, op code, meta length, body CRC-32; then the header CRC.
_FIELDS = struct.Struct("<IBII")
_CRC = struct.Struct("<I")
_HEADER_BYTES = _FIELDS.size + _CRC.size
_HEAD, _SPILL, _TOMBSTONE, _AUX, _DELTA = range(5)
_SEGMENT_PREFIX, _SEGMENT_SUFFIX = "segment-", ".log"
_OLD_MANIFEST = "SPILLS.jsonl"
#: A delta's payload: raw little-endian float64.
_VALUE = np.dtype("<f8")


def _encode(op: int, meta: dict[str, object], payload: bytes = b"") -> bytes:
    """One whole record: header, JSON meta, payload."""
    body_meta = json.dumps(meta).encode()
    fields = _FIELDS.pack(
        len(body_meta) + len(payload),
        op,
        len(body_meta),
        zlib.crc32(payload, zlib.crc32(body_meta)),
    )
    return b"".join((fields, _CRC.pack(zlib.crc32(fields)), body_meta, payload))


_HEAD_RECORD = _encode(_HEAD, {"magic": _MAGIC, "version": _VERSION})


class _Torn(Exception):
    """The record at this offset is incomplete: the log ends inside it."""


def _decode(
    buf: memoryview, pos: int, source: Path, parse_meta: bool = True
) -> tuple[int, dict[str, Any], memoryview, int]:
    """``(op, meta, payload, end)`` of the record starting at ``pos``.

    Raises :class:`_Torn` when the buffer ends inside the record and
    :class:`~repro.errors.DataError` when a complete record fails a
    check.  With ``parse_meta=False`` the meta is checked by the CRC
    but not parsed (``meta`` is empty).
    """
    if pos + _HEADER_BYTES > len(buf):
        raise _Torn
    fields = buf[pos : pos + _FIELDS.size]
    (head_crc,) = _CRC.unpack_from(buf, pos + _FIELDS.size)
    if zlib.crc32(fields) != head_crc:
        raise DataError(f"corrupt spill record header in {source} at byte {pos}")
    body_len, op, meta_len, body_crc = _FIELDS.unpack(fields)
    start = pos + _HEADER_BYTES
    end = start + body_len
    if end > len(buf):
        raise _Torn
    if meta_len > body_len or zlib.crc32(buf[start:end]) != body_crc:
        raise DataError(f"corrupt spill record in {source} at byte {pos}")
    if not parse_meta:
        return op, {}, buf[start + meta_len : end], end
    try:
        meta = json.loads(bytes(buf[start : start + meta_len]))
    except ValueError:
        raise DataError(
            f"unreadable spill record meta in {source} at byte {pos}"
        ) from None
    if not isinstance(meta, dict):
        raise DataError(f"malformed spill record meta in {source} at byte {pos}")
    return op, meta, buf[start + meta_len : end], end


#: Where one record sits: ``(segment, offset, length)``.
_Where = tuple[int, int, int]


@dataclass(frozen=True)
class SpillRecord:
    """One spilled key as the index describes it.

    ``engine`` names the portfolio engine that encoded the summary (and
    therefore the decoder that can read it back).  ``segment``,
    ``offset`` and ``length`` locate the whole base record in the log,
    ``count`` is the number of elements its summary describes.
    ``deltas`` locates the delta records appended since, oldest first,
    and ``pending`` counts the elements they hold together with any
    that reclaim consolidated into the base record.  ``values`` is set
    only on the record :meth:`SpillStore.restore` returns: those
    ``pending`` elements, in append order.
    """

    key: str
    count: int
    compactions: int
    epsilon: float
    engine: str = "opaq"
    segment: int = 0
    offset: int = 0
    length: int = 0
    deltas: tuple[_Where, ...] = ()
    pending: int = 0
    values: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def chain(self) -> tuple[_Where, ...]:
        """The base record's location followed by the deltas'."""
        return ((self.segment, self.offset, self.length), *self.deltas)


class _Segment:
    """One segment file: its path, size and dead-byte count."""

    __slots__ = ("seq", "path", "size", "dead", "torn")

    def __init__(self, seq: int, path: Path) -> None:
        self.seq = seq
        self.path = path
        self.size = 0
        self.dead = 0
        # A failed append whose truncation also failed left bytes past
        # ``size``; the next append truncates first.
        self.torn = False


class SpillStore:
    """Directory-backed spill/restore of keyed summaries.

    Thread-safe: one internal lock serialises appends, reads and the
    index.  Callers (registry shards) may spill and restore
    concurrently; the store never calls back into them, so the
    ``shard lock -> store lock`` order is acyclic by construction.
    Every read and append opens its segment file in a ``with`` block,
    so the store holds no descriptor between calls and :meth:`close`
    only refuses further appends and reads.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        loaders: Mapping[str, Callable[[bytes], Any]] | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # engine name -> record decoder; the registry passes the full
        # portfolio, a bare store reads OPAQ summaries.
        self._loaders: dict[str, Callable[[bytes], Any]] = dict(
            loaders if loaders is not None else {"opaq": OPAQSummary.from_bytes}
        )
        self._lock = threading.Lock()
        self._live: dict[str, SpillRecord] = {}
        # aux name -> (segment, offset, length) of its record
        self._aux: dict[str, _Where] = {}
        # seq -> segment, oldest first; the last one is active.
        self._segments: dict[int, _Segment] = {}
        # Byte totals over those segments: all of them, and the dead part.
        self._disk = 0
        self._dead = 0
        self._closed = False
        with self._lock:
            self._refuse_old_layout()
            self._replay()

    # ------------------------------------------------------------------
    # Startup replay
    # ------------------------------------------------------------------

    def _refuse_old_layout(self) -> None:
        old = self.directory / _OLD_MANIFEST
        if old.exists() or next(self.directory.glob("spill-*.npz"), None):
            raise DataError(
                f"{self.directory} holds spills in the old per-key layout "
                f"({_OLD_MANIFEST} + spill-*.npz archives); this build reads "
                f"only the segment log (spill format {_VERSION}) — point "
                "spill_dir at a fresh directory or discard this one"
            )

    def _replay(self) -> None:
        paths = [
            path
            for path in sorted(
                self.directory.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}")
            )
            if path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)].isdigit()
        ]
        for i, path in enumerate(paths):
            seq = int(path.name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)])
            segment = _Segment(seq, path)
            self._segments[seq] = segment  # opaq: ignore[thread-unguarded-write] caller holds self._lock at every call site
            self._replay_segment(segment, newest=i == len(paths) - 1)
            if segment.size == 0:
                # A crash while the segment's head was being written.
                del self._segments[seq]
                path.unlink()

    def _replay_segment(self, segment: _Segment, newest: bool) -> None:
        data = segment.path.read_bytes()
        buf = memoryview(data)
        pos = 0
        while pos < len(buf):
            try:
                op, meta, _payload, end = _decode(buf, pos, segment.path)
            except _Torn:
                if not newest:
                    raise DataError(
                        f"{segment.path} ends inside a record at byte {pos} "
                        "but is not the newest segment"
                    ) from None
                os.truncate(segment.path, pos)
                current_tracer().count("service.tenancy.spill.torn_tail")
                break
            if pos == 0:
                self._check_head(segment.path, op, meta)
            elif op not in (_SPILL, _TOMBSTONE, _AUX, _DELTA):
                raise DataError(
                    f"unexpected spill record op {op} in {segment.path} at "
                    f"byte {pos}"
                )
            try:
                self._index(segment, op, meta, pos, end - pos)
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(
                    f"malformed spill record in {segment.path} at byte "
                    f"{pos}: {exc!r}"
                ) from None
            pos = end
        self._account(segment, size=pos)

    @staticmethod
    def _check_head(path: Path, op: int, meta: dict[str, Any]) -> None:
        if op != _HEAD or meta.get("magic") != _MAGIC:
            raise DataError(
                f"{path} is not an OPAQ spill segment "
                f"(magic {meta.get('magic')!r})"
            )
        if meta.get("version") != _VERSION:
            raise DataError(
                f"spill segment version {meta.get('version')!r} is not "
                f"{_VERSION}; upgrade or discard the spill dir"
            )

    def _index(
        self, segment: _Segment, op: int, meta: dict[str, Any],
        offset: int, length: int,
    ) -> None:
        """Apply one whole record to the index (caller holds the lock)."""
        if op == _SPILL:
            key = str(meta["key"])
            self._kill(self._live.get(key))
            self._live[key] = SpillRecord(  # opaq: ignore[thread-unguarded-write] caller holds self._lock at every call site
                key=key,
                count=int(meta["count"]),
                compactions=int(meta["compactions"]),
                epsilon=float(meta["epsilon"]),
                engine=str(meta.get("engine", "opaq")),
                segment=segment.seq,
                offset=offset,
                length=length,
                pending=sum(int(n) for n in meta.get("deltas", ())),
            )
        elif op == _DELTA:
            key = str(meta["key"])
            base = self._live.get(key)
            if base is None or [base.segment, base.offset] != list(meta["base"]):
                # Its base is gone (a vanished segment, or superseded):
                # nothing live reads it.
                self._account(segment, dead=length)
            else:
                self._live[key] = replace(  # opaq: ignore[thread-unguarded-write] caller holds self._lock at every call site
                    base,
                    deltas=(*base.deltas, (segment.seq, offset, length)),
                    pending=base.pending + int(meta["count"]),
                )
        elif op == _AUX:
            name = str(meta["name"])
            self._kill(self._aux.get(name))
            self._aux[name] = (segment.seq, offset, length)  # opaq: ignore[thread-unguarded-write] caller holds self._lock at every call site
        else:  # a tombstone or the segment head: dead from birth
            if op == _TOMBSTONE:
                self._kill(self._live.pop(str(meta["key"]), None))  # opaq: ignore[thread-unguarded-write] caller holds self._lock at every call site
            self._account(segment, dead=length)

    def _kill(self, where: SpillRecord | _Where | None) -> None:
        """Account a superseded chain's or aux record's bytes as dead
        (lock held)."""
        if where is None:
            return
        for seq, _offset, length in (
            where.chain if isinstance(where, SpillRecord) else (where,)
        ):
            self._account(self._segments[seq], dead=length)

    def _account(self, segment: _Segment, *, size: int = 0, dead: int = 0) -> None:
        """Add to a segment's byte counts and the store's totals (lock held)."""
        segment.size += size
        segment.dead += dead
        self._disk += size  # opaq: ignore[thread-unguarded-write,thread-concurrent-rmw] caller holds self._lock at every call site
        self._dead += dead  # opaq: ignore[thread-unguarded-write,thread-concurrent-rmw] caller holds self._lock at every call site

    # ------------------------------------------------------------------
    # Log plumbing (every helper below runs under self._lock)
    # ------------------------------------------------------------------

    def _active(self, size: int) -> _Segment:
        """The segment the next ``size``-byte record goes to."""
        segment = next(reversed(self._segments.values()), None)
        if segment is not None and segment.torn:
            with open(segment.path, "r+b", buffering=0) as log:
                os.ftruncate(log.fileno(), segment.size)
            segment.torn = False
        if segment is None or (
            segment.size + size > _SEGMENT_BYTES
            and segment.size > len(_HEAD_RECORD)
        ):
            segment = self._new_segment()
        return segment

    def _new_segment(self) -> _Segment:
        seq = next(reversed(self._segments), 0) + 1
        path = self.directory / f"{_SEGMENT_PREFIX}{seq:010d}{_SEGMENT_SUFFIX}"
        with open(path, "xb", buffering=0) as log:
            try:
                self._write(log.fileno(), _HEAD_RECORD, 0)
            except (OSError, ServiceError):
                path.unlink()  # our own half-written head
                raise
        segment = _Segment(seq, path)
        self._segments[seq] = segment  # opaq: ignore[thread-unguarded-write] caller holds self._lock at every call site
        self._account(segment, size=len(_HEAD_RECORD), dead=len(_HEAD_RECORD))
        return segment

    @staticmethod
    def _write(fd: int, record: bytes, offset: int) -> None:
        """Write all of ``record`` at ``offset``; short writes continue."""
        view = memoryview(record)
        done = 0
        while done < len(view):
            written = os.pwrite(fd, view[done:], offset + done)
            if written <= 0:
                raise ServiceError(f"write stalled after {done} bytes")
            done += written

    def _append(self, record: bytes) -> tuple[int, int]:
        """Append one whole record; returns its ``(segment, offset)``.

        On a failed or short write the segment is truncated back to its
        last whole record and a retryable ``ServiceError`` is raised.
        """
        if self._closed:
            raise ServiceError("spill store is closed")
        try:
            segment = self._active(len(record))
            offset = segment.size
            with open(segment.path, "r+b", buffering=0) as log:
                try:
                    self._write(log.fileno(), record, offset)
                except (OSError, ServiceError):
                    try:
                        os.ftruncate(log.fileno(), offset)
                    except OSError:
                        segment.torn = True
                    raise
        except (OSError, ServiceError) as exc:
            current_tracer().count("service.tenancy.spill.append_failed")
            raise ServiceError(
                f"spill append in {self.directory} failed ({exc}); the log "
                "is intact — retry once the disk has room"
            ) from exc
        self._account(segment, size=len(record))
        return segment.seq, offset

    def _append_record(self, op: int, meta: dict[str, Any], payload: bytes) -> int:
        """Append one record and apply it to the index; returns its
        length."""
        record = _encode(op, meta, payload)
        seq, offset = self._append(record)
        self._index(self._segments[seq], op, meta, offset, len(record))
        return len(record)

    def _read(
        self, where: tuple[_Where, ...]
    ) -> tuple[dict[str, Any], list[memoryview]]:
        """The first record's meta and every record's payload, for the
        whole records at ``where``; each run of records in one segment
        is read through one open."""
        if self._closed:
            raise ServiceError("spill store is closed")
        payloads: list[memoryview] = []
        meta: dict[str, Any] = {}
        for seq, run in itertools.groupby(where, key=lambda w: w[0]):
            path = self._segments[seq].path
            records = list(run)
            try:
                with open(path, "rb", buffering=0) as log:
                    data = [os.pread(log.fileno(), n, at) for _s, at, n in records]
            except OSError as exc:
                raise ServiceError(
                    f"spill read from {path} failed ({exc}); retry"
                ) from exc
            for chunk, (_s, _at, n) in zip(data, records):
                head, payload = self._whole(chunk, n, path, not payloads)
                if not payloads:
                    meta = head
                payloads.append(payload)
        return meta, payloads

    @staticmethod
    def _whole(
        data: bytes, length: int, source: Path, parse_meta: bool = True
    ) -> tuple[dict[str, Any], memoryview]:
        """``(meta, payload)`` of the record the index says ``data`` is."""
        try:
            _op, meta, payload, end = _decode(
                memoryview(data), 0, source, parse_meta
            )
        except _Torn:
            end = -1
        if end != length:
            raise DataError(
                f"spill record of {length} bytes in {source} is not what "
                "the index says; the segment changed under the store"
            )
        return meta, payload

    def _maybe_reclaim(self) -> None:
        """Reclaim oldest sealed segments while dead bytes dominate.

        Best effort: a failed copy leaves both copies of the moved
        records on disk (the index points at whichever it last wrote),
        so the operation that triggered the reclaim still stands.
        """
        try:
            while len(self._segments) > 1:
                active = next(reversed(self._segments.values()))
                sealed_dead = self._dead - active.dead
                if sealed_dead <= _RECLAIM_RATIO * (self._disk - self._dead):
                    return
                self._reclaim(next(iter(self._segments.values())))
        except (OSError, ServiceError):
            current_tracer().count("service.tenancy.spill.reclaim_failed")

    def _reclaim(self, segment: _Segment) -> None:
        """Copy ``segment``'s live chains and aux records forward, then
        unlink it.

        A record without deltas is copied byte for byte.  A chain with
        deltas is rewritten as one spill record: its base payload
        followed by the deltas' values (copied, not decoded), with
        their chunk sizes in the meta.
        """
        seq = segment.seq
        movers = sorted(
            [
                (min(o for s, o, _n in r.chain if s == seq), r.key, False)
                for r in self._live.values()
                if any(s == seq for s, _o, _n in r.chain)
            ]
            + [
                (offset, name, True)
                for name, (s, offset, _length) in self._aux.items()
                if s == seq
            ]
        )
        with open(segment.path, "rb", buffering=0) as log:
            for offset, name, aux in movers:
                record = None if aux else self._live[name]
                if record is not None and record.deltas:
                    meta, payloads = self._read(record.chain)
                    meta["deltas"] = [
                        *meta.get("deltas", ()),
                        *(len(p) // _VALUE.itemsize for p in payloads[1:]),
                    ]
                    self._append_record(_SPILL, meta, b"".join(payloads))
                    continue
                length = self._aux[name][2] if record is None else record.length
                data = os.pread(log.fileno(), length, offset)
                self._whole(data, length, segment.path, parse_meta=False)
                new_seq, new_offset = self._append(data)
                self._account(segment, dead=length)
                if record is None:
                    self._aux[name] = (new_seq, new_offset, length)  # opaq: ignore[thread-unguarded-write] caller holds self._lock at every call site
                else:
                    self._live[name] = replace(  # opaq: ignore[thread-unguarded-write] caller holds self._lock at every call site
                        record, segment=new_seq, offset=new_offset
                    )
        del self._segments[seq]
        current_tracer().count("service.tenancy.spill.reclaimed_bytes", segment.size)
        self._account(segment, size=-segment.size, dead=-segment.dead)
        segment.path.unlink()

    # ------------------------------------------------------------------
    # Spill / restore
    # ------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._live

    def __len__(self) -> int:
        with self._lock:
            return len(self._live)

    def keys(self) -> list[str]:
        """Spilled keys, in index order."""
        with self._lock:
            return list(self._live)

    def record(self, key: str) -> SpillRecord | None:
        """The index entry of a spilled key (``None`` if not spilled)."""
        with self._lock:
            return self._live.get(key)

    @property
    def bytes_live(self) -> int:
        """Bytes of the records the index points at (chains and aux)."""
        with self._lock:
            return self._disk - self._dead

    @property
    def bytes_on_disk(self) -> int:
        """Bytes of every segment file, dead records included."""
        with self._lock:
            return self._disk

    def spill(
        self,
        key: str,
        summary: Any,
        *,
        compactions: int = 0,
        epsilon: float = 0.0,
        engine: str = "opaq",
        delta: bool = False,
    ) -> int:
        """Persist one key's summary; returns bytes written.

        Re-spilling a key supersedes its previous chain.  ``engine``
        names the portfolio engine whose ``to_bytes`` encoded the
        summary; it selects the decoder at restore time.

        With ``delta=True``, ``summary`` is instead the key's pending
        elements, sorted float64, and they are appended to the spilled
        key's chain as a delta record (``compactions``, ``epsilon`` and
        ``engine`` are the base's and ignored here).

        A failed append raises a retryable ``ServiceError`` and leaves
        the index (and any previous chain of the key) as it was.
        """
        if delta:
            values = np.ascontiguousarray(summary, dtype=_VALUE)
            payload = values.tobytes()
            with self._lock:
                base = self._live.get(key)
                if base is None:
                    raise DataError(
                        f"key {key!r} is not spilled in {self.directory}; a "
                        "delta needs a base"
                    )
                meta: dict[str, Any] = {
                    "key": key,
                    "count": int(values.size),
                    "base": [base.segment, base.offset],
                }
                nbytes = self._append_record(_DELTA, meta, payload)
                self._maybe_reclaim()
        else:
            meta = {
                "key": key,
                "count": summary.count,
                "compactions": compactions,
                "epsilon": epsilon,
                "engine": engine,
            }
            payload = summary.to_bytes()
            with self._lock:
                nbytes = self._append_record(_SPILL, meta, payload)
                self._maybe_reclaim()
        current_tracer().count("service.tenancy.spill.bytes", nbytes)
        return nbytes

    def restore(
        self, key: str, *, keep: bool = False
    ) -> tuple[Any, SpillRecord, int]:
        """Load one key back; returns ``(summary, record, bytes_read)``.

        ``summary`` is the chain's base; ``record.values`` holds the
        elements of its deltas in append order (empty without deltas),
        for the caller to absorb into the base as one sorted chunk.

        The tombstone is appended after the read, so a crash in between
        leaves the key spilled.  With ``keep=True`` the read is all:
        the key stays spilled and nothing is appended.  The decoder is
        selected by the record's engine; a record written by an engine
        this store was not given a decoder for fails loudly instead of
        mis-parsing the payload.
        """
        with self._lock:
            record = self._live.get(key)
            if record is None:
                raise DataError(f"key {key!r} is not spilled in {self.directory}")
            loader = self._loaders.get(record.engine)
            if loader is None:
                raise DataError(
                    f"spilled key {key!r} was written by engine "
                    f"{record.engine!r}, but this store only loads "
                    f"{sorted(self._loaders)}"
                )
            chain = record.chain
            meta, payloads = self._read(chain)
            base = payloads[0]
            # Reclaim may have appended delta values to the base payload.
            split = len(base) - _VALUE.itemsize * sum(
                int(n) for n in meta.get("deltas", ())
            )
            summary = loader(bytes(base[:split]))
            payloads[0] = base[split:]
            values = np.frombuffer(b"".join(payloads), dtype=_VALUE)
            if not keep:
                self._append_record(_TOMBSTONE, {"key": key}, b"")
                self._maybe_reclaim()
        nbytes = sum(length for _s, _o, length in chain)
        current_tracer().count("service.tenancy.restore.bytes", nbytes)
        return summary, replace(record, values=values), nbytes

    # ------------------------------------------------------------------
    # Aux summaries (aggregation-tree rollups across restarts)
    # ------------------------------------------------------------------

    def save_aux(self, name: str, summary: OPAQSummary) -> None:
        """Persist a named non-key summary (e.g. a shard rollup)."""
        payload = summary.to_bytes()
        with self._lock:
            self._append_record(_AUX, {"name": name}, payload)
            self._maybe_reclaim()

    def load_aux(self, name: str) -> OPAQSummary | None:
        """Load a named summary saved by :meth:`save_aux`, if present."""
        with self._lock:
            where = self._aux.get(name)
            if where is None:
                return None
            _meta, (payload,) = self._read((where,))
            return OPAQSummary.from_bytes(bytes(payload))

    def aux_names(self) -> list[str]:
        with self._lock:
            return list(self._aux)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Refuse further appends and reads.  Idempotent."""
        with self._lock:
            self._closed = True

    def __enter__(self) -> "SpillStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
