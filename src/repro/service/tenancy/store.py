"""The spill store: cold key summaries and stream epochs in an
append-only segment log.

Every operation appends one self-checking record to the *active*
segment file (``segment-NNNNNNNNNN.log``): a spill carries the key's
summary, a *delta* carries data the spilled key received since, a
restore appends a *tombstone* for the key, and :meth:`SpillStore.save_aux`
carries a named summary: a registry's rollup, or a stream epoch
(:mod:`repro.service.snapshot` keeps its epochs in a log of their own,
and retires each with :meth:`SpillStore.drop_aux`'s tombstone).  An
in-memory index maps each spilled key to its *chain* — its base record
and its deltas, in append order — and each aux name to its record, so a
restore is one ``os.pread`` per record.  No file is created, renamed or
deleted per key — disk traffic is sequential appends plus one file per
:data:`_SEGMENT_BYTES`.

**Record layout.**  A 17-byte header — ``<IBII`` body length, op code,
meta length, CRC-32 of the body, then a CRC-32 of those 13 bytes — and
a body of meta followed by the payload.  Every segment opens with a
head record whose meta is JSON naming the format (magic ``OPAQSPILL``,
version 4), written alike by every version so an older directory is
refused by name.  Every other record's meta is a fixed little-endian
struct followed by the key's UTF-8 bytes:

* A *spill* (a chain's base) has meta engine code (the wire's
  append-only table), count, compactions, epsilon, a raw base's absorb
  count and extremes, and the number of delta elements reclaim appended
  to its payload.  Its payload is the engine's summary as one byte
  record (``to_bytes``: the same fields, magic and version as its
  ``.npz`` archive, without the zip container).  A *raw* base, a key
  still held as its sorted values
  (:class:`~repro.portfolio.RawKeyState`), has the same meta and its
  values as payload, in the delta format.
* A *delta* is input data, not a summary: meta count and the segment
  and offset of the base it extends; payload the key's pending
  elements, sorted, as raw little-endian float64.  A reader sorts the
  chain's deltas together and absorbs them into the base in one call
  of the key state's own ``absorb``; for a raw base that is one merge
  of sorted arrays.
* A *tombstone*'s meta is the name it drops alone, a key or an aux
  name (keys hold :data:`~repro.service.tenancy.KEY_SEP`, aux names
  never do); an *aux* record's meta is its name, and its payload an
  OPAQ summary's byte record.

Restores are **byte-identical**: arrays and scalars travel as raw
IEEE-754 and two's-complement bytes, so a restored key answers with the
same bytes as one that never left memory (pinned by the determinism
property tests).

**Chains.**  A new spill or a tombstone of a key kills its whole chain;
a new aux record or a tombstone of its name kills the one before.
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
``spill-*.npz`` archive per key), or with segments of an older version
(2 had no deltas, 3 wrote JSON meta), is refused with a ``DataError``.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.summary import OPAQSummary, field_parts
from repro.errors import DataError, ServiceError
from repro.obs import current_tracer
from repro.portfolio.raw import RawKeyState
from repro.selection import is_sorted
from repro.service.tenancy.keys import _ENGINE_NAMES

__all__ = ["SpillStore", "SpillRecord"]

_MAGIC = "OPAQSPILL"
_VERSION = 4
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
_HEAD, _SPILL, _TOMBSTONE, _AUX, _DELTA, _RAW = range(6)
#: A base record's meta (a spill or a raw base): engine code, count,
#: compactions, epsilon, absorbs, minimum, maximum (the last three a raw
#: base's), and the delta elements reclaim appended to its payload.
_BASE = struct.Struct("<Bqqdqddq")
#: A delta's meta: its element count, then its base's segment and offset.
_DELTA_META = struct.Struct("<qqq")
_ENGINE_CODES = {name: code for code, name in enumerate(_ENGINE_NAMES)}
_SEGMENT_PREFIX, _SEGMENT_SUFFIX = "segment-", ".log"
_OLD_MANIFEST = "SPILLS.jsonl"
#: A delta's payload, and a raw base's: raw little-endian float64.
_VALUE = np.dtype("<f8")


def _encode(op: int, meta: bytes | dict[str, object], *payload: Any) -> bytes:
    """One whole record: header, meta, payload.  A segment head's meta is
    a JSON dict; every other record's is its op's struct and key.  The
    payload is the buffers given, in order, copied once into the record."""
    if isinstance(meta, dict):
        meta = json.dumps(meta).encode()
    crc, size = zlib.crc32(meta), len(meta)
    for part in payload:
        crc = zlib.crc32(part, crc)
        size += memoryview(part).nbytes
    fields = _FIELDS.pack(size, op, len(meta), crc)
    return b"".join((fields, _CRC.pack(zlib.crc32(fields)), meta, *payload))


_HEAD_RECORD = _encode(_HEAD, {"magic": _MAGIC, "version": _VERSION})


class _Torn(Exception):
    """The record at this offset is incomplete: the log ends inside it."""


def _decode(
    buf: memoryview, pos: int, source: Path
) -> tuple[int, memoryview, memoryview, int]:
    """``(op, meta, payload, end)`` of the record starting at ``pos``.

    Raises :class:`_Torn` when the buffer ends inside the record and
    :class:`~repro.errors.DataError` when a complete record fails a
    check.  The meta is checked by the CRC, not parsed.
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
    return op, buf[start : start + meta_len], buf[start + meta_len : end], end


#: Where one record sits: ``(segment, offset, length)``.
_Where = tuple[int, int, int]


@dataclass(slots=True)
class SpillRecord:
    """One spilled key as the index describes it.

    ``engine`` names the portfolio engine that serves the key (and, for
    a summary, the decoder that reads it back).  ``segment``,
    ``offset`` and ``length`` locate the whole base record in the log,
    ``count`` is the number of elements its base describes.  ``raw``
    marks a base of raw sorted values, with the raw key's ``absorbs``
    and extremes.  ``deltas`` locates the delta records appended since,
    oldest first, and ``pending`` counts the elements they hold together
    with the ``folded`` ones that reclaim consolidated into the base
    record.  ``values`` is set only on the record
    :meth:`SpillStore.restore` returns: those ``pending`` elements, in
    append order.
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
    raw: bool = False
    absorbs: int = 0
    minimum: float = math.inf
    maximum: float = -math.inf
    folded: int = 0
    values: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def chain(self) -> tuple[_Where, ...]:
        """The base record's location followed by the deltas'."""
        return ((self.segment, self.offset, self.length), *self.deltas)


#: A record's index fields, in constructor order (all but ``values``).
_INDEX_FIELDS = operator.attrgetter(
    *(f.name for f in fields(SpillRecord) if f.name != "values")
)


def _base_meta(record: SpillRecord, folded: int = 0) -> bytes:
    """A base record's meta: its fields, ``folded`` appended delta
    elements, and the key."""
    return _BASE.pack(
        _ENGINE_CODES[record.engine],
        record.count,
        record.compactions,
        record.epsilon,
        record.absorbs,
        record.minimum,
        record.maximum,
        folded,
    ) + record.key.encode()


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
            elif op not in (_SPILL, _TOMBSTONE, _AUX, _DELTA, _RAW):
                raise DataError(
                    f"unexpected spill record op {op} in {segment.path} at "
                    f"byte {pos}"
                )
            try:
                self._index(segment, op, meta, pos, end - pos)
            except (IndexError, ValueError, struct.error) as exc:
                raise DataError(
                    f"malformed spill record in {segment.path} at byte "
                    f"{pos}: {exc!r}"
                ) from None
            pos = end
        self._account(segment, size=pos)

    @staticmethod
    def _check_head(path: Path, op: int, meta: memoryview) -> None:
        try:
            head = json.loads(bytes(meta))
        except ValueError:
            head = None
        if not isinstance(head, dict):
            head = {}
        if op != _HEAD or head.get("magic") != _MAGIC:
            raise DataError(
                f"{path} is not an OPAQ spill segment "
                f"(magic {head.get('magic')!r})"
            )
        if head.get("version") != _VERSION:
            raise DataError(
                f"spill segment version {head.get('version')!r} is not "
                f"{_VERSION}; upgrade or discard the spill dir"
            )

    def _index(
        self, segment: _Segment, op: int, meta: memoryview,
        offset: int, length: int,
    ) -> None:
        """Apply one whole record to the index (caller holds the lock)."""
        if op in (_SPILL, _RAW):
            (code, count, compactions, epsilon, absorbs, minimum, maximum,
             folded) = _BASE.unpack_from(meta)
            key = bytes(meta[_BASE.size :]).decode()
            self._kill(self._live.get(key))
            self._live[key] = SpillRecord(  # opaq: ignore[thread-unguarded-write] caller holds self._lock at every call site
                key, count, compactions, epsilon, _ENGINE_NAMES[code],
                segment.seq, offset, length, pending=folded, raw=op == _RAW,
                absorbs=absorbs, minimum=minimum, maximum=maximum,
                folded=folded,
            )
        elif op == _DELTA:
            count, base_seq, base_offset = _DELTA_META.unpack_from(meta)
            base = self._live.get(bytes(meta[_DELTA_META.size :]).decode())
            if base is None or (base.segment, base.offset) != (base_seq, base_offset):
                # Its base is gone (a vanished segment, or superseded):
                # nothing live reads it.
                self._account(segment, dead=length)
            else:
                base.deltas += ((segment.seq, offset, length),)
                base.pending += count
        elif op == _AUX:
            name = bytes(meta).decode()
            self._kill(self._aux.get(name))
            self._aux[name] = (segment.seq, offset, length)  # opaq: ignore[thread-unguarded-write] caller holds self._lock at every call site
        else:  # a tombstone or the segment head: dead from birth
            if op == _TOMBSTONE:
                # Keys hold KEY_SEP and aux names never do, so a name
                # is live in at most one of the two.
                name = bytes(meta).decode()
                self._kill(self._live.pop(name, None) or self._aux.pop(name, None))  # opaq: ignore[thread-unguarded-write] caller holds self._lock at every call site
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

    def _append_record(self, op: int, meta: bytes, *payload: Any) -> int:
        """Append one record and apply it to the index; returns its
        length."""
        record = _encode(op, meta, *payload)
        seq, offset = self._append(record)
        self._index(self._segments[seq], op, memoryview(meta), offset, len(record))
        return len(record)

    def _read(self, where: tuple[_Where, ...]) -> list[memoryview]:
        """Every record's payload, for the whole records at ``where``;
        each run of records in one segment is read through one open."""
        if self._closed:
            raise ServiceError("spill store is closed")
        payloads: list[memoryview] = []
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
            payloads.extend(
                self._whole(chunk, n, path) for chunk, (_s, _at, n) in zip(data, records)
            )
        return payloads

    @staticmethod
    def _whole(data: bytes, length: int, source: Path) -> memoryview:
        """The payload of the record the index says ``data`` is."""
        try:
            _op, _meta, payload, end = _decode(memoryview(data), 0, source)
        except _Torn:
            end = -1
        if end != length:
            raise DataError(
                f"spill record of {length} bytes in {source} is not what "
                "the index says; the segment changed under the store"
            )
        return payload

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
        deltas is rewritten as one base record: its base payload
        followed by the deltas' values (copied, not decoded), with the
        count of those appended elements in the meta.
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
                    self._append_record(
                        _RAW if record.raw else _SPILL,
                        _base_meta(record, folded=record.pending),
                        b"".join(self._read(record.chain)),
                    )
                    continue
                length = self._aux[name][2] if record is None else record.length
                data = os.pread(log.fileno(), length, offset)
                self._whole(data, length, segment.path)
                new_seq, new_offset = self._append(data)
                self._account(segment, dead=length)
                if record is None:
                    self._aux[name] = (new_seq, new_offset, length)  # opaq: ignore[thread-unguarded-write] caller holds self._lock at every call site
                else:
                    record.segment, record.offset = new_seq, new_offset
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
        """A copy of a spilled key's index entry (``None`` if not
        spilled)."""
        with self._lock:
            record = self._live.get(key)
            return None if record is None else replace(record)

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
        """Persist one key's state; returns bytes written.

        Re-spilling a key supersedes its previous chain.  ``engine``
        names the portfolio engine serving the key; for a summary it
        selects the decoder at restore time.  A
        :class:`~repro.portfolio.RawKeyState` is written as a raw base:
        its sorted values, absorb count and extremes.  Anything else is
        written as its ``to_bytes`` record.

        With ``delta=True``, ``summary`` is instead the key's pending
        elements, sorted float64, and they are appended to the spilled
        key's chain as a delta record (``compactions``, ``epsilon`` and
        ``engine`` are the base's and ignored here).

        A failed append raises a retryable ``ServiceError`` and leaves
        the index (and any previous chain of the key) as it was.
        """
        if delta:
            values = np.ascontiguousarray(summary, dtype=_VALUE)
            with self._lock:
                base = self._live.get(key)
                if base is None:
                    raise DataError(
                        f"key {key!r} is not spilled in {self.directory}; a "
                        "delta needs a base"
                    )
                meta = _DELTA_META.pack(values.size, base.segment, base.offset)
                nbytes = self._append_record(
                    _DELTA, meta + key.encode(), values.tobytes()
                )
                self._maybe_reclaim()
        else:
            if engine not in _ENGINE_CODES:
                raise DataError(f"cannot spill a key of unknown engine {engine!r}")
            record = SpillRecord(key, summary.count, compactions, epsilon, engine)
            if isinstance(summary, RawKeyState):
                op = _RAW
                record.raw = True
                record.absorbs = summary.absorbs
                record.minimum, record.maximum = summary.minimum, summary.maximum
                payload = np.ascontiguousarray(summary.values, dtype=_VALUE).tobytes()
            else:
                op, payload = _SPILL, summary.to_bytes()
            with self._lock:
                nbytes = self._append_record(op, _base_meta(record), payload)
                self._maybe_reclaim()
        current_tracer().count("service.tenancy.spill.bytes", nbytes)
        return nbytes

    def restore(
        self, key: str, *, keep: bool = False
    ) -> tuple[Any, SpillRecord, int]:
        """Load one key back; returns ``(base, record, bytes_read)``.

        ``base`` is the chain's base: the decoded summary, or for a raw
        record (``record.raw``) its sorted values as a read-only float64
        array.  ``record.values`` holds the elements of its deltas in
        append order (empty without deltas), for the caller to absorb
        into the base as one sorted chunk.

        The tombstone is appended after the read, so a crash in between
        leaves the key spilled.  With ``keep=True`` the read is all:
        the key stays spilled and nothing is appended.  A summary's
        decoder is selected by the record's engine; a record written by
        an engine this store was not given a decoder for fails loudly
        instead of mis-parsing the payload.  A raw base is checked where
        it enters, as a decoded summary is (:meth:`_raw_values`), and a
        chain whose value bytes do not add up to its ``pending`` count
        is refused with a ``DataError``.
        """
        with self._lock:
            record = self._live.get(key)
            if record is None:
                raise DataError(f"key {key!r} is not spilled in {self.directory}")
            loader = None if record.raw else self._loaders.get(record.engine)
            if loader is None and not record.raw:
                raise DataError(
                    f"spilled key {key!r} was written by engine "
                    f"{record.engine!r}, but this store only loads "
                    f"{sorted(self._loaders)}"
                )
            chain = record.chain
            payloads = self._read(chain)
            base = payloads[0]
            # Reclaim may have appended delta values to the base payload.
            split = len(base) - _VALUE.itemsize * record.folded
            if record.folded < 0 or split < 0:
                raise DataError(
                    f"spilled key {key!r} claims {record.folded} appended "
                    f"values, but its base record holds {len(base)} bytes"
                )
            if loader is None:  # a raw base
                summary: Any = self._raw_values(key, record, base[:split])
            else:
                summary = loader(bytes(base[:split]))
            payloads[0] = base[split:]
            joined = b"".join(payloads)
            if len(joined) != _VALUE.itemsize * record.pending:
                raise DataError(
                    f"spilled key {key!r} holds {len(joined)} bytes of "
                    f"pending values, not {record.pending} values"
                )
            if keep:
                # The index keeps its entry; the caller gets a copy.
                record = SpillRecord(*_INDEX_FIELDS(record))
            else:
                # The tombstone drops the entry from the index.
                self._append_record(_TOMBSTONE, key.encode(), b"")
                self._maybe_reclaim()
            record.values = np.frombuffer(joined, dtype=_VALUE)
        nbytes = sum(length for _s, _o, length in chain)
        current_tracer().count("service.tenancy.restore.bytes", nbytes)
        return summary, record, nbytes

    @staticmethod
    def _raw_values(key: str, record: SpillRecord, payload: memoryview) -> np.ndarray:
        """A raw base's values, refused with a ``DataError`` unless they
        rebuild the raw key its record describes: ``count >= 1`` sorted
        values, ``1 <= absorbs <= count`` (every absorb added at least
        one), and extremes equal to the first and last value."""
        values = None
        if record.count >= 1 and len(payload) == _VALUE.itemsize * record.count:
            values = np.frombuffer(bytes(payload), dtype=_VALUE)
        if values is None:
            problem = f"does not hold {record.count} values"
        elif not is_sorted(values):
            problem = "holds values out of order"
        elif not 1 <= record.absorbs <= record.count:
            problem = f"claims {record.absorbs} absorbs of {record.count} values"
        elif not (record.minimum == values[0] and record.maximum == values[-1]):
            problem = (
                f"claims extremes {record.minimum!r} and {record.maximum!r}, "
                f"not its first and last values {float(values[0])!r} and "
                f"{float(values[-1])!r}"
            )
        else:
            return values
        raise DataError(f"spilled raw key {key!r} {problem}")

    # ------------------------------------------------------------------
    # Aux summaries (rollups and stream epochs across restarts)
    # ------------------------------------------------------------------

    def save_aux(self, name: str, summary: OPAQSummary) -> None:
        """Persist a named non-key summary (a shard rollup, a stream
        epoch) as its ``to_bytes`` record, its arrays copied once."""
        payload = field_parts(*summary._fields())
        with self._lock:
            self._append_record(_AUX, name.encode(), *payload)
            self._maybe_reclaim()

    def drop_aux(self, name: str) -> None:
        """Drop a named summary with a tombstone (a no-op if absent)."""
        with self._lock:
            if name in self._aux:
                self._append_record(_TOMBSTONE, name.encode(), b"")
                self._maybe_reclaim()

    def load_aux(self, name: str) -> OPAQSummary | None:
        """Load a named summary saved by :meth:`save_aux`, if present."""
        with self._lock:
            where = self._aux.get(name)
            if where is None:
                return None
            (payload,) = self._read((where,))
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
