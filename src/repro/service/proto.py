"""Wire protocol v3: compact binary framing for the quantile service.

The service's one wire.  Encoding numbers as text (the JSON/HTTP
protocol v1, since removed) dominated the wire cost by an order of
magnitude at one million elements per ingest call, so protocol v2+
frames numpy payloads directly, with the same dtype discipline as the
process backend's shared-memory transport
(:mod:`repro.parallel.backends.process`): every array travels as its
``dtype.str`` + shape + raw C-order bytes, and is rebuilt with
``np.dtype(...)`` on the far side — never pickled, never guessed.
Protocol v3 extends the keyed answer record with one byte naming the
portfolio engine that served the answer (see ``docs/portfolio.md``).

Frame layout (all integers big-endian)::

    offset  size  field
    0       4     magic    b"OPAQ"
    4       1     version  3
    5       1     opcode   (request: Op.*; reply: Op.* | REPLY_BIT; error: ERROR_OP)
    6       2     flags    reserved, must be 0 in v3
    8       4     payload length in bytes (bounded by max_payload)
    12      ...   payload

Array blocks inside payloads::

    u8 dtype-string length | dtype string (ascii, e.g. "<f8")
    u8 ndim | u64 * ndim dimensions | raw C-order bytes

Request/reply payloads per opcode are documented on their codec
functions below; ``docs/service.md`` carries the wire-level view.

Version negotiation is deliberately dumb: the header carries the
version, a peer that sees one it does not speak replies with (or
raises) a typed error naming both versions, and the connection closes.
No capability bitmaps — a new version is a new byte.

Every malformed input raises :class:`~repro.errors.DataError` (corrupt
or hostile bytes) or :class:`~repro.errors.ServiceError` (the peer went
away), never a silent truncation and never a foreign exception type.
"""

from __future__ import annotations

import enum
import json
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import (
    ConfigError,
    DataError,
    EstimationError,
    ReproError,
    ServiceError,
)
from repro.service.tenancy.keys import KEY_SEP, _ENGINE_NAMES

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.service.tenancy.registry import KeyAnswer

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "HEADER",
    "MAX_PAYLOAD",
    "REPLY_BIT",
    "ERROR_OP",
    "Op",
    "QuantileVector",
    "encode_frame",
    "parse_header",
    "pack_array",
    "unpack_array",
    "unpack_single_array",
    "encode_ingest_request",
    "decode_ingest_request",
    "encode_ingest_reply",
    "decode_ingest_reply",
    "encode_quantiles_request",
    "decode_quantiles_request",
    "encode_quantiles_reply",
    "decode_quantiles_reply",
    "encode_ingest_keyed_request",
    "decode_ingest_keyed_request",
    "encode_ingest_keyed_reply",
    "decode_ingest_keyed_reply",
    "encode_quantiles_keyed_request",
    "decode_quantiles_keyed_request",
    "encode_quantiles_keyed_reply",
    "decode_quantiles_keyed_reply",
    "encode_snapshot_reply",
    "decode_snapshot_reply",
    "encode_stats_reply",
    "decode_stats_reply",
    "encode_error",
    "raise_remote_error",
]

MAGIC = b"OPAQ"
WIRE_VERSION = 3

#: magic, version, opcode, flags (reserved), payload length.
HEADER = struct.Struct("!4sBBHI")

#: Refuse frames beyond this payload size (64 MiB): a bounded wire
#: buffer is the wire-side sibling of the bounded ingest queues.
MAX_PAYLOAD = 64 * 1024 * 1024

#: A reply to opcode ``op`` carries opcode ``op | REPLY_BIT``.
REPLY_BIT = 0x80

#: Error replies carry this opcode; payload is the error codec below.
ERROR_OP = 0xFF


class Op(enum.IntEnum):
    """Request opcodes of wire protocol v3."""

    PING = 0x01
    INGEST = 0x02
    QUANTILES = 0x03
    SNAPSHOT = 0x04
    STATS = 0x05
    INGEST_KEYED = 0x06
    QUANTILES_KEYED = 0x07


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def encode_frame(opcode: int, payload: bytes = b"") -> bytes:
    """One complete frame: header + payload."""
    if len(payload) > MAX_PAYLOAD:
        raise DataError(
            f"payload of {len(payload)} bytes exceeds the {MAX_PAYLOAD}-byte "
            "frame limit; split the batch"
        )
    return HEADER.pack(MAGIC, WIRE_VERSION, opcode, 0, len(payload)) + payload


def parse_header(
    header: bytes, *, max_payload: int = MAX_PAYLOAD
) -> tuple[int, int]:
    """Validate one frame header; return ``(opcode, payload_length)``.

    Raises :class:`~repro.errors.DataError` for anything a peer cannot
    recover from in-stream: short header, wrong magic, version skew,
    nonzero reserved flags, oversized length.  After any of these the
    connection must close — the byte stream can no longer be trusted.
    """
    if len(header) != HEADER.size:
        raise DataError(
            f"truncated frame header: {len(header)} of {HEADER.size} bytes"
        )
    magic, version, opcode, flags, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise DataError(
            f"not an OPAQ frame (magic {magic!r}, expected {MAGIC!r}); "
            "is the peer speaking HTTP at a binary port?"
        )
    if version != WIRE_VERSION:
        raise DataError(
            f"wire protocol version skew: peer speaks v{version}, this "
            f"build speaks v{WIRE_VERSION}; upgrade one side"
        )
    if flags != 0:
        raise DataError(
            f"reserved frame flags must be 0 in v{WIRE_VERSION}, "
            f"got {flags:#x}"
        )
    if length > max_payload:
        raise DataError(
            f"declared payload of {length} bytes exceeds the "
            f"{max_payload}-byte limit; split the batch"
        )
    return opcode, length


# ----------------------------------------------------------------------
# Array blocks (the process backend's dtype discipline, on the wire)
# ----------------------------------------------------------------------

_MAX_NDIM = 2


def pack_array(arr: np.ndarray) -> bytes:
    """Serialise one array as dtype string + shape + raw C-order bytes."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype.hasobject:
        raise DataError("object arrays cannot travel on the wire")
    if arr.ndim > _MAX_NDIM:
        raise DataError(f"arrays over {_MAX_NDIM} dimensions are not framed")
    return _array_head(arr.dtype, arr.shape) + arr.tobytes()


def _array_head(dtype: np.dtype, shape: tuple[int, ...]) -> bytes:
    """The bytes an array block of this dtype and shape starts with."""
    dtype_str = dtype.str.encode("ascii")
    return b"".join((
        struct.pack("!B", len(dtype_str)),
        dtype_str,
        struct.pack(f"!B{len(shape)}Q", len(shape), *shape),
    ))


def unpack_array(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one array block at ``offset``; return ``(array, next_offset)``.

    The returned array owns its data (copied out of ``buf``), so callers
    may hand it to code that sorts or writes in place.
    """
    try:
        (dtype_len,) = struct.unpack_from("!B", buf, offset)
        offset += 1
        dtype_bytes = bytes(buf[offset : offset + dtype_len])
        if len(dtype_bytes) != dtype_len:
            raise DataError("truncated array block: dtype string cut short")
        try:
            dtype_str = dtype_bytes.decode("ascii")
        except UnicodeDecodeError:
            raise DataError(
                f"unknown wire dtype {dtype_bytes!r}: not ASCII"
            ) from None
        offset += dtype_len
        (ndim,) = struct.unpack_from("!B", buf, offset)
        offset += 1
        if ndim > _MAX_NDIM:
            raise DataError(
                f"array block declares {ndim} dimensions "
                f"(limit {_MAX_NDIM})"
            )
        shape = struct.unpack_from(f"!{ndim}Q", buf, offset)
        offset += 8 * ndim
    except struct.error as exc:
        raise DataError(f"truncated array block: {exc}") from None
    try:
        dtype = np.dtype(dtype_str)
    except (TypeError, ValueError) as exc:
        raise DataError(f"unknown wire dtype {dtype_str!r}: {exc}") from None
    if dtype.hasobject or dtype.itemsize == 0:
        raise DataError(f"wire dtype {dtype_str!r} is not a plain scalar type")
    count = 1
    for dim in shape:
        count *= int(dim)
    nbytes = count * dtype.itemsize
    if nbytes > len(buf) - offset:
        raise DataError(
            f"truncated array block: {nbytes} data bytes declared, "
            f"{len(buf) - offset} present"
        )
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    return arr.reshape(shape).copy(), offset + nbytes


def unpack_single_array(buf: bytes) -> np.ndarray:
    """Decode exactly one array block filling the whole payload."""
    arr, end = unpack_array(buf)
    if end != len(buf):
        raise DataError(
            f"{len(buf) - end} trailing bytes after the array block"
        )
    return arr


# ----------------------------------------------------------------------
# Per-opcode codecs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuantileVector:
    """A whole φ-vector answer as parallel arrays (the wire-native form).

    The array-of-objects view (:class:`~repro.service.QueryResult`) costs
    one dataclass per φ; this form is what the vectorised query path
    produces and what protocol v3 frames — construction cost independent
    of the number of fractions.
    """

    epoch: int
    count: int
    guarantee: int
    staleness: int
    phis: np.ndarray
    ranks: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    max_below: np.ndarray
    max_above: np.ndarray

    def to_dict(self) -> dict[str, object]:
        """The legacy JSON response shape (one row dict per φ)."""
        return {
            "epoch": self.epoch,
            "count": self.count,
            "guarantee": self.guarantee,
            "staleness": self.staleness,
            "results": [
                {
                    "phi": float(self.phis[i]),
                    "rank": int(self.ranks[i]),
                    "lower": float(self.lower[i]),
                    "upper": float(self.upper[i]),
                    "max_below": int(self.max_below[i]),
                    "max_above": int(self.max_above[i]),
                    "max_between": int(self.max_below[i] + self.max_above[i]),
                }
                for i in range(len(self.phis))
            ],
        }


_INGEST_REPLY = struct.Struct("!QQ")
_QUANTILES_HEAD = struct.Struct("!QQQq")
_SNAPSHOT_REPLY = struct.Struct("!QQQQ")


def encode_ingest_request(values: np.ndarray) -> bytes:
    """Request payload: one 1-D float64 array block."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    return pack_array(arr)


def decode_ingest_request(payload: bytes) -> np.ndarray:
    arr = unpack_single_array(payload)
    if arr.dtype.kind not in "fiu":
        raise DataError(
            f"ingest batches must be numeric, got dtype {arr.dtype.str!r}"
        )
    return arr


def encode_ingest_reply(accepted: int, epoch: int) -> bytes:
    """Reply payload: ``!QQ`` (accepted element count, current epoch)."""
    return _INGEST_REPLY.pack(accepted, epoch)


def decode_ingest_reply(payload: bytes) -> dict[str, int]:
    try:
        accepted, epoch = _INGEST_REPLY.unpack(payload)
    except struct.error as exc:
        raise DataError(f"malformed ingest reply: {exc}") from None
    return {"accepted": int(accepted), "epoch": int(epoch)}


def encode_quantiles_request(phis: np.ndarray) -> bytes:
    """Request payload: one 1-D float64 array block of fractions."""
    return pack_array(np.ascontiguousarray(phis, dtype=np.float64))


def decode_quantiles_request(payload: bytes) -> np.ndarray:
    arr = unpack_single_array(payload)
    if arr.dtype.kind not in "fiu":
        raise DataError(
            f"quantile fractions must be numeric, got {arr.dtype.str!r}"
        )
    return np.ascontiguousarray(arr, dtype=np.float64)


def encode_quantiles_reply(vec: QuantileVector) -> bytes:
    """Reply payload: ``!QQQq`` bookkeeping + six array blocks.

    Order: phis (f8), ranks (i8), lower (f8), upper (f8),
    max_below (i8), max_above (i8).
    """
    head = _QUANTILES_HEAD.pack(
        vec.epoch, vec.count, vec.guarantee, vec.staleness
    )
    return head + b"".join(
        pack_array(np.ascontiguousarray(a, dtype=d))
        for a, d in (
            (vec.phis, np.float64),
            (vec.ranks, np.int64),
            (vec.lower, np.float64),
            (vec.upper, np.float64),
            (vec.max_below, np.int64),
            (vec.max_above, np.int64),
        )
    )


def decode_quantiles_reply(payload: bytes) -> QuantileVector:
    try:
        epoch, count, guarantee, staleness = _QUANTILES_HEAD.unpack_from(
            payload, 0
        )
    except struct.error as exc:
        raise DataError(f"malformed quantiles reply: {exc}") from None
    offset = _QUANTILES_HEAD.size
    arrays = []
    for _ in range(6):
        arr, offset = unpack_array(payload, offset)
        arrays.append(arr)
    if offset != len(payload):
        raise DataError(
            f"{len(payload) - offset} trailing bytes after the quantile arrays"
        )
    phis, ranks, lower, upper, max_below, max_above = arrays
    sizes = {a.size for a in arrays}
    if len(sizes) != 1:
        raise DataError("quantile reply arrays disagree on length")
    return QuantileVector(
        epoch=int(epoch),
        count=int(count),
        guarantee=int(guarantee),
        staleness=int(staleness),
        phis=phis,
        ranks=ranks,
        lower=lower,
        upper=upper,
        max_below=max_below,
        max_above=max_above,
    )


# ----------------------------------------------------------------------
# Keyed (multi-tenant) codecs
# ----------------------------------------------------------------------

#: accepted element count, accepted key count.
_INGEST_KEYED_REPLY = struct.Struct("!QQ")
#: count, guarantee, compactions (signed: -1 for rollups),
#: epsilon_bound, source code, engine code (v3).
_KEYED_ANSWER_HEAD = struct.Struct("!QQqdBB")
_KEY_BLOB_LEN = struct.Struct("!Q")
_KEY_ECHO_LEN = struct.Struct("!H")
_ANSWER_COUNT = struct.Struct("!I")

_INT64 = np.dtype(np.int64)
_FLOAT64 = np.dtype(np.float64)

#: ``KeyAnswer.source`` <-> its one-byte wire code.  Order is the code.
_SOURCE_NAMES = ("resident", "restored", "rollup:metric", "rollup:global")
_SOURCE_CODES = {name: code for code, name in enumerate(_SOURCE_NAMES)}

#: ``KeyAnswer.engine`` <-> its one-byte wire code: the table the spill
#: store's records use too (``tenancy.keys``, append-only).
_ENGINE_CODES = {name: code for code, name in enumerate(_ENGINE_NAMES)}


def _pack_keys(keys: Sequence[str]) -> bytes:
    """Key block: ``u64`` blob length + UTF-8 blob + i4 length array.

    Composite keys (``tenant\\x1fmetric``) travel concatenated; the
    length array carves the blob back apart.  One encode for the whole
    frame — no per-key framing overhead beyond 4 bytes.
    """
    encoded = [key.encode("utf-8") for key in keys]
    blob = b"".join(encoded)
    lengths = np.array([len(e) for e in encoded], dtype=np.int32)
    return _KEY_BLOB_LEN.pack(len(blob)) + blob + pack_array(lengths)


def _unpack_keys(buf: bytes, offset: int = 0) -> tuple[list[str], int]:
    """Inverse of :func:`_pack_keys`; returns ``(keys, next_offset)``."""
    try:
        (blob_len,) = _KEY_BLOB_LEN.unpack_from(buf, offset)
    except struct.error as exc:
        raise DataError(f"truncated key block: {exc}") from None
    offset += _KEY_BLOB_LEN.size
    blob = bytes(buf[offset : offset + blob_len])
    if len(blob) != blob_len:
        raise DataError(
            f"truncated key block: {blob_len} blob bytes declared, "
            f"{len(blob)} present"
        )
    offset += blob_len
    lengths, offset = unpack_array(buf, offset)
    if lengths.ndim != 1 or lengths.dtype.kind not in "iu":
        raise DataError("key lengths must be a 1-D integer array")
    if lengths.size and int(lengths.min()) < 0:
        raise DataError("key lengths cannot be negative")
    if int(lengths.sum()) != blob_len:
        raise DataError(
            f"key lengths sum to {int(lengths.sum())} but the blob "
            f"carries {blob_len} bytes"
        )
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"key blob is not valid UTF-8: {exc}") from None
    keys: list[str] = []
    # Slice by character when the blob is pure ASCII (the common case);
    # otherwise re-decode per key so byte lengths stay authoritative.
    if len(text) == blob_len:
        pos = 0
        for n in lengths.tolist():
            keys.append(text[pos : pos + n])
            pos += n
    else:
        pos = 0
        for n in lengths.tolist():
            keys.append(blob[pos : pos + n].decode("utf-8"))
            pos += n
    return keys, offset


def encode_ingest_keyed_request(
    keys: Sequence[str],
    counts: np.ndarray,
    values: np.ndarray,
) -> bytes:
    """Request payload: key block + i8 per-key counts + f8 values.

    ``values`` is the concatenation of every key's elements in key
    order — the registry's native frame shape, framed verbatim.
    """
    return (
        _pack_keys(keys)
        + pack_array(np.ascontiguousarray(counts, dtype=np.int64))
        + pack_array(np.ascontiguousarray(values, dtype=np.float64))
    )


def decode_ingest_keyed_request(
    payload: bytes,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    keys, offset = _unpack_keys(payload)
    counts, offset = unpack_array(payload, offset)
    values, offset = unpack_array(payload, offset)
    if offset != len(payload):
        raise DataError(
            f"{len(payload) - offset} trailing bytes after the keyed frame"
        )
    if values.dtype.kind not in "fiu" or values.ndim != 1:
        raise DataError("keyed values must be a 1-D numeric array")
    # The counts keep their wire dtype: the registry's ingest policy
    # (repro.core.values.ingest_counts) decides what a count may be.
    return keys, counts, np.ascontiguousarray(values, dtype=np.float64)


def encode_ingest_keyed_reply(accepted: int, keys: int) -> bytes:
    """Reply payload: ``!QQ`` (accepted elements, accepted keys)."""
    return _INGEST_KEYED_REPLY.pack(accepted, keys)


def decode_ingest_keyed_reply(payload: bytes) -> dict[str, int]:
    try:
        accepted, keys = _INGEST_KEYED_REPLY.unpack(payload)
    except struct.error as exc:
        raise DataError(f"malformed keyed ingest reply: {exc}") from None
    return {"elements": int(accepted), "keys": int(keys)}


def encode_quantiles_keyed_request(
    keys: Sequence[str], phis: np.ndarray
) -> bytes:
    """Request payload: key block + one f8 array block of fractions."""
    return _pack_keys(keys) + pack_array(
        np.ascontiguousarray(phis, dtype=np.float64)
    )


def decode_quantiles_keyed_request(
    payload: bytes,
) -> tuple[list[str], np.ndarray]:
    keys, offset = _unpack_keys(payload)
    phis, offset = unpack_array(payload, offset)
    if offset != len(payload):
        raise DataError(
            f"{len(payload) - offset} trailing bytes after the keyed query"
        )
    if phis.dtype.kind not in "fiu":
        raise DataError(
            f"quantile fractions must be numeric, got {phis.dtype.str!r}"
        )
    return keys, np.ascontiguousarray(phis, dtype=np.float64)


def encode_quantiles_keyed_reply(answers: Sequence["KeyAnswer"]) -> bytes:
    """Reply payload: shared φ block, then one record per answer.

    Each record: ``u16`` key-echo length + composite key bytes +
    ``!QQqdBB`` head (count, guarantee, compactions, epsilon_bound,
    source code, engine code) + five array blocks (psi i8, lower f8,
    upper f8, max_below i8, max_above i8).  The φ vector is hoisted —
    every answer in one reply shares the request's fractions.
    """
    phis = answers[0].phis if answers else np.empty(0, dtype=np.float64)
    phis = np.ascontiguousarray(phis, dtype=np.float64)
    parts = [pack_array(phis), _ANSWER_COUNT.pack(len(answers))]
    # Every answer's arrays have the φ vector's shape, so the five
    # block headers are the same for all of them: built once per reply.
    shape = phis.shape
    int_head = _array_head(_INT64, shape)
    float_head = _array_head(_FLOAT64, shape)
    for ans in answers:
        code = _SOURCE_CODES.get(ans.source)
        if code is None:
            raise DataError(f"unknown answer source {ans.source!r}")
        engine_code = _ENGINE_CODES.get(ans.engine)
        if engine_code is None:
            raise DataError(f"unknown answer engine {ans.engine!r}")
        key = (ans.tenant + KEY_SEP + ans.metric).encode("utf-8")
        parts.append(_KEY_ECHO_LEN.pack(len(key)))
        parts.append(key)
        parts.append(
            _KEYED_ANSWER_HEAD.pack(
                ans.count,
                ans.guarantee,
                ans.compactions,
                ans.epsilon_bound,
                code,
                engine_code,
            )
        )
        psi = np.ascontiguousarray(ans.psi, dtype=np.int64)
        lower = np.ascontiguousarray(ans.lower, dtype=np.float64)
        upper = np.ascontiguousarray(ans.upper, dtype=np.float64)
        below = np.ascontiguousarray(ans.max_below, dtype=np.int64)
        above = np.ascontiguousarray(ans.max_above, dtype=np.int64)
        if (
            psi.shape == lower.shape == upper.shape == below.shape
            == above.shape == shape
        ):
            parts += (
                int_head, psi.tobytes(), float_head, lower.tobytes(),
                float_head, upper.tobytes(), int_head, below.tobytes(),
                int_head, above.tobytes(),
            )
        else:
            parts += map(pack_array, (psi, lower, upper, below, above))
    return b"".join(parts)


def decode_quantiles_keyed_reply(payload: bytes) -> list["KeyAnswer"]:
    from repro.service.tenancy.registry import KeyAnswer

    phis, offset = unpack_array(payload)
    try:
        (n_answers,) = _ANSWER_COUNT.unpack_from(payload, offset)
    except struct.error as exc:
        raise DataError(f"malformed keyed quantiles reply: {exc}") from None
    offset += _ANSWER_COUNT.size
    answers: list[KeyAnswer] = []
    for _ in range(n_answers):
        try:
            (key_len,) = _KEY_ECHO_LEN.unpack_from(payload, offset)
            offset += _KEY_ECHO_LEN.size
            key_bytes = bytes(payload[offset : offset + key_len])
            if len(key_bytes) != key_len:
                raise DataError("truncated key echo in keyed reply")
            offset += key_len
            head = _KEYED_ANSWER_HEAD.unpack_from(payload, offset)
            offset += _KEYED_ANSWER_HEAD.size
        except struct.error as exc:
            raise DataError(
                f"malformed keyed quantiles reply: {exc}"
            ) from None
        count, guarantee, compactions, epsilon_bound, code, engine_code = head
        if code >= len(_SOURCE_NAMES):
            raise DataError(f"unknown answer source code {code:#x}")
        if engine_code >= len(_ENGINE_NAMES):
            raise DataError(f"unknown answer engine code {engine_code:#x}")
        try:
            key = key_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"key echo is not valid UTF-8: {exc}") from None
        tenant, sep, metric = key.partition(KEY_SEP)
        if not sep:
            raise DataError(f"malformed key echo {key!r} in keyed reply")
        arrays = []
        for _ in range(5):
            arr, offset = unpack_array(payload, offset)
            arrays.append(arr)
        psi, lower, upper, max_below, max_above = arrays
        answers.append(
            KeyAnswer(
                tenant=tenant,
                metric=metric,
                source=_SOURCE_NAMES[code],
                count=int(count),
                guarantee=int(guarantee),
                epsilon_bound=float(epsilon_bound),
                compactions=int(compactions),
                phis=phis,
                psi=psi,
                lower=lower,
                upper=upper,
                max_below=max_below,
                max_above=max_above,
                engine=_ENGINE_NAMES[engine_code],
            )
        )
    if offset != len(payload):
        raise DataError(
            f"{len(payload) - offset} trailing bytes after the keyed answers"
        )
    return answers


def encode_snapshot_reply(
    epoch: int, count: int, guarantee: int, samples: int
) -> bytes:
    """Reply payload: ``!QQQQ`` (epoch, count, guarantee, samples)."""
    return _SNAPSHOT_REPLY.pack(epoch, count, guarantee, samples)


def decode_snapshot_reply(payload: bytes) -> dict[str, int]:
    try:
        epoch, count, guarantee, samples = _SNAPSHOT_REPLY.unpack(payload)
    except struct.error as exc:
        raise DataError(f"malformed snapshot reply: {exc}") from None
    return {
        "epoch": int(epoch),
        "count": int(count),
        "guarantee": int(guarantee),
        "samples": int(samples),
    }


def encode_stats_reply(stats: dict[str, object]) -> bytes:
    """Reply payload: UTF-8 JSON (stats is a cold diagnostic path)."""
    return json.dumps(stats).encode()


def decode_stats_reply(payload: bytes) -> dict[str, object]:
    try:
        stats = json.loads(payload)
    except ValueError as exc:
        raise DataError(f"malformed stats reply: {exc}") from None
    if not isinstance(stats, dict):
        raise DataError("stats reply must be a JSON object")
    return stats


# ----------------------------------------------------------------------
# Typed errors on the wire
# ----------------------------------------------------------------------

#: Wire error kinds <-> the repro exception taxonomy.  The base classes
#: are ordered most-specific-first for the isinstance scan.
_KIND_OF = (
    ("data", DataError),
    ("config", ConfigError),
    ("estimation", EstimationError),
    ("service", ServiceError),
    ("repro", ReproError),
)
_ERROR_OF = {kind: cls for kind, cls in _KIND_OF}


def encode_error(exc: BaseException) -> bytes:
    """Error payload: UTF-8 JSON ``{"kind", "error", "retryable"}``."""
    kind = "service"
    for name, cls in _KIND_OF:
        if isinstance(exc, cls):
            kind = name
            break
    return json.dumps(
        {
            "kind": kind,
            "error": str(exc),
            "retryable": isinstance(exc, ServiceError),
        }
    ).encode()


def raise_remote_error(payload: bytes) -> None:
    """Re-raise a peer's error frame as its typed repro exception."""
    try:
        body = json.loads(payload)
        kind = str(body["kind"])
        message = str(body["error"])
    except (ValueError, KeyError, TypeError):
        raise ServiceError(
            f"peer sent an unreadable error frame: {payload[:80]!r}"
        ) from None
    raise _ERROR_OF.get(kind, ServiceError)(f"server error: {message}")
