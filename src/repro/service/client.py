"""The service client: batched, dependency-free, over wire protocol v3.

:class:`ServiceClient` speaks the framed binary transport of
:mod:`repro.service.proto` over one persistent TCP socket, addressed as
``opaq://host:port``.  Arrays travel as raw bytes; per-request cost is a
12-byte header.

The API is array-in/array-out::

    with ServiceClient("opaq://127.0.0.1:9474") as client:
        client.ingest(np.random.default_rng(0).normal(size=100_000))
        client.snapshot()
        vec = client.quantiles([0.25, 0.5, 0.75, 0.99])
        vec.lower, vec.upper, vec.guarantee

The deprecation cycle for the protocol v1 spellings is complete: scalar
``ingest(x)`` and the dict-returning ``quantile(phis)`` were removed
after one release of :class:`DeprecationWarning` — pass an array to
``ingest`` and call ``quantiles`` (``.to_dict()`` recovers the old
shape).  See ``docs/api.md``.

Keyed (multi-tenant) calls ride the same socket:
``ingest_keyed({(tenant, metric): values, ...})`` and
``quantiles_keyed([(tenant, metric), ...], phis)``, with ``"*"``
selecting server-side rollups — see ``docs/service.md``.

Server-side failures arrive as their typed repro exceptions
(:class:`~repro.errors.DataError` and friends, re-raised by
:func:`~repro.service.proto.raise_remote_error`); transport failures are
:class:`~repro.errors.ServiceError`.  After a transport failure the
socket is dropped and the next call reconnects.
"""

from __future__ import annotations

import socket
import urllib.parse
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.values import ingest_values
from repro.errors import ConfigError, DataError, ServiceError
from repro.service import proto
from repro.service.proto import QuantileVector
from repro.service.tenancy.keys import compose_key
from repro.service.tenancy.registry import KeyAnswer

__all__ = ["ServiceClient"]

#: One keyed ingest call's input: a mapping from ``(tenant, metric)``
#: to that key's values, or a sequence of ``(tenant, metric, values)``.
KeyedBatches = (
    Mapping[tuple[str, str], "np.ndarray | Sequence[float]"]
    | Sequence[tuple[str, str, "np.ndarray | Sequence[float]"]]
)


def _as_batch(values: Any) -> np.ndarray:
    """Coerce ingest input to a 1-D float64 array."""
    if isinstance(values, (int, float)):
        # Scalar ingest completed its deprecation cycle (one release of
        # DeprecationWarning); per-element calls are exactly the
        # per-request overhead the batched API exists to amortise.
        raise DataError(
            "scalar ingest(x) was removed; pass a batched np.ndarray "
            "(ingest(np.asarray([x])))"
        )
    return ingest_values(values, copy=False, scan=False)  # the server scans


def _as_phis(phis: Any) -> np.ndarray:
    try:
        arr = np.ascontiguousarray(phis, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"unparseable quantile fractions: {exc}") from None
    if arr.ndim != 1:
        raise DataError("pass quantile fractions as a one-dimensional vector")
    return arr


def _as_keyed_frame(
    batches: KeyedBatches,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Flatten keyed batches into the wire frame (keys, counts, values)."""
    if isinstance(batches, Mapping):
        items = [(t, m, v) for (t, m), v in batches.items()]
    else:
        items = [(t, m, v) for t, m, v in batches]
    keys = [compose_key(tenant, metric) for tenant, metric, _ in items]
    arrays = [_as_batch(values) for _, _, values in items]
    counts = np.array([a.size for a in arrays], dtype=np.int64)
    values = (
        np.concatenate(arrays) if arrays else np.empty(0, dtype=np.float64)
    )
    return keys, counts, values


def _composite_pairs(pairs: Sequence[tuple[str, str]]) -> list[str]:
    return [compose_key(tenant, metric) for tenant, metric in pairs]


# ----------------------------------------------------------------------
# Binary transport (protocol v3)
# ----------------------------------------------------------------------


class _BinaryTransport:
    """One persistent socket speaking framed protocol v3."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._buf = bytearray()  # bytes received but not yet consumed

    # -- socket plumbing ----------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            try:
                # A client (and its socket) belongs to one caller at a
                # time; share work across threads with one client each.
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                self._sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
            except OSError as exc:
                raise ServiceError(
                    f"cannot reach opaq://{self.host}:{self.port}: {exc}"
                ) from None
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
        self._buf.clear()

    def _recv_exactly(self, sock: socket.socket, n: int) -> bytes:
        # Buffered: each recv pulls as much as the kernel has ready, and
        # framing consumes from the buffer — pipelined replies then cost
        # ~one syscall per socket buffer instead of two per frame.
        while len(self._buf) < n:
            try:
                chunk = sock.recv(1 << 20)
            except socket.timeout:
                raise ServiceError(
                    f"server did not reply within {self.timeout:g}s"
                ) from None
            except OSError as exc:
                raise ServiceError(f"connection failed mid-read: {exc}") from None
            if not chunk:
                raise ServiceError(
                    "server closed the connection mid-frame "
                    f"({len(self._buf)} of {n} bytes)"
                )
            self._buf.extend(chunk)
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    # -- framing -------------------------------------------------------

    def _send_frames(self, frames: list[bytes]) -> None:
        sock = self._connect()
        try:
            sock.sendall(b"".join(frames))
        except OSError as exc:
            self.close()
            raise ServiceError(f"connection failed mid-write: {exc}") from None

    def _read_reply(self, expect_opcode: int) -> bytes:
        sock = self._connect()
        try:
            header = self._recv_exactly(sock, proto.HEADER.size)
            opcode, length = proto.parse_header(header)
            payload = self._recv_exactly(sock, length)
        except (ServiceError, DataError):
            self.close()  # stream desync: force a fresh connection
            raise
        if opcode == proto.ERROR_OP:
            proto.raise_remote_error(payload)
        if opcode != (expect_opcode | proto.REPLY_BIT):
            self.close()
            raise ServiceError(
                f"out-of-order reply: opcode {opcode:#x} while awaiting "
                f"{expect_opcode | proto.REPLY_BIT:#x}"
            )
        return payload

    def request(self, opcode: int, payload: bytes = b"") -> bytes:
        self._send_frames([proto.encode_frame(opcode, payload)])
        return self._read_reply(opcode)

    # -- operations ----------------------------------------------------

    def ping(self) -> bool:
        self.request(proto.Op.PING)
        return True

    def ingest(self, values: np.ndarray) -> dict[str, int]:
        reply = self.request(
            proto.Op.INGEST, proto.encode_ingest_request(values)
        )
        return proto.decode_ingest_reply(reply)

    def quantiles(self, phis: np.ndarray) -> QuantileVector:
        reply = self.request(
            proto.Op.QUANTILES, proto.encode_quantiles_request(phis)
        )
        return proto.decode_quantiles_reply(reply)

    def quantiles_many(
        self, phi_vectors: list[np.ndarray]
    ) -> list[QuantileVector]:
        """Pipelined queries: all request frames, then all replies.

        The server answers frames in order, so K requests cost one
        round-trip of latency instead of K — the batched-throughput mode
        the service benchmark measures.
        """
        self._send_frames(
            [
                proto.encode_frame(
                    proto.Op.QUANTILES, proto.encode_quantiles_request(phis)
                )
                for phis in phi_vectors
            ]
        )
        return [
            proto.decode_quantiles_reply(self._read_reply(proto.Op.QUANTILES))
            for _ in phi_vectors
        ]

    def ingest_keyed(
        self, keys: list[str], counts: np.ndarray, values: np.ndarray
    ) -> dict[str, int]:
        reply = self.request(
            proto.Op.INGEST_KEYED,
            proto.encode_ingest_keyed_request(keys, counts, values),
        )
        return proto.decode_ingest_keyed_reply(reply)

    def quantiles_keyed(
        self, keys: list[str], phis: np.ndarray
    ) -> list[KeyAnswer]:
        reply = self.request(
            proto.Op.QUANTILES_KEYED,
            proto.encode_quantiles_keyed_request(keys, phis),
        )
        return proto.decode_quantiles_keyed_reply(reply)

    def snapshot(self) -> dict[str, int]:
        return proto.decode_snapshot_reply(self.request(proto.Op.SNAPSHOT))

    def stats(self) -> dict[str, Any]:
        return proto.decode_stats_reply(self.request(proto.Op.STATS))


# ----------------------------------------------------------------------
# The public client
# ----------------------------------------------------------------------


class ServiceClient:
    """Batched client for the quantile service (binary wire v3)."""

    def __init__(self, address: str, timeout: float = 30.0) -> None:
        parsed = urllib.parse.urlparse(address)
        if parsed.scheme != "opaq":
            raise ConfigError(
                f"unknown service address scheme {parsed.scheme!r} in "
                f"{address!r}: use opaq://host:port (binary protocol v3)"
            )
        if parsed.hostname is None or parsed.port is None:
            raise ConfigError(
                f"binary addresses need host and port: {address!r} "
                "(expected opaq://host:port)"
            )
        self._transport = _BinaryTransport(parsed.hostname, parsed.port, timeout)
        self.address = address
        self.timeout = timeout

    # -- primary API (array-in / array-out) ---------------------------

    def ingest(
        self, values: Sequence[float] | np.ndarray
    ) -> dict[str, int]:
        """Send one batch; returns ``{"accepted": n, "epoch": current}``.

        Pass a 1-D array (or numeric sequence).  Scalar input was
        removed after its deprecation cycle — per-element calls are
        exactly the per-request overhead the batched API amortises.
        """
        return self._transport.ingest(_as_batch(values))

    def ingest_keyed(self, batches: KeyedBatches) -> dict[str, int]:
        """Send one multi-tenant frame; returns ``{"elements", "keys"}``.

        ``batches`` maps ``(tenant, metric)`` pairs to value arrays (or
        is a sequence of ``(tenant, metric, values)`` triples).  The
        whole frame travels as one request — composite keys, per-key
        counts and the concatenated values — and lands in the server's
        :class:`~repro.service.tenancy.SummaryRegistry` under its global
        memory budget.  Keyed data is independent of the unkeyed epoch
        stream.
        """
        keys, counts, values = _as_keyed_frame(batches)
        return self._transport.ingest_keyed(keys, counts, values)

    def quantiles_keyed(
        self,
        pairs: Sequence[tuple[str, str]],
        phis: Sequence[float] | np.ndarray,
    ) -> list[KeyAnswer]:
        """One :class:`~repro.service.tenancy.KeyAnswer` per key pair.

        Each answer carries its own ``count``/``guarantee``/
        ``epsilon_bound`` and provenance (``resident``, ``restored``, or
        a rollup).  Pass ``("*", metric)`` for a cross-tenant metric
        rollup and ``("*", "*")`` for the global rollup — served from
        the aggregation tree without touching cold keys.
        """
        return self._transport.quantiles_keyed(
            _composite_pairs(pairs), _as_phis(phis)
        )

    def quantiles(
        self, phis: Sequence[float] | np.ndarray
    ) -> QuantileVector:
        """Answer a whole φ-vector in one round-trip.

        Returns the wire-native :class:`~repro.service.QuantileVector`
        (parallel arrays plus epoch/count/guarantee/staleness);
        ``.to_dict()`` recovers the legacy JSON row shape.
        """
        return self._transport.quantiles(_as_phis(phis))

    def quantiles_many(
        self, phi_vectors: Sequence[Sequence[float] | np.ndarray]
    ) -> list[QuantileVector]:
        """Many φ-vectors, pipelined: all request frames, then all replies."""
        return self._transport.quantiles_many(
            [_as_phis(phis) for phis in phi_vectors]
        )

    def snapshot(self) -> dict[str, int]:
        """Advance one epoch; returns epoch/count/guarantee/samples."""
        return self._transport.snapshot()

    def stats(self) -> dict[str, Any]:
        """The service's operational counters."""
        return self._transport.stats()

    def health(self) -> bool:
        """Liveness: one PING round-trip."""
        return self._transport.ping()

    def close(self) -> None:
        """Drop the transport connection (reconnects on next call)."""
        self._transport.close()

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
