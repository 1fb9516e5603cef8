"""The service client: batched, transport-agnostic, dependency-free.

One :class:`ServiceClient` speaks both wire generations, chosen by the
address scheme:

* ``opaq://host:port`` — protocol v3, the framed binary transport of
  :mod:`repro.service.proto` over one persistent TCP socket.  Arrays
  travel as raw bytes; per-request cost is a 12-byte header.
* ``http://host:port`` — the JSON/HTTP compatibility transport
  (:mod:`repro.service.http`), kept for curl-ability and for peers that
  have not upgraded.

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

Keyed (multi-tenant) calls ride the same transports:
``ingest_keyed({(tenant, metric): values, ...})`` and
``quantiles_keyed([(tenant, metric), ...], phis)``, with ``"*"``
selecting server-side rollups — see ``docs/service.md``.

Server-side failures arrive as their typed repro exceptions
(:class:`~repro.errors.DataError` and friends, re-raised by
:func:`~repro.service.proto.raise_remote_error`); transport failures are
:class:`~repro.errors.ServiceError`.  After a transport failure the
binary socket is dropped and the next call reconnects.
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.values import ingest_values
from repro.errors import ConfigError, DataError, ServiceError
from repro.service import proto
from repro.service.proto import QuantileVector
from repro.service.tenancy.keys import compose_key, split_key
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
                self._sock = socket.create_connection(  # opaq: ignore[thread-unguarded-write] single-owner client
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
                self._sock = None  # opaq: ignore[thread-unguarded-write] single-owner client
        self._buf.clear()  # opaq: ignore[thread-unguarded-write] single-owner client

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
            self._buf.extend(chunk)  # opaq: ignore[thread-unguarded-write] single-owner client
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
# HTTP transport (protocol v1 compatibility)
# ----------------------------------------------------------------------


class _HttpTransport:
    """urllib against the JSON/HTTP layer; answers re-shaped to arrays."""

    def __init__(self, base_url: str, timeout: float) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def close(self) -> None:
        pass  # urllib opens one connection per request

    def _request(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        request = urllib.request.Request(
            self.base_url + path,
            method=method,
            data=None if payload is None else json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return dict(json.loads(resp.read()))
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read()).get("error", str(exc))
            except ValueError:
                message = str(exc)
            raise ServiceError(
                f"{method} {path} failed with HTTP {exc.code}: {message}"
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach {self.base_url}: {exc.reason}"
            ) from None

    def ping(self) -> bool:
        return bool(self._request("GET", "/healthz").get("ok"))

    def ingest(self, values: np.ndarray) -> dict[str, int]:
        reply = self._request("POST", "/ingest", {"values": values.tolist()})
        return {"accepted": int(reply["accepted"]), "epoch": int(reply["epoch"])}

    def quantiles(self, phis: np.ndarray) -> QuantileVector:
        reply = self._request("POST", "/quantile", {"phis": phis.tolist()})
        rows = reply.get("results", [])
        # JSON round-trips float64 exactly (repr-based), so rebuilding
        # the arrays here is bit-identical to the binary transport.
        return QuantileVector(
            epoch=int(reply["epoch"]),
            count=int(reply["count"]),
            guarantee=int(reply["guarantee"]),
            staleness=int(reply["staleness"]),
            phis=np.array([r["phi"] for r in rows], dtype=np.float64),
            ranks=np.array([r["rank"] for r in rows], dtype=np.int64),
            lower=np.array([r["lower"] for r in rows], dtype=np.float64),
            upper=np.array([r["upper"] for r in rows], dtype=np.float64),
            max_below=np.array([r["max_below"] for r in rows], dtype=np.int64),
            max_above=np.array([r["max_above"] for r in rows], dtype=np.int64),
        )

    def quantiles_many(
        self, phi_vectors: list[np.ndarray]
    ) -> list[QuantileVector]:
        # HTTP/1.1 request/response cannot pipeline here: sequential.
        return [self.quantiles(phis) for phis in phi_vectors]

    def ingest_keyed(
        self, keys: list[str], counts: np.ndarray, values: np.ndarray
    ) -> dict[str, int]:
        reply = self._request(
            "POST",
            "/ingest_keyed",
            {
                "keys": [list(split_key(key)) for key in keys],
                "counts": np.asarray(counts).tolist(),
                "values": np.asarray(values).tolist(),
            },
        )
        return {"elements": int(reply["elements"]), "keys": int(reply["keys"])}

    def quantiles_keyed(
        self, keys: list[str], phis: np.ndarray
    ) -> list[KeyAnswer]:
        reply = self._request(
            "POST",
            "/quantile_keyed",
            {
                "keys": [list(split_key(key)) for key in keys],
                "phis": phis.tolist(),
            },
        )
        answers = reply.get("answers", [])
        # JSON round-trips float64 exactly, so these answers are
        # bit-identical to the binary transport's.
        return [
            KeyAnswer(
                tenant=str(a["tenant"]),
                metric=str(a["metric"]),
                source=str(a["source"]),
                count=int(a["count"]),
                guarantee=int(a["guarantee"]),
                epsilon_bound=float(a["epsilon_bound"]),
                compactions=int(a["compactions"]),
                phis=np.array(a["phis"], dtype=np.float64),
                psi=np.array(a["psi"], dtype=np.int64),
                lower=np.array(a["lower"], dtype=np.float64),
                upper=np.array(a["upper"], dtype=np.float64),
                max_below=np.array(a["max_below"], dtype=np.int64),
                max_above=np.array(a["max_above"], dtype=np.int64),
            )
            for a in answers
        ]

    def snapshot(self) -> dict[str, int]:
        reply = self._request("POST", "/snapshot")
        return {key: int(reply[key]) for key in ("epoch", "count", "guarantee", "samples")}

    def stats(self) -> dict[str, Any]:
        return self._request("GET", "/stats")


# ----------------------------------------------------------------------
# The public client
# ----------------------------------------------------------------------


class ServiceClient:
    """Batched client for the quantile service (binary or HTTP wire)."""

    def __init__(self, address: str, timeout: float = 30.0) -> None:
        parsed = urllib.parse.urlparse(address)
        if parsed.scheme == "opaq":
            if parsed.hostname is None or parsed.port is None:
                raise ConfigError(
                    f"binary addresses need host and port: {address!r} "
                    "(expected opaq://host:port)"
                )
            self._transport: _BinaryTransport | _HttpTransport = (
                _BinaryTransport(parsed.hostname, parsed.port, timeout)
            )
        elif parsed.scheme in ("http", "https"):
            self._transport = _HttpTransport(address, timeout)
        else:
            raise ConfigError(
                f"unknown service address scheme {parsed.scheme!r} in "
                f"{address!r}: use opaq://host:port (binary protocol v3) "
                "or http://host:port (compatibility)"
            )
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
        """Many φ-vectors, pipelined on the binary transport."""
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
        """Liveness: one PING (binary) or ``GET /healthz`` (HTTP)."""
        return self._transport.ping()

    def close(self) -> None:
        """Drop the transport connection (reconnects on next call)."""
        self._transport.close()

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
