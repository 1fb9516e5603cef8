"""The asyncio wire layer: protocol v3 served over plain TCP.

:class:`AsyncServiceServer` serves the framed binary protocol of
:mod:`repro.service.proto` on an asyncio loop.  Each connection is a
:class:`_FrameReader`, an :class:`asyncio.BufferedProtocol`: the loop
``recv_into``\\ s the peer's bytes straight into buffers the reader
owns, one ``recv_into`` per readiness event.

* Headers and every payload that fits are received into one reused
  staging buffer and parsed out of it in place; a small payload is
  copied out once, as the ``bytes`` its decoder reads.
* A payload too large for the staging buffer gets a buffer of its own
  when its header arrives, and is received straight into it.  The buffer
  is allocated untouched, so its memory becomes resident only as its
  bytes arrive.

One task per connection answers the parsed frames one request at a time:
it dispatches on the opcode and writes one reply frame per request, in
request order, so clients may pipeline: send K frames, then read K
replies.  Reading stops while more than ``_BACKLOG_BYTES`` of frames
wait behind the request in flight (TCP then pushes back on the peer),
and the task waits for the transport to drain when its write buffer is
full.

Error discipline (mirrors the protocol module's contract):

* **Framing errors** — wrong magic, version skew, oversized length, EOF
  inside a payload — poison the byte stream.  The frames before the bad
  one are answered; then the server sends one typed error frame, drops
  whatever else the peer sends until its EOF (at most ``_LINGER_S``
  seconds: closing on unread input would reset the connection and could
  destroy the error frame) and **closes the connection**.  EOF inside a
  header closes it without an error frame.
* **Application errors** — NaN ingest, query before the first epoch,
  backpressure timeout — are request-scoped.  The server replies with a
  typed error frame and **keeps the connection open**; the stream is
  still in sync because the declared payload was consumed.

Blocking service calls (ingest backpressure, snapshot barriers) run in
the default executor under ``asyncio.wait_for`` so a stalled shard can
never wedge the event loop (lint rule OPQ404 covers this module);
queries are lock-free reads and run inline.  The reader's protocol
callbacks run on the loop too, and only move bytes.

:class:`ThreadedBinaryServer` hosts the loop on a daemon thread behind a
synchronous start/stop surface — what ``opaq serve`` and the tests use.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np

from repro.errors import DataError, ReproError, ServiceError
from repro.obs import current_tracer
from repro.service import proto
from repro.service.engine import QuantileService

__all__ = ["AsyncServiceServer", "ThreadedBinaryServer"]

#: Ceiling for one blocking service call on the executor.  Generous —
#: the ingest path has its own (configurable, shorter) backpressure
#: timeout; this is the event loop's last-resort protection.
_REQUEST_TIMEOUT = 120.0

#: Size of a connection's staging buffer, in bytes.  Headers and the
#: payloads that fit are received into it; a larger payload is received
#: into a buffer of its own.
_STAGING_BYTES = 64 * 1024

#: Bytes of parsed frames that may wait behind the request in flight
#: before the connection stops reading.
_BACKLOG_BYTES = 256 * 1024

#: After a framing error, the longest a connection keeps reading (and
#: dropping) the peer's input while it waits for the peer's EOF.
_LINGER_S = 2.0


class AsyncServiceServer:
    """Wire protocol v3 over TCP for one :class:`QuantileService`."""

    def __init__(
        self,
        service: QuantileService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_payload: int = proto.MAX_PAYLOAD,
        request_timeout: float = _REQUEST_TIMEOUT,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_payload = max_payload
        self.request_timeout = request_timeout
        self._server: asyncio.base_events.Server | None = None
        # Encoded-reply cache for QUANTILES, keyed on (epoch, staleness,
        # raw request payload).  Sound because an epoch's summary is
        # immutable once published and staleness participates in the key,
        # so a hit is byte-identical to recomputing.  Dashboards polling
        # a fixed φ-vector hit this on every request after the first.
        self._reply_cache: dict[tuple[int, int, bytes], bytes] = {}

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (``port=0``: OS-assigned)."""
        # _server is only ever touched from the event loop's own thread
        # (start/serve_forever/close are coroutines on that loop).
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _FrameReader(self), self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]

    @property
    def url(self) -> str:
        """Address of the bound socket, as ``opaq://host:port``."""
        return f"opaq://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- requests ------------------------------------------------------

    async def _dispatch(self, opcode: int, payload: bytes | memoryview) -> bytes:
        """One request frame in, one reply frame out (never raises)."""
        tracer = current_tracer()
        tracer.count("service.proto.requests", 1, opcode=opcode)
        try:
            name = proto.Op(opcode).name.lower()
        except ValueError:
            # The header parsed and the payload was consumed, so the
            # stream is still in sync: request-scoped error, stay open.
            tracer.count("service.proto.errors", 1, opcode=opcode)
            return proto.encode_frame(
                proto.ERROR_OP,
                proto.encode_error(
                    DataError(
                        f"unknown opcode {opcode:#x} in a "
                        f"v{proto.WIRE_VERSION} frame"
                    )
                ),
            )
        try:
            with tracer.span(f"service.proto.{name}", bytes=len(payload)):
                body = await self._handle(opcode, payload)
            return proto.encode_frame(opcode | proto.REPLY_BIT, body)
        except ReproError as exc:
            tracer.count("service.proto.errors", 1, opcode=opcode)
            return proto.encode_frame(proto.ERROR_OP, proto.encode_error(exc))

    async def _handle(self, opcode: int, payload: bytes | memoryview) -> bytes:
        if opcode == proto.Op.PING:
            return b""
        if opcode == proto.Op.QUANTILES:
            # Lock-free snapshot read + one vectorised searchsorted sweep:
            # cheap enough to answer inline on the event loop.  The only
            # lock on the path is the uncontended-by-design state-lock
            # bump of the query counter, never held across I/O.
            return self._answer_quantiles(payload)  # opaq: ignore[async-blocking-call]
        if opcode == proto.Op.INGEST:
            values = proto.decode_ingest_request(payload)
            result = await self._blocking(lambda: self.service.ingest(values))
            return proto.encode_ingest_reply(
                int(result["accepted"]), int(result["epoch"])
            )
        if opcode == proto.Op.INGEST_KEYED:
            keys, counts, values = proto.decode_ingest_keyed_request(payload)
            result = await self._blocking(
                lambda: self.service.ingest_keyed(keys, counts, values)
            )
            return proto.encode_ingest_keyed_reply(
                int(result["elements"]), int(result["keys"])
            )
        if opcode == proto.Op.QUANTILES_KEYED:
            # Keyed queries may fold pending data, restore a spilled key
            # or trigger evictions — registry work, off the event loop.
            keys, phis = proto.decode_quantiles_keyed_request(payload)
            answers = await self._blocking(
                lambda: self.service.quantiles_keyed(keys, phis)
            )
            return proto.encode_quantiles_keyed_reply(answers)
        if opcode == proto.Op.SNAPSHOT:
            snapshot = await self._blocking(self.service.snapshot)
            return proto.encode_snapshot_reply(
                snapshot.epoch,
                snapshot.count,
                snapshot.guarantee,
                snapshot.summary.num_samples,
            )
        if opcode == proto.Op.STATS:
            # stats() folds per-tenant shards under their locks and may
            # touch spill files — registry work, off the event loop.
            stats = await self._blocking(self.service.stats)
            return proto.encode_stats_reply(stats)
        raise DataError(
            f"unknown opcode {opcode:#x} in a v{proto.WIRE_VERSION} frame"
        )

    _REPLY_CACHE_MAX = 128

    def _answer_quantiles(self, payload: bytes | memoryview) -> bytes:
        snapshot = self.service.current_epoch
        key = None
        if snapshot is not None:
            key = (snapshot.epoch, self.service.staleness, bytes(payload))
            cached = self._reply_cache.get(key)
            if cached is not None:
                return cached
        phis = proto.decode_quantiles_request(payload)
        body = proto.encode_quantiles_reply(self.service.query_arrays(phis))
        if key is not None:
            if len(self._reply_cache) >= self._REPLY_CACHE_MAX:
                # FIFO eviction; entries for dead epochs age out with it.
                self._reply_cache.pop(next(iter(self._reply_cache)))
            self._reply_cache[key] = body
        return body

    async def _blocking(self, fn):  # noqa: ANN001, ANN202 - thin shim
        """Run a blocking service call off the event loop, bounded."""
        loop = asyncio.get_running_loop()
        try:
            return await asyncio.wait_for(
                loop.run_in_executor(None, fn), timeout=self.request_timeout
            )
        except asyncio.TimeoutError:
            raise ServiceError(
                f"service call exceeded the {self.request_timeout:g}s "
                "request ceiling; the shards may be wedged"
            ) from None


class _FrameReader(asyncio.BufferedProtocol):
    """One connection of :class:`AsyncServiceServer`.

    The loop calls :meth:`get_buffer` and :meth:`buffer_updated` on each
    readiness event; they parse every complete frame the bytes finish
    and queue it.  :meth:`_serve`, the connection's one task, answers
    the queue in order, one request in flight at a time.
    """

    def __init__(self, server: AsyncServiceServer) -> None:
        self._server = server
        self._transport: asyncio.Transport  # set by connection_made
        self._staging = memoryview(bytearray(_STAGING_BYTES))
        self._start = 0  # first staged byte not yet parsed
        self._end = 0  # end of the staged bytes
        self._opcode = 0
        self._length = -1  # payload length of the frame being read, or -1
        self._payload: memoryview | None = None  # own buffer of a large payload
        self._filled = 0  # bytes of it received so far
        # Parsed frames, oldest first; a framing error queues as the
        # error it raises, answered in its turn.
        self._frames: list[tuple[int, bytes | memoryview | ReproError]] = []
        self._backlog = 0  # bytes of the frames waiting to be answered
        self._busy = False  # a request is in flight
        self._paused = False  # reading paused on the backlog
        self._failed = False  # a framing error: further input is dropped
        self._eof = False  # the peer sent EOF, or the connection is lost
        self._write_paused = False
        self._wakeup: asyncio.Future | None = None
        self._task: asyncio.Task | None = None

    # -- protocol callbacks (run by the event loop) --------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._transport = transport
        current_tracer().count("service.proto.connections", 1)
        # Held here: the loop keeps only a weak reference to its tasks.
        self._task = asyncio.get_running_loop().create_task(self._serve())

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._payload is not None:
            return self._payload[self._filled :]
        if self._failed:
            return self._staging
        return self._staging[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        if self._failed:
            return  # input after a framing error is read and dropped
        if self._payload is not None:
            self._filled += nbytes
            if self._filled == self._length:
                self._push(self._payload)
                self._payload = None
            return
        self._end += nbytes
        staged, start, end = self._staging, self._start, self._end
        while True:
            if self._length < 0:
                if end - start < proto.HEADER.size:
                    break
                try:
                    self._opcode, self._length = proto.parse_header(
                        staged[start : start + proto.HEADER.size],
                        max_payload=self._server.max_payload,
                    )
                except DataError as exc:
                    self._fail(exc)
                    return
                start += proto.HEADER.size
            length = self._length
            if end - start >= length:
                self._push(bytes(staged[start : start + length]))
                start += length
                continue
            if length > len(staged):
                # np.empty leaves the pages untouched until recv_into
                # fills them; the bytes already staged are copied over.
                payload = memoryview(np.empty(length, dtype=np.uint8))
                self._filled = end - start
                payload[: self._filled] = staged[start:end]
                self._payload = payload
                start = end
            break
        # Keep a partial frame at the front, where it has room to finish.
        if start == end:
            start = end = 0
        elif start:
            staged[: end - start] = staged[start:end]
            start, end = 0, end - start
        self._start, self._end = start, end

    def eof_received(self) -> bool:
        if not self._failed and self._length >= 0:
            if self._payload is not None:
                have = self._filled
            else:
                have = self._end - self._start
            self._fail(
                ServiceError(
                    "connection closed mid-frame: "
                    f"{have} of {self._length} payload bytes"
                )
            )
        self._eof = True
        self._wake()
        return True  # stay open to write the replies still owed

    def connection_lost(self, exc: Exception | None) -> None:
        self._eof = True
        self._write_paused = False
        self._wake()

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._wake()

    # -- frame queue ---------------------------------------------------

    def _push(self, payload: bytes | memoryview) -> None:
        self._frames.append((self._opcode, payload))
        self._length = -1
        self._backlog += proto.HEADER.size + len(payload)
        if self._busy and not self._paused and self._backlog > _BACKLOG_BYTES:
            self._paused = True
            self._transport.pause_reading()
        self._wake()

    def _fail(self, exc: ReproError) -> None:
        self._failed = True
        self._frames.append((self._opcode, exc))
        self._resume_reading()  # drain the peer while the error goes out
        self._wake()

    def _resume_reading(self) -> None:
        if self._paused:
            self._paused = False
            self._transport.resume_reading()

    def _wake(self) -> None:
        waiter, self._wakeup = self._wakeup, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def _wait(self) -> None:
        """Sleep until a callback reports news (frames, EOF, drain)."""
        self._wakeup = asyncio.get_running_loop().create_future()
        await self._wakeup

    # -- the connection's task -----------------------------------------

    async def _serve(self) -> None:
        try:
            while True:
                if not self._frames:
                    if self._eof:
                        return
                    self._busy = False
                    await self._wait()
                    continue
                self._busy = True
                frames, self._frames = self._frames, []
                for opcode, payload in frames:
                    if not await self._answer(opcode, payload):
                        return
        finally:
            self._transport.close()

    async def _answer(
        self, opcode: int, payload: bytes | memoryview | ReproError
    ) -> bool:
        """Answer one queued frame; False once the connection must end."""
        transport = self._transport
        if isinstance(payload, ReproError):
            # Framing failure: reply if possible, then close — the
            # stream can no longer be trusted.
            current_tracer().count("service.proto.errors", 1, fatal=True)
            transport.write(
                proto.encode_frame(proto.ERROR_OP, proto.encode_error(payload))
            )
            if transport.can_write_eof():
                transport.write_eof()
            try:
                await asyncio.wait_for(self._until_eof(), _LINGER_S)
            except asyncio.TimeoutError:
                pass  # a peer that keeps sending is cut off
            return False
        self._backlog -= proto.HEADER.size + len(payload)
        if self._backlog <= _BACKLOG_BYTES:
            self._resume_reading()
        reply = await self._server._dispatch(opcode, payload)
        if transport.is_closing():
            return False  # the peer is gone; nobody reads the reply
        transport.write(reply)
        while self._write_paused:
            await self._wait()
        return True

    async def _until_eof(self) -> None:
        while not self._eof:
            await self._wait()


class ThreadedBinaryServer:
    """Hosts :class:`AsyncServiceServer` on a daemon thread.

    The synchronous face of the binary wire layer, used by ``opaq serve``
    and anything else that is not itself an asyncio application.
    """

    def __init__(
        self,
        service: QuantileService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_payload: int = proto.MAX_PAYLOAD,
    ) -> None:
        self._async = AsyncServiceServer(
            service, host=host, port=port, max_payload=max_payload
        )
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._main_task: asyncio.Task | None = None
        self._thread = threading.Thread(
            target=self._run, name="opaq-binary-server", daemon=True
        )

    @property
    def service(self) -> QuantileService:
        return self._async.service

    @property
    def url(self) -> str:
        """``opaq://host:port`` of the bound socket (after start)."""
        return self._async.url

    def start(self, timeout: float = 10.0) -> None:
        """Bind and serve; returns once the socket is accepting."""
        if self._thread.ident is not None:
            raise ServiceError(
                "binary server already started; create a new instance "
                "to serve again"
            )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServiceError(
                f"binary server did not come up within {timeout:g}s"
            )
        if self._startup_error is not None:
            raise ServiceError(
                f"binary server failed to start: {self._startup_error}"
            ) from self._startup_error

    def stop(self, timeout: float = 10.0) -> None:
        """Cancel the serve loop and join the thread.  Idempotent."""
        loop, task = self._loop, self._main_task
        if loop is not None and task is not None and self._thread.is_alive():
            loop.call_soon_threadsafe(task.cancel)
        self._thread.join(timeout)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._main_task = asyncio.current_task()
        try:
            await self._async.start()
        except BaseException as exc:  # opaq: ignore[exception-broad-except] surfaced to start() on the caller's thread
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            await self._async.serve_forever()
        except asyncio.CancelledError:
            pass  # stop() requested
        finally:
            await self._async.close()

    def __enter__(self) -> "ThreadedBinaryServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
