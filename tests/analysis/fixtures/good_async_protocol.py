"""Known-good: the shape of ``service/aio.py``'s frame reader.

The protocol callbacks only move bytes and wake the connection's task;
the task hands blocking work to the executor under a deadline.  A class
deriving from ``typing.Protocol`` is a type, not an asyncio protocol, and
its methods are not loop callbacks.
"""

import asyncio
import threading
import time
from typing import Protocol


class Store:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rows = 0

    def add(self, frame: bytes) -> None:
        with self._lock:
            self._rows += len(frame)


class Reader(asyncio.BufferedProtocol):
    def __init__(self, store: Store) -> None:
        self.store = store
        self._buffer = bytearray(4096)
        self._frames: list[bytes] = []
        self._wakeup: asyncio.Future | None = None

    def get_buffer(self, sizehint: int) -> memoryview:
        return memoryview(self._buffer)

    def buffer_updated(self, nbytes: int) -> None:
        self._frames.append(bytes(self._buffer[:nbytes]))
        waiter, self._wakeup = self._wakeup, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def connection_lost(self, exc: Exception | None) -> None:
        self._frames.clear()

    async def serve(self) -> None:
        loop = asyncio.get_running_loop()
        while self._frames:
            frame = self._frames.pop()
            await asyncio.wait_for(
                loop.run_in_executor(None, self.store.add, frame), timeout=5.0
            )


class Clock(Protocol):
    def data_received(self, data: bytes) -> None:
        time.sleep(0.01)
