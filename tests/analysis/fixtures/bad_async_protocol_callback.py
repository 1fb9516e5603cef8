"""Known-bad: a protocol callback blocks the event loop.

asyncio calls a ``BufferedProtocol``'s ``buffer_updated`` inline, on the
loop, for every read — so a sleep or a file write there stalls every
connection exactly as it would inside a coroutine.  The same reader also
hands frames to a worker thread that writes the callback's state back
without a lock (the loop reads a torn queue).
"""

import asyncio
import threading
import time
from asyncio import BufferedProtocol


class Reader(BufferedProtocol):
    def __init__(self, log_path: str) -> None:
        self._buffer = bytearray(4096)
        self._frames = []
        self._log_path = log_path
        self._worker = threading.Thread(target=self._drain)

    def get_buffer(self, sizehint: int) -> memoryview:
        return memoryview(self._buffer)

    def buffer_updated(self, nbytes: int) -> None:
        # BAD: parks the loop for every read.
        time.sleep(0.001)
        # BAD: synchronous file I/O on the loop.
        with open(self._log_path, "ab") as log:
            log.write(self._buffer[:nbytes])
        # BAD (OPQ774): loop-role write, raced by the worker below.
        self._frames = self._frames + [bytes(self._buffer[:nbytes])]

    def _drain(self) -> None:
        while True:
            # Thread-role write to the same field, no common lock.
            self._frames = []


class Echo(asyncio.Protocol):
    def data_received(self, data: bytes) -> None:
        # BAD: a Protocol's callbacks run on the loop too.
        time.sleep(0.01)
