"""Known-good: the same service shape with the documented lock discipline.

Every write to the snapshotter's published reference happens under the
swap lock, the service counters take a state lock around their
read-modify-writes, and reads stay lock-free — the invariants the thread
family must *derive*, not just pattern-match, while ``Service.ingest``
runs on the server's executor threads.
"""

import asyncio
import threading


class Snapshotter:
    def __init__(self):
        self._lock = threading.Lock()
        self._snapshot = None
        self._epoch = 0

    def run_epoch(self, summary):
        with self._lock:
            self._snapshot = summary
            self._epoch += 1

    def adopt(self, summary):
        with self._lock:
            self._snapshot = summary

    @property
    def current(self):
        return self._snapshot  # lock-free read: fine by design


class Service:
    def __init__(self):
        self._snapshotter = Snapshotter()
        self._state_lock = threading.Lock()
        self._accepted = 0
        self._pending = []

    def ingest(self, batch):
        with self._state_lock:
            self._accepted += len(batch)
            self._pending.append(batch)
        self._snapshotter.adopt(batch)

    def drain(self):
        with self._state_lock:
            drained = list(self._pending)
            self._pending = []
        return drained

    def snapshot(self, summary):
        self._snapshotter.run_epoch(summary)


class Server:
    def __init__(self, service: Service):
        self.service = service

    async def _handle(self, batch):
        return await self._blocking(lambda: self.service.ingest(batch))

    async def _blocking(self, fn):
        loop = asyncio.get_running_loop()
        return await asyncio.wait_for(loop.run_in_executor(None, fn), 10.0)
