"""Known-bad: shared fields written from the executor-thread role unguarded.

``Snapshotter.run_epoch`` teaches the analyzer that ``self._lock`` guards
``_snapshot``; ``adopt`` then writes the same field without it, and the
role inference proves ``adopt`` runs on the server's executor threads
(``Server._handle`` offloads ``Service.ingest`` through ``_blocking`` to
``run_in_executor``, and ``ingest`` calls ``adopt``).  The counter
``Service._accepted`` is a read-modify-write from that concurrent role
with no lock at all.
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
        self._snapshot = summary  # unguarded write to a guarded field

    @property
    def current(self):
        return self._snapshot  # lock-free read: fine by design


class Service:
    def __init__(self):
        self._snapshotter = Snapshotter()
        self._accepted = 0

    def ingest(self, batch):
        self._accepted += len(batch)  # unlocked RMW from an executor thread
        self._snapshotter.adopt(batch)

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
