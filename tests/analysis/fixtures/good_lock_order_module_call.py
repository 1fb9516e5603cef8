"""OPQ751 precision: ``os.close`` is the operating system's ``close``.

The store closes its open descriptors under its own lock, and the
registry's ``close()`` takes the shard lock and calls into the store.
The only lock order is shard -> store.  ``os.close`` under the store
lock names an import of a module outside the project, so it resolves
to no project ``close()`` and invents no store -> shard edge.
"""

import os
import threading


class SegmentStore:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._fds: dict[int, int] = {}

    def append(self, seq: int, record: bytes) -> None:
        with self._lock:
            os.write(self._fds[seq], record)

    def close(self) -> None:
        with self._lock:
            for fd in self._fds.values():
                os.close(fd)
            self._fds.clear()


class Registry:
    def __init__(self, store: SegmentStore) -> None:
        self._shard_lock = threading.Lock()
        self._store = store

    def spill(self, record: bytes) -> None:
        with self._shard_lock:
            self._store.append(0, record)

    def close(self) -> None:
        with self._shard_lock:
            self._store.close()
