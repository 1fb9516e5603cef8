"""OPQ751 still reports a cycle that runs through a project ``close()``.

Only a call through an import of a module outside the project resolves
to nothing.  ``peer.close()`` on an untyped receiver still resolves to
every project ``close()``, and one of them takes the shard lock while
the store lock is held: a real store -> shard edge against the
registry's shard -> store.
"""

import threading


class SegmentStore:
    def __init__(self) -> None:
        self._lock = threading.Lock()

    def append(self, record: bytes) -> None:
        with self._lock:
            pass

    def close_with(self, peer) -> None:
        with self._lock:
            peer.close()


class Registry:
    def __init__(self, store: SegmentStore) -> None:
        self._shard_lock = threading.Lock()
        self._store = store

    def spill(self, record: bytes) -> None:
        with self._shard_lock:
            self._store.append(record)

    def close(self) -> None:
        with self._shard_lock:
            pass
