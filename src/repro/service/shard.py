"""Per-shard ingest workers.

Each shard is one worker thread that owns one
:class:`~repro.core.IncrementalOPAQ` — the *only* writer of that
estimator, ever, which is what makes the whole subsystem lock-free on the
ingest hot path.  Producers talk to a shard through a **bounded** queue
(lint rule OPQ601): when a shard falls behind, the queue fills and
producers block — backpressure, not unbounded buffering.

The worker coalesces queued batches into a buffer and folds the buffer
into the shard summary once ``flush_threshold`` elements are pending, so
many small ingest calls still produce full-size runs (the paper's
guarantee is per *run*, so fuller runs mean tighter bounds per retained
sample).  A ``flush`` control message forces the fold and acts as a
barrier: when it completes, everything submitted before it is reflected
in :attr:`ShardWorker.summary` — the consistency point the epoch
snapshotter builds on.

A fold samples the buffer into one run and hands it to the estimator,
whose :class:`~repro.core.incremental.LazySummary` lets it wait until
the compaction point (``max_shard_samples``) or a barrier, where the
worker merges the waiting runs once, on its own thread.  After each
fold and each barrier the worker publishes the estimator's parts — the
summary, then the waiting runs — as one immutable tuple, with a single
reference assignment.  Summaries are frozen, so readers
:func:`~repro.core.incremental.fold` the current tuple themselves;
there is nothing to lock, and no reader changes the worker's estimator.
"""

from __future__ import annotations

import queue
import threading
from typing import Union

import numpy as np

from repro.core.incremental import IncrementalOPAQ, Part, fold
from repro.core.summary import OPAQSummary
from repro.errors import ServiceError
from repro.obs import current_tracer
from repro.service.config import ServiceConfig

__all__ = ["ShardWorker"]


class _Control:
    """A queue sentinel carrying a completion event."""

    __slots__ = ("kind", "done")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.done = threading.Event()


_QueueItem = Union[np.ndarray, _Control]


class ShardWorker:
    """One ingest shard: bounded queue -> buffer -> IncrementalOPAQ."""

    def __init__(self, shard_id: int, config: ServiceConfig) -> None:
        self.shard_id = shard_id
        self.config = config
        # Bounded by construction: ServiceConfig rejects capacity < 1.
        self._queue: "queue.Queue[_QueueItem]" = queue.Queue(
            maxsize=config.queue_capacity
        )
        self._estimator = IncrementalOPAQ(
            config.opaq_config(), max_samples=config.max_shard_samples
        )
        self._buffer: list[np.ndarray] = []
        self._buffered = 0
        self._latest: tuple[Part, ...] = ()
        self._error: BaseException | None = None
        self._ingested = 0
        self._folds = 0
        self._thread = threading.Thread(
            target=self._loop, name=f"opaq-shard-{shard_id}", daemon=True
        )
        self._started = False

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def start(self) -> None:
        self._thread.start()
        # Written once by the constructing thread before the worker is
        # shared; a monotonic bool latch thereafter.
        self._started = True

    def submit(self, batch: np.ndarray, timeout: float | None = None) -> None:
        """Enqueue one routed sub-batch; blocks when the queue is full.

        Blocking *is* the backpressure mechanism; once ``timeout`` (default
        the configured ingest timeout) elapses with no queue space, the
        submission fails with :class:`~repro.errors.ServiceError` so the
        caller can shed load instead of hanging forever.
        """
        self._check_alive()
        if batch.size == 0:
            return
        try:
            self._queue.put(
                batch,
                timeout=self.config.ingest_timeout if timeout is None else timeout,
            )
        except queue.Full:
            current_tracer().count(
                "service.ingest.rejected", batch.size, shard=self.shard_id
            )
            raise ServiceError(
                f"shard {self.shard_id} ingest queue full for "
                f"{self.config.ingest_timeout:g}s ({self.config.queue_capacity} "
                "batches pending); backpressure timeout — retry later or add "
                "shards"
            ) from None

    def flush(self, timeout: float = 60.0) -> None:
        """Barrier: fold everything submitted before this call."""
        self.finish_flush(self.begin_flush(timeout), timeout)

    def begin_flush(self, timeout: float = 60.0) -> _Control:
        """Enqueue a flush barrier without waiting for it.

        Returns the control message; pass it to :meth:`finish_flush` to
        wait.  Splitting the barrier lets the snapshotter issue one flush
        per shard *concurrently* — the tail folds of N shards overlap
        instead of serialising, which is what keeps epoch latency flat as
        shards rise.
        """
        self._check_alive()
        message = _Control("flush")
        self._enqueue_control(message, timeout)
        return message

    def finish_flush(self, message: _Control, timeout: float = 60.0) -> None:
        """Wait for a barrier from :meth:`begin_flush` to complete."""
        self._await_control(message, timeout)

    def stop(self, timeout: float = 60.0) -> None:
        """Flush, then terminate the worker thread."""
        if not self._started or not self._thread.is_alive():
            return
        message = _Control("stop")
        self._enqueue_control(message, timeout)
        self._await_control(message, timeout)
        self._thread.join(timeout)

    def _enqueue_control(self, message: _Control, timeout: float) -> None:
        try:
            self._queue.put(message, timeout=timeout)
        except queue.Full:
            raise ServiceError(
                f"shard {self.shard_id} queue full; cannot deliver "
                f"{message.kind}"
            ) from None

    def _await_control(self, message: _Control, timeout: float) -> None:
        if not message.done.wait(timeout):
            self._check_alive()
            raise ServiceError(
                f"shard {self.shard_id} did not acknowledge {message.kind} "
                f"within {timeout:g}s"
            )
        self._check_alive()

    def _check_alive(self) -> None:
        if self._error is not None:
            raise ServiceError(
                f"shard {self.shard_id} worker died: {self._error}"
            ) from self._error

    # ------------------------------------------------------------------
    # Reader side (any thread)
    # ------------------------------------------------------------------

    @property
    def parts(self) -> tuple[Part, ...]:
        """The shard's published state: its summary, then the runs folded
        since its last merge, in arrival order (empty before data)."""
        return self._latest

    @property
    def summary(self) -> OPAQSummary | None:
        """The shard's current summary (None before data): its published
        parts, merged."""
        return fold(self._latest)

    @property
    def ingested(self) -> int:
        """Elements folded into the summary so far."""
        return self._ingested

    @property
    def pending(self) -> int:
        """Batches still waiting in the ingest queue."""
        return self._queue.qsize()

    @property
    def folds(self) -> int:
        """Times the buffer has been folded into the summary."""
        return self._folds

    # ------------------------------------------------------------------
    # Worker thread
    # ------------------------------------------------------------------

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            try:
                if isinstance(item, _Control):
                    self._fold()
                    self._settle()
                    item.done.set()
                    if item.kind == "stop":
                        return
                    continue
                self._buffer.append(item)
                self._buffered += item.size
                if self._buffered >= self.config.effective_flush_threshold:
                    self._fold()
            except BaseException as exc:  # noqa: B036  # opaq: ignore[exception-broad-except] worker must not die silently
                self._error = exc
                if isinstance(item, _Control):
                    item.done.set()
                return
            finally:
                self._queue.task_done()

    def _fold(self) -> None:
        """Fold the buffered elements into the shard summary."""
        if not self._buffered:
            return
        batch = (
            self._buffer[0]
            if len(self._buffer) == 1
            else np.concatenate(self._buffer)
        )
        self._buffer.clear()
        self._buffered = 0
        tracer = current_tracer()
        with tracer.span("service.shard.fold", shard=self.shard_id, elements=batch.size):
            self._estimator.update(batch)
            self._latest = self._estimator.parts
        self._ingested += int(batch.size)
        self._folds += 1
        tracer.count("service.shard.folded", batch.size, shard=self.shard_id)

    def _settle(self) -> None:
        """Merge the pending runs into the shard summary (no compaction).

        Runs at every barrier: the epoch that follows then merges one
        summary per shard, and no run waits past the next epoch, so the
        compaction point merges at most one epoch's runs.
        """
        if len(self._latest) > 1:
            self._latest = (self._estimator.summary,)
