"""The thread backend: one OS thread per rank, queue mailboxes.

Python threads share one interpreter, so pure-Python sections serialise on
the GIL — but the hot paths this repo cares about (``numpy.partition``,
stable argsort, array copies) release it, so the thread backend sees real
concurrency in the sample phase's selection and merge.
It is also the cheapest way to exercise the concurrent code paths (real
barriers, real mailbox blocking) without process start-up cost.

Failure handling: a worker that raises aborts the shared barrier (so peers
blocked in ``barrier()`` fail fast instead of timing out), every blocking
primitive carries a timeout, and all failures surface as
:class:`~repro.errors.ParallelError` — never a hung join.
"""

from __future__ import annotations

import queue
import threading
import traceback
from typing import Any, Sequence

from repro.errors import ParallelError
from repro.parallel.backends.base import (
    Comm,
    ExecutionBackend,
    WorkerFn,
    register_backend,
)

__all__ = ["ThreadBackend"]


class _ThreadComm(Comm):
    """Per-pair ``queue.Queue`` mailboxes plus a shared barrier."""

    def __init__(
        self,
        rank: int,
        size: int,
        mailboxes: dict[tuple[int, int], "queue.Queue[Any]"],
        barrier: threading.Barrier,
        timeout: float,
    ) -> None:
        super().__init__(rank, size)
        self._mailboxes = mailboxes
        self._barrier = barrier
        self._timeout = timeout

    def send(self, dst: int, payload: Any) -> None:
        self._check_peer(dst, "send to")
        self._mailboxes[(self.rank, dst)].put(payload)

    def recv(self, src: int) -> Any:
        self._check_peer(src, "receive from")
        try:
            return self._mailboxes[(src, self.rank)].get(timeout=self._timeout)
        except queue.Empty:
            raise ParallelError(
                f"rank {self.rank} timed out after {self._timeout}s waiting "
                f"for a message from rank {src}"
            ) from None

    def barrier(self) -> None:
        try:
            self._barrier.wait(timeout=self._timeout)
        except threading.BrokenBarrierError:
            raise ParallelError(
                f"barrier broken while rank {self.rank} was waiting: a peer "
                "worker failed or timed out"
            ) from None


@register_backend
class ThreadBackend(ExecutionBackend):
    """One thread per rank (see module docstring).

    Parameters
    ----------
    timeout:
        Seconds any single blocking step (receive, barrier, join) may
        take before the execution is declared failed.  Generous by
        default; it exists to convert scheduling bugs into
        :class:`~repro.errors.ParallelError` instead of hangs.
    """

    name = "thread"

    def __init__(self, timeout: float = 120.0) -> None:
        self.timeout = timeout

    def run(self, fn: WorkerFn, args: Sequence[tuple[Any, ...]]) -> list[Any]:
        if not args:
            raise ParallelError("an SPMD program needs at least one worker")
        p = len(args)
        mailboxes: dict[tuple[int, int], "queue.Queue[Any]"] = {
            (src, dst): queue.Queue()
            for src in range(p)
            for dst in range(p)
            if src != dst
        }
        barrier = threading.Barrier(p)
        outcomes: list[tuple[Any, ...] | None] = [None] * p

        def _target(rank: int) -> None:
            comm = _ThreadComm(rank, p, mailboxes, barrier, self.timeout)
            try:
                outcomes[rank] = ("ok", fn(comm, *args[rank]))
            except BaseException as exc:  # noqa: B036  # opaq: ignore[exception-broad-except] isolation boundary: every worker failure must become a typed outcome
                outcomes[rank] = (
                    "error",
                    type(exc).__name__,
                    str(exc),
                    traceback.format_exc(),
                )
                # Fail peers fast: anyone blocked in barrier() unblocks now.
                barrier.abort()

        threads = [
            threading.Thread(
                target=_target, args=(rank,), name=f"opaq-spmd-{rank}"
            )
            for rank in range(p)
        ]
        for thread in threads:
            thread.start()
        stuck: list[int] = []
        for rank, thread in enumerate(threads):
            thread.join(timeout=self.timeout)
            if thread.is_alive():
                stuck.append(rank)
                barrier.abort()
        if stuck:
            # The abort above unblocks barrier waiters; give them a moment
            # to record their outcome, then report the hang.
            for rank in stuck:
                threads[rank].join(timeout=1.0)
            still = [r for r in stuck if threads[r].is_alive()]
            if still:
                raise ParallelError(
                    f"worker threads {still} did not finish within "
                    f"{self.timeout}s"
                )
        self._raise_on_error(outcomes)
        return [outcome[1] for outcome in outcomes]  # type: ignore[index]

    @staticmethod
    def _raise_on_error(outcomes: list[tuple[Any, ...] | None]) -> None:
        errors = [
            (rank, o) for rank, o in enumerate(outcomes)
            if o is None or o[0] == "error"
        ]
        if not errors:
            return
        # Prefer the root cause: a worker's own exception, not the
        # knock-on ParallelError timeouts/broken barriers of its peers.
        primary = next(
            (
                (rank, o)
                for rank, o in errors
                if o is not None and o[1] != "ParallelError"
            ),
            errors[0],
        )
        rank, outcome = primary
        if outcome is None:
            raise ParallelError(f"worker rank {rank} produced no result")
        _, etype, message, tb = outcome
        raise ParallelError(
            f"worker rank {rank} raised {etype}: {message}\n{tb}"
        )
