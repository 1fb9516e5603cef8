"""Pluggable execution backends: the same SPMD program on real cores.

The simulated machine answers "what would the paper's SP-2 do?"; the
backends answer "what do this machine's cores do?".  Both execute the same
program shape — per-rank sample phase, gather, global merge — so results
are cross-checked for bit-identical sample lists and bounds (see
``docs/parallel.md`` and the conformance suite in
``tests/parallel/test_backends.py``).

========== ============ ==========================================
name       execution    use it for
========== ============ ==========================================
serial     this thread  the reference semantics; debugging
thread     ``p`` threads concurrency where numpy releases the GIL
process    ``p`` processes real multi-core runs, shared-memory I/O
========== ============ ==========================================

Resolve by name with :func:`get_backend`; configure via
``ParallelOPAQ(..., backend="process")`` or ``OPAQ.quantiles(...,
backend=...)``.
"""

from repro.parallel.backends.base import (
    Comm,
    ExecutionBackend,
    WorkerFn,
    backend_names,
    get_backend,
    validate_backend,
)
from repro.parallel.backends.process import ProcessBackend
from repro.parallel.backends.serial import SerialBackend
from repro.parallel.backends.spmd import WorkerReport, popaq_worker
from repro.parallel.backends.threads import ThreadBackend

#: The registered real-backend names (``"simulated"`` is not one of them:
#: it names the cost-model execution built into ParallelOPAQ).
BACKEND_NAMES = backend_names()

__all__ = [
    "Comm",
    "ExecutionBackend",
    "WorkerFn",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "WorkerReport",
    "popaq_worker",
    "get_backend",
    "validate_backend",
    "backend_names",
    "BACKEND_NAMES",
]
