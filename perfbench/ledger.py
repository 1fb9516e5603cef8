"""The per-layer ledger of a traced run.

A :class:`Ledger` replaces a layer's public functions, at the binding
their caller uses, with timed wrappers that add up seconds, calls and
(where a size is cheap to read) bytes.  Nothing inside ``src/`` changes:
the wrappers live here and are installed by the process that runs the
layer, the scan child or ``serve_traced.py``.

Times are inclusive: a layer's seconds contain the layers it calls
(``core.incremental_update`` contains ``selection.sample``,
``core.kway_merge`` and ``core.summary_merge``; ``registry.*`` contains
``store.*``, ``tree.absorb`` and ``engine.absorb.*``).  Worker threads
add to the same totals, so a layer running on two shard threads at once
can account more seconds than the wall clock.  The scan child resets
its ledger after the warm-up pass; a traced server's ledger covers its
whole session, warm-up steps included.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable


class Ledger:
    """Totals of seconds, calls and units per layer name; thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.units: dict[str, int] = {}

    def reset(self) -> None:
        with self._lock:
            self.seconds.clear()
            self.calls.clear()
            self.units.clear()

    def add(self, name: str, seconds: float, units: int = 0) -> None:
        with self._lock:
            self.seconds[name] = self.seconds.get(name, 0.0) + seconds
            self.calls[name] = self.calls.get(name, 0) + 1
            if units:
                self.units[name] = self.units.get(name, 0) + units

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        units: Callable[[tuple, Any], int] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` under ``name``.

        ``units(args, result)`` sizes a call (bytes read, payload bytes).
        """
        raw = inspect.getattr_static(owner, attr)
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        perf = time.perf_counter
        add = self.add

        @functools.wraps(func)
        def timed(*args: Any, **kwargs: Any) -> Any:
            start = perf()
            result = func(*args, **kwargs)
            add(name, perf() - start, units(args, result) if units else 0)
            return result

        setattr(owner, attr, staticmethod(timed) if isinstance(raw, staticmethod) else timed)

    def to_dict(self) -> dict[str, dict]:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "units": dict(self.units),
            }

    def dump(self, path: Path) -> None:
        """Write the totals atomically (readers never see a torn file)."""
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self.to_dict()))
        os.replace(tmp, path)


def _result_bytes(args: tuple, result: Any) -> int:
    return len(result)


def _payload_bytes(args: tuple, result: Any) -> int:
    return len(args[0])


def install_core(ledger: Ledger) -> None:
    """Selection, merge and bound computation, wherever OPAQ runs."""
    from repro.core import sample_phase
    from repro.core.summary import OPAQSummary

    ledger.wrap(sample_phase, "sample_run", "selection.sample")
    ledger.wrap(sample_phase, "kway_merge", "core.kway_merge")
    ledger.wrap(OPAQSummary, "merge", "core.summary_merge")
    ledger.wrap(OPAQSummary, "compact_to", "core.summary_merge")


def install_scan(ledger: Ledger) -> None:
    """The paper's pipeline: storage reads, the sample phase, bounds."""
    from repro.core.estimator import OPAQ
    from repro.storage.datafile import DiskDataset

    install_core(ledger)
    ledger.wrap(DiskDataset, "read_range", "storage.read", units=lambda a, r: int(r.nbytes))
    ledger.wrap(OPAQ, "bounds", "core.bounds")


#: Server-side protocol functions, as ``repro.service.aio`` calls them
#: (through the ``proto`` module attribute).
_DECODERS = (
    "decode_ingest_request",
    "decode_quantiles_request",
    "decode_ingest_keyed_request",
    "decode_quantiles_keyed_request",
)
_ENCODERS = (
    "encode_ingest_reply",
    "encode_quantiles_reply",
    "encode_ingest_keyed_reply",
    "encode_quantiles_keyed_reply",
    "encode_snapshot_reply",
)
#: The service calls one wire request turns into; the rest of a
#: request's round trip is wire overhead.
_HANDLERS = ("ingest", "ingest_keyed", "quantiles_keyed", "snapshot", "query_arrays")


def install_server(ledger: Ledger) -> None:
    """Every server layer: protocol, router, shards, snapshots, tenancy."""
    from repro.core.incremental import IncrementalOPAQ
    from repro.portfolio import opaq as portfolio_opaq
    from repro.portfolio.gk import GKSummary
    from repro.portfolio.kll import KLLSummary
    from repro.service import engine, proto
    from repro.service.router import ShardRouter
    from repro.service.shard import ShardWorker
    from repro.service.snapshot import Snapshotter
    from repro.service.tenancy.registry import SummaryRegistry
    from repro.service.tenancy.store import SpillStore
    from repro.service.tenancy.tree import AggregationTree

    install_core(ledger)
    ledger.wrap(engine, "bounds_arrays", "core.bounds")
    ledger.wrap(portfolio_opaq, "bounds_arrays", "core.bounds")
    ledger.wrap(IncrementalOPAQ, "update", "core.incremental_update")
    for fn in _DECODERS:
        ledger.wrap(proto, fn, "proto.decode", units=_payload_bytes)
    for fn in _ENCODERS:
        ledger.wrap(proto, fn, "proto.encode", units=_result_bytes)
    ledger.wrap(ShardRouter, "split", "router.split")
    ledger.wrap(ShardWorker, "submit", "shard.submit_wait")
    ledger.wrap(Snapshotter, "run_epoch", "snapshot.epoch")
    for method in _HANDLERS:
        ledger.wrap(engine.QuantileService, method, "handler")
    ledger.wrap(engine.QuantileService, "query_arrays", "handler.query_arrays")
    ledger.wrap(SummaryRegistry, "ingest_frame", "registry.ingest_frame")
    ledger.wrap(SummaryRegistry, "quantiles_many", "registry.quantiles")
    ledger.wrap(SpillStore, "spill", "store.spill")
    ledger.wrap(SpillStore, "restore", "store.restore")
    ledger.wrap(AggregationTree, "absorb", "tree.absorb")
    ledger.wrap(AggregationTree, "absorb_metric", "tree.absorb")
    ledger.wrap(portfolio_opaq.OpaqKeyState, "absorb", "engine.absorb.opaq")
    ledger.wrap(KLLSummary, "absorb", "engine.absorb.kll")
    ledger.wrap(GKSummary, "absorb", "engine.absorb.gk")
