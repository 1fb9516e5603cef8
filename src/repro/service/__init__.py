"""repro.service — a sharded quantile-serving subsystem on OPAQ summaries.

The summary that one pass produces (:class:`~repro.core.OPAQSummary`) is
mergeable, compactable and serialisable — exactly the properties a
production serving system needs.  This package turns them into one:

- :class:`ShardRouter` — deterministic partitioning of each ingest
  batch into contiguous per-shard views;
- :class:`ShardWorker` — per-shard worker threads feeding
  :class:`~repro.core.IncrementalOPAQ` through **bounded** queues whose
  blocking is the backpressure signal;
- :class:`Snapshotter` — epoch-based merge of the shard summaries into
  one compacted, queryable summary, swapped in atomically (readers
  never block on writers) and persisted for warm restarts as one record
  of a segment log, the format the spill store keeps cold keys in;
- :class:`QuantileService` — the assembled engine: batched ``ingest`` /
  ``quantiles`` / ``stats`` / ``snapshot`` / ``close``;
- :mod:`repro.service.proto` + :mod:`repro.service.aio` — wire protocol
  v3, the one wire: compact binary frames served by an asyncio loop
  (:class:`ThreadedBinaryServer`, ``opaq serve``);
- :class:`ServiceClient` — the batched client of that wire, addressed
  as ``opaq://host:port``;
- :mod:`repro.service.tenancy` — the multi-tenant registry behind the
  keyed opcodes: millions of ``(tenant, metric)`` summaries under one
  memory budget, with LRU spill to disk, per-key error budgets and an
  aggregation tree for ``tenant="*"`` rollups
  (:class:`SummaryRegistry`, :class:`RegistryConfig`,
  :class:`KeyAnswer`).

Every query carries the paper's deterministic guarantee, recomputed
exactly for the merged run layout: the true φ-quantile of the served
epoch lies in ``[lower, upper]`` with at most ``2·guarantee`` elements
between the bounds.  See ``docs/service.md`` for the architecture and
the wire-level protocol reference.
"""

from repro.service.aio import AsyncServiceServer, ThreadedBinaryServer
from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.engine import QuantileService, QueryResult
from repro.service.proto import QuantileVector
from repro.service.router import ShardRouter
from repro.service.shard import ShardWorker
from repro.service.snapshot import EpochSnapshot, Snapshotter
from repro.service.tenancy import KeyAnswer, RegistryConfig, SummaryRegistry

__all__ = [
    "ServiceConfig",
    "QuantileService",
    "QueryResult",
    "QuantileVector",
    "ShardRouter",
    "ShardWorker",
    "EpochSnapshot",
    "Snapshotter",
    "ServiceClient",
    "AsyncServiceServer",
    "ThreadedBinaryServer",
    "RegistryConfig",
    "SummaryRegistry",
    "KeyAnswer",
]
