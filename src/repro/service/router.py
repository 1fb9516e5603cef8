"""Shard routing: each ingest batch cut into contiguous per-shard views.

Any partition of the data across shards yields the *same* merged summary
guarantees (summaries are mergeable over disjoint data), so routing is
purely a parallelism decision, and the cheapest partition serves: each
batch is cut into near-equal contiguous slices, one per shard — no
per-element hash, no masks, views instead of copies.

The split is deterministic: the same batch always splits the same way,
so a replayed ingest schedule reproduces byte-identical epoch
snapshots.  Where a key lands depends on where its batch was cut; keyed
data, which needs per-key placement, goes through the multi-tenant
registry instead (:mod:`repro.service.tenancy`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.values import ingest_values
from repro.errors import ConfigError

__all__ = ["ShardRouter"]


class ShardRouter:
    """Splits a batch of keys into one sub-batch per shard."""

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ConfigError("num_shards must be at least 1")
        self.num_shards = num_shards

    def split(self, values: Sequence[float] | np.ndarray) -> list[np.ndarray]:
        """Partition ``values`` into ``num_shards`` contiguous views.

        Order is preserved (the concatenated views are the batch), and
        the view sizes differ by at most one.  The ingest policy
        (:mod:`repro.core.values`) refuses a bad batch up front.
        """
        arr = ingest_values(values, copy=False)
        if self.num_shards == 1:
            return [arr]
        return np.array_split(arr, self.num_shards)
