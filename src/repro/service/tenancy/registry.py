"""The summary registry: millions of keyed summaries, one memory budget.

One :class:`SummaryRegistry` holds a summary per ``(tenant, metric)``
key.  Three ideas make millions of keys workable:

**Append-first ingest.**  The ingest hot path never touches summary
machinery per key: values append to the key's *pending* buffer (a list
of small float64 chunks) and folding happens lazily — at the fold
threshold, on query, on eviction, or at shutdown.  A fold sorts the
pending data and merges it into the key's state, so laziness costs no
accuracy, only deferral.

**Raw keys.**  A key's state starts raw
(:class:`~repro.portfolio.RawKeyState`): its values, sorted, which
answer exact bounds.  A fold is then one merge of two sorted arrays.
At the first fold at which the key's engine would compact, the state
becomes the engine's own (an ε-gated :class:`~repro.core.OPAQSummary`
for the default ``opaq``), built from the values, and the fold merges
into that instead.

**Slot accounting + LRU spill.**  Every key is billed in float64 slots
(pending elements + its state's footprint — one slot per element
while raw, ``3 × num_samples`` for a folded OPAQ summary — + fixed
overhead) against a per-shard slice of the global budget.  Crossing
the budget folds and spills the *least-recently-used* keys to the
:class:`~repro.service.tenancy.SpillStore` (byte-identical restore; a
raw key spills as its values); without a spill directory the ingest
fails with a retryable :class:`~repro.errors.ServiceError` **before**
mutating anything.

**Blind writes.**  Spilled keys keep accepting pending data without
being restored.  When the budget needs the memory a spilled key's
pending data holds, the data is sorted and appended to the key's chain
in the store as a *delta* record, raw elements rather than a summary,
and the key leaves memory again.  A query of a spilled key is
read-only: it reads the base and the deltas, adds any pending data
still resident without consuming it, and answers from a temporary
state; it appends, evicts and keeps nothing.  A key comes back into
memory only when its stored delta elements plus its pending ones reach
``max_key_samples`` (or its pending data reaches ``fold_threshold``):
the next fold then reads and tombstones the chain and keeps the key
resident.  Every replay — read-only or folding back — absorbs the
chain plus the pending data as one sorted chunk through the key
state's own ``absorb``, so both answer bit-identically and every
answer passes the engine's epsilon-gated compaction.

**Per-key error budgets.**  Compaction is the only accuracy-losing
operation, and it is gated per key: a fold compacts toward
``max_key_samples`` but *backs off* (retains more samples, doubling)
whenever the compacted guarantee ``g`` would break
``(g - 1) <= per_key_epsilon * count`` for that key's own count.  The
guarantee a key serves therefore reflects its own compaction history —
a hot key compacted fifty times and a cold key compacted never each
carry exactly the bound their history justifies, never a global
average.  Under memory pressure the budget is met by spilling more
keys, never by quietly loosening a key's epsilon.

Cross-key queries (``tenant="*"``) are answered by the
:class:`~repro.service.tenancy.AggregationTree`, which is fed each
ingest frame's sorted slice per shard and per metric as raw values; it
buffers a slice until the rollup's compaction point or a read, so a
frame merges nothing there.  Rollups never touch (or restore) cold
keys.

The summary behind each key is pluggable: any engine in the algorithm
portfolio (:data:`repro.portfolio.ENGINES`) can serve a tenant's keys,
selected by :class:`~repro.service.tenancy.RegistryConfig`; every key
starts raw whatever its engine, sketch engines absorb the same sorted
pending chunks into their own state once promoted, and every answer
records which engine served it.  Rollups always fold OPAQ deltas
regardless of per-key engines (mergeability across millions of keys is
exactly OPAQ's strength).
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.values import ingest_counts, ingest_values
from repro.errors import DataError, EstimationError, ServiceError
from repro.obs import current_tracer
from repro.portfolio import ENGINES, EngineSpec, RawKeyState
from repro.portfolio.base import target_ranks, validate_phis

# The canonical fold primitives live with the OPAQ portfolio engine;
# ``compact_within_budget`` is re-exported here.
from repro.portfolio.opaq import OpaqKeyState, compact_within_budget
from repro.portfolio.raw import exact_bounds
from repro.service.tenancy.config import RegistryConfig
from repro.service.tenancy.keys import KEY_SEP, WILDCARD, compose_key
from repro.service.tenancy.store import SpillRecord, SpillStore
from repro.service.tenancy.tree import AggregationTree

__all__ = ["SummaryRegistry", "KeyAnswer", "compact_within_budget"]


@dataclass(frozen=True)
class KeyAnswer:
    """One keyed quantile answer with its provenance and guarantee.

    ``source`` is ``"resident"``, ``"restored"`` (the key was spilled and
    this answer was read off disk), ``"rollup:metric"`` or ``"rollup:global"``
    (wildcard answers — their guarantee is the rollup's own, not the
    per-key epsilon).  ``epsilon_bound`` is the served
    ``(guarantee - 1) / count``, the number the per-key contract caps.

    ``engine`` names the portfolio engine that served the answer — it
    also fixes how ``guarantee`` reads: deterministic for ``opaq``/
    ``gk``, per-query-probabilistic for ``kll``, vacuous for ``as95``
    (see ``docs/guarantees.md``).
    """

    tenant: str
    metric: str
    source: str
    count: int
    guarantee: int
    epsilon_bound: float
    compactions: int
    phis: np.ndarray
    psi: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    max_below: np.ndarray
    max_above: np.ndarray
    engine: str = "opaq"


class _Block:
    """One frame's worth of a shard's elements, shared by its keys.

    The ingest hot path copies each frame's per-shard segment **once**
    and hands every key a ``(block, lo, hi)`` view instead of a private
    chunk.  The whole block is billed against the shard until the last
    referencing key folds (``live`` hits zero) — deliberately
    conservative: the accounting tracks memory actually retained, not
    memory attributable, so ``used <= budget`` means the bytes are
    really bounded.
    """

    __slots__ = ("data", "live")

    def __init__(self, data: np.ndarray) -> None:
        self.data = data
        self.live = 0


class _KeyEntry:
    __slots__ = ("spec", "state", "pending", "pending_count", "charged")

    def __init__(self, spec: EngineSpec) -> None:
        self.spec = spec
        # The key's fold state (None until first fold or restore): a
        # RawKeyState until the engine would compact, then the engine's
        # own — an OpaqKeyState wrapping an OPAQSummary with the
        # epsilon-gated fold, or the sketch itself.
        self.state = None
        self.pending: list[tuple[_Block, int, int]] = []
        self.pending_count = 0
        self.charged = 0  # slots currently billed against the shard

    @property
    def compactions(self) -> int:
        return 0 if self.state is None else int(self.state.compactions)


class _Shard:
    __slots__ = (
        "lock", "entries", "used", "elements", "folds", "spills",
        "restores", "evictions", "delta_appends", "disk_reads",
    )

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: OrderedDict[str, _KeyEntry] = OrderedDict()
        self.used = 0
        self.elements = 0
        self.folds = 0
        self.spills = 0
        # Keys folded back into memory from their spilled chain.
        self.restores = 0
        self.evictions = 0
        self.delta_appends = 0
        # Queries answered from a spilled chain without restoring it.
        self.disk_reads = 0


def _sorted_pending(pending: list[tuple[_Block, int, int]]) -> np.ndarray:
    """A key's pending slices as one new sorted array."""
    if len(pending) == 1:
        b, lo, hi = pending[0]
        data = b.data[lo:hi].copy()
    else:
        data = np.concatenate([b.data[lo:hi] for b, lo, hi in pending])
    data.sort()
    return data


def _fold_input(
    pending: list[tuple[_Block, int, int]], chain: np.ndarray | None
) -> np.ndarray | None:
    """The one sorted chunk a fold absorbs: a spilled key's chain
    elements plus its pending ones (``None`` when there are neither).

    The pending part is sorted before it joins the chain, exactly as it
    would be appended as a delta, so a chain answers bit-identically
    (``±0.0`` ties included) whether that data is still in memory or
    already on disk.
    """
    data = _sorted_pending(pending) if pending else None
    if chain is None or chain.size == 0:
        return data
    data = chain.copy() if data is None else np.concatenate([chain, data])
    data.sort()
    return data


class SummaryRegistry:
    """Keyed summaries under one global budget; thread-safe.

    Each key is served by a portfolio engine (:data:`repro.portfolio.
    ENGINES`), selected per tenant via :class:`RegistryConfig` —
    ``opaq`` by default.  Pending-buffer accounting, folding, spilling
    and the budget arithmetic are engine-uniform, and so is a key's
    raw state; only the promoted fold state differs (an epsilon-gated
    OPAQ summary, a KLL/GK sketch, or an AS95 interval histogram).
    """

    def __init__(self, config: RegistryConfig | None = None) -> None:
        self._cfg = config or RegistryConfig()
        self._shards = [_Shard() for _ in range(self._cfg.num_shards)]
        self._tree = AggregationTree(
            self._cfg.num_shards, self._cfg.rollup_max_samples
        )
        self._store: SpillStore | None = None
        if self._cfg.spill_dir is not None:
            self._store = SpillStore(
                self._cfg.spill_dir,
                loaders={
                    name: spec.from_bytes for name, spec in ENGINES.items()
                },
            )
            self._tree.load_from(self._store)
        self._closed = False

    @property
    def config(self) -> RegistryConfig:
        return self._cfg

    def _shard_of(self, key: str) -> int:
        # CRC-32 is process- and run-independent, so a replayed ingest
        # reproduces the same placement and the same shard rollups.
        return zlib.crc32(key.encode("utf-8")) % self._cfg.num_shards

    def _spec_for(self, key: str) -> EngineSpec:
        """The portfolio engine serving this key.

        A key keeps the engine it was created with: a spilled key's is
        the one its spill record names.  The per-tenant config picks the
        engine for new keys only, so re-pinning a tenant across a
        restart leaves its spilled keys readable.
        """
        record = None if self._store is None else self._store.record(key)
        if record is not None:
            return ENGINES[record.engine]
        tenant = key.partition(KEY_SEP)[0]
        return ENGINES[self._cfg.engine_for(tenant)]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingest(
        self, tenant: str, metric: str, values: Sequence[float] | np.ndarray
    ) -> int:
        """Ingest one key's batch; returns elements absorbed."""
        data = ingest_values(values, copy=False)
        result = self.ingest_frame(
            [compose_key(tenant, metric)],
            np.array([data.size], dtype=np.int64),
            data,
        )
        return int(result["elements"])

    def ingest_frame(
        self,
        keys: Sequence[str],
        counts: Sequence[int] | np.ndarray,
        values: Sequence[float] | np.ndarray,
    ) -> dict[str, int]:
        """Ingest one wire frame: ``counts[i]`` elements for ``keys[i]``.

        ``values`` is the concatenation of every key's elements in key
        order; the ingest policy (:mod:`repro.core.values`) takes them
        into the one copy the registry regroups.  Frames are not
        transactional: a malformed key fails the frame partway
        (already-appended keys keep their data), which the wire layer
        surfaces as a non-retryable data error.
        """
        if self._closed:
            raise ServiceError("registry is closed")
        counts = ingest_counts(counts)
        values = ingest_values(values)
        if counts.shape != (len(keys),):
            raise DataError(f"{len(keys)} keys but counts of shape {counts.shape}")
        if counts.size == 0:
            return {"elements": 0, "keys": 0}
        if int(counts.min()) < 0:
            raise DataError("per-key counts cannot be negative")
        total = int(counts.sum())
        if total != values.size:
            raise DataError(
                f"counts sum to {total} but frame carries {values.size} values"
            )
        num_shards = self._cfg.num_shards
        crc = zlib.crc32
        sep = KEY_SEP
        shard_ids = np.array(
            [crc(key.encode("utf-8")) % num_shards for key in keys],
            dtype=np.int64,
        )
        metrics = [key.partition(sep)[2] for key in keys]
        metric_names = list(dict.fromkeys(metrics))
        if len(metric_names) > 1:
            metric_index = {m: i for i, m in enumerate(metric_names)}
            metric_ids = np.array(
                [metric_index[m] for m in metrics], dtype=np.int64
            )

        # Group the frame's elements by shard in one stable argsort pass;
        # within a shard, elements stay in key order, so the per-key loop
        # just walks a cursor over its shard's contiguous slice.
        elem_shards = np.repeat(shard_ids, counts)
        order = np.argsort(elem_shards, kind="stable")
        grouped = values[order]
        edges = np.arange(num_shards + 1, dtype=np.int64)
        elem_bounds = np.searchsorted(elem_shards[order], edges)
        key_order = np.argsort(shard_ids, kind="stable")
        key_bounds = np.searchsorted(shard_ids[key_order], edges)
        counts_list = counts.tolist()

        touched = 0
        key_order_list = key_order.tolist()
        for s in range(num_shards):
            klo, khi = int(key_bounds[s]), int(key_bounds[s + 1])
            if klo == khi:
                continue
            elo, ehi = int(elem_bounds[s]), int(elem_bounds[s + 1])
            segment = grouped[elo:ehi]
            block = _Block(segment.copy())
            shard = self._shards[s]
            with shard.lock:
                touched += self._ingest_into_shard_locked(
                    shard, keys, counts_list, block,
                    key_order_list[klo:khi],
                )
                self._enforce_budget_locked(shard)
            if elo == ehi:
                continue
            # Rollup feed happens outside the shard lock (the tree has
            # its own locks and never calls back into a shard).  The
            # in-place sort is safe: the keys reference the block's
            # private copy, not ``grouped``.
            segment.sort()
            self._tree.absorb(s, segment)

        if len(metric_names) == 1:
            if total:
                self._tree.absorb_metric(metric_names[0], np.sort(values))
        else:
            elem_metrics = np.repeat(metric_ids, counts)
            morder = np.argsort(elem_metrics, kind="stable")
            mgrouped = values[morder]
            mbounds = np.searchsorted(
                elem_metrics[morder],
                np.arange(len(metric_names) + 1, dtype=np.int64),
            )
            for m, metric in enumerate(metric_names):
                chunk = mgrouped[int(mbounds[m]):int(mbounds[m + 1])]
                if chunk.size:
                    chunk.sort()
                    self._tree.absorb_metric(metric, chunk)

        tracer = current_tracer()
        tracer.count("service.tenancy.ingest.elements", total)
        tracer.count("service.tenancy.ingest.keys", touched)
        return {"elements": total, "keys": touched}

    def _ingest_into_shard_locked(
        self,
        shard: _Shard,
        keys: Sequence[str],
        counts: list[int],
        block: _Block,
        key_indices: list[int],
    ) -> int:
        if self._store is None:
            # Conservative pre-check (charges overhead for every key as
            # if new) so a budget failure is raised *before* any data is
            # appended — without a spill store the error is the only
            # enforcement mechanism, and it must leave state untouched.
            needed = block.data.size + self._cfg.per_key_overhead * len(
                key_indices
            )
            if shard.used + needed > self._cfg.shard_budget:
                raise ServiceError(
                    "registry memory budget exhausted and no spill_dir is "
                    "configured; retry later, raise memory_budget, or enable "
                    "spilling"
                )
        entries = shard.entries
        overhead = self._cfg.per_key_overhead
        fold_threshold = self._cfg.fold_threshold
        # The loop itself holds a reference so a mid-loop fold (threshold
        # hit) can never unbill the block while it is still being carved.
        shard.used += block.data.size
        block.live = 1
        touched = 0
        pos = 0
        for i in key_indices:
            size = counts[i]
            if size == 0:
                continue
            key = keys[i]
            entry = entries.get(key)
            if entry is None:
                self._validate_key(key)
                entry = _KeyEntry(self._spec_for(key))
                entries[key] = entry
                entry.charged = overhead
                shard.used += overhead
            else:
                entries.move_to_end(key)
            entry.pending.append((block, pos, pos + size))
            block.live += 1
            pos += size
            entry.pending_count += size
            shard.elements += size
            touched += 1
            if entry.pending_count >= fold_threshold:
                self._fold_entry_locked(shard, key, entry)
        self._release_block(shard, block)
        return touched

    @staticmethod
    def _release_block(shard: _Shard, block: _Block) -> None:
        block.live -= 1
        if block.live == 0:
            shard.used -= block.data.size

    @staticmethod
    def _validate_key(key: str) -> None:
        tenant, sep, metric = key.partition(KEY_SEP)
        if not sep or not tenant or not metric or KEY_SEP in metric:
            raise DataError(
                f"malformed registry key {key!r}: expected tenant\\x1fmetric"
            )
        if tenant == WILDCARD or metric == WILDCARD:
            raise DataError(
                "the wildcard component '*' selects rollups at query time "
                "and cannot be ingested into"
            )

    # ------------------------------------------------------------------
    # Fold / spill / budget
    # ------------------------------------------------------------------

    def _new_state(
        self, spec: EngineSpec, key: str, base: Any = None,
        record: SpillRecord | None = None,
    ) -> Any:
        """A key's state: raw and empty for a new key, else rebuilt from
        its spilled base (raw values or the engine's summary)."""
        cfg = self._cfg
        if record is not None and not record.raw:
            return spec.restored_key_state(
                base,
                record.compactions,
                epsilon=cfg.per_key_epsilon,
                max_samples=cfg.max_key_samples,
            )
        # Seed randomized engines from the key bytes: deterministic
        # across restarts and replays, decorrelated across keys.
        seed = zlib.crc32(key.encode("utf-8"))
        if record is None:
            return spec.raw_key_state(cfg.per_key_epsilon, cfg.max_key_samples, seed)
        return spec.raw_key_state(
            cfg.per_key_epsilon, cfg.max_key_samples, seed,
            base, record.absorbs, record.minimum, record.maximum,
        )

    def _fold_entry_locked(
        self, shard: _Shard, key: str, entry: _KeyEntry
    ) -> None:
        """Merge a key's pending data (and its spilled chain, which this
        brings back into memory) into its engine state, compacting under
        the key's own error budget."""
        chain = None
        if entry.state is None and self._store is not None and key in self._store:
            base, record, _ = self._store.restore(key)
            entry.state = self._new_state(entry.spec, key, base, record)
            footprint = entry.state.memory_footprint
            entry.charged += footprint
            shard.used += footprint
            shard.restores += 1
            chain = record.values
        data = _fold_input(entry.pending, chain)
        if data is None:
            return
        for b, _lo, _hi in entry.pending:
            self._release_block(shard, b)
        entry.pending = []
        entry.pending_count = 0
        if entry.state is None:
            entry.state = self._new_state(entry.spec, key)
        old_footprint = entry.state.memory_footprint
        # A raw key past its engine's compaction point returns its
        # promoted state; every other state returns itself.
        entry.state = entry.state.absorb(data)
        delta_slots = entry.state.memory_footprint - old_footprint
        entry.charged += delta_slots
        shard.used += delta_slots
        shard.folds += 1
        current_tracer().count(f"service.tenancy.fold.{entry.spec.name}")

    def _enforce_budget_locked(self, shard: _Shard) -> None:
        budget = self._cfg.shard_budget
        if shard.used <= budget:
            return
        # Fold before evicting: folding converts pending slices into
        # compacted summaries and releases the shared ingest blocks —
        # pending is billed at block granularity, so without this pass a
        # single wide frame would keep ``used`` pinned above budget
        # until *every* key referencing the block was evicted, spilling
        # the whole shard to disk when an in-memory fold sufficed.  A
        # spilled key's pending data goes to disk as a delta instead.
        for key, entry in list(shard.entries.items()):
            if shard.used <= budget:
                return
            if entry.pending_count and not self._append_delta_locked(
                shard, key, entry
            ):
                self._fold_entry_locked(shard, key, entry)
        while shard.used > budget and shard.entries:
            key, entry = next(iter(shard.entries.items()))
            self._evict_locked(shard, key, entry)
            shard.evictions += 1
            current_tracer().count("service.tenancy.evict")

    def _append_delta_locked(
        self, shard: _Shard, key: str, entry: _KeyEntry
    ) -> bool:
        """Append a spilled key's pending data to its chain as a delta
        and drop the key from memory; ``False`` (nothing done) when the
        key is not spilled or its chain is full.

        A chain is full when its stored delta elements plus this pending
        data reach ``max_key_samples``; the caller then folds the key
        back into memory, so a chain stays below ``8 × max_key_samples``
        bytes of raw values.  The delta lands before the key's shares of
        the pending blocks are released: a failed append raises the
        store's retryable ``ServiceError`` with the key's pending data
        still resident and billed.
        """
        if entry.state is not None or self._store is None:
            return False
        record = self._store.record(key)
        if (
            record is None
            or record.pending + entry.pending_count >= self._cfg.max_key_samples
        ):
            return False
        self._store.spill(key, _sorted_pending(entry.pending), delta=True)
        for b, _lo, _hi in entry.pending:
            self._release_block(shard, b)
        del shard.entries[key]
        shard.used -= entry.charged
        shard.delta_appends += 1
        return True

    def _evict_locked(self, shard: _Shard, key: str, entry: _KeyEntry) -> None:
        """Move one key out of memory: a spilled key's pending data as a
        delta, anything else folded and spilled whole."""
        if not (
            entry.pending_count and self._append_delta_locked(shard, key, entry)
        ):
            self._fold_entry_locked(shard, key, entry)
            self._spill_entry_locked(shard, key, entry)

    def _spill_entry_locked(
        self, shard: _Shard, key: str, entry: _KeyEntry
    ) -> None:
        """Write a folded key to the store, then drop it and its charge.

        The entry leaves the shard only once the spill has landed: a
        failed spill (the store raises a retryable ``ServiceError``)
        keeps the key resident with its state and its slot charge, so
        no acknowledged element is lost and ``used`` still matches the
        resident keys.
        """
        if entry.state is not None and self._store is not None:
            self._store.spill(
                key,
                entry.state,
                compactions=entry.compactions,
                epsilon=self._cfg.per_key_epsilon,
                engine=entry.spec.name,
            )
            shard.spills += 1
        del shard.entries[key]
        shard.used -= entry.charged

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def quantiles(
        self,
        tenant: str,
        metric: str,
        phis: Sequence[float] | np.ndarray,
    ) -> KeyAnswer:
        """Serve quantile bounds for one key or (via ``"*"``) a rollup:
        the one-pair case of :meth:`quantiles_many`."""
        return self.quantiles_many([(tenant, metric)], phis)[0]

    def quantiles_many(
        self,
        pairs: Sequence[tuple[str, str]],
        phis: Sequence[float] | np.ndarray,
    ) -> list[KeyAnswer]:
        """One :class:`KeyAnswer` per ``(tenant, metric)`` pair, in order.

        ``phis`` is checked once, before any key is touched, and each
        distinct count's target ranks are computed once per call.  Keys
        run in request order: a resident key's pending data is folded
        first and its shard brought back under budget, so the folds,
        evictions and store appends are those of one query per key.  A
        spilled key is read, not restored.  A raw key is answered
        straight from its sorted values; every other state through its
        own ``bounds_arrays``.
        """
        if self._closed:
            raise ServiceError("registry is closed")
        fractions = validate_phis(phis)
        # count -> its target ranks: shared, read-only, by the raw
        # answers of this call, as is their rank-error column of zeros.
        ranks: dict[int, np.ndarray] = {}
        zeros = np.zeros(fractions.size, dtype=np.int64)
        zeros.flags.writeable = False
        tracer = current_tracer()
        answers = []
        for tenant, metric in pairs:
            if tenant == WILDCARD:
                answers.append(self._rollup_answer(metric, fractions))
                continue
            if metric == WILDCARD:
                raise DataError(
                    "per-tenant rollups are not maintained (they would scale "
                    "with key count); wildcard queries support tenant='*' "
                    "with a concrete metric or metric='*' for the global "
                    "rollup"
                )
            source, engine, state = self._key_state(tenant, metric)
            tracer.count("service.tenancy.query")
            values = state.values if type(state) is RawKeyState else None
            if values is not None and values.size:
                psi = ranks.get(values.size)
                if psi is None:
                    psi = ranks[values.size] = target_ranks(fractions, values.size)
                    psi.flags.writeable = False
                lower, upper = exact_bounds(values, psi)
                # Exact: guarantee 1, epsilon bound 0.0, no compactions.
                answers.append(KeyAnswer(
                    tenant, metric, source, int(values.size), 1, 0.0, 0,
                    fractions, psi, lower, upper, zeros, zeros, engine,
                ))
            else:
                answers.append(self._answer(
                    tenant, metric, source, engine, state,
                    int(state.compactions), fractions,
                ))
        return answers

    def _key_state(self, tenant: str, metric: str) -> tuple[str, str, Any]:
        """``(source, engine, state)`` a concrete key answers from.

        A resident key is moved to the LRU end, its pending data folded
        and its shard brought back under budget.  A spilled key is read
        from its chain with any pending data copied in, into a temporary
        state that changes nothing.
        """
        key = compose_key(tenant, metric)
        shard = self._shards[self._shard_of(key)]
        with shard.lock:
            entry = shard.entries.get(key)
            if (
                (entry is None or entry.state is None)
                and self._store is not None
                and key in self._store
            ):
                base, record, _ = self._store.restore(key, keep=True)
                data = _fold_input(
                    [] if entry is None else entry.pending, record.values
                )
                shard.disk_reads += 1
            elif entry is None:
                raise EstimationError(
                    f"no data for tenant={tenant!r} metric={metric!r}"
                )
            else:
                shard.entries.move_to_end(key)
                if entry.pending_count:
                    self._fold_entry_locked(shard, key, entry)
                if shard.used > self._cfg.shard_budget:
                    self._enforce_budget_locked(shard)
                if entry.state is None:
                    raise EstimationError(
                        f"no data for tenant={tenant!r} metric={metric!r}"
                    )
                return "resident", entry.spec.name, entry.state
        spec = ENGINES[record.engine]
        state = self._new_state(spec, key, base, record)
        if data is not None:
            state = state.absorb(data)
        return "restored", spec.name, state

    def _rollup_answer(self, metric: str, fractions: np.ndarray) -> KeyAnswer:
        if metric == WILDCARD:
            summary = self._tree.global_summary()
            source = "rollup:global"
        else:
            summary = self._tree.metric_summary(metric)
            source = "rollup:metric"
        if summary is None:
            raise EstimationError(
                f"no rollup data for metric={metric!r}"
            )
        current_tracer().count("service.tenancy.query.rollup")
        # Rollups are always OPAQ summaries (the tree folds exact deltas
        # regardless of per-key engines); wrap one so the answer path is
        # engine-uniform.  Epsilon 1.0: the rollup's guarantee is its
        # own, not a per-key contract, and this state never absorbs.
        state = OpaqKeyState(
            epsilon=1.0,
            max_samples=summary.num_samples,
            summary=summary,
        )
        return self._answer(WILDCARD, metric, source, "opaq", state, -1, fractions)

    @staticmethod
    def _answer(
        tenant: str,
        metric: str,
        source: str,
        engine: str,
        state: Any,
        compactions: int,
        fractions: np.ndarray,
    ) -> KeyAnswer:
        psi, lower, upper, max_below, max_above, fractions = (
            state.bounds_arrays(fractions)
        )
        guarantee = int(state.guaranteed_rank_error())
        return KeyAnswer(
            tenant=tenant,
            metric=metric,
            source=source,
            count=state.count,
            guarantee=guarantee,
            epsilon_bound=(guarantee - 1) / state.count,
            compactions=compactions,
            phis=fractions,
            psi=psi,
            lower=lower,
            upper=upper,
            max_below=max_below,
            max_above=max_above,
            engine=engine,
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Registry-wide gauges and counters (one consistent-ish pass).

        ``restores`` counts keys folded back into memory from disk,
        ``disk_reads`` queries answered from a spilled chain without
        restoring it, and ``delta_appends`` pending data sent to a
        spilled key's chain.
        """
        resident = pending = used = 0
        elements = folds = spills = restores = evictions = 0
        delta_appends = disk_reads = 0
        engines: dict[str, int] = {}
        for shard in self._shards:
            with shard.lock:
                resident += len(shard.entries)
                used += shard.used
                for e in shard.entries.values():
                    pending += e.pending_count
                    name = e.spec.name
                    engines[name] = engines.get(name, 0) + 1
                elements += shard.elements
                folds += shard.folds
                spills += shard.spills
                restores += shard.restores
                evictions += shard.evictions
                delta_appends += shard.delta_appends
                disk_reads += shard.disk_reads
        return {
            "resident_keys": resident,
            "resident_keys_by_engine": engines,
            "default_engine": self._cfg.engine,
            "spilled_keys": 0 if self._store is None else len(self._store),
            "spill_bytes_live": (
                0 if self._store is None else self._store.bytes_live
            ),
            "spill_bytes_on_disk": (
                0 if self._store is None else self._store.bytes_on_disk
            ),
            "pending_elements": pending,
            "used_slots": used,
            "budget_slots": self._cfg.memory_budget,
            "num_shards": self._cfg.num_shards,
            "per_key_epsilon": self._cfg.per_key_epsilon,
            "ingested_elements": elements,
            "folds": folds,
            "spills": spills,
            "restores": restores,
            "evictions": evictions,
            "delta_appends": delta_appends,
            "disk_reads": disk_reads,
            "rollups": self._tree.stats(),
        }

    def spill_all(self) -> int:
        """Move every resident key to disk; returns keys written.

        A spilled key's pending data becomes a delta (or, with a full
        chain, the key is folded back and spilled whole); every other
        key is folded and spilled.  The persistence half of a warm
        restart: afterwards every key and rollup lives in the spill
        directory and a fresh registry over the same directory serves
        byte-identical answers.
        """
        if self._store is None:
            raise ServiceError("spill_all requires a configured spill_dir")
        spilled = 0
        for shard in self._shards:
            with shard.lock:
                while shard.entries:
                    key, entry = next(iter(shard.entries.items()))
                    self._evict_locked(shard, key, entry)
                    spilled += 1
        self._tree.save_to(self._store)
        return spilled

    def close(self) -> None:
        """Persist (when spilling is configured) and shut down.  Idempotent."""
        if self._closed:
            return
        if self._store is not None:
            self.spill_all()
            self._store.close()
        self._closed = True

    def __enter__(self) -> "SummaryRegistry":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
