"""The summary registry: millions of keyed summaries, one memory budget.

One :class:`SummaryRegistry` holds a summary per ``(tenant, metric)``
key.  Three ideas make millions of keys workable:

**Append-first ingest.**  The ingest hot path never touches OPAQ
machinery per key: values append to the key's *pending* buffer (a list
of small float64 chunks) and folding into an actual
:class:`~repro.core.OPAQSummary` happens lazily — at the fold
threshold, on query, on eviction, or at shutdown.  A fold sorts the
pending data into an **exact** delta summary (unit gaps, rank error 0)
and merges it in, so laziness costs no accuracy, only deferral.

**Slot accounting + LRU spill.**  Every key is billed in float64 slots
(pending elements + ``3 × num_samples`` folded + fixed overhead)
against a per-shard slice of the global budget.  Crossing the budget
folds and spills the *least-recently-used* keys to the
:class:`~repro.service.tenancy.SpillStore` (byte-identical restore);
without a spill directory the ingest fails with a retryable
:class:`~repro.errors.ServiceError` **before** mutating anything.
Spilled keys keep accepting pending data without being restored — the
disk copy is merged back in at the next fold or query of that key.

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
:class:`~repro.service.tenancy.AggregationTree`, which is fed one exact
delta per ingest frame per shard — rollups never touch (or restore)
cold keys.

The summary behind each key is pluggable: any engine in the algorithm
portfolio (:data:`repro.portfolio.ENGINES`) can serve a tenant's keys,
selected by :class:`~repro.service.tenancy.RegistryConfig` — the fold
paragraph above describes the default ``opaq`` engine; sketch engines
absorb the same sorted pending chunks into their own state, and every
answer records which engine served it.  Rollups always fold OPAQ deltas
regardless of per-key engines (mergeability across millions of keys is
exactly OPAQ's strength).
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.summary import OPAQSummary
from repro.errors import DataError, EstimationError, ServiceError
from repro.obs import current_tracer
from repro.portfolio import ENGINES, EngineSpec

# The canonical fold primitives live with the OPAQ portfolio engine now;
# re-exported here (and aliased for ``_exact_delta``) so every historical
# import path through the registry keeps working.
from repro.portfolio.opaq import OpaqKeyState, compact_within_budget
from repro.portfolio.opaq import exact_delta as _exact_delta
from repro.service.tenancy.config import RegistryConfig
from repro.service.tenancy.keys import KEY_SEP, WILDCARD, compose_key
from repro.service.tenancy.store import SpillStore
from repro.service.tenancy.tree import AggregationTree

__all__ = ["SummaryRegistry", "KeyAnswer", "compact_within_budget"]


@dataclass(frozen=True)
class KeyAnswer:
    """One keyed quantile answer with its provenance and guarantee.

    ``source`` is ``"resident"``, ``"restored"`` (the key came back off
    disk for this query), ``"rollup:metric"`` or ``"rollup:global"``
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

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable form (the HTTP compatibility shim's body).

        JSON round-trips float64 exactly (repr-based), so an answer
        rebuilt from this dict is bit-identical to the wire-native one.
        """
        return {
            "tenant": self.tenant,
            "metric": self.metric,
            "source": self.source,
            "engine": self.engine,
            "count": self.count,
            "guarantee": self.guarantee,
            "epsilon_bound": self.epsilon_bound,
            "compactions": self.compactions,
            "phis": self.phis.tolist(),
            "psi": self.psi.tolist(),
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
            "max_below": self.max_below.tolist(),
            "max_above": self.max_above.tolist(),
        }


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
        # The engine's per-key fold state (None until first fold or
        # restore).  For OPAQ it wraps an OPAQSummary with the
        # epsilon-gated fold; for the sketch engines it IS the sketch.
        self.state = None
        self.pending: list[tuple[_Block, int, int]] = []
        self.pending_count = 0
        self.charged = 0  # slots currently billed against the shard

    @property
    def compactions(self) -> int:
        return 0 if self.state is None else int(self.state.compactions)


class _Shard:
    __slots__ = (
        "lock", "entries", "used",
        "elements", "folds", "spills", "restores", "evictions",
    )

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: OrderedDict[str, _KeyEntry] = OrderedDict()
        self.used = 0
        self.elements = 0
        self.folds = 0
        self.spills = 0
        self.restores = 0
        self.evictions = 0


def _strided_delta(data: np.ndarray, max_samples: int) -> OPAQSummary:
    """Sorted data -> pre-compacted delta of at most ``max_samples + 1``
    groups, built directly with strided slicing.

    Each group of ``k`` consecutive sorted elements is represented by its
    maximum (the sample) with the group minimum as floor — the same
    bookkeeping a full construction + :meth:`~OPAQSummary.compact` would
    produce, without materialising the frame-sized intermediate summary.
    The rollup feed's hot path: its guarantee (``~k``) is the rollup's
    own and never enters any per-key budget.
    """
    n = data.size
    if n <= max_samples:
        # Small path copies so the summary never pins a caller buffer.
        return _exact_delta(data.copy())
    k = -(-n // max_samples)
    q, r = divmod(n, k)
    last = np.arange(1, q + 1, dtype=np.int64) * k - 1
    samples = data[last]
    floors = data[last - (k - 1)]
    gaps = np.full(q, k, dtype=np.int64)
    if r:
        samples = np.append(samples, data[-1])
        floors = np.append(floors, data[n - r])
        gaps = np.append(gaps, r)
    return OPAQSummary(
        samples=samples,
        gaps=gaps,
        num_runs=1,
        count=n,
        minimum=float(data[0]),
        maximum=float(data[-1]),
        floors=floors,
    )


class SummaryRegistry:
    """Keyed summaries under one global budget; thread-safe.

    Each key is served by a portfolio engine (:data:`repro.portfolio.
    ENGINES`), selected per tenant via :class:`RegistryConfig` —
    ``opaq`` by default.  Pending-buffer accounting, folding, spilling
    and the budget arithmetic are engine-uniform; only the per-key fold
    state differs (an epsilon-gated OPAQ summary, a KLL/GK sketch, or
    an AS95 interval histogram).
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
        """The portfolio engine serving this key (per-tenant config)."""
        tenant = key.partition(KEY_SEP)[0]
        return ENGINES[self._cfg.engine_for(tenant)]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def ingest(
        self, tenant: str, metric: str, values: Sequence[float] | np.ndarray
    ) -> int:
        """Ingest one key's batch; returns elements absorbed."""
        data = np.ascontiguousarray(values, dtype=np.float64)
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
        order.  Frames are not transactional: a malformed key fails the
        frame partway (already-appended keys keep their data), which the
        wire layer surfaces as a non-retryable data error.
        """
        if self._closed:
            raise ServiceError("registry is closed")
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if counts.ndim != 1 or values.ndim != 1:
            raise DataError("counts and values must be one-dimensional")
        if len(keys) != counts.size:
            raise DataError(
                f"{len(keys)} keys but {counts.size} counts in keyed frame"
            )
        if counts.size == 0:
            return {"elements": 0, "keys": 0}
        if int(counts.min()) < 0:
            raise DataError("per-key counts cannot be negative")
        total = int(counts.sum())
        if total != values.size:
            raise DataError(
                f"counts sum to {total} but frame carries {values.size} values"
            )
        if total and not bool(np.all(np.isfinite(values))):
            raise DataError("keyed ingest requires finite values")
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
        rollup_max = self._cfg.rollup_max_samples
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
            self._tree.absorb(s, _strided_delta(segment, rollup_max))

        if len(metric_names) == 1:
            chunk = np.sort(values)
            if chunk.size:
                self._tree.absorb_metric(
                    metric_names[0], _strided_delta(chunk, rollup_max)
                )
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
                    self._tree.absorb_metric(
                        metric, _strided_delta(chunk, rollup_max)
                    )

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

    def _fold_entry_locked(
        self, shard: _Shard, key: str, entry: _KeyEntry
    ) -> None:
        """Merge a key's pending data (and any spilled residue) into its
        engine state, compacting under the key's own error budget."""
        cfg = self._cfg
        if entry.state is None and self._store is not None and key in self._store:
            restored, record, _ = self._store.restore(key)
            entry.state = entry.spec.restored_key_state(
                restored,
                record.compactions,
                epsilon=cfg.per_key_epsilon,
                max_samples=cfg.max_key_samples,
            )
            footprint = entry.state.memory_footprint
            entry.charged += footprint
            shard.used += footprint
            shard.restores += 1
        if entry.pending_count == 0:
            return
        pending = entry.pending
        if len(pending) == 1:
            b, lo, hi = pending[0]
            data = b.data[lo:hi].copy()
        else:
            data = np.concatenate([b.data[lo:hi] for b, lo, hi in pending])
        for b, _lo, _hi in pending:
            self._release_block(shard, b)
        entry.pending = []
        entry.pending_count = 0
        data.sort()
        if entry.state is None:
            # Seed randomized engines from the key bytes: deterministic
            # across restarts and replays, decorrelated across keys.
            entry.state = entry.spec.key_state(
                cfg.per_key_epsilon,
                cfg.max_key_samples,
                seed=zlib.crc32(key.encode("utf-8")),
            )
        old_footprint = entry.state.memory_footprint
        entry.state.absorb(data)
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
        # the whole shard to disk when an in-memory fold sufficed.
        for key, entry in list(shard.entries.items()):
            if shard.used <= budget:
                return
            if entry.pending_count:
                self._fold_entry_locked(shard, key, entry)
        while shard.used > budget and shard.entries:
            key, entry = next(iter(shard.entries.items()))
            self._fold_entry_locked(shard, key, entry)
            self._spill_entry_locked(shard, key, entry)
            shard.evictions += 1
            current_tracer().count("service.tenancy.evict")

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
        """Serve quantile bounds for one key or (via ``"*"``) a rollup."""
        if self._closed:
            raise ServiceError("registry is closed")
        if tenant == WILDCARD:
            return self._rollup_answer(metric, phis)
        if metric == WILDCARD:
            raise DataError(
                "per-tenant rollups are not maintained (they would scale "
                "with key count); wildcard queries support tenant='*' with "
                "a concrete metric or metric='*' for the global rollup"
            )
        key = compose_key(tenant, metric)
        shard = self._shards[self._shard_of(key)]
        source = "resident"
        with shard.lock:
            entry = shard.entries.get(key)
            if entry is None:
                if self._store is not None and key in self._store:
                    entry = _KeyEntry(self._spec_for(key))
                    shard.entries[key] = entry
                    entry.charged = self._cfg.per_key_overhead
                    shard.used += self._cfg.per_key_overhead
                    source = "restored"
                else:
                    raise EstimationError(
                        f"no data for tenant={tenant!r} metric={metric!r}"
                    )
            else:
                shard.entries.move_to_end(key)
            self._fold_entry_locked(shard, key, entry)
            state = entry.state
            compactions = entry.compactions
            engine = entry.spec.name
            self._enforce_budget_locked(shard)
        if state is None:
            raise EstimationError(
                f"no data for tenant={tenant!r} metric={metric!r}"
            )
        current_tracer().count("service.tenancy.query")
        return self._answer(
            tenant, metric, source, engine, state, compactions, phis
        )

    def quantiles_many(
        self,
        pairs: Sequence[tuple[str, str]],
        phis: Sequence[float] | np.ndarray,
    ) -> list[KeyAnswer]:
        """One :class:`KeyAnswer` per ``(tenant, metric)`` pair."""
        return [self.quantiles(tenant, metric, phis) for tenant, metric in pairs]

    def _rollup_answer(
        self, metric: str, phis: Sequence[float] | np.ndarray
    ) -> KeyAnswer:
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
        return self._answer(WILDCARD, metric, source, "opaq", state, -1, phis)

    @staticmethod
    def _answer(
        tenant: str,
        metric: str,
        source: str,
        engine: str,
        state: object,
        compactions: int,
        phis: Sequence[float] | np.ndarray,
    ) -> KeyAnswer:
        psi, lower, upper, max_below, max_above, fractions = (
            state.bounds_arrays(phis)
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
        """Registry-wide gauges and counters (one consistent-ish pass)."""
        resident = pending = used = 0
        elements = folds = spills = restores = evictions = 0
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
            "rollups": self._tree.stats(),
        }

    def spill_all(self) -> int:
        """Fold and spill every resident key; returns keys spilled.

        The persistence half of a warm restart: afterwards every key and
        rollup lives in the spill directory and a fresh registry over
        the same directory serves byte-identical answers.
        """
        if self._store is None:
            raise ServiceError("spill_all requires a configured spill_dir")
        spilled = 0
        for shard in self._shards:
            with shard.lock:
                while shard.entries:
                    key, entry = next(iter(shard.entries.items()))
                    self._fold_entry_locked(shard, key, entry)
                    self._spill_entry_locked(shard, key, entry)
                    spilled += entry.state is not None
        self._tree.save_to(self._store)
        return spilled

    def close(self) -> None:
        """Persist (when spilling is configured) and shut down.  Idempotent."""
        if self._closed:
            return
        if self._store is not None:
            self.spill_all()
            self._store.close()
        self._closed = True  # opaq: ignore[thread-unguarded-write] monotonic latch

    def __enter__(self) -> "SummaryRegistry":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
