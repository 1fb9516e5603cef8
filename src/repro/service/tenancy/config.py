"""Configuration of the multi-tenant summary registry.

One validated object carries every knob of the keyed-serving subsystem:
how keys are partitioned across registry shards, how much resident
memory the whole registry may hold (the *global* budget, in float64
slots), the per-key accuracy contract (``per_key_epsilon``), and where
cold summaries spill.

The budget is counted in **slots** — one slot is one float64-sized cell
of payload (8 bytes).  A resident key costs its pending (unfolded)
elements one slot each, plus a fixed ``per_key_overhead`` that stands
in for the entry bookkeeping, plus its folded state: one slot per
element while the key is raw (its sorted values, below the point where
its engine would compact), then its engine's footprint — ``3 ×
num_samples`` for OPAQ (samples, gaps and floors arrays).  The budget
deliberately counts payload, not Python object overhead: it is the
knob that bounds the data plane, and it is what the benchmark's
resident-set numbers report against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.errors import ConfigError
from repro.portfolio import resolve_engine

__all__ = ["RegistryConfig"]


@dataclass(frozen=True)
class RegistryConfig:
    """Parameters of one :class:`~repro.service.tenancy.SummaryRegistry`.

    Parameters
    ----------
    memory_budget:
        Global resident budget in float64 slots (multiply by 8 for
        bytes).  Enforced across *all* keys: when resident payload would
        exceed it, the coldest keys are folded and spilled (with
        ``spill_dir``) or the ingest fails with a retryable
        :class:`~repro.errors.ServiceError` (without).
    num_shards:
        Registry shards — independent lock domains, each with its own
        LRU order and level-0 rollup summary.  Keys map to shards by a
        process-independent CRC-32 of the key bytes, so a replayed
        ingest reproduces the same placement (and therefore the same
        rollup summaries).
    per_key_epsilon:
        The accuracy contract of every key: after any compaction the
        served rank-error guarantee ``g`` must satisfy
        ``(g - 1) <= per_key_epsilon * count`` for that key's own count.
        Compaction backs off (retains more samples) rather than break
        this — under memory pressure the budget is then met by spilling
        more keys, never by quietly loosening a key's guarantee.
    max_key_samples:
        Compaction *target* for a folded key summary.  The error budget
        may retain more than this when the epsilon demands it (see
        above); it never retains less.  An ``opaq`` key stays raw, its
        sorted values, up to this many elements.
    fold_threshold:
        Pending elements a key buffers before its ingest folds them into
        the summary eagerly.  Below the threshold folding is lazy
        (queries, spills and shutdown fold on demand) — the registry's
        ingest hot path is an append, not a merge.
    rollup_max_samples:
        Compaction bound of each aggregation-tree rollup summary (the
        shard-level and merged levels).  Rollups answer cross-key
        queries (``tenant=*``); their guarantee is their own, reported
        per answer, and is *not* covered by ``per_key_epsilon``.
    spill_dir:
        Directory for spilled key summaries (``None``: no spilling — the
        budget is enforced by failing ingest instead).  Restores are
        byte-identical: a spilled-and-restored key serves the same bytes
        as one that never left memory.
    per_key_overhead:
        Slots charged per resident key on top of its payload, standing
        in for entry bookkeeping.  Part of the budget arithmetic so a
        million empty keys cannot claim to cost nothing.
    engine:
        Default portfolio engine backing each key's summary — a name
        from :data:`repro.portfolio.ENGINES` (``opaq``/``kll``/``gk``/
        ``as95``) or a policy alias from
        :data:`repro.portfolio.ENGINE_POLICIES`
        (``deterministic-guarantee``/``mergeable-sketch``/
        ``smallest-memory``).  Resolved to a canonical engine name at
        construction.  Note the guarantee semantics differ per engine —
        see ``docs/guarantees.md``; the per-key epsilon contract is
        honoured by ``opaq``/``gk`` deterministically and by ``kll``
        probabilistically, and is vacuous for ``as95``.
    tenant_engines:
        Per-tenant engine overrides: a mapping (or tuple of pairs)
        ``tenant -> engine-or-policy``.  Tenants not listed use
        ``engine``.  The registry records the serving engine in every
        answer's provenance, so mixed-engine deployments stay auditable.
    """

    memory_budget: int = 8_000_000
    num_shards: int = 8
    per_key_epsilon: float = 0.01
    max_key_samples: int = 512
    fold_threshold: int = 8_192
    rollup_max_samples: int = 8_192
    spill_dir: str | Path | None = None
    per_key_overhead: int = 4
    engine: str = "opaq"
    tenant_engines: tuple[tuple[str, str], ...] | Mapping[str, str] = field(
        default=()
    )

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigError("num_shards must be at least 1")
        if self.memory_budget < 1:
            raise ConfigError(
                "memory_budget must be positive (float64 slots); an "
                "unbounded registry turns key growth into memory exhaustion"
            )
        if not 0.0 < self.per_key_epsilon <= 1.0:
            raise ConfigError(
                "per_key_epsilon must lie in (0, 1]: it is the per-key "
                "rank-error fraction the registry promises to hold"
            )
        if self.max_key_samples < 2:
            raise ConfigError("max_key_samples must be at least 2")
        if self.fold_threshold < 1:
            raise ConfigError("fold_threshold must be at least 1 element")
        if self.rollup_max_samples < 2:
            raise ConfigError("rollup_max_samples must be at least 2")
        if self.per_key_overhead < 0:
            raise ConfigError("per_key_overhead cannot be negative")
        if self.memory_budget // self.num_shards < 1:
            raise ConfigError(
                f"memory_budget of {self.memory_budget} slots split over "
                f"{self.num_shards} shards leaves an empty shard budget; "
                "lower num_shards or raise the budget"
            )
        # Resolve engine names (and policy aliases) once, at the edge:
        # a typo fails construction, not the first fold hours later.
        object.__setattr__(self, "engine", resolve_engine(self.engine))
        pairs = (
            tuple(self.tenant_engines.items())
            if isinstance(self.tenant_engines, Mapping)
            else tuple(tuple(pair) for pair in self.tenant_engines)
        )
        resolved: list[tuple[str, str]] = []
        for pair in pairs:
            if len(pair) != 2:
                raise ConfigError(
                    f"tenant_engines entries must be (tenant, engine) "
                    f"pairs; got {pair!r}"
                )
            tenant, name = pair
            if not tenant:
                raise ConfigError("tenant_engines tenant cannot be empty")
            resolved.append((str(tenant), resolve_engine(str(name))))
        object.__setattr__(self, "tenant_engines", tuple(resolved))
        object.__setattr__(self, "_engine_map", dict(resolved))

    def engine_for(self, tenant: str) -> str:
        """The canonical engine name serving ``tenant``'s keys."""
        return self._engine_map.get(tenant, self.engine)

    @property
    def shard_budget(self) -> int:
        """Per-shard slice of the global budget (documented split: the
        CRC-32 key hash spreads keys uniformly, so equal slices enforce
        the global bound without a global lock)."""
        return self.memory_budget // self.num_shards
