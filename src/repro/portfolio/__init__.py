"""The algorithm portfolio: every quantile engine behind one surface.

OPAQ (the paper's algorithm), KLL, GK01 and the AS95 interval baseline
each answer the structural :class:`~repro.core.QuantileEstimator`
protocol — ``summarize`` / ``bounds`` / ``bound`` / ``estimate`` — and
their summaries share one duck-typed surface (see
:mod:`repro.portfolio.base`): counts, exact extremes,
``guaranteed_rank_error()``, vectorised ``bounds_arrays``, merge where
claimed, and versioned serialisation — an ``.npz`` archive or the same
fields as one byte record — with per-engine magics (``OPAQSUM`` /
``KLLSUM`` / ``GKSUM`` / ``AS95SUM``).

:data:`ENGINES` is the catalogue: one :class:`EngineSpec` per engine
recording its guarantee kind, mergeability and serialisation magic next
to constructors for every context an engine is built in — default
(:meth:`EngineSpec.make`), equal-memory shootouts
(:meth:`EngineSpec.for_budget`), and the multi-tenant registry's
per-key fold state (:meth:`EngineSpec.key_state`), which a registry key
reaches from the raw state every key starts in
(:meth:`EngineSpec.raw_key_state`, :mod:`repro.portfolio.raw`).
``docs/portfolio.md`` is the prose companion: the "which engine when"
decision table plus the measured equal-memory shootout behind it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.summary import OPAQSummary
from repro.errors import ConfigError
from repro.portfolio.as95 import AS95Engine, IntervalSummary
from repro.portfolio.base import SketchEngine, SketchSummary
from repro.portfolio.gk import GKEngine, GKSummary
from repro.portfolio.kll import KLLEngine, KLLSummary
from repro.portfolio.opaq import (
    OPAQEngine,
    OpaqKeyState,
    compact_within_budget,
    exact_delta,
)
from repro.portfolio.raw import RawKeyState, raw_plan

__all__ = [
    "ENGINES",
    "ENGINE_POLICIES",
    "EngineSpec",
    "resolve_engine",
    "make_engine",
    "OPAQEngine",
    "OpaqKeyState",
    "RawKeyState",
    "KLLEngine",
    "KLLSummary",
    "GKEngine",
    "GKSummary",
    "AS95Engine",
    "IntervalSummary",
    "SketchEngine",
    "SketchSummary",
    "compact_within_budget",
    "exact_delta",
]


@dataclass(frozen=True)
class EngineSpec:
    """One portfolio entry: an engine's claims and its constructors.

    The claims columns (``guarantee`` / ``mergeable`` /
    ``merge_commutes`` / ``summary_magic``) are data, not prose — the
    conformance suite asserts each one against the implementation, and
    ``docs/portfolio.md``'s catalogue table is generated from the same
    fields, so the documentation cannot drift from the code.
    """

    name: str
    #: ``"deterministic"``, ``"randomized"`` or ``"none"``.
    guarantee: str
    #: Whether ``summary.merge(other)`` is supported at all.
    mergeable: bool
    #: Whether ``a.merge(b)`` and ``b.merge(a)`` answer identically.
    merge_commutes: bool
    #: Magic string of the engine's ``.npz`` archive format.
    summary_magic: str
    engine_cls: type
    summary_cls: type
    description: str

    def make(self, **kwargs: Any) -> Any:
        """Construct the engine with its native tuning knobs."""
        return self.engine_cls(**kwargs)

    def for_budget(self, budget: int, n_hint: int = 0) -> Any:
        """Construct the engine sized to ``budget`` float64 slots."""
        return self.engine_cls.for_budget(budget, n_hint)

    def load(self, path: str | os.PathLike) -> Any:
        """Load one of this engine's summary archives."""
        return self.summary_cls.load(path)

    def from_bytes(self, record: bytes) -> Any:
        """Decode one of this engine's summaries from its byte record."""
        return self.summary_cls.from_bytes(record)

    def key_state(self, epsilon: float, max_samples: int, seed: int = 0) -> Any:
        """Fresh per-key fold state for the multi-tenant registry."""
        return self.engine_cls.key_state(epsilon, max_samples, seed)

    def restored_key_state(
        self,
        loaded: Any,
        compactions: int,
        *,
        epsilon: float,
        max_samples: int,
    ) -> Any:
        """Per-key fold state wrapping a summary restored from spill."""
        return self.engine_cls.restored_key_state(
            loaded, compactions, epsilon=epsilon, max_samples=max_samples
        )

    def raw_key_state(
        self,
        epsilon: float,
        max_samples: int,
        seed: int = 0,
        values: np.ndarray | None = None,
        absorbs: int = 0,
        minimum: float = math.inf,
        maximum: float = -math.inf,
    ) -> RawKeyState:
        """A registry key's state until this engine would compact: its
        values, sorted (empty for a new key; a spilled raw key passes
        its values, absorb count and extremes back)."""
        plan = raw_plan(self.name, self.engine_cls, epsilon, max_samples)
        return RawKeyState(plan, seed, values, absorbs, minimum, maximum)


ENGINES: dict[str, EngineSpec] = {
    "opaq": EngineSpec(
        name="opaq",
        guarantee="deterministic",
        mergeable=True,
        merge_commutes=True,
        summary_magic="OPAQSUM",
        engine_cls=OPAQEngine,
        summary_cls=OPAQSummary,
        description=(
            "The paper's one-pass regular-sampling summary: deterministic "
            "a-priori rank bounds, commutative merge, floor-tightened "
            "guarantees."
        ),
    ),
    "kll": EngineSpec(
        name="kll",
        guarantee="randomized",
        mergeable=True,
        merge_commutes=False,
        summary_magic="KLLSUM",
        engine_cls=KLLEngine,
        summary_cls=KLLSummary,
        description=(
            "Randomized compactor sketch: near-optimal space, fully "
            "mergeable; bounds hold per query except with probability "
            "delta."
        ),
    ),
    "gk": EngineSpec(
        name="gk",
        guarantee="deterministic",
        mergeable=True,
        merge_commutes=False,
        summary_magic="GKSUM",
        engine_cls=GKEngine,
        summary_cls=GKSummary,
        description=(
            "Greenwald-Khanna tuples: deterministic eps*n bounds in the "
            "smallest streaming state; one-shot merge with additive "
            "epsilon decay."
        ),
    ),
    "as95": EngineSpec(
        name="as95",
        guarantee="none",
        mergeable=False,
        merge_commutes=False,
        summary_magic="AS95SUM",
        engine_cls=AS95Engine,
        summary_cls=IntervalSummary,
        description=(
            "Adaptive interval histogram (the paper's motivating "
            "baseline): smallest state, point estimates only, no error "
            "bound."
        ),
    ),
}

#: Named tenancy policies: a policy is an alias the service config
#: accepts wherever an engine name is accepted, picking the engine whose
#: claims match the stated operational need.
ENGINE_POLICIES: dict[str, str] = {
    "deterministic-guarantee": "opaq",
    "mergeable-sketch": "kll",
    "smallest-memory": "gk",
}


def resolve_engine(name: str) -> str:
    """Resolve an engine name or policy alias to a canonical engine name."""
    resolved = ENGINE_POLICIES.get(name, name)
    if resolved not in ENGINES:
        choices = sorted(ENGINES) + sorted(ENGINE_POLICIES)
        raise ConfigError(
            f"unknown engine {name!r}; choose one of {', '.join(choices)}"
        )
    return resolved


def make_engine(name: str, **kwargs: Any) -> Any:
    """Construct an engine by name (or policy alias) with native knobs."""
    return ENGINES[resolve_engine(name)].make(**kwargs)
