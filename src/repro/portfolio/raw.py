"""The raw key state: a registry key below its engine's compaction point.

A key whose every group holds one element is exact (``g = 1``), and the
cheapest exact state is the key's values themselves, sorted: one
float64 slot per element, where OPAQ's samples, gaps and floors and
GK's tuples take three.  Cormode & Veselý's lower bound (PAPERS.md,
arXiv 1905.03838) says a comparison-based summary of at most ~1/ε items
must keep all of them, so below the compaction point no engine can hold
less.

:class:`RawKeyState` is that state for every engine.  Besides the values
it carries what the engine's own state would: the number of absorbs
(OPAQ's run count) and the extremes.  At the first absorb where its
engine would compact, it turns into the engine's key state, built from
the sorted values, and that state absorbs the chunk as it always has.
A promoted key therefore equals one that was never raw, after the same
absorbs.  A key whose first chunk is already past that point holds no
values to build from, so it starts as the engine's own new key state.

Each engine class supplies two class methods: ``raw_limit(epsilon,
max_samples)``, the most elements its key state holds before it would
compact, and ``key_state_from_raw(raw, epsilon, max_samples, seed)``,
its key state built from a raw one that holds at least one value.

Ties keep arrival order: a chunk merges in after the equal values
already held, and the extremes are the first-arrived smallest and
largest values, exactly as OPAQ's merge keeps them.  The registry takes
its values in under the ingest policy (:mod:`repro.core.values`), so
every zero a key holds is ``+0.0``, and a raw key and its promoted
state equal the engine's own bit for bit, on every engine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.errors import EstimationError
from repro.portfolio.base import target_ranks, validate_phis

__all__ = ["RawKeyState", "RawPlan", "exact_bounds", "raw_plan"]


@dataclass(frozen=True)
class RawPlan:
    """What a raw key needs of its engine; one per engine and contract,
    shared by every key it serves."""

    engine: str
    engine_cls: Any
    epsilon: float
    max_samples: int
    #: The most elements a raw key holds: the next absorb past this
    #: count is one its engine's state would compact at.
    limit: int


@functools.lru_cache(maxsize=None)
def raw_plan(engine: str, engine_cls: Any, epsilon: float, max_samples: int) -> RawPlan:
    """The (cached) plan of ``engine``'s raw keys under one contract."""
    return RawPlan(
        engine, engine_cls, epsilon, max_samples,
        int(engine_cls.raw_limit(epsilon, max_samples)),
    )


class RawKeyState:
    """A key's values, sorted, until its engine would compact.

    Billed one slot per element (``memory_footprint == count``) and
    exact: ``guaranteed_rank_error()`` is 1 and every bound is the
    order statistic itself.  :meth:`absorb` returns the state that holds
    the key afterwards — this one, or the engine's key state once the
    engine would compact.
    """

    __slots__ = ("plan", "seed", "values", "absorbs", "minimum", "maximum")

    #: A raw key has never compacted.
    compactions = 0

    def __init__(
        self,
        plan: RawPlan,
        seed: int = 0,
        values: np.ndarray | None = None,
        absorbs: int = 0,
        minimum: float = math.inf,
        maximum: float = -math.inf,
    ) -> None:
        self.plan = plan
        self.seed = seed
        self.values = np.empty(0, dtype=np.float64) if values is None else values
        self.absorbs = absorbs
        self.minimum = minimum
        self.maximum = maximum

    @property
    def engine(self) -> str:
        return self.plan.engine

    @property
    def count(self) -> int:
        return int(self.values.size)

    @property
    def memory_footprint(self) -> int:
        return int(self.values.size)

    def absorb(self, data: np.ndarray) -> Any:
        """Merge one sorted, non-empty float64 chunk; returns the key's
        state after it (the promoted engine state past the limit)."""
        plan = self.plan
        if self.values.size + data.size > plan.limit:
            if self.values.size:
                state = plan.engine_cls.key_state_from_raw(
                    self, plan.epsilon, plan.max_samples, self.seed
                )
            else:  # nothing held yet: the engine's own first fold
                state = plan.engine_cls.key_state(
                    plan.epsilon, plan.max_samples, self.seed
                )
            return state.absorb(data)
        if self.values.size:
            merged = np.concatenate((self.values, data))
            merged.sort(kind="stable")  # a timsort merge of the two runs
            self.values = merged
        else:
            self.values = data
        self.absorbs += 1
        self.minimum = min(self.minimum, float(data[0]))
        self.maximum = max(self.maximum, float(data[-1]))
        return self

    def guaranteed_rank_error(self) -> int:
        return 1

    def bounds_arrays(
        self, phis: np.ndarray | Sequence[float]
    ) -> tuple[np.ndarray, ...]:
        """The exact order statistic of each φ, with OPAQ's tie rule: the
        upper bound is the element of rank ``psi``, the lower bound the
        last element equal to it."""
        if self.values.size == 0:
            raise EstimationError(f"{self.engine}: no data consumed yet")
        fractions = validate_phis(phis)
        psi = target_ranks(fractions, self.values.size)
        lower, upper = exact_bounds(self.values, psi)
        zeros = np.zeros(psi.size, dtype=np.int64)
        return psi, lower, upper, zeros, zeros.copy(), fractions


def exact_bounds(values: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lower, upper)`` of sorted ``values`` at the ranks ``psi``: the
    upper bound is the element of rank ``psi``, the lower bound the last
    element equal to it (OPAQ's tie rule for an exact summary)."""
    upper = values[psi - 1]
    return values[values.searchsorted(upper, side="right") - 1], upper
