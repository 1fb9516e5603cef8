"""OPAQ as a portfolio engine, plus the registry's per-key OPAQ state.

:class:`OPAQEngine` wraps the paper's estimator behind the portfolio
conventions: engines are constructed from tuning knobs (not a full
:class:`~repro.core.OPAQConfig`), derive a near-memory-optimal run size
``~sqrt(n*s)`` when the source's size is knowable, and support the
equal-memory :meth:`for_budget` construction the shootout benchmark
uses (sample budget = ``slots / 3``, enforced by
:meth:`~repro.core.OPAQSummary.compact_to` whatever the source shape).

This module is also where the *canonical* per-key fold logic lives —
:func:`exact_delta` and :func:`compact_within_budget` — so the
multi-tenant registry can treat OPAQ as one engine among several: the
service layer imports from the portfolio, never the reverse.
:class:`OpaqKeyState` replicates the registry's historical fold
behaviour exactly (sorted pending → exact delta → merge →
epsilon-gated compaction), byte for byte.
"""

from __future__ import annotations

import math
from os import PathLike
from typing import Sequence

import numpy as np

from repro.core.bounds import QuantileBounds
from repro.core.config import OPAQConfig
from repro.core.estimator import OPAQ
from repro.core.quantile_phase import bounds_arrays, bounds_for, quantile_bounds
from repro.core.protocols import DataSource
from repro.core.summary import OPAQSummary
from repro.obs import current_tracer
from repro.storage import DiskDataset, RunReader

__all__ = [
    "OPAQEngine",
    "OpaqKeyState",
    "exact_delta",
    "compact_within_budget",
]


def exact_delta(data: np.ndarray) -> OPAQSummary:
    """Sorted data -> exact summary (unit gaps, rank guarantee 1).

    ``data`` must already be sorted and owned by the caller.  Each
    element is its own group, so its floor IS the element — without
    explicit floors they default to the conservative ``-inf``, which is
    harmless while gaps are 1 but makes every group a straddler for
    every value after compaction, blowing the guarantee up to
    ``~s*(k-1)`` instead of ``~k`` and defeating
    :func:`compact_within_budget`.
    """
    return OPAQSummary(
        samples=data,
        gaps=np.ones(data.size, dtype=np.int64),
        num_runs=1,
        count=data.size,
        minimum=float(data[0]),
        maximum=float(data[-1]),
        floors=data,
    )


def compact_within_budget(
    summary: OPAQSummary, *, epsilon: float, target: int
) -> tuple[OPAQSummary, bool]:
    """Compact toward ``target`` samples without breaking the key's epsilon.

    Returns ``(summary, compacted)``.  The accuracy contract is
    ``(g - 1) <= epsilon * count`` where ``g`` is the deterministic
    rank-error guarantee; when the target compaction would break it the
    sample budget doubles until a compliant width is found, falling back
    to no compaction at all (the caller then pays for the extra resident
    samples — the budget squeezes residency, never accuracy).
    """
    if summary.num_samples <= target:
        return summary, False
    allowed = epsilon * summary.count
    width = target
    while width < summary.num_samples:
        candidate = summary.compact_to(width)
        if candidate.guaranteed_rank_error() - 1 <= allowed:
            return candidate, True
        width *= 2
    return summary, False


class OPAQEngine:
    """The paper's estimator behind the portfolio conventions."""

    name = "opaq"
    guarantee_kind = "deterministic"
    summary_cls = OPAQSummary

    #: Chunk size used when the source's total size is unknowable (an
    #: iterable of runs) and no explicit ``run_size`` was given.
    DEFAULT_RUN_SIZE = 1 << 17

    def __init__(
        self,
        sample_size: int = 1000,
        run_size: int | None = None,
        max_samples: int | None = None,
    ) -> None:
        self.sample_size = sample_size
        self.run_size = run_size
        self.max_samples = max_samples

    def _config_for(self, n: int | None) -> OPAQConfig:
        run_size = self.run_size
        if run_size is None:
            if n is None:
                run_size = self.DEFAULT_RUN_SIZE
            else:
                # The memory-optimal choice: r*s == m at m = sqrt(n*s).
                run_size = max(
                    self.sample_size,
                    int(math.sqrt(float(n) * self.sample_size)),
                )
                run_size = min(run_size, max(1, n))
        return OPAQConfig(
            run_size=run_size, sample_size=min(self.sample_size, run_size)
        )

    def summarize(self, source: DataSource) -> OPAQSummary:
        """One pass over ``source``; compacted to ``max_samples`` if set."""
        if isinstance(source, DiskDataset):
            n: int | None = source.count
        elif isinstance(source, RunReader):
            n = source.dataset.count
        elif isinstance(source, np.ndarray):
            n = int(source.size)
        else:
            n = None
        tracer = current_tracer()
        with tracer.span(f"portfolio.{self.name}.summarize"):
            summary = OPAQ(self._config_for(n)).summarize(source)
            if self.max_samples is not None:
                summary = summary.compact_to(self.max_samples)
        tracer.count(f"portfolio.{self.name}.ingest.elements", summary.count)
        return summary

    def bounds(
        self, summary: OPAQSummary, phis: Sequence[float]
    ) -> list[QuantileBounds]:
        """Quantile bounds for many fractions."""
        out = bounds_for(summary, phis)
        current_tracer().count(f"portfolio.{self.name}.queries", len(out))
        return out

    def bound(self, summary: OPAQSummary, phi: float) -> QuantileBounds:
        """Quantile bounds for a single fraction."""
        return quantile_bounds(summary, phi)

    def estimate(
        self, source: DataSource, phis: Sequence[float]
    ) -> list[QuantileBounds]:
        """``summarize`` + ``bounds`` in one call."""
        return self.bounds(self.summarize(source), phis)

    @classmethod
    def for_budget(cls, budget: int, n_hint: int = 0) -> "OPAQEngine":
        """Equal-memory construction: a retained sample costs 3 slots
        (sample, gap, floor), so a budget of ``b`` slots buys ``b/3``
        samples.  ``compact_to`` enforces the cap whatever run shape the
        source produced; the run size is tuned from ``n_hint`` so the
        fresh summary lands near the cap instead of far above it.
        """
        sample_budget = max(2, budget // 3)
        sample_size = min(1000, sample_budget)
        runs = max(1, sample_budget // sample_size)
        run_size = None
        if n_hint > 0:
            run_size = max(sample_size, -(-n_hint // runs))
        return cls(
            sample_size=sample_size,
            run_size=run_size,
            max_samples=sample_budget,
        )

    @classmethod
    def key_state(
        cls, epsilon: float, max_samples: int, seed: int = 0
    ) -> "OpaqKeyState":
        """Registry per-key state (the historical fold logic, verbatim)."""
        return OpaqKeyState(epsilon=epsilon, max_samples=max_samples)

    @classmethod
    def restored_key_state(
        cls,
        loaded: OPAQSummary,
        compactions: int,
        *,
        epsilon: float,
        max_samples: int,
    ) -> "OpaqKeyState":
        """Wrap a restored ``OPAQSUM`` archive back into fold state."""
        return OpaqKeyState(
            epsilon=epsilon,
            max_samples=max_samples,
            summary=loaded,
            compactions=compactions,
        )


class OpaqKeyState:
    """One registry key's OPAQ state: summary + epsilon-gated folding.

    The uniform per-key interface every engine's state answers (the
    sketch engines answer it with their summary object itself):
    ``absorb`` sorted data, expose ``count``/``memory_footprint``/
    ``compactions``, answer ``guaranteed_rank_error``/``bounds_arrays``,
    and ``save`` / ``to_bytes`` in the engine's archive format.
    """

    engine = "opaq"
    __slots__ = ("epsilon", "max_samples", "summary", "compactions")

    def __init__(
        self,
        epsilon: float,
        max_samples: int,
        summary: OPAQSummary | None = None,
        compactions: int = 0,
    ) -> None:
        self.epsilon = epsilon
        self.max_samples = max_samples
        self.summary = summary
        self.compactions = compactions

    @property
    def count(self) -> int:
        return 0 if self.summary is None else self.summary.count

    @property
    def memory_footprint(self) -> int:
        return 0 if self.summary is None else self.summary.memory_footprint

    def absorb(self, data: np.ndarray) -> None:
        """Merge one sorted chunk: exact delta -> merge -> gated compact."""
        delta = exact_delta(data)
        merged = delta if self.summary is None else self.summary.merge(delta)
        merged, compacted = compact_within_budget(
            merged, epsilon=self.epsilon, target=self.max_samples
        )
        if compacted:
            self.compactions += 1
        self.summary = merged

    def guaranteed_rank_error(self) -> int:
        return self.summary.guaranteed_rank_error()

    def bounds_arrays(
        self, phis: np.ndarray | Sequence[float]
    ) -> tuple[np.ndarray, ...]:
        return bounds_arrays(self.summary, phis)

    def save(self, path: str | PathLike) -> None:
        self.summary.save(path)

    def to_bytes(self) -> bytes:
        return self.summary.to_bytes()
