"""Configuration of the OPAQ estimator.

Collects the paper's knobs (run size ``m``, per-run sample size ``s``,
optional memory budget ``M``, selection strategy) in one validated place.
The memory budget is optional — when given, :meth:`OPAQConfig.validate_for`
enforces the paper's constraint ``r*s + m <= M`` for a concrete data size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.selection import SelectionStrategy, get_strategy
from repro.storage import MemoryModel

__all__ = ["OPAQConfig"]


@dataclass(frozen=True)
class OPAQConfig:
    """Parameters of one OPAQ run.

    Parameters
    ----------
    run_size:
        ``m`` — keys per run (one run is read into memory at a time).
    sample_size:
        ``s`` — regular samples taken per (full) run.  The accuracy
        guarantee is ``n/s`` rank error per bound, so this is the
        accuracy/memory trade-off knob; the paper uses 250–1024.
    memory:
        Optional ``M`` (in keys).  When set, configurations that cannot run
        within the budget are rejected at :meth:`validate_for` time.
    strategy:
        Selection strategy name (see :mod:`repro.selection`): ``"numpy"``
        (default, vectorised introselect), ``"sort"``,
        ``"median_of_medians"`` or ``"floyd_rivest"``.
    """

    run_size: int
    sample_size: int
    memory: int | None = None
    strategy: str | SelectionStrategy = "numpy"

    def __post_init__(self) -> None:
        if self.run_size <= 0:
            raise ConfigError("run_size must be positive")
        if self.sample_size <= 0:
            raise ConfigError("sample_size must be positive")
        if self.sample_size > self.run_size:
            raise ConfigError(
                f"sample_size ({self.sample_size}) cannot exceed run_size "
                f"({self.run_size})"
            )
        # Resolve eagerly so a typo in the name fails at config time.
        get_strategy(self.strategy)

    @classmethod
    def for_memory(
        cls,
        n: int,
        memory: int,
        sample_size: int = 1000,
        strategy: str | SelectionStrategy = "numpy",
    ) -> "OPAQConfig":
        """Derive a feasible configuration for ``n`` keys under ``memory``.

        Chooses the smallest feasible run size (maximising the number of
        runs keeps per-run selection cheap while the merged sample list
        still fits).
        """
        model = MemoryModel(memory)
        run_size = model.suggest(n, sample_size)
        return cls(
            run_size=run_size,
            sample_size=sample_size,
            memory=memory,
            strategy=strategy,
        )

    def selection_strategy(self) -> SelectionStrategy:
        """The resolved strategy instance."""
        return get_strategy(self.strategy)

    def num_runs(self, n: int) -> int:
        """``r = ceil(n/m)`` for a concrete data size."""
        if n <= 0:
            raise ConfigError("n must be positive")
        return -(-n // self.run_size)

    def total_samples(self, n: int) -> int:
        """Approximate merged sample list size ``r*s``."""
        return self.num_runs(n) * self.sample_size

    def validate_for(self, n: int) -> None:
        """Check the paper's memory constraint for a concrete data size."""
        if self.memory is not None:
            MemoryModel(self.memory).validate(n, self.run_size, self.sample_size)

    def with_sample_size(self, sample_size: int) -> "OPAQConfig":
        """A copy with a different ``s`` (used by the sweep experiments)."""
        return replace(self, sample_size=sample_size)
