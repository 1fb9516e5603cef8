"""The user-facing OPAQ estimator.

Ties the sample phase and the quantile phase together behind one object::

    from repro import OPAQ, OPAQConfig

    est = OPAQ(OPAQConfig(run_size=100_000, sample_size=1000))
    summary = est.summarize(dataset)          # the one pass over the data
    bounds = summary and est.bounds(summary, [0.25, 0.5, 0.75])

Accepted data sources: a :class:`repro.storage.DiskDataset` (read through a
single-pass :class:`~repro.storage.RunReader`), an in-memory numpy array
(chopped into runs of ``m``), an existing reader, or any iterable of runs.
"""

from __future__ import annotations

import threading
import warnings
from typing import Iterable, Sequence

import numpy as np

from repro.core.bounds import QuantileBounds
from repro.core.config import OPAQConfig
from repro.core.protocols import DataSource
from repro.core.quantile_phase import bounds_for, quantile_bounds, splitters
from repro.core.sample_phase import RunSampler
from repro.core.summary import OPAQSummary
from repro.core.values import ingest_values
from repro.errors import ConfigError
from repro.storage import DiskDataset, RunReader

__all__ = ["OPAQ", "estimate_quantiles"]


class OPAQ:
    """One-pass quantile estimator (the paper's OPAQ algorithm).

    The estimator keeps the run buffer of its last pass and lends it to
    the next, so its passes reuse one buffer of ``m`` keys rather than
    each taking a fresh one from the allocator; a pass that runs while
    another holds the buffer allocates its own.
    """

    def __init__(self, config: OPAQConfig) -> None:
        self.config = config
        self._buffer: np.ndarray | None = None
        self._buffer_lock = threading.Lock()

    def _runs(self, source: DataSource) -> Iterable[np.ndarray]:
        """Normalise any supported source into an iterable of runs."""
        if isinstance(source, DiskDataset):
            self.config.validate_for(source.count)
            return RunReader(source, run_size=self.config.run_size)
        if isinstance(source, RunReader):
            if source.run_size != self.config.run_size:
                raise ConfigError(
                    f"reader run size {source.run_size} differs from the "
                    f"configured run size {self.config.run_size}"
                )
            self.config.validate_for(source.dataset.count)
            return source
        if isinstance(source, np.ndarray):
            source = ingest_values(source, copy=False, scan=False)
            self.config.validate_for(max(1, source.size))
            m = self.config.run_size
            return (source[i : i + m] for i in range(0, source.size, m))
        if isinstance(source, Iterable):
            return source
        raise ConfigError(
            f"unsupported data source {type(source).__name__!r}; expected a "
            "DiskDataset, RunReader, numpy array, or iterable of runs"
        )

    def summarize(self, source: DataSource) -> OPAQSummary:
        """The one pass: build the sorted sample list for ``source``."""
        runs = self._runs(source)
        with self._buffer_lock:
            buffer, self._buffer = self._buffer, None
        sampler = RunSampler(self.config, buffer)
        try:
            summary = sampler.summarize(runs)
        finally:
            with self._buffer_lock:
                self._buffer = sampler.buffer
        if not isinstance(source, (DiskDataset, RunReader, np.ndarray)):
            # An iterable of runs: its total size was unknowable up front,
            # so the memory constraint is checked once the pass is done.
            self.config.validate_for(summary.count)
        return summary

    def bounds(
        self, summary: OPAQSummary, phis: Sequence[float]
    ) -> list[QuantileBounds]:
        """Quantile bounds for many fractions (O(1) each)."""
        return bounds_for(summary, phis)

    def bound(self, summary: OPAQSummary, phi: float) -> QuantileBounds:
        """Quantile bounds for a single fraction."""
        return quantile_bounds(summary, phi)

    def estimate(
        self, source: DataSource, phis: Sequence[float]
    ) -> list[QuantileBounds]:
        """Convenience: one pass + quantile phase in a single call."""
        return self.bounds(self.summarize(source), phis)

    def splitters(self, summary: OPAQSummary, q: int, which: str = "upper") -> np.ndarray:
        """Equi-depth cut points for partitioning applications."""
        return splitters(summary, q, which=which)

    @classmethod
    def quantiles(
        cls,
        source: DiskDataset | np.ndarray,
        phis: Sequence[float],
        sample_size: int = 1000,
        run_size: int | None = None,
        backend: str | None = None,
        num_procs: int = 1,
    ) -> list[QuantileBounds]:
        """One-shot convenience: estimate quantile bounds of ``source``.

        Picks a run size of ``~sqrt(n*s)`` (the memory-optimal choice) when
        not given.  ``source`` must have a knowable size — a numpy array or
        a :class:`~repro.storage.DiskDataset` — since the run size is
        derived from it; use an explicit :class:`~repro.core.OPAQConfig`
        and :meth:`estimate` for run iterables.

        ``backend`` routes the estimate through the parallel formulation:
        ``"serial"``, ``"thread"`` or ``"process"`` run POPAQ over
        ``num_procs`` real workers (``"simulated"`` charges the cost model
        instead); ``None`` — the default — runs the sequential single pass
        in this thread.  Every combination produces the same bounds; see
        ``docs/parallel.md``.

        >>> import numpy as np
        >>> data = np.arange(100_000, dtype=float)
        >>> [b] = OPAQ.quantiles(data, [0.5], sample_size=100)
        >>> b.lower <= 49999.0 <= b.upper
        True
        """
        n = (
            source.count
            if isinstance(source, DiskDataset)
            else int(np.asarray(source).size)
        )
        if n <= 0:
            raise ConfigError("data must be non-empty")
        if run_size is None:
            run_size = max(sample_size, int(np.sqrt(float(n) * sample_size)))
            run_size = min(run_size, n)
        config = OPAQConfig(
            run_size=run_size,
            sample_size=min(sample_size, run_size),
        )
        if backend is not None:
            # Imported here: core must stay importable without parallel
            # (parallel already imports core, so a module-level import
            # would be a cycle).
            from repro.parallel import ParallelOPAQ

            popaq = ParallelOPAQ(num_procs, config, backend=backend)
            return popaq.run(source, phis).bounds(phis)
        return cls(config).estimate(source, phis)


def estimate_quantiles(
    data: DiskDataset | np.ndarray,
    phis: Sequence[float],
    sample_size: int = 1000,
    run_size: int | None = None,
) -> list[QuantileBounds]:
    """Deprecated alias of :meth:`OPAQ.quantiles`.

    .. deprecated:: 1.1
        Call ``OPAQ.quantiles(data, phis, ...)`` instead; this alias will
        be removed in a future release.
    """
    warnings.warn(
        "estimate_quantiles() is deprecated; use OPAQ.quantiles() instead",
        DeprecationWarning,
        stacklevel=2,
    )
    return OPAQ.quantiles(
        data, phis, sample_size=sample_size, run_size=run_size
    )
