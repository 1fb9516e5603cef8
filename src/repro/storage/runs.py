"""Run-at-a-time reading with single-pass enforcement and I/O accounting.

OPAQ's defining property is that it reads the data **once**, as ``r = n/m``
runs of ``m`` elements.  :class:`RunReader` is the gatekeeper that makes the
property checkable: it hands out runs in order, counts every element and byte
that crosses it, and refuses to start more passes than its budget allows
(one, by default; the exact-quantile extension of the paper's section 4
explicitly requests a budget of two).

A pass can read every run into one caller-owned buffer
(``runs(out=buffer)``) — the paper's run buffer of ``m`` keys, which the
sample phase's :class:`~repro.core.sample_phase.RunSampler` holds — or
hand out a fresh array per run, for consumers that keep the runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import ConfigError, SinglePassViolation
from repro.obs import current_tracer
from repro.storage.datafile import DiskDataset

__all__ = ["IOStats", "RunReader"]


@dataclass
class IOStats:
    """Counters for everything a reader pulled off disk."""

    elements_read: int = 0
    bytes_read: int = 0
    read_ops: int = 0
    passes_started: int = 0
    runs_read: int = 0

    def charge(self, elements: int, element_size: int) -> None:
        """Record one contiguous read of ``elements`` keys."""
        self.elements_read += elements
        self.bytes_read += elements * element_size
        self.read_ops += 1


@dataclass
class RunReader:
    """Iterate a :class:`DiskDataset` as runs of ``run_size`` elements.

    Parameters
    ----------
    dataset:
        The disk-resident data.
    run_size:
        ``m`` in the paper — how many keys fit in the run buffer.  The last
        run may be shorter when ``m`` does not divide ``n``.
    max_passes:
        How many full passes over the data are permitted.  OPAQ proper uses
        1; the two-pass exact extension uses 2.  Exceeding the budget raises
        :class:`~repro.errors.SinglePassViolation`.
    """

    dataset: DiskDataset
    run_size: int
    max_passes: int = 1
    stats: IOStats = field(default_factory=IOStats)

    def __post_init__(self) -> None:
        if self.run_size <= 0:
            raise ConfigError("run_size must be positive")
        if self.max_passes <= 0:
            raise ConfigError("max_passes must be positive")

    @property
    def num_runs(self) -> int:
        """``r = ceil(n/m)`` — the number of runs one pass yields."""
        return -(-self.dataset.count // self.run_size)

    def runs(self, out: np.ndarray | None = None) -> Iterator[np.ndarray]:
        """Yield the runs of one pass, charging I/O as they are read.

        Each call to :meth:`runs` starts a new pass and draws down the pass
        budget *when the first run is actually read*, so constructing the
        generator is free.

        Without ``out`` every run is a fresh array.  With ``out`` — a
        one-dimensional array of at least ``min(run_size, n)`` elements,
        typically the sample phase's run buffer — each run is read into
        ``out`` and yielded as the view ``out[:len(run)]``, valid until
        the next run is read; keys convert to ``out``'s dtype.
        """
        if out is not None and (
            out.ndim != 1 or out.size < min(self.run_size, self.dataset.count)
        ):
            raise ConfigError(
                f"out must be a one-dimensional array of at least "
                f"{min(self.run_size, self.dataset.count)} elements; got "
                f"shape {out.shape}"
            )
        if self.stats.passes_started >= self.max_passes:
            raise SinglePassViolation(
                f"pass budget exhausted: {self.max_passes} pass(es) allowed "
                f"over {self.dataset.path}"
            )
        self.stats.passes_started += 1
        tracer = current_tracer()
        tracer.count("io.pass", 1)
        element_size = self.dataset.dtype.itemsize
        for index, start in enumerate(range(0, self.dataset.count, self.run_size)):
            count = min(self.run_size, self.dataset.count - start)
            run = self.dataset.read_range(
                start, count, out=None if out is None else out[:count]
            )
            self.stats.charge(count, element_size)
            self.stats.runs_read += 1
            tracer.count("io.elements", count, run=index)
            tracer.count("io.bytes", count * element_size, run=index)
            yield run

    def __iter__(self) -> Iterator[np.ndarray]:
        return self.runs()
