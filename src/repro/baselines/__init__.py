"""The single-pass ingest base, and random sampling (paper Table 7).

- :class:`StreamingQuantileEstimator` and :func:`consume` — the one-pass
  chunk interface that random sampling and every portfolio sketch
  summary (:mod:`repro.portfolio`) share;
- :class:`RandomSamplingEstimator` — uniform reservoir sample [Coc77],
  the point-estimate competitor of the paper's Table 7.

Table 7's other competitor, the [AS95] interval method, is the
portfolio's ``as95`` engine (:class:`repro.portfolio.IntervalSummary`),
next to KLL and GK01; :data:`repro.portfolio.ENGINES` is the registry
of every sketch.
"""

from repro.baselines.base import StreamingQuantileEstimator, consume
from repro.baselines.random_sampling import RandomSamplingEstimator

__all__ = [
    "StreamingQuantileEstimator",
    "consume",
    "RandomSamplingEstimator",
]
