"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch one base class.  Misconfiguration
(violating the paper's memory constraint, non-positive sizes, ...) raises
:class:`ConfigError`; violating the one-pass discipline of the disk layer
raises :class:`SinglePassViolation`; asking a summary for something it cannot
answer raises :class:`EstimationError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigError(ReproError, ValueError):
    """An invalid configuration value or combination of values.

    Raised, for example, when the paper's memory constraint ``r*s + m <= M``
    does not hold, when a run size does not divide the data size, or when a
    sample size exceeds the run size.
    """


class SinglePassViolation(ReproError, RuntimeError):
    """A disk-resident dataset was read more often than its pass budget allows.

    The whole point of OPAQ is to touch the data exactly once; the
    :class:`repro.storage.RunReader` enforces that discipline and raises this
    error when client code attempts a second pass without explicitly asking
    for one (the two-pass *exact* extension of the paper's section 4 requests
    a two-pass budget up front).
    """


class EstimationError(ReproError, RuntimeError):
    """A quantile/rank query could not be answered from the available state.

    Raised, for example, when querying an :class:`repro.core.OPAQSummary`
    that was built from zero runs, or when a quantile fraction lies outside
    ``(0, 1]``.
    """


class DataError(ReproError, ValueError):
    """Input the library cannot take: malformed on-disk data (truncated
    file, wrong dtype, bad header), or values the ingest policy refuses
    (:mod:`repro.core.values`): non-numeric, not 1-D, or NaN (no rank)."""


class ParallelError(ReproError, RuntimeError):
    """A real execution backend failed to complete an SPMD program.

    Raised by :mod:`repro.parallel.backends` when a worker raises (the
    original exception type and traceback are carried in the message),
    when a worker process dies without reporting a result, or when a
    receive/join exceeds its timeout.  Real backends never surface bare
    ``multiprocessing`` tracebacks or hang on worker death — every
    failure path converges to this type.
    """


class ServiceError(ReproError, RuntimeError):
    """The serving subsystem could not accept or answer a request.

    Raised by :mod:`repro.service` when an ingest queue stays full past the
    backpressure timeout, when a shard worker has died, when an append to
    the spill or epoch log fails (a full disk), or when a request reaches
    a service that is already shut down.  The binary wire marks its error
    frame retryable (:func:`repro.service.proto.encode_error`).
    """
