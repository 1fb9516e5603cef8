"""Shared machinery of the algorithm portfolio.

Every engine in :mod:`repro.portfolio` answers the same four-method
surface as :class:`~repro.core.OPAQ` — the structural
:class:`~repro.core.QuantileEstimator` protocol: ``summarize`` a data
source into a queryable summary, ``bounds``/``bound`` that summary for
quantile fractions, ``estimate`` both in one call.  What differs per
engine is the *summary object* behind that surface; this module pins the
duck-typed contract every portfolio summary honours:

``count`` / ``memory_footprint`` / ``minimum`` / ``maximum``
    Elements described, resident float64 slots, and the exact tracked
    extremes.

``guaranteed_rank_error()``
    The engine's documented rank-error guarantee ``g`` for the whole
    summary, with OPAQ's convention: the true rank distance of any served
    bound is **less than** ``g`` (so ``g == 1`` means exact).  For KLL the
    claim is probabilistic (holds per query except with probability
    ``delta``); for AS95 it is vacuous (``g == count`` — no guarantee,
    stated honestly).  ``guarantee_kind`` names which reading applies.

``bounds_arrays(phis)``
    The vectorised query: the same 6-tuple of parallel arrays
    ``(psi, lower, upper, max_below, max_above, phis)`` that
    :func:`repro.core.quantile_phase.bounds_arrays` produces for OPAQ
    summaries, so the serving layer can answer from any engine through
    one code path.

``merge(other)`` / ``absorb(chunk)`` / ``save(path)`` / ``load(path)`` / ``to_bytes()``
    Mergeability (engines that do not support it raise
    :class:`~repro.errors.EstimationError`), streaming ingest for the
    multi-tenant registry's fold path, and versioned serialisation with
    a per-engine magic — an ``.npz`` archive or the same fields as one
    byte record, under the same magic-and-version discipline as
    ``OPAQSUM`` archives, enforced by :class:`ArchiveCodec` here.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.baselines.base import StreamingQuantileEstimator, consume
from repro.core.bounds import QuantileBounds
from repro.core.protocols import DataSource
from repro.core.summary import pack_fields, unpack_fields
from repro.errors import DataError, EstimationError
from repro.obs import current_tracer

__all__ = [
    "SketchSummary",
    "SketchEngine",
    "validate_phis",
    "target_ranks",
    "ArchiveCodec",
]


def validate_phis(phis: np.ndarray | Sequence[float]) -> np.ndarray:
    """Validate a φ-vector exactly like the core quantile phase does."""
    fractions = np.ascontiguousarray(phis, dtype=np.float64)
    if fractions.ndim != 1:
        raise EstimationError("phis must be a one-dimensional vector")
    if fractions.size == 0:
        raise EstimationError("pass at least one quantile fraction")
    if not bool(np.all((fractions > 0.0) & (fractions <= 1.0))):
        raise EstimationError(
            f"every phi must lie in (0, 1]; got {fractions!r}"
        )
    return fractions


def target_ranks(fractions: np.ndarray, count: int) -> np.ndarray:
    """``psi = clamp(ceil(phi*n), 1, n)`` — the core's rank arithmetic."""
    return np.minimum(
        count, np.maximum(1, np.ceil(fractions * count).astype(np.int64))
    )


# ----------------------------------------------------------------------
# Versioned archives (the OPAQSUM discipline, parameterised)
# ----------------------------------------------------------------------


class ArchiveCodec:
    """Versioned persistence for a portfolio summary, in two encodings.

    A subclass names its format (``FORMAT_MAGIC``, ``FORMAT_VERSION``,
    ``_SUPPORTED_FORMATS``) and its field list once — :meth:`_fields`
    returns the named arrays plus the scalar meta, :meth:`_from_fields`
    rebuilds the summary from them — and gets both encodings over that
    one list, with one magic-and-version check:

    * :meth:`save` / :meth:`load` — an ``.npz`` archive, the same layout
      as :meth:`repro.core.OPAQSummary.save` (named arrays plus a
      ``meta`` JSON blob carrying the magic, the format version and the
      scalar state);
    * :meth:`to_bytes` / :meth:`from_bytes` — the same fields as one
      byte record (:func:`repro.core.summary.pack_fields`), which the
      tenancy spill store appends to its segment log.

    A missing file, a wrong magic or an unknown version raises
    :class:`~repro.errors.DataError` with a message naming the problem,
    so a record or archive of another engine fails loudly instead of
    mis-parsing.
    """

    FORMAT_MAGIC = "SKETCH"
    FORMAT_VERSION = 1
    _SUPPORTED_FORMATS: tuple[int, ...] = (1,)

    def _fields(self) -> tuple[dict[str, np.ndarray], dict[str, object]]:
        raise NotImplementedError

    @classmethod
    def _from_fields(
        cls, arrays: dict[str, np.ndarray], meta: dict[str, Any]
    ) -> Any:
        raise NotImplementedError

    def _stamped_fields(
        self,
    ) -> tuple[dict[str, np.ndarray], dict[str, object]]:
        arrays, meta = self._fields()
        stamp = {"magic": self.FORMAT_MAGIC, "format": self.FORMAT_VERSION}
        return arrays, {**meta, **stamp}

    @classmethod
    def _checked(
        cls,
        arrays: dict[str, np.ndarray],
        meta: dict[str, Any],
        source: object,
    ) -> Any:
        magic = cls.FORMAT_MAGIC
        found = meta.get("magic")
        if found != magic:
            raise DataError(
                f"{source} is not a {magic} summary file (magic {found!r}, "
                f"expected {magic!r})"
            )
        version = meta.get("format")
        if version not in cls._SUPPORTED_FORMATS:
            raise DataError(
                f"summary file {source} has format version {version!r}; this "
                f"build reads versions {cls._SUPPORTED_FORMATS} — upgrade the "
                "library or re-create the summary"
            )
        return cls._from_fields(arrays, meta)

    def save(self, path: str | os.PathLike) -> None:
        """Persist as a versioned ``.npz`` archive."""
        arrays, meta = self._stamped_fields()
        np.savez(
            path,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
            **arrays,
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> Any:
        """Load an archive written by :meth:`save` (byte-identical state)."""
        path = Path(path)
        if path.suffix != ".npz" and not path.exists():
            path = path.with_suffix(path.suffix + ".npz")
        try:
            with np.load(path) as archive:
                arrays = {
                    name: archive[name]
                    for name in archive.files
                    if name != "meta"
                }
                meta = json.loads(bytes(archive["meta"].tobytes()).decode())
        except FileNotFoundError:
            raise DataError(f"summary file does not exist: {path}") from None
        except (KeyError, ValueError) as exc:
            raise DataError(f"malformed summary file {path}: {exc}") from None
        return cls._checked(arrays, meta, path)

    def to_bytes(self) -> bytes:
        """The same fields and stamp as :meth:`save`, as one byte record."""
        return pack_fields(*self._stamped_fields())

    @classmethod
    def from_bytes(cls, record: bytes) -> Any:
        """Rebuild a summary from :meth:`to_bytes` output."""
        arrays, meta = unpack_fields(record)
        return cls._checked(arrays, meta, "byte record")


# ----------------------------------------------------------------------
# The portfolio summary contract
# ----------------------------------------------------------------------


class SketchSummary(ArchiveCodec, StreamingQuantileEstimator):
    """A mutable sketch that doubles as its own queryable summary.

    OPAQ separates the estimator (stateless config) from the summary (the
    immutable artifact of one pass).  The sketch engines fuse the two: a
    :class:`SketchSummary` *is* the ingest state — feed it chunks through
    the inherited :meth:`update` — and *is* the queryable artifact.  That
    duality is what lets the multi-tenant registry hold one object per
    key regardless of engine.
    """

    #: ``"deterministic"`` (the bound always holds), ``"randomized"``
    #: (holds per query except with probability ``delta``) or ``"none"``
    #: (``guaranteed_rank_error() == count``: no claim at all).
    guarantee_kind = "deterministic"
    #: Per-query failure probability for ``guarantee_kind="randomized"``.
    delta: float | None = None

    #: Exact extremes of everything ingested, kept beside a structure
    #: that can lose them (KLL compactions, AS95 interval boundaries)
    #: by :meth:`_track_extremes`.  GK reads its own off its end tuples.
    _min: float = math.inf
    _max: float = -math.inf

    def __init__(self) -> None:
        super().__init__()
        self._compactions = 0

    # -- bookkeeping shared by every engine ----------------------------

    @property
    def count(self) -> int:
        """Elements described (the summary-side name for ``n``)."""
        return self._n

    @property
    def compactions(self) -> int:
        """Lossy compaction events absorbed so far."""
        return self._compactions

    def absorb(self, chunk: np.ndarray) -> "SketchSummary":
        """Registry fold hook: ingest one (sorted) chunk in place; returns
        this summary, the key's state after the fold."""
        self.update(chunk)
        return self

    def _track_extremes(self, chunk: np.ndarray) -> None:
        self._min = min(self._min, float(chunk.min()))
        self._max = max(self._max, float(chunk.max()))

    @property
    def minimum(self) -> float:
        """The exact smallest element ingested."""
        self._require_data()
        return self._min

    @property
    def maximum(self) -> float:
        """The exact largest element ingested."""
        self._require_data()
        return self._max

    # -- per-engine surface --------------------------------------------

    def guaranteed_rank_error(self) -> int:
        """Summary-wide rank guarantee ``g`` (distance < ``g``)."""
        raise NotImplementedError

    def bounds_arrays(
        self, phis: np.ndarray | Sequence[float]
    ) -> tuple[np.ndarray, ...]:
        """``(psi, lower, upper, max_below, max_above, phis)`` arrays."""
        raise NotImplementedError

    def merge(self, other: "SketchSummary") -> "SketchSummary":
        raise NotImplementedError


def bounds_list(
    summary: SketchSummary, phis: Sequence[float]
) -> list[QuantileBounds]:
    """Assemble :class:`~repro.core.QuantileBounds` rows from a summary's
    vectorised ``bounds_arrays`` (indices 0: sketches do not expose
    sample positions)."""
    psi, lower, upper, max_below, max_above, fractions = (
        summary.bounds_arrays(phis)
    )
    return [
        QuantileBounds(
            phi=float(fractions[i]),
            rank=int(psi[i]),
            lower=float(lower[i]),
            upper=float(upper[i]),
            max_below=int(max_below[i]),
            max_above=int(max_above[i]),
        )
        for i in range(fractions.size)
    ]


class SketchEngine:
    """Base engine: the :class:`~repro.core.QuantileEstimator` surface
    over a :class:`SketchSummary` subclass.

    Subclasses set ``name``/``summary_cls`` and build their summary in
    :meth:`_new_summary`; everything else — source normalisation, obs
    counters, bounds assembly — is shared.
    """

    name = "abstract"
    guarantee_kind = "deterministic"
    summary_cls: type[SketchSummary] = SketchSummary

    #: Chunk size used when chopping arrays/datasets into a stream.
    run_size = 1 << 17

    def _new_summary(self) -> SketchSummary:
        raise NotImplementedError

    def summarize(self, source: DataSource) -> SketchSummary:
        """One pass over ``source`` into a fresh sketch summary."""
        sketch = self._new_summary()
        tracer = current_tracer()
        with tracer.span(f"portfolio.{self.name}.summarize"):
            consume(sketch, source, run_size=self.run_size)
        tracer.count(f"portfolio.{self.name}.ingest.elements", sketch.n)
        return sketch

    def bounds(
        self, summary: SketchSummary, phis: Sequence[float]
    ) -> list[QuantileBounds]:
        """Quantile bounds for many fractions."""
        out = bounds_list(summary, phis)
        current_tracer().count(f"portfolio.{self.name}.queries", len(out))
        return out

    def bound(self, summary: SketchSummary, phi: float) -> QuantileBounds:
        """Quantile bounds for a single fraction."""
        return self.bounds(summary, [phi])[0]

    def estimate(
        self, source: DataSource, phis: Sequence[float]
    ) -> list[QuantileBounds]:
        """``summarize`` + ``bounds`` in one call."""
        return self.bounds(self.summarize(source), phis)

    @classmethod
    def restored_key_state(
        cls,
        loaded: SketchSummary,
        compactions: int,
        *,
        epsilon: float,
        max_samples: int,
    ) -> SketchSummary:
        """A restored sketch carries its whole state (KLL's RNG too), so
        it is the registry key's fold state as it stands."""
        return loaded
