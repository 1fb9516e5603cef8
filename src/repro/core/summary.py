"""The OPAQ summary: a merged, sorted sample list plus rank bookkeeping.

The output of the sample phase (paper section 2.1 and Figure 1) is a sorted
list of ``r*s`` regular samples.  :class:`OPAQSummary` packages that list
together with what the quantile phase's rank arithmetic needs:

``gaps``
    The *group weight* of each sample — how many data elements the sample
    represents (its sub-run size, ``m/s`` for every sample in the paper's
    divisible case).  Every element belongs to exactly one group, and every
    element of a group is **at or below** its sample.  The cumulative sum
    of gaps is therefore an exact lower bound on
    ``count(elements <= samples[i])`` — regular sampling's first property.

``floors``
    A value every element of the group is **at or above**: for a fresh
    sample this is the previous regular sample of the same run (``-inf``
    for a run's first sample).  Floors power the second property — the
    upper bound on ``count(elements < samples[i])``: an element below a
    value ``v`` lives either in a group whose sample is below ``v``
    (fully counted by the gap prefix sum) or in a *straddling* group
    (``floor < v <= sample``), which can contribute at most ``gap - 1``
    elements (its sample is not below ``v``).  For a freshly built summary
    at most one group per run straddles any value, which reproduces the
    paper's ``i·m/s + (r-1)(m/s-1)`` bound exactly; after merging or
    compacting summaries the straddle accounting remains *sound* where
    closed-form run arithmetic would silently break.

``count`` / ``minimum`` / ``maximum``
    ``n`` and the global extremes — free to track during the pass, and
    they give finite bounds for extreme quantiles where the index
    arithmetic falls off either end of the sample list.

Summaries are the library's durable artifact: they can be merged (the
incremental extension of section 4), compacted to a memory bound (gap
groups collapse, floors take the group minimum), serialised to disk, and
queried for any number of quantiles at ``O(log(r·s))`` each.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import DataError, EstimationError
from repro.selection import is_sorted

__all__ = ["OPAQSummary", "field_parts", "pack_fields", "unpack_fields"]

#: :meth:`OPAQSummary.compact` folds groups of at most this many samples
#: column by column (two numpy calls per column) and wider ones with two
#: ``reduceat`` calls (a cost per group).  The columns take a group's
#: least floor in order, as ``reduceat`` does for groups of up to 8 but
#: not of 9, 17, 25, ... (numpy 2.4 keeps the other of two tied signed
#: zeros there), so 8 is the widest they fold bit for bit.  Ingest stores
#: zeros as ``+0.0``, but ``-0.0`` still reaches a summary through the
#: public constructor and decodes of an earlier build's.  Column time
#: over ``reduceat`` time, best of 7 on a 2-vCPU x86-64 host with numpy
#: 2.4, 64 to 1M samples: with 128 groups or more, 0.09-0.34 at factor
#: 2, 0.23-0.92 at 3, 0.20-0.60 at 4 and 0.44-0.96 at 8 (with fewer
#: groups, up to 4x, at most ~15 µs); from factor 16 on, 1.3-17x at
#: every size.  The workloads compact by 2, with 128 groups or more
#: (stream shards on ~101,000 samples, keyed OPAQ keys on 520-704 and
#: rollups on 8,000-11,000), and a few times by 3 (rollups on ~17,000).
_COLUMN_FACTOR = 8


@dataclass(frozen=True)
class OPAQSummary:
    """Sorted sample list + rank bookkeeping; the product of one pass."""

    samples: np.ndarray
    gaps: np.ndarray
    num_runs: int
    count: int
    minimum: float
    maximum: float
    #: Per-group lower value bound; defaults to the fully conservative
    #: ``-inf`` (sound for hand-built summaries, maximally pessimistic).
    floors: np.ndarray | None = None

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.float64)
        gaps = np.asarray(self.gaps, dtype=np.int64)
        floors = np.full(samples.shape, -np.inf) if self.floors is None else self.floors
        vars(self).update(
            samples=samples, gaps=gaps, floors=np.asarray(floors, dtype=np.float64),
        )
        self.validate()

    @classmethod
    def _trusted(
        cls, samples: np.ndarray, gaps: np.ndarray, floors: np.ndarray,
        num_runs: int, count: int, minimum: float, maximum: float,
    ) -> "OPAQSummary":
        """A summary of float64 samples and floors and int64 gaps that keep
        G1-G3 by construction (merges, compactions, deltas): no checks."""
        summary = object.__new__(cls)
        vars(summary).update(
            samples=samples, gaps=gaps, floors=floors, num_runs=num_runs,
            count=count, minimum=minimum, maximum=maximum,
        )
        return summary

    def validate(self) -> None:
        """Check the group invariants G1-G3 (docs/guarantees.md) in O(n).

        Raises :class:`~repro.errors.EstimationError` on the first one
        broken.  The public constructor, and so every decode, runs it.
        """
        samples, gaps, floors = self.samples, self.gaps, self.floors
        if self.count <= 0:
            raise EstimationError("summary must describe at least one element")
        if samples.size == 0:
            raise EstimationError("summary must hold at least one sample")
        if gaps.shape != samples.shape or floors.shape != samples.shape:
            raise EstimationError(
                "gaps and floors must align one-to-one with samples"
            )
        if self.num_runs <= 0:
            raise EstimationError("num_runs must be positive")
        if gaps.min() < 1:
            raise EstimationError("every sub-run must hold at least 1 element")
        if (floors > samples).any():
            raise EstimationError("a group's floor cannot exceed its sample")
        if self.minimum > self.maximum:
            raise EstimationError("minimum exceeds maximum")
        if not is_sorted(samples):
            raise EstimationError("sample list must be sorted")
        if int(self._cum[-1]) != self.count:
            raise EstimationError(
                f"sub-run sizes sum to {int(self._cum[-1])} but the summary claims "
                f"{self.count} elements"
            )

    @property
    def _cum(self) -> np.ndarray:
        """Prefix sums of the gaps, built on first use and cached: a
        merge or compaction that is merged or compacted again never
        reads them.  The race on first use is benign, as for
        :attr:`_maxlt`."""
        cached: np.ndarray | None = self.__dict__.get("_cum_cache")
        if cached is None:
            cached = self.gaps.cumsum()
            object.__setattr__(self, "_cum_cache", cached)
        return cached

    @property
    def _maxlt(self) -> np.ndarray:
        """The ``maxlt`` array, built on first use and cached.

        Summary construction is hot in the multi-tenant registry: a fold
        builds several short-lived summaries per key (the merge, then
        one candidate per compaction width), and only the survivor ever
        answers a rank query.  Deferring the build here cuts a merge or
        compaction to its own array work.  Two threads racing on
        first use both build the same idempotent array, so the benign
        race costs one redundant build, never a wrong answer.
        """
        cached: np.ndarray | None = self.__dict__.get("_maxlt_cache")
        if cached is None:
            cached = self._build_maxlt(
                self.samples, self.gaps, self.floors, self._cum
            )
            object.__setattr__(self, "_maxlt_cache", cached)
        return cached

    @staticmethod
    def _build_maxlt(
        samples: np.ndarray,
        gaps: np.ndarray,
        floors: np.ndarray,
        cum: np.ndarray,
    ) -> np.ndarray:
        """``maxlt[i]`` = guaranteed max of ``count(x < samples[i])``.

        For ``v = samples[i]``::

            maxlt(v) =   sum of gaps of groups with sample < v
                       + sum of (gap - 1) of straddling groups
                                (floor < v <= sample)

        By inclusion-exclusion the straddle indicator is ``[floor < v] -
        [sample < v]``, and a group with ``sample < v`` has ``floor < v``
        too, so the sum collapses to::

            maxlt(v) = count(samples < v) + sum of (gap - 1) of groups
                                             with floor < v

        The first term is the index of the first sample equal to ``v``,
        read off the run starts of the sorted samples.  For the second,
        one default sort orders the floors — integer prefix sums do not
        depend on the order of equal floors — and a stable sort of the
        samples followed by the sorted floors merges the two sorted
        lists, placing every sample before the floors equal to it: its
        merged position minus its index counts the floors strictly below
        it.  The result is non-decreasing (it bounds a non-decreasing
        function and both terms only grow with ``v``).
        """
        n = samples.size
        # Allocated ahead of the temporaries.  A scan builds this array
        # between freeing one pass's run buffer and taking the next; a
        # long-lived array placed behind the temporaries can split that
        # freed block, and the heap then grows by a whole run buffer.
        maxlt = np.empty(n, dtype=np.int64)
        order = floors.argsort()
        merged = np.concatenate((samples, floors[order])).argsort(kind="stable")
        index = np.arange(n)
        below = (merged < n).nonzero()[0]
        below -= index  # floors below each sample
        gap_sums = np.concatenate(([0], gaps[order].cumsum()))
        np.take(gap_sums, below, out=maxlt)
        maxlt -= below  # their sum of gap - 1
        np.putmask(index[1:], samples[1:] == samples[:-1], 0)
        maxlt += np.maximum.accumulate(index, out=index)  # first index of each value
        return np.minimum(maxlt, cum[-1] - 1, out=maxlt)

    def __repr__(self) -> str:  # pragma: no cover - display only
        return (
            f"OPAQSummary(count={self.count:,}, runs={self.num_runs}, "
            f"samples={self.num_samples:,}, "
            f"range=[{self.minimum:.6g}, {self.maximum:.6g}], "
            f"rank_error<={self.guaranteed_rank_error():,})"
        )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------

    @property
    def num_samples(self) -> int:
        """Size of the merged sample list (``r*s`` in the paper)."""
        return int(self.samples.size)

    @property
    def subrun_floor(self) -> int:
        """Smallest group weight (``m/s`` in the divisible case)."""
        return int(self.gaps.min())

    @property
    def subrun_ceil(self) -> int:
        """Largest group weight (``m/s`` in the divisible case)."""
        return int(self.gaps.max())

    @property
    def memory_footprint(self) -> int:
        """Keys of memory the summary occupies (samples, gaps, floors)."""
        return 3 * self.num_samples

    def min_rank_at(self, index: int) -> int:
        """Guaranteed minimum of ``count(x <= samples[index])`` (0-based).

        Regular sampling's first property: the ``index+1`` smallest samples
        each own a disjoint group of elements at or below them.
        """
        if not 0 <= index < self.num_samples:
            raise EstimationError(f"sample index {index} out of range")
        return int(self._cum[index])

    def max_below_at(self, index: int) -> int:
        """Guaranteed maximum of ``count(x < samples[index])`` (0-based).

        Regular sampling's second property via the floor bookkeeping (see
        the module docstring); sound for fresh, merged and compacted
        summaries alike.
        """
        if not 0 <= index < self.num_samples:
            raise EstimationError(f"sample index {index} out of range")
        return int(self._maxlt[index])

    def cumulative_min_ranks(self) -> np.ndarray:
        """The whole ``min_rank_at`` array (read-only view)."""
        view = self._cum.view()
        view.flags.writeable = False
        return view

    def max_below_all(self) -> np.ndarray:
        """The whole ``max_below_at`` array (read-only view)."""
        view = self._maxlt.view()
        view.flags.writeable = False
        return view

    def guaranteed_rank_error(self) -> int:
        """Worst-case rank distance between either bound and the truth.

        Computed exactly from the bookkeeping:
        ``max_i (maxlt[i] - cum[i-1])``.  Equals Lemma 1/2's ``n/s``
        (= ``r·m/s``) in the paper's divisible case; degrades
        proportionally (not catastrophically) under compaction.
        """
        cum_prev = np.concatenate([[0], self._cum[:-1]])
        return int(np.max(self._maxlt - cum_prev)) + 1

    # ------------------------------------------------------------------
    # Incremental maintenance (paper section 4)
    # ------------------------------------------------------------------

    def merge(self, *others: "OPAQSummary | np.ndarray") -> "OPAQSummary":
        """Combine this summary with others built over disjoint data.

        This is the paper's incremental extension: keep the sorted samples
        of the old runs, sample only the new runs, and merge the sorted
        lists (gap and floor bookkeeping ride along, so the merged
        guarantees stay exact).

        The merge runs column by column: one stable argsort of the
        concatenated samples orders the samples, gaps and floors alike.
        Equal samples keep earlier parts' before later ones', each part
        in its own order — the tie layout compaction reads.  So
        ``a.merge(b, c)`` equals ``a.merge(b).merge(c)`` byte for byte;
        the extremes fold left to right as ``min`` and ``max`` do, so
        even the sign of a tied ``±0.0`` extreme matches.

        A part may also be a sorted, non-empty float64 array, standing
        for its exact summary (one run, unit gaps, floors equal to its
        values) without building one.  With no other part the summary
        is returned as it is.
        """
        if not others:
            return self
        samples = [self.samples]
        gaps = [self.gaps]
        floors = [self.floors]
        minima = [self.minimum]
        maxima = [self.maximum]
        num_runs, count = self.num_runs, self.count
        for part in others:
            if isinstance(part, OPAQSummary):
                samples.append(part.samples)
                gaps.append(part.gaps)
                floors.append(part.floors)
                num_runs += part.num_runs
                count += part.count
                minima.append(part.minimum)
                maxima.append(part.maximum)
            elif isinstance(part, np.ndarray):
                samples.append(part)
                gaps.append(np.ones(part.size, dtype=np.int64))
                floors.append(part)
                num_runs += 1
                count += part.size
                minima.append(float(part[0]))
                maxima.append(float(part[-1]))
            else:
                raise EstimationError(
                    "can only merge with another OPAQSummary or a sorted array"
                )
        merged = np.concatenate(samples)
        order = merged.argsort(kind="stable")
        return OPAQSummary._trusted(
            samples=merged[order],
            gaps=np.concatenate(gaps)[order],
            floors=np.concatenate(floors)[order],
            num_runs=num_runs,
            count=count,
            minimum=min(minima),
            maximum=max(maxima),
        )

    def __add__(self, other: "OPAQSummary") -> "OPAQSummary":
        return self.merge(other)

    def compact(self, factor: int = 2) -> "OPAQSummary":
        """Shrink the sample list ``factor``-fold, trading accuracy for
        memory.

        Adjacent groups of ``factor`` samples collapse into their *last*
        member; the survivor's gap absorbs the group's combined weight and
        its floor drops to the group minimum.  Both regular-sampling
        properties survive (each element is still at or below its group's
        sample and at or above its floor), so all guarantees remain sound
        — just coarser, roughly as if ``s/factor`` samples had been drawn.

        This is what keeps long-lived :class:`~repro.core.IncrementalOPAQ`
        summaries bounded: without compaction the sample list grows by
        ``r·s`` per ingested batch forever.
        """
        if factor < 1:
            raise EstimationError("compaction factor must be at least 1")
        if factor == 1 or self.num_samples <= 1:
            return self
        # Group from the END so the global maximum (the last sample)
        # always survives; a short leading group is fine.
        n = self.num_samples
        lead = n % factor
        if factor > _COLUMN_FACTOR:
            survivors = np.arange(n - 1, -1, -factor)[::-1]
            starts = np.concatenate([[0], survivors[:-1] + 1])
            samples = self.samples[survivors]
            gaps = np.add.reduceat(self.gaps, starts)
            floors = np.minimum.reduceat(self.floors, starts)
        else:
            # ``reduceat`` pays per group, so short full groups fold
            # column by column: the same sums, and the minimum taken in
            # the same order, bit for bit.
            samples = self.samples[lead + factor - 1 :: factor].copy()
            gaps = self.gaps[lead::factor].copy()
            floors = self.floors[lead::factor].copy()
            for j in range(1, factor):
                gaps += self.gaps[lead + j :: factor]
                np.minimum(floors, self.floors[lead + j :: factor], out=floors)
            if lead:
                head = [0]
                samples = np.concatenate((self.samples[lead - 1 : lead], samples))
                gaps = np.concatenate((np.add.reduceat(self.gaps[:lead], head), gaps))
                floors = np.concatenate(
                    (np.minimum.reduceat(self.floors[:lead], head), floors)
                )
        return OPAQSummary._trusted(
            samples=samples,
            gaps=gaps,
            floors=floors,
            num_runs=self.num_runs,
            count=self.count,
            minimum=self.minimum,
            maximum=self.maximum,
        )

    def compact_to(self, max_samples: int) -> "OPAQSummary":
        """Compact (if needed) until at most ``max_samples`` remain."""
        if max_samples < 1:
            raise EstimationError("max_samples must be positive")
        if self.num_samples <= max_samples:
            return self
        factor = -(-self.num_samples // max_samples)
        return self.compact(factor)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    #: On-disk format identity: the magic marks the file as an OPAQ
    #: summary, the version gates compatibility.  History: 2 = pre-floor
    #: archives, 3 = interim floors, 4 = floors + extremes, 5 = adds the
    #: magic stamp (payload unchanged from 4).
    FORMAT_MAGIC = "OPAQSUM"
    FORMAT_VERSION = 5
    _SUPPORTED_FORMATS = (2, 3, 4, 5)

    def _fields(self) -> tuple[dict[str, np.ndarray], dict[str, object]]:
        """The persisted field list: named arrays plus the JSON meta.

        One list for both encodings — the ``.npz`` archive of
        :meth:`save` and the byte record of :meth:`to_bytes`.
        """
        arrays = {"samples": self.samples, "gaps": self.gaps, "floors": self.floors}
        meta = {
            "magic": self.FORMAT_MAGIC,
            "num_runs": self.num_runs,
            "count": self.count,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "format": self.FORMAT_VERSION,
        }
        return arrays, meta

    @classmethod
    def _from_fields(
        cls, arrays: dict[str, np.ndarray], meta: dict[str, Any], source: object
    ) -> "OPAQSummary":
        """Check the magic and version stamp, then rebuild the summary.

        Shared by :meth:`load` and :meth:`from_bytes`; ``source`` names
        the file or record in error messages.
        """
        magic = meta.get("magic", cls.FORMAT_MAGIC)  # absent pre-5: accept
        if magic != cls.FORMAT_MAGIC:
            raise DataError(
                f"{source} is not an OPAQ summary file (magic {magic!r}, "
                f"expected {cls.FORMAT_MAGIC!r})"
            )
        version = meta.get("format")
        if version not in cls._SUPPORTED_FORMATS:
            raise DataError(
                f"summary file {source} has format version {version!r}; this "
                f"build reads versions {cls._SUPPORTED_FORMATS} — upgrade "
                "the library or re-create the summary with `opaq summarize`"
            )
        try:
            return cls(
                samples=arrays["samples"],
                gaps=arrays["gaps"],
                floors=arrays.get("floors"),
                num_runs=int(meta["num_runs"]),
                count=int(meta["count"]),
                minimum=float(meta["minimum"]),
                maximum=float(meta["maximum"]),
            )
        except (KeyError, EstimationError) as exc:  # missing or invalid fields
            raise DataError(f"malformed summary file {source}: {exc}") from None

    def save(self, path: str | os.PathLike) -> None:
        """Persist the summary as an ``.npz`` archive (versioned)."""
        arrays, meta = self._fields()
        np.savez(
            path,
            **arrays,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "OPAQSummary":
        """Load a summary saved with :meth:`save`.

        Accepts formats 2-5; pre-floor archives load with fully
        conservative ``-inf`` floors (sound, looser).  A wrong magic, an
        unknown version or arrays that fail :meth:`validate` raise
        :class:`~repro.errors.DataError` here, with a message naming the
        problem — never an arbitrary failure three layers downstream.
        """
        path = Path(path)
        if path.suffix != ".npz" and not path.exists():
            path = path.with_suffix(path.suffix + ".npz")
        try:
            with np.load(path) as archive:
                arrays = {
                    name: archive[name] for name in archive.files if name != "meta"
                }
                meta = json.loads(bytes(archive["meta"].tobytes()).decode())
        except FileNotFoundError:
            raise DataError(f"summary file does not exist: {path}") from None
        except (KeyError, ValueError) as exc:
            raise DataError(f"malformed summary file {path}: {exc}") from None
        return cls._from_fields(arrays, meta, path)

    def to_bytes(self) -> bytes:
        """The summary as one byte record (see :func:`pack_fields`).

        Same fields and stamp as :meth:`save`, without the zip container:
        the spill store appends these records to its segment log.
        """
        return pack_fields(*self._fields())

    @classmethod
    def from_bytes(cls, record: bytes) -> "OPAQSummary":
        """Rebuild a summary from :meth:`to_bytes` output (bit-identical)."""
        arrays, meta = unpack_fields(record)
        return cls._from_fields(arrays, meta, "byte record")


# ----------------------------------------------------------------------
# Byte records: the archive's fields without the zip container
# ----------------------------------------------------------------------

#: Array dtypes a record can carry, keyed by their tag in the layout.
_FIELD_DTYPES = {"f8": np.dtype(np.float64), "i8": np.dtype(np.int64)}
_FIELD_TAGS = {dtype: tag for tag, dtype in _FIELD_DTYPES.items()}
_HEAD_SIZE = struct.Struct("<I")


def pack_fields(arrays: dict[str, np.ndarray], meta: dict[str, object]) -> bytes:
    """Encode a summary's arrays and meta as one self-describing record.

    Layout: a little-endian ``u32`` head length, a JSON head holding
    ``meta`` and the ``[name, dtype tag, length]`` of every array, then
    each array's raw little-endian bytes in that order.  JSON writes
    floats by ``repr`` and the arrays travel as raw IEEE-754 / two's
    complement bytes, so :func:`unpack_fields` returns them bit for bit.
    Only ``float64`` and ``int64`` arrays are accepted — the dtypes
    every portfolio summary persists.

    >>> record = pack_fields({"x": np.array([1.5, -0.0])}, {"n": 2})
    >>> arrays, meta = unpack_fields(record)
    >>> arrays["x"].tobytes() == np.array([1.5, -0.0]).tobytes(), meta
    (True, {'n': 2})
    """
    return b"".join(field_parts(arrays, meta))


def field_parts(
    arrays: dict[str, np.ndarray], meta: dict[str, object]
) -> list[bytes | np.ndarray]:
    """The buffers :func:`pack_fields` joins into its record, in order.

    Arrays that are already contiguous little-endian come back
    uncopied, so a writer that frames the record itself (the spill
    store's segment log) copies each byte once.
    """
    layout = []
    blobs = []
    for name, array in arrays.items():
        tag = _FIELD_TAGS[array.dtype]
        layout.append([name, tag, int(array.size)])
        blobs.append(np.ascontiguousarray(array, dtype=f"<{tag}"))
    head = json.dumps({"meta": meta, "arrays": layout}).encode()
    return [_HEAD_SIZE.pack(len(head)), head, *blobs]


def unpack_fields(record: bytes) -> tuple[dict[str, np.ndarray], dict[str, Any]]:
    """Decode a :func:`pack_fields` record into ``(arrays, meta)``.

    Every array is a fresh, writable, native-order copy.  A truncated or
    malformed record raises :class:`~repro.errors.DataError`.
    """
    view = memoryview(record)
    pos = _HEAD_SIZE.size
    if len(view) >= pos:
        (size,) = _HEAD_SIZE.unpack_from(view)
        pos += size
    if pos > len(view):
        raise DataError("malformed summary record: truncated head")
    try:
        head = json.loads(bytes(view[_HEAD_SIZE.size : pos]))
        meta = head["meta"]
        layout = [
            (str(name), _FIELD_DTYPES[tag], int(length))
            for name, tag, length in head["arrays"]
        ]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"malformed summary record head: {exc!r}") from None
    if not isinstance(meta, dict):
        raise DataError("malformed summary record: meta is not an object")
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, length in layout:
        end = pos + length * dtype.itemsize
        if length < 0 or end > len(view):
            raise DataError(f"malformed summary record: array {name!r} is cut short")
        arrays[name] = np.frombuffer(
            view[pos:end], dtype=dtype.newbyteorder("<")
        ).astype(dtype)
        pos = end
    if pos != len(view):
        raise DataError(
            f"malformed summary record: {len(view) - pos} trailing bytes"
        )
    return arrays, meta
