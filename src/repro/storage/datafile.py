"""Binary on-disk datasets.

The paper's data is *disk-resident*: larger than memory, read strictly in
runs.  :class:`DiskDataset` is the on-disk representation — a tiny
self-describing header followed by a flat array of little-endian keys — and
offers only bulk, offset-based reads so every byte that moves from disk to
memory is observable and chargeable to the I/O cost model.

The header makes files self-describing (dtype + count) so a dataset written
on one machine can be validated when opened on another, and so truncation is
detected instead of silently yielding garbage.

A range that the sample phase would sort as two halves
(:func:`repro.cores._slice_count`: at least ``_SPLIT_CUTOFF`` keys and
two usable CPUs) is also read as two halves: the calling thread reads
the first while this process's one helper thread (:mod:`repro.cores`)
reads the second, each into its own part of the same buffer.  The two
threads' reads meet in one call, so a caller — and an I/O ledger that
wraps :meth:`DiskDataset.read_range` — sees one read of the whole range.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.cores import _running_helper, _slice_count
from repro.errors import ConfigError, DataError

__all__ = ["DiskDataset", "DatasetWriter"]

_MAGIC = b"OPAQDS01"
_DTYPES = {b"f8": np.dtype("<f8"), b"i8": np.dtype("<i8")}
_DTYPE_CODES = {np.dtype("<f8"): b"f8", np.dtype("<i8"): b"i8"}
_HEADER = struct.Struct("<8s2sxxxxxxq")  # magic, dtype code, pad, count


@dataclass(frozen=True)
class DiskDataset:
    """A read-only disk-resident array of keys.

    Attributes
    ----------
    path:
        Location of the backing file.
    dtype:
        Element dtype (``<f8`` or ``<i8``).
    count:
        Number of elements in the dataset (``n`` in the paper).
    """

    path: Path
    dtype: np.dtype
    count: int

    @classmethod
    def open(cls, path: str | os.PathLike) -> "DiskDataset":
        """Open and validate an existing dataset file."""
        path = Path(path)
        try:
            with open(path, "rb") as f:
                raw = f.read(_HEADER.size)
        except FileNotFoundError:
            raise DataError(f"dataset file does not exist: {path}") from None
        if len(raw) != _HEADER.size:
            raise DataError(f"dataset header truncated: {path}")
        magic, code, count = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise DataError(f"not an OPAQ dataset (bad magic): {path}")
        if code not in _DTYPES:
            raise DataError(f"unsupported dtype code {code!r} in {path}")
        dtype = _DTYPES[code]
        expected = _HEADER.size + count * dtype.itemsize
        actual = path.stat().st_size
        if actual != expected:
            raise DataError(
                f"dataset {path} truncated or padded: header promises "
                f"{count} elements ({expected} bytes), file has {actual} bytes"
            )
        return cls(path=path, dtype=dtype, count=count)

    @classmethod
    def create(
        cls, path: str | os.PathLike, values: np.ndarray
    ) -> "DiskDataset":
        """Write ``values`` to ``path`` and return the opened dataset.

        Convenience for data that already fits in memory; use
        :class:`DatasetWriter` to stream paper-scale data to disk chunk by
        chunk.
        """
        with DatasetWriter(path, dtype=np.asarray(values).dtype) as writer:
            writer.append(values)
        return cls.open(path)

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (excluding the header)."""
        return self.count * self.dtype.itemsize

    def read_range(
        self, start: int, count: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Read ``count`` elements starting at element index ``start``.

        This is the *only* read primitive: one contiguous range per call,
        mirroring a sequential disk read of part of a run.

        With ``out`` — a one-dimensional array of ``count`` elements — the
        keys land in ``out`` and ``out`` is returned: a ``readinto`` that
        allocates nothing when ``out`` is C-contiguous and of the file's
        dtype.  Otherwise the keys convert into it as
        ``np.asarray(keys, dtype=out.dtype)`` would.

        A ``readinto`` of a range that sorts as two halves reads them on
        two threads; either half's error (an ``OSError``, or a short
        read's :class:`~repro.errors.DataError`) is what the one-thread
        read raises.
        """
        if start < 0 or count < 0 or start + count > self.count:
            raise DataError(
                f"read_range({start}, {count}) out of bounds for "
                f"dataset of {self.count} elements"
            )
        if out is not None and out.shape != (count,):
            raise ConfigError(
                f"out must have shape ({count},); got {out.shape}"
            )
        offset = _HEADER.size + start * self.dtype.itemsize
        if out is None:
            out = np.empty(count, dtype=self.dtype)
        if (
            out.dtype == self.dtype
            and out.flags.c_contiguous
            and out.flags.writeable
        ):
            data = out
            got = self._read_into(memoryview(out).cast("B"), offset)
        else:
            with open(self.path, "rb") as f:
                f.seek(offset)
                data = np.fromfile(f, dtype=self.dtype, count=count)
            got = data.size
        if got != count:
            raise DataError(
                f"short read from {self.path}: wanted {count}, got {got}"
            )
        if data is not out:
            out[...] = data
        return out

    def _read_into(self, view: memoryview, offset: int) -> int:
        """Fill ``view`` from byte ``offset``, as two halves on two
        threads when the range is split; the whole elements read."""
        itemsize = self.dtype.itemsize
        count = len(view) // itemsize
        if _slice_count(count) == 1:
            return _read_span(self.path, view, offset) // itemsize
        half = count // 2 * itemsize
        tail, head = _running_helper().run_beside(
            partial(_read_span, self.path, view[half:], offset + half),
            partial(_read_span, self.path, view[:half], offset),
        )
        return (head + tail) // itemsize

    def read_all(self) -> np.ndarray:
        """Read the entire dataset (test/ground-truth helper, not the API
        the estimator uses — the estimator goes through
        :class:`repro.storage.RunReader`)."""
        return self.read_range(0, self.count)

    def iter_ranges(self, chunk: int) -> Iterator[np.ndarray]:
        """Yield the dataset in contiguous chunks of ``chunk`` elements."""
        if chunk <= 0:
            raise ConfigError("chunk size must be positive")
        for start in range(0, self.count, chunk):
            yield self.read_range(start, min(chunk, self.count - start))


def _read_span(path: Path, view: memoryview, offset: int) -> int:
    """Read into ``view`` from byte ``offset`` of ``path`` until it is full
    or the file ends; the bytes read.  Each half of a split read opens
    the file itself, so the two threads share no file position."""
    done = 0
    with open(path, "rb", buffering=0) as f:
        f.seek(offset)
        while done < len(view):
            got = f.readinto(view[done:])
            if not got:
                break
            done += got
    return done


class DatasetWriter:
    """Streaming writer for :class:`DiskDataset` files.

    Writes the header up front with a placeholder count, appends chunks,
    and patches the true count on close — so a writer crash leaves a file
    that :meth:`DiskDataset.open` rejects (count mismatch) rather than a
    silently short dataset.

    Use as a context manager::

        with DatasetWriter("keys.opaq") as w:
            for chunk in generator:
                w.append(chunk)
    """

    def __init__(
        self, path: str | os.PathLike, dtype: np.dtype | str = np.float64
    ) -> None:
        dtype = np.dtype(dtype).newbyteorder("<")
        if dtype not in _DTYPE_CODES:
            raise ConfigError(
                f"unsupported dtype {dtype}; use float64 or int64"
            )
        self.path = Path(path)
        self.dtype = dtype
        self.count = 0
        self._file = open(self.path, "wb")  # opaq: transfer[self._file] writer owns it; released in close()
        self._file.write(_HEADER.pack(_MAGIC, _DTYPE_CODES[dtype], -1))
        self._closed = False

    def append(self, values: np.ndarray) -> None:
        """Append a chunk of keys to the file."""
        if self._closed:
            raise DataError("writer is closed")
        chunk = np.ascontiguousarray(values, dtype=self.dtype)
        chunk.tofile(self._file)
        self.count += chunk.size

    def close(self) -> DiskDataset:
        """Finalise the header and return the opened dataset."""
        if not self._closed:
            self._file.seek(0)
            self._file.write(_HEADER.pack(_MAGIC, _DTYPE_CODES[self.dtype], self.count))
            self._file.close()
            self._closed = True
        return DiskDataset.open(self.path)

    def __enter__(self) -> "DatasetWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # leave the placeholder count so open() rejects the file
            if not self._closed:
                self._file.close()
                self._closed = True
