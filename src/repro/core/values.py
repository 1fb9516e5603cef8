"""The one ingest policy, which every entry point applies through
:func:`ingest_values`: a rank needs a total order, so NaN is refused,
``±inf`` are ordered values and kept, and as ``-0.0 == 0.0`` every zero
the program keeps (never a caller's array) is stored as ``+0.0``; keyed
counts go through :func:`ingest_counts`: whole numbers, never truncated.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError

__all__ = ["ingest_counts", "ingest_values"]


def ingest_values(values: object, *, copy: bool = True, scan: bool = True) -> np.ndarray:
    """``values`` as contiguous 1-D float64; :class:`~repro.errors.DataError`
    if they are not numeric, not 1-D (a scalar included) or hold NaN.

    ``copy`` returns a new array with every zero stored as ``+0.0``;
    without it, the checked input itself, for a path that only refuses or
    stores its zeros further in.  ``scan=False`` skips the NaN pass where
    a later step finds NaN: the sample phase's samples or scan, a server.
    """
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"ingest values are not numeric: {exc}") from None
    if arr.ndim != 1:
        raise DataError(f"ingest values must be one-dimensional, not {arr.ndim}-D")
    # ``min`` propagates NaN, and is cheaper than an ``isnan`` mask.
    if scan and arr.size and np.isnan(arr.min()):
        raise DataError("values contain NaN, which has no rank; quantiles are undefined")
    return np.add(arr, 0.0) if copy else np.ascontiguousarray(arr)


def ingest_counts(counts: object) -> np.ndarray:
    """Per-key element counts as int64; :class:`~repro.errors.DataError`
    unless each is a whole number (never truncated)."""
    try:
        arr = np.asarray(counts, dtype=np.float64)  # None becomes NaN
    except (TypeError, ValueError) as exc:
        raise DataError(f"per-key counts are not numeric: {exc}") from None
    with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage
        whole = arr.astype(np.int64)
    if not np.array_equal(whole, arr):
        raise DataError("per-key counts must be whole numbers")
    return whole
