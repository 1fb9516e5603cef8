"""The one ingest policy, which every entry point applies through
:func:`ingest_values`: a rank needs a total order, so NaN is refused,
``±inf`` are ordered values and kept, and as ``-0.0 == 0.0`` every zero
the program keeps (never a caller's array) is stored as ``+0.0``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError

__all__ = ["ingest_values"]


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
