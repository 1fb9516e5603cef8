"""Merging of sorted sample lists.

After the sample phase produces one sorted sample list per run, the paper
merges the ``r`` lists into a single sorted list of ``r*s`` samples in
``O(r*s*log r)`` time.  :func:`kway_merge` implements the textbook heap-based
r-way merge (and is what the complexity accounting in the parallel simulator
models); :func:`merge_two` is the binary merge used by the simulated bitonic
merge network.

The heap loop is the *reference kernel*; passing ``kernel="numpy"`` routes
the merge through :func:`repro.selection.kernels.merge_sorted_numpy`
(stable argsort of the concatenation, entirely in C) which is
bit-identical in output — ties break by list index either way — and much
faster for realistic ``r``.  See :mod:`repro.selection.kernels`.
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.obs import current_tracer
from repro.selection.kernels import merge_sorted_numpy, validate_kernel

__all__ = ["kway_merge", "merge_two", "merge_two_with_payload", "is_sorted"]


def is_sorted(values: np.ndarray) -> bool:
    """True when ``values`` is non-decreasing."""
    return bool((values[1:] >= values[:-1]).all()) if values.size else True


def merge_two(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two sorted arrays into one sorted array (stable, linear time)."""
    out = np.empty(a.size + b.size, dtype=np.result_type(a, b, np.float64))
    # numpy has no public two-way merge; searchsorted gives each element of
    # ``b`` its final slot in linear-ish time and stays in C.
    positions = np.searchsorted(a, b, side="right") + np.arange(b.size)
    mask = np.zeros(out.size, dtype=bool)
    mask[positions] = True
    out[mask] = b
    out[~mask] = a
    return out


def merge_two_with_payload(
    a: np.ndarray,
    a_payload: np.ndarray,
    b: np.ndarray,
    b_payload: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two sorted key arrays, carrying a payload row along each key.

    Used by the bitonic merge network and the heap k-way merge, whose
    samples travel with their sub-run size and floor-value bookkeeping.
    Payloads may be one-dimensional or row-per-key two-dimensional.
    """
    a_payload = np.asarray(a_payload)
    b_payload = np.asarray(b_payload)
    out = np.empty(a.size + b.size, dtype=np.result_type(a, b, np.float64))
    pay = np.empty(
        (out.size,) + a_payload.shape[1:],
        dtype=np.result_type(a_payload, b_payload),
    )
    positions = np.searchsorted(a, b, side="right") + np.arange(b.size)
    mask = np.zeros(out.size, dtype=bool)
    mask[positions] = True
    out[mask] = b
    out[~mask] = a
    pay[mask] = b_payload
    pay[~mask] = a_payload
    return out, pay


def kway_merge(
    lists: Sequence[np.ndarray],
    payloads: Sequence[np.ndarray] | None = None,
    kernel: str = "python",
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Merge ``r`` sorted arrays into one sorted array.

    Uses a heap of (head value, list index, cursor) triples — the classic
    ``O(N log r)`` algorithm the paper's cost analysis assumes — but drains
    runs of consecutive elements from the winning list in bulk so the Python
    overhead stays modest.  Falls back to :func:`merge_two` for two lists.
    ``kernel="numpy"`` swaps in the vectorised stable-argsort kernel
    (:func:`repro.selection.kernels.merge_sorted_numpy`), whose output is
    bit-identical to the heap's.

    When ``payloads`` is given (one array per list, same lengths), each key
    carries its payload row through the merge and the function returns the
    pair ``(merged_keys, merged_payloads)``.

    When tracing is active, the merge emits a ``phase.kway_merge`` span
    plus a ``merge.keys`` counter (total keys merged).
    """
    validate_kernel(kernel)
    merge = merge_sorted_numpy if kernel == "numpy" else _kway_merge
    tracer = current_tracer()
    if not tracer.enabled:
        return merge(lists, payloads)
    with tracer.span("phase.kway_merge", lists=len(lists), kernel=kernel):
        result = merge(lists, payloads)
    merged = result[0] if payloads is not None else result
    assert isinstance(merged, np.ndarray)
    tracer.count("merge.keys", int(merged.size), lists=len(lists))
    return result


def _kway_merge(
    lists: Sequence[np.ndarray],
    payloads: Sequence[np.ndarray] | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The uninstrumented merge (see :func:`kway_merge`)."""
    arrays = [np.asarray(lst) for lst in lists]
    if payloads is not None:
        if len(payloads) != len(arrays):
            raise ConfigError("payloads must match lists one-to-one")
        pays = [np.asarray(p) for p in payloads]
        if any(p.shape[0] != a.size for p, a in zip(pays, arrays)):
            raise ConfigError("each payload must have its list's length")
        pays = [p for p, a in zip(pays, arrays) if a.size]
    arrays = [a for a in arrays if a.size]

    if not arrays:
        empty = np.empty(0, dtype=np.float64)
        return (empty, empty.astype(np.int64)) if payloads is not None else empty
    if len(arrays) == 1:
        if payloads is not None:
            return arrays[0].copy(), pays[0].copy()
        return arrays[0].copy()
    if len(arrays) == 2:
        if payloads is not None:
            return merge_two_with_payload(arrays[0], pays[0], arrays[1], pays[1])
        return merge_two(arrays[0], arrays[1])

    total = sum(lst.size for lst in arrays)
    out = np.empty(total, dtype=np.float64)
    out_pay = (
        np.empty((total,) + pays[0].shape[1:], dtype=np.result_type(*pays))
        if payloads is not None
        else None
    )
    heap = [(float(lst[0]), i, 0) for i, lst in enumerate(arrays)]
    heapq.heapify(heap)
    pos = 0
    while heap:
        value, i, cursor = heapq.heappop(heap)
        lst = arrays[i]
        # Bulk-drain from the winning list up to the next heap head.  A
        # key EQUAL to that head belongs to whichever list has the lower
        # index (the heap's tie order, which the stable argsort kernel
        # reproduces) — so the drain may swallow ties only when this
        # list's index is below the waiting head's.
        if heap:
            limit, j = heap[0][0], heap[0][1]
            side = "right" if i < j else "left"
        else:
            limit, side = np.inf, "right"
        end = int(np.searchsorted(lst, limit, side=side))
        if end <= cursor:
            end = cursor + 1  # always make progress
        chunk = lst[cursor:end]
        out[pos : pos + chunk.size] = chunk
        if out_pay is not None:
            out_pay[pos : pos + chunk.size] = pays[i][cursor:end]
        pos += chunk.size
        if end < lst.size:
            heapq.heappush(heap, (float(lst[end]), i, end))
    if out_pay is not None:
        return out, out_pay
    return out
