"""Merging of sorted sample lists.

After the sample phase produces one sorted sample list per run, the paper
merges the ``r`` lists into a single sorted list of ``r*s`` samples.
:func:`kway_merge` does it with one stable argsort of the lists
concatenated in index order: ``O(N log N)`` against the textbook heap
merge's ``O(N log r)`` (the figure the parallel simulator charges), but
entirely in C, and it orders ties exactly as the heap does — by list index,
then by position within a list.  :func:`merge_two_with_payload` is the
binary merge the simulated bitonic network uses as its compare-exchange.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.obs import current_tracer

__all__ = ["kway_merge", "merge_two_with_payload", "is_sorted"]


def is_sorted(values: np.ndarray) -> bool:
    """True when ``values`` is non-decreasing."""
    return bool((values[1:] >= values[:-1]).all()) if values.size else True


def merge_two_with_payload(
    a: np.ndarray,
    a_payload: np.ndarray,
    b: np.ndarray,
    b_payload: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two sorted key arrays, carrying a payload row along each key.

    Used by the bitonic merge network, whose samples travel with their
    sub-run size and floor-value bookkeeping.  Payloads may be
    one-dimensional or row-per-key two-dimensional.
    """
    a_payload = np.asarray(a_payload)
    b_payload = np.asarray(b_payload)
    out = np.empty(a.size + b.size, dtype=np.result_type(a, b, np.float64))
    pay = np.empty(
        (out.size,) + a_payload.shape[1:],
        dtype=np.result_type(a_payload, b_payload),
    )
    # numpy has no public two-way merge; searchsorted gives each element of
    # ``b`` its final slot in linear-ish time and stays in C.
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
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Merge ``r`` sorted arrays into one sorted float64 array.

    When ``payloads`` is given (one array per list, same lengths), each key
    carries its payload row through the merge and the function returns the
    pair ``(merged_keys, merged_payloads)``.  The result never aliases an
    input.

    When tracing is active, the merge emits a ``phase.kway_merge`` span
    plus a ``merge.keys`` counter (total keys merged).
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return _merge_sorted(lists, payloads)
    with tracer.span("phase.kway_merge", lists=len(lists)):
        result = _merge_sorted(lists, payloads)
    merged = result[0] if payloads is not None else result
    assert isinstance(merged, np.ndarray)
    tracer.count("merge.keys", int(merged.size), lists=len(lists))
    return result


def _merge_sorted(
    lists: Sequence[np.ndarray],
    payloads: Sequence[np.ndarray] | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The uninstrumented merge (see :func:`kway_merge`)."""
    arrays = [np.asarray(lst) for lst in lists]
    if payloads is not None:
        if len(payloads) != len(arrays):
            raise ConfigError("payloads must match lists one-to-one")
        all_pays = [np.asarray(p) for p in payloads]
        if any(p.shape[0] != a.size for p, a in zip(all_pays, arrays)):
            raise ConfigError("each payload must have its list's length")
        pays = [p for p, a in zip(all_pays, arrays) if a.size]
    arrays = [a for a in arrays if a.size]

    if not arrays:
        empty = np.empty(0, dtype=np.float64)
        if payloads is None:
            return empty
        # An empty merge keeps its payloads' row shape and dtype, so it
        # concatenates with non-empty merges of the same payloads.
        if not all_pays:
            return empty, np.empty(0, dtype=np.int64)
        return empty, np.concatenate(all_pays)
    if len(arrays) == 1:
        if payloads is not None:
            return arrays[0].astype(np.float64), pays[0].copy()
        return arrays[0].astype(np.float64)

    keys = np.concatenate([a.astype(np.float64, copy=False) for a in arrays])
    order = np.argsort(keys, kind="stable")  # opaq: ignore[one-pass-sort] merging r SORTED sample lists, not sorting a run; O(rs log rs) on samples only
    merged = keys[order]
    if payloads is None:
        return merged
    payload = np.concatenate(pays)
    return merged, payload[order]
