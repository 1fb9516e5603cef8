"""The quantile phase (paper section 2.2): rank arithmetic on the samples.

Given the sorted sample list, the lower and upper bound of the φ-quantile
are array lookups at indices computed from regular sampling's two
properties:

1. the ``i``-th smallest sample has at least ``i·m/s`` elements at or
   below it (here: exactly tracked as the cumulative sum of sub-run sizes,
   ``summary.min_rank_at``), and
2. at most ``i·m/s + (r−1)(m/s−1)`` elements lie strictly below it
   (here: ``summary.max_below_at``).

For the paper's divisible case (``s | m``, equal runs) the closed forms

    ``i = floor(ψ·s/m − (r−1)(1 − s/m))``     (formula 2, lower bound)
    ``j = ceil(ψ·s/m)``                        (formula 5, upper bound)

are exposed as :func:`lower_bound_index` / :func:`upper_bound_index` and
agree with the general machinery exactly.

Tie safety: property 2 as implemented is one element tighter than the
paper states it (``i·m/s − 1 + (r−1)(m/s−1)``: the sample itself is not
*below* itself), which makes the enclosure ``e_l ≤ e_φ ≤ e_u`` hold
unconditionally — including under the heavy duplication the evaluation's
``n/10``-duplicates workloads exercise — while reproducing the paper's
indices verbatim in the divisible case.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.bounds import QuantileBounds
from repro.core.summary import OPAQSummary
from repro.errors import EstimationError
from repro.metrics.true_quantiles import quantile_rank
from repro.obs import current_tracer

__all__ = [
    "lower_bound_index",
    "upper_bound_index",
    "quantile_bounds",
    "bounds_at_rank",
    "bounds_for",
    "bounds_arrays",
    "splitters",
]


def lower_bound_index(rank: int, num_runs: int, subrun: int) -> int:
    """Paper formula (2) for the divisible case: 1-based index of ``e_l``.

    ``subrun`` is ``m/s``.  Returns 0 when no sample is guaranteed to sit
    at or below the true quantile (callers substitute the global minimum).

    The enclosure is tie-safe: the ``i``-th smallest sample has at most
    ``i·(m/s) − 1 + (r−1)(m/s−1)`` elements strictly below it (one tighter
    than the paper's property — the sample is not below itself), so the
    largest ``i`` with ``i·(m/s) ≤ ψ − (r−1)(m/s−1)`` already guarantees
    ``count(x < e_l) ≤ ψ−1``, hence ``e_l ≤ e_ψ`` under any duplication.
    """
    if rank < 1:
        raise EstimationError("rank must be at least 1")
    if subrun < 1 or num_runs < 1:
        raise EstimationError("num_runs and subrun must be positive")
    i = (rank - (num_runs - 1) * (subrun - 1)) // subrun
    return max(0, i)


def upper_bound_index(rank: int, num_runs: int, subrun: int) -> int:
    """Paper formula (5) for the divisible case: 1-based index of ``e_u``."""
    if rank < 1:
        raise EstimationError("rank must be at least 1")
    if subrun < 1 or num_runs < 1:
        raise EstimationError("num_runs and subrun must be positive")
    return -(-rank // subrun)  # ceil division


def quantile_bounds(summary: OPAQSummary, phi: float) -> QuantileBounds:
    """Compute ``[e_l, e_u]`` for one quantile fraction.

    Two binary searches over the cumulative sub-run ranks and two array
    lookups — O(log(r·s)), independent of ``n``.
    """
    return bounds_at_rank(summary, quantile_rank(phi, summary.count), phi=phi)


def bounds_at_rank(
    summary: OPAQSummary, rank: int, phi: float | None = None
) -> QuantileBounds:
    """Compute ``[e_l, e_u]`` for an explicit 1-based target rank.

    Rank-exact entry point (no float fraction round trip) used by the
    multi-pass selectors; :func:`quantile_bounds` delegates here.
    """
    if not 1 <= rank <= summary.count:
        raise EstimationError(
            f"rank {rank} out of range for {summary.count} elements"
        )
    psi = rank
    if phi is None:
        phi = rank / summary.count
    samples = summary.samples
    cum = summary.cumulative_min_ranks()
    maxlt = summary.max_below_all()

    # Lower bound: the largest index guaranteed to have at most psi - 1
    # elements strictly below it (so e_l <= e_psi even under ties).  The
    # max-below array is non-decreasing, so this is one binary search.
    lower_idx = int(np.searchsorted(maxlt, psi - 1, side="right")) - 1
    if lower_idx >= 0:
        lower = float(samples[lower_idx])
        # Lemma 1: at least cum[i] elements are <= e_l, so at most
        # psi - cum[i] elements separate e_l from the true quantile.
        max_below = psi - summary.min_rank_at(lower_idx)
    else:
        lower = summary.minimum
        max_below = psi - 1

    # Upper bound: the smallest index guaranteed to have >= psi elements
    # at or below it.  cum[-1] == n >= psi, so this always exists.
    upper_idx = int(np.searchsorted(cum, psi, side="left"))
    upper = float(samples[upper_idx])
    max_above = int(maxlt[upper_idx]) - psi

    max_above = max(0, min(max_above, summary.count - psi))
    max_below = max(0, min(max_below, psi - 1))

    if upper < lower:
        # Cannot happen for a consistent summary, but keep the enclosure
        # invariant robust against pathological float inputs (NaN-free
        # guaranteed by construction, but -0.0/ties cost nothing to guard).
        lower = upper

    return QuantileBounds(
        phi=phi,
        rank=psi,
        lower=lower,
        upper=upper,
        max_below=int(max_below),
        max_above=int(max_above),
        lower_index=lower_idx + 1,
        upper_index=upper_idx + 1,
    )


def bounds_for(
    summary: OPAQSummary, phis: Iterable[float] | Sequence[float]
) -> list[QuantileBounds]:
    """Bounds for many fractions from one vectorised sweep.

    The same :class:`QuantileBounds` the scalar :func:`quantile_bounds`
    returns per fraction, bit for bit, with the same error for a
    fraction outside (0, 1].
    """
    fractions = [float(phi) for phi in phis]
    tracer = current_tracer()
    with tracer.span("phase.quantile", queries=len(fractions)):
        out = _bounds_list(summary, fractions)
    tracer.count("quantile.queries", len(fractions))
    return out


def _bounds_list(
    summary: OPAQSummary, fractions: list[float]
) -> list[QuantileBounds]:
    if not fractions:
        return []
    vector = np.asarray(fractions, dtype=np.float64)
    outside = ~((vector > 0.0) & (vector <= 1.0))
    if outside.any():
        # The scalar path's error, for the first fraction it would reject.
        quantile_rank(fractions[int(np.argmax(outside))], summary.count)
    columns = (column.tolist() for column in _sweep(summary, vector))
    return [
        QuantileBounds(
            phi=phi,
            rank=psi,
            lower=lower,
            upper=upper,
            max_below=max_below,
            max_above=max_above,
            lower_index=lower_idx + 1,
            upper_index=upper_idx + 1,
        )
        for phi, (psi, lower, upper, max_below, max_above, lower_idx, upper_idx)
        in zip(fractions, zip(*columns))
    ]


def bounds_arrays(
    summary: OPAQSummary, phis: np.ndarray | Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`bounds_for`: one ``searchsorted`` sweep for a
    whole φ-vector.

    Returns ``(psi, lower, upper, max_below, max_above, phis)`` as
    parallel arrays, bit-identical to the scalar path (the per-φ loop in
    :func:`bounds_at_rank`) — same rank arithmetic, same tie handling,
    same clamps — but with cost O(k·log(r·s)) in numpy instead of k
    python iterations.  The serving layer's query hot path.
    """
    fractions = np.ascontiguousarray(phis, dtype=np.float64)
    if fractions.ndim != 1:
        raise EstimationError("phis must be a one-dimensional vector")
    if fractions.size == 0:
        raise EstimationError("pass at least one quantile fraction")
    if not bool(np.all((fractions > 0.0) & (fractions <= 1.0))):
        raise EstimationError(
            f"every phi must lie in (0, 1]; got {fractions!r}"
        )
    psi, lower, upper, max_below, max_above, _, _ = _sweep(summary, fractions)
    return psi, lower, upper, max_below, max_above, fractions


def _sweep(
    summary: OPAQSummary, fractions: np.ndarray
) -> tuple[np.ndarray, ...]:
    """:func:`bounds_at_rank` for a vector of valid fractions:
    ``(psi, lower, upper, max_below, max_above, lower_idx, upper_idx)``
    with 0-based indices (``-1``: no sample bounds from below)."""
    n = summary.count
    # quantile_rank, vectorised: psi = clamp(ceil(phi*n), 1, n).  The
    # product and ceil are the same float64 operations math.ceil performs.
    psi = np.minimum(
        n, np.maximum(1, np.ceil(fractions * n).astype(np.int64))
    )
    samples = summary.samples
    cum = summary.cumulative_min_ranks()
    maxlt = summary.max_below_all()

    lower_idx = np.searchsorted(maxlt, psi - 1, side="right") - 1
    has_lower = lower_idx >= 0
    safe_lower_idx = np.maximum(lower_idx, 0)
    lower = np.where(has_lower, samples[safe_lower_idx], summary.minimum)
    max_below = np.where(has_lower, psi - cum[safe_lower_idx], psi - 1)

    upper_idx = np.searchsorted(cum, psi, side="left")
    upper = samples[upper_idx]
    max_above = maxlt[upper_idx] - psi

    max_above = np.maximum(0, np.minimum(max_above, n - psi))
    max_below = np.maximum(0, np.minimum(max_below, psi - 1))
    # Same guard as the scalar path: keep the enclosure non-inverted even
    # under pathological float inputs.
    lower = np.where(upper < lower, upper, lower)
    return psi, lower, upper, max_below, max_above, lower_idx, upper_idx


def splitters(summary: OPAQSummary, q: int, which: str = "upper") -> np.ndarray:
    """The ``q-1`` equi-depth cut points (for sorting/partitioning apps).

    ``which`` selects the bound used as the cut value: ``"upper"`` (each of
    the first ``q-1`` partitions is guaranteed to catch its quantile),
    ``"lower"``, or ``"mid"`` (midpoint — best point estimate, no one-sided
    guarantee).
    """
    if q < 2:
        raise EstimationError("q must be at least 2")
    if which not in ("upper", "lower", "mid"):
        raise EstimationError("which must be 'upper', 'lower' or 'mid'")
    cuts = []
    for k in range(1, q):
        b = quantile_bounds(summary, k / q)
        cuts.append(
            b.upper if which == "upper" else b.lower if which == "lower" else b.midpoint
        )
    return np.asarray(cuts, dtype=np.float64)
