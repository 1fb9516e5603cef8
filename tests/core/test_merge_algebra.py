"""Merge algebra: shard summaries merged in any order or association
must yield byte-identical quantile bounds.

The snapshotter merges shard summaries in shard-id order for stability,
but the guarantee the service makes is stronger: the *bounds* served to a
client are a pure function of the multiset of shard summaries, not of the
order the merge happened to fold them in.  These tests pin that algebra
(commutativity + associativity at the bounds level) over data with heavy
duplication, where tie-ordering inside the merged sample arrays is the
obvious way for an implementation to go wrong.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import OPAQ, OPAQConfig, OPAQSummary, quantile_bounds
from repro.selection import merge_two_with_payload

PHI_GRID = [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]


def bounds_fingerprint(summary: OPAQSummary) -> bytes:
    """Byte-exact serialisation of the bounds over the φ grid.

    Floats are packed as raw IEEE-754 doubles so ``-0.0 != 0.0`` and no
    repr rounding can mask a discrepancy.  The fingerprint covers the
    served answer — (rank, e_l, e_u, max_below, max_above) — and not the
    diagnostic ``lower_index``/``upper_index`` fields: those are positions
    inside the merged sample array, and the ordering of *tied* samples in
    that array legitimately depends on merge order even though the values
    and guarantees at every position do not.
    """
    blob = b""
    for phi in PHI_GRID:
        b = quantile_bounds(summary, phi)
        blob += struct.pack(
            "<qddqq", b.rank, b.lower, b.upper, b.max_below, b.max_above
        )
    return blob


def make_shards(rng: np.random.Generator, k: int) -> list[OPAQSummary]:
    """k shard summaries over a partitioned dataset with many duplicates."""
    config = OPAQConfig(run_size=500, sample_size=25)
    opaq = OPAQ(config)
    # Quantised values => heavy cross-shard ties, uneven shard sizes.
    # ``+ 0.0`` canonicalises signed zeros: -0.0 and 0.0 compare equal, so
    # their tie order is merge-order-arbitrary, and byte-identity would
    # fail on the sign bit alone.
    data = np.round(rng.normal(size=20_000) * 4.0) / 4.0 + 0.0
    parts = np.array_split(data, k)
    sizes = rng.integers(1_000, len(parts[0]) + 1, size=k)
    return [opaq.summarize(part[:size]) for part, size in zip(parts, sizes)]


def fold(shards: list[OPAQSummary]) -> OPAQSummary:
    merged = shards[0]
    for s in shards[1:]:
        merged = merged.merge(s)
    return merged


def tree_fold(shards: list[OPAQSummary]) -> OPAQSummary:
    """Pairwise (balanced-tree) association instead of a left fold."""
    level = list(shards)
    while len(level) > 1:
        nxt = [
            level[i].merge(level[i + 1]) if i + 1 < len(level) else level[i]
            for i in range(0, len(level), 2)
        ]
        level = nxt
    return level[0]


@pytest.mark.parametrize("k", [2, 3, 4, 8])
def test_merge_order_does_not_change_bounds(rng, k):
    shards = make_shards(rng, k)
    reference = bounds_fingerprint(fold(shards))

    assert bounds_fingerprint(fold(shards[::-1])) == reference

    perm_rng = np.random.default_rng(k)
    for _ in range(5):
        order = perm_rng.permutation(k)
        shuffled = [shards[i] for i in order]
        assert bounds_fingerprint(fold(shuffled)) == reference


@pytest.mark.parametrize("k", [3, 4, 8])
def test_merge_association_does_not_change_bounds(rng, k):
    shards = make_shards(rng, k)
    assert bounds_fingerprint(tree_fold(shards)) == bounds_fingerprint(fold(shards))


def test_merge_commutes_pairwise(rng):
    a, b = make_shards(rng, 2)
    ab, ba = a.merge(b), b.merge(a)
    assert bounds_fingerprint(ab) == bounds_fingerprint(ba)
    # The scalar bookkeeping must agree exactly as well.
    assert ab.count == ba.count
    assert ab.num_runs == ba.num_runs
    assert ab.minimum == ba.minimum and ab.maximum == ba.maximum
    assert ab.guaranteed_rank_error() == ba.guaranteed_rank_error()


@pytest.mark.parametrize("k", [2, 4, 8])
def test_merge_guarantee_accounting(rng, k):
    """Merge-time error accounting: the merged epoch's guarantee is
    bracketed by the per-shard budgets —

        max(per-shard)  <=  merged  <=  sum(per-shard)

    Sharding cannot *improve* on the worst shard's budget (the merged
    summary still has to answer inside that shard's data), and in the
    worst case the budgets compose additively (every shard's uncertainty
    window can land on the same rank).  This is why the service reports
    per-shard and merged guarantees as separate fields
    (``QuantileService.stats()``) instead of pretending the merged number
    is the per-shard one: the degradation as shards rise is real and this
    test pins its envelope.
    """
    shards = make_shards(rng, k)
    per_shard = [s.guaranteed_rank_error() for s in shards]
    merged = fold(shards).guaranteed_rank_error()
    assert max(per_shard) <= merged <= sum(per_shard), (per_shard, merged)


def test_service_stats_reports_both_guarantee_levels(rng):
    """The serving layer surfaces the accounting honestly: stats() carries
    each shard's own budget and the merged epoch's budget separately, and
    they satisfy the merge-accounting envelope."""
    from repro.service import QuantileService, ServiceConfig

    config = ServiceConfig(num_shards=4, run_size=1_000, sample_size=50)
    with QuantileService(config) as service:
        service.ingest(rng.normal(size=40_000))
        service.snapshot()
        stats = service.stats()
    per_shard = [s["guarantee"] for s in stats["per_shard"]]
    assert all(g is not None and g >= 1 for g in per_shard)
    merged = stats["guarantee"]
    assert max(per_shard) <= merged <= sum(per_shard), (per_shard, merged)


def test_compaction_is_deterministic_on_canonical_merge(rng):
    """Compaction is NOT part of the merge algebra: it reads the internal
    tie-layout (gaps/floors), which legitimately depends on fold order.
    That is exactly why the snapshotter always merges in shard-id order —
    the canonical fold — before compacting.  Pin the two properties the
    service actually relies on: (a) compacting the canonical fold is
    deterministic, and (b) compacting *any* fold order still yields valid
    conservative guarantees (bounds drawn from the same sample values)."""
    shards = make_shards(rng, 4)
    canonical = fold(shards)
    ref = bounds_fingerprint(canonical.compact_to(200))
    assert bounds_fingerprint(fold(shards).compact_to(200)) == ref

    for variant in (fold(shards[::-1]), tree_fold(shards)):
        compacted = variant.compact_to(200)
        assert compacted.count == canonical.count
        for phi in PHI_GRID:
            b = quantile_bounds(compacted, phi)
            assert b.lower <= b.upper
            assert b.max_between >= 0


# ----------------------------------------------------------------------
# The column-by-column merge against the reference two-way merge
# ----------------------------------------------------------------------

#: Values drawn on both sides of a merge: heavy cross-side ties, and both
#: signed zeros (equal under comparison, distinct in their sign bit).
_TIE_POOL = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.5]


@st.composite
def summaries(draw) -> OPAQSummary:
    """A valid summary with tied and signed-zero samples, ``-inf`` and
    finite floors, compacted by a drawn factor so gaps exceed 1."""
    values = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_TIE_POOL),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    samples = sorted(values)  # stable: the zeros keep their drawn order
    gaps = draw(st.lists(st.integers(1, 5), min_size=len(samples),
                         max_size=len(samples)))
    floors = [
        min(draw(st.sampled_from([-np.inf, *_TIE_POOL])), s) for s in samples
    ]
    summary = OPAQSummary(
        samples=np.array(samples),
        gaps=np.array(gaps),
        floors=np.array(floors),
        num_runs=draw(st.integers(1, 4)),
        count=sum(gaps),
        minimum=samples[0],
        maximum=samples[-1],
    )
    return summary.compact(draw(st.integers(1, 3)))


def _reference_merge(a: OPAQSummary, b: OPAQSummary):
    """The two-way merge over a float64 ``(gap, floor)`` payload."""
    def payload(s: OPAQSummary) -> np.ndarray:
        return np.column_stack([s.gaps.astype(np.float64), s.floors])

    samples, pay = merge_two_with_payload(
        a.samples, payload(a), b.samples, payload(b)
    )
    return samples, pay[:, 0].astype(np.int64), pay[:, 1]


@settings(max_examples=300, deadline=None)
@given(summaries(), summaries())
def test_merge_matches_the_reference_two_way_merge(a, b):
    """Compaction reads the merged tie layout (see the test above), so
    the merge must reproduce the reference kernel's arrays byte for
    byte: ties keep ``a`` before ``b``, sign bits included."""
    merged = a.merge(b)
    samples, gaps, floors = _reference_merge(a, b)
    assert merged.samples.tobytes() == samples.tobytes()
    assert merged.gaps.dtype == np.int64
    assert merged.gaps.tobytes() == gaps.tobytes()
    assert merged.floors.tobytes() == floors.tobytes()
    assert merged.count == a.count + b.count
    assert merged.num_runs == a.num_runs + b.num_runs
