"""The ``maxlt`` rank array against the two-lookup formula it replaced.

``OPAQSummary._build_maxlt`` computes ``maxlt[i]``, the guaranteed
maximum of ``count(x < samples[i])``, from the run starts of the sorted
samples and one merge of the samples with the sorted floors.  The
oracle below is the earlier formula, kept verbatim: a stable argsort of
the floors and two ``searchsorted`` sweeps over prefix sums.  Every
summary the library can build — exact deltas, fresh OPAQ summaries,
hand-built ones with arbitrary floors, k-way merges and compactions —
must yield the same int64 array, byte for byte, and so the same
``guaranteed_rank_error()``.

The value pool is tiny and holds ``±0.0`` and ``±inf`` on purpose:
heavy ties between samples, and between floors and samples, are where a
strict ``<`` turns into ``<=`` or a first index into a last one.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import OPAQ, OPAQConfig, OPAQSummary
from repro.portfolio.opaq import exact_delta

#: Few distinct values, so ties are the rule rather than the exception.
POOL = [-np.inf, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, np.inf]


def oracle_maxlt(samples, gaps, floors, cum):
    """The earlier ``_build_maxlt``: stable floor argsort, two lookups."""
    gm1 = (gaps - 1).astype(np.float64)
    cum_gm1_by_sample = np.concatenate([[0.0], np.cumsum(gm1)])
    order = np.argsort(floors, kind="stable")
    floors_sorted = floors[order]
    cum_gm1_by_floor = np.concatenate([[0.0], np.cumsum(gm1[order])])
    left = np.searchsorted(samples, samples, side="left")
    cum_full = np.concatenate([[0], cum])
    base = cum_full[left]
    below_floor = cum_gm1_by_floor[
        np.searchsorted(floors_sorted, samples, side="left")
    ]
    below_sample = cum_gm1_by_sample[left]
    maxlt = base + (below_floor - below_sample)
    return np.minimum(maxlt, cum[-1] - 1).astype(np.int64)


def assert_matches_oracle(summary: OPAQSummary) -> None:
    summary.validate()  # merges, compactions and deltas are built unchecked
    cum = summary.cumulative_min_ranks()
    expected = oracle_maxlt(summary.samples, summary.gaps, summary.floors, cum)
    got = summary.max_below_all()
    assert got.dtype == expected.dtype == np.int64
    assert got.tobytes() == expected.tobytes(), (summary.samples, got, expected)
    cum_prev = np.concatenate([[0], cum[:-1]])
    assert summary.guaranteed_rank_error() == int(np.max(expected - cum_prev)) + 1


values = st.lists(st.sampled_from(POOL), min_size=1, max_size=40).map(
    lambda xs: np.sort(np.array(xs, dtype=np.float64))
)


@st.composite
def hand_built(draw):
    """Any valid bookkeeping: gaps >= 1, floors at or below their sample,
    with ``-inf`` floors and floors equal to their sample both common."""
    samples = draw(values)
    n = samples.size
    gaps = np.array(draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)))
    picks = draw(st.lists(st.sampled_from(POOL + ["own"]), min_size=n, max_size=n))
    floors = np.array(
        [s if p == "own" else min(p, s) for p, s in zip(picks, samples)]
    )
    return OPAQSummary(
        samples=samples,
        gaps=gaps,
        floors=floors,
        num_runs=draw(st.integers(1, 4)),
        count=int(gaps.sum()),
        minimum=float(samples[0]),
        maximum=float(samples[-1]),
    )


@st.composite
def fresh(draw):
    """A one-pass OPAQ summary (``-inf`` floor on each run's first sample)."""
    data = draw(
        st.lists(st.sampled_from(POOL), min_size=1, max_size=120).map(np.array)
    )
    run_size = draw(st.integers(4, 40))
    sample_size = draw(st.integers(1, run_size))
    opaq = OPAQ(OPAQConfig(run_size=run_size, sample_size=sample_size))
    return opaq.summarize(data)


parts = st.one_of(values.map(exact_delta), hand_built(), fresh())


@st.composite
def summaries(draw):
    """Merges of 1-6 parts (a part may be a raw sorted array standing for
    its exact summary), then optionally ``compact`` or ``compact_to``."""
    first = draw(parts)
    others = draw(st.lists(st.one_of(parts, values), max_size=5))
    summary = first.merge(*others)
    how = draw(st.sampled_from(["none", "compact", "compact_to"]))
    if how == "compact":
        summary = summary.compact(draw(st.integers(1, 8)))
    elif how == "compact_to":
        summary = summary.compact_to(draw(st.integers(1, summary.num_samples)))
    return summary


@settings(max_examples=300, deadline=None)
@given(summaries())
def test_maxlt_matches_the_two_lookup_formula(summary):
    assert_matches_oracle(summary)


def test_one_sample_summaries():
    for value in POOL:
        assert_matches_oracle(exact_delta(np.array([value])))
        for floor in (-np.inf, value):
            assert_matches_oracle(
                OPAQSummary(
                    samples=np.array([value]),
                    gaps=np.array([5]),
                    floors=np.array([floor]),
                    num_runs=1,
                    count=5,
                    minimum=value,
                    maximum=value,
                )
            )


def test_all_equal_samples_with_own_and_open_floors():
    samples = np.full(7, 1.0)
    gaps = np.array([3, 1, 2, 4, 1, 1, 2])
    for floors in (samples, np.full(7, -np.inf), np.array([1.0, -1.0] * 3 + [1.0])):
        assert_matches_oracle(
            OPAQSummary(
                samples=samples,
                gaps=gaps,
                floors=floors,
                num_runs=2,
                count=int(gaps.sum()),
                minimum=-1.0,
                maximum=1.0,
            )
        )


def test_signed_zeros_and_infinities_tie():
    samples = np.array([-np.inf, -np.inf, -0.0, 0.0, -0.0, np.inf, np.inf])
    floors = np.array([-np.inf, -np.inf, 0.0, -0.0, -np.inf, 0.0, np.inf])
    gaps = np.array([2, 3, 4, 2, 5, 3, 2])
    summary = OPAQSummary(
        samples=samples,
        gaps=gaps,
        floors=floors,
        num_runs=3,
        count=int(gaps.sum()),
        minimum=-np.inf,
        maximum=np.inf,
    )
    assert_matches_oracle(summary)
    assert_matches_oracle(summary.merge(exact_delta(samples.copy()), samples))
    assert_matches_oracle(summary.compact(2))
