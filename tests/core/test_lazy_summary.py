"""The lazy fold: every read of a :class:`LazySummary` (which holds
``IncrementalOPAQ``'s runs and every rollup) equals the eager
merge-then-compact chain byte for byte.  The oracle merges with its own
stable two-way merge, through the checked constructor."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.core.incremental import LazySummary, exact_delta, fold
from repro.core.summary import OPAQSummary


def exact(values) -> OPAQSummary:
    """The exact summary of sorted values, through the checked constructor."""
    values = np.asarray(values, dtype=np.float64)
    return OPAQSummary(
        samples=values, gaps=np.ones(values.size, dtype=np.int64),
        floors=values, num_runs=1, count=values.size,
        minimum=float(values[0]), maximum=float(values[-1]),
    )


def eager_merge(a: OPAQSummary, b: OPAQSummary) -> OPAQSummary:
    """One stable argsort, ``a``'s ties before ``b``'s; extremes fold
    left to right."""
    samples = np.concatenate([a.samples, b.samples])
    order = samples.argsort(kind="stable")
    return OPAQSummary(
        samples=samples[order],
        gaps=np.concatenate([a.gaps, b.gaps])[order],
        floors=np.concatenate([a.floors, b.floors])[order],
        num_runs=a.num_runs + b.num_runs,
        count=a.count + b.count,
        minimum=min(a.minimum, b.minimum),
        maximum=max(a.maximum, b.maximum),
    )


class EagerChain:
    """The oracle: merge each part on arrival, then compact."""

    def __init__(self, max_samples: int | None) -> None:
        self.max_samples = max_samples
        self.summary: OPAQSummary | None = None

    def absorb(self, part) -> None:
        if not isinstance(part, OPAQSummary):
            part = exact(part)
        merged = part if self.summary is None else eager_merge(self.summary, part)
        self.summary = (
            merged if self.max_samples is None else merged.compact_to(self.max_samples)
        )


def as_bytes(summary: OPAQSummary | None) -> bytes | None:
    return None if summary is None else summary.to_bytes()


# Heavy duplicates and both zeros beside arbitrary finite values; parts
# of 1 to 40 elements, as sorted arrays or as summaries whose groups of
# 1 to 4 carry floors below their samples.
_values = st.lists(
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5]) | st.floats(-1e3, 1e3),
    min_size=1,
    max_size=40,
).map(lambda v: np.sort(np.array(v, dtype=np.float64)))
_parts = _values | st.builds(
    lambda v, k: exact(v).compact(k), _values, st.integers(1, 4)
)
_ops = st.lists(
    st.tuples(st.just("absorb"), _parts)
    | st.tuples(st.sampled_from(["parts", "count", "folded"]), st.none()),
    min_size=1,
    max_size=30,
)

#: Twenty parts whose equal samples carry different floors, read in one
#: merge: only a stable merge keeps their order.
_TIED = [
    ("absorb", exact(np.ones(4)).compact(2)),
    ("absorb", exact([-1.0, 1.0, 1.0, 1.0]).compact(2)),
] * 10 + [("folded", None)]


def held(*parts) -> int:
    """Samples held: a summary's num_samples, one per array element."""
    return sum(p.num_samples if isinstance(p, OPAQSummary) else p.size for p in parts)


class TestEveryReadEqualsTheEagerChain:
    # None: every part waits; 3: below one part, so nearly every absorb
    # compacts; 60: the first parts wait, later ones cross the bound.
    @settings(max_examples=200, deadline=None)
    @given(max_samples=st.sampled_from([None, 3, 60]), ops=_ops)
    @example(max_samples=None, ops=_TIED)
    @example(max_samples=60, ops=_TIED)
    def test_property(self, max_samples, ops):
        lazy = LazySummary(max_samples)
        oracle = EagerChain(max_samples)
        for op, part in ops:
            if op == "absorb":
                fits = max_samples is None or held(*lazy.parts, part) <= max_samples
                waiting = len(lazy.parts)
                lazy.absorb(part)
                oracle.absorb(part)
                # A part that fits waits; one that does not merges all.
                assert len(lazy.parts) == (waiting + 1 if fits else 1)
            elif op == "parts":
                parts = lazy.parts
                assert as_bytes(fold(parts)) == as_bytes(oracle.summary)
                # Reading the parts merges nothing.
                assert all(a is b for a, b in zip(lazy.parts, parts))
                assert len(lazy.parts) == len(parts)
            elif op == "count":
                assert lazy.count == (0 if oracle.summary is None else oracle.summary.count)
            else:
                assert as_bytes(lazy.folded()) == as_bytes(oracle.summary)
                assert len(lazy.parts) == (oracle.summary is not None)
            assert max_samples is None or held(*lazy.parts) <= max_samples
        folded = lazy.folded()
        assert as_bytes(folded) == as_bytes(oracle.summary)
        if folded is not None:
            folded.validate()  # merges and compactions are built unchecked
            # A fold with a bound compacts the eager summary once.
            assert as_bytes(fold(lazy.parts, 5)) == as_bytes(
                oracle.summary.compact_to(5)
            )


def test_kept_arrays_are_copies():
    """Neither the first part nor a waiting one pins the caller's buffer."""
    lazy = LazySummary(64)
    first, second = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    lazy.absorb(first)
    lazy.absorb(second)
    first[:] = second[:] = 0.0
    np.testing.assert_array_equal(lazy.folded().samples, [1.0, 2.0, 3.0, 4.0])


def test_exact_delta_is_the_exact_summary():
    assert as_bytes(exact_delta(np.array([0.0, 1.0]))) == as_bytes(exact([0.0, 1.0]))
