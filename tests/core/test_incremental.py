"""Tests for incremental OPAQ (paper section 4)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import OPAQ, IncrementalOPAQ, OPAQConfig
from repro.errors import EstimationError


@pytest.fixture
def config():
    return OPAQConfig(run_size=1000, sample_size=100)


class TestIncrementalOPAQ:
    def test_empty_state(self, config):
        inc = IncrementalOPAQ(config)
        assert inc.count == 0
        assert inc.batches == 0
        with pytest.raises(EstimationError):
            inc.summary
        with pytest.raises(EstimationError):
            inc.bounds(inc.summary, [0.5])

    def test_matches_single_pass(self, config, rng):
        batches = [rng.uniform(size=3000) for _ in range(4)]
        inc = IncrementalOPAQ(config)
        for batch in batches:
            inc.update(batch)
        joint = OPAQ(config).summarize(np.concatenate(batches))
        np.testing.assert_array_equal(
            np.sort(inc.summary.samples), np.sort(joint.samples)
        )
        assert inc.summary.count == joint.count
        assert inc.count == 12_000
        assert inc.batches == 4

    def test_bounds_enclose_truth_over_all_batches(self, config, rng):
        inc = IncrementalOPAQ(config)
        seen = []
        for i in range(5):
            batch = rng.uniform(i, i + 2, size=2000)  # drifting distribution
            seen.append(batch)
            inc.update(batch)
            sd = np.sort(np.concatenate(seen))
            b = inc.bound(inc.summary, 0.5)
            assert b.lower <= sd[b.rank - 1] <= b.upper

    def test_guarantee_tracks_run_count(self, config, rng):
        inc = IncrementalOPAQ(config)
        inc.update(rng.uniform(size=2000))
        g1 = inc.guaranteed_rank_error()
        inc.update(rng.uniform(size=2000))
        g2 = inc.guaranteed_rank_error()
        assert g2 >= g1  # more runs -> (weakly) larger absolute error bound

    def test_update_returns_summary(self, config, rng):
        # update() returns nothing (its run may still be pending); the
        # summary is read from `summary`, which merges the pending runs.
        inc = IncrementalOPAQ(config)
        assert inc.update(rng.uniform(size=500)) is None
        assert inc.summary.count == 500


class TestBoundedIncremental:
    def test_max_samples_enforced(self, config, rng):
        inc = IncrementalOPAQ(config, max_samples=400)
        for _ in range(10):
            inc.update(rng.uniform(size=3000))
        assert inc.summary.num_samples <= 400

    def test_bounded_summary_still_encloses(self, config, rng):
        inc = IncrementalOPAQ(config, max_samples=300)
        seen = []
        for _ in range(8):
            batch = rng.uniform(size=2000)
            seen.append(batch)
            inc.update(batch)
        sd = np.sort(np.concatenate(seen))
        for phi in (0.1, 0.5, 0.9):
            b = inc.bound(inc.summary, phi)
            assert b.lower <= sd[b.rank - 1] <= b.upper

    def test_guarantee_stays_proportionate(self, config, rng):
        inc = IncrementalOPAQ(config, max_samples=500)
        for _ in range(20):
            inc.update(rng.uniform(size=5000))
        # The hidden-slack refactor keeps the budget a few percent of n,
        # not ~100% as a naive gap-ceiling bound would give.
        assert inc.guaranteed_rank_error() < 0.05 * inc.count

    def test_max_samples_validation(self, config):
        with pytest.raises(EstimationError):
            IncrementalOPAQ(config, max_samples=1)


# ----------------------------------------------------------------------
# Lazy folds: every read equals the eager merge-then-compact chain
# ----------------------------------------------------------------------

RUN = 64
SAMPLES = 8
LAZY_CONFIG = OPAQConfig(run_size=RUN, sample_size=SAMPLES)


class EagerIncremental:
    """The eager chain: merge each new run on arrival, then compact."""

    def __init__(self, config, max_samples):
        self._estimator = OPAQ(config)
        self.max_samples = max_samples
        self.summary = None

    def update(self, batch):
        new = self._estimator.summarize(batch)
        self.summary = new if self.summary is None else self.summary.merge(new)
        if self.max_samples is not None:
            self.summary = self.summary.compact_to(self.max_samples)


#: Heavy duplicates and both zeros, beside arbitrary finite values.
_values = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5]),
    st.floats(-1e3, 1e3, allow_nan=False),
)
_batch = st.lists(_values, min_size=1, max_size=3 * RUN)
_op = st.one_of(
    st.tuples(st.just("update"), _batch),
    st.tuples(
        st.sampled_from(["summary", "count", "guarantee", "parts"]),
        st.none(),
    ),
)


class TestLazyFolds:
    # None: nothing compacts; 5: below one run's samples, so every merge
    # compacts; 40: the first few runs append, later ones cross it.
    @settings(max_examples=150, deadline=None)
    @given(
        max_samples=st.sampled_from([None, SAMPLES - 3, 5 * SAMPLES]),
        ops=st.lists(_op, min_size=1, max_size=30),
    )
    # Twenty runs whose equal samples carry different floors, read in one
    # merge: only a stable merge keeps their order.
    @example(
        max_samples=None,
        ops=[("update", [1.0] * RUN), ("update", [-1.0] * 32 + [1.0] * 32)] * 10
        + [("summary", None)],
    )
    def test_every_read_equals_the_eager_chain(self, max_samples, ops):
        inc = IncrementalOPAQ(LAZY_CONFIG, max_samples=max_samples)
        oracle = EagerIncremental(LAZY_CONFIG, max_samples)
        for op, arg in ops:
            if op == "update":
                batch = np.array(arg, dtype=np.float64)
                inc.update(batch)
                oracle.update(batch)
            elif oracle.summary is None:
                assert inc.count == 0
                assert inc.parts == ()
                with pytest.raises(EstimationError):
                    inc.summary
            elif op == "summary":
                assert inc.summary.to_bytes() == oracle.summary.to_bytes()
            elif op == "count":
                assert inc.count == oracle.summary.count
            elif op == "guarantee":
                assert (
                    inc.guaranteed_rank_error()
                    == oracle.summary.guaranteed_rank_error()
                )
            else:
                parts = inc.parts
                merged = parts[0].merge(*parts[1:])
                merged.validate()
                assert merged.to_bytes() == oracle.summary.to_bytes()
                # Reading the parts merges nothing.
                assert len(inc.parts) == len(parts)
                assert all(a is b for a, b in zip(inc.parts, parts))
            if oracle.summary is not None:
                # Merges and compactions are built unchecked.
                oracle.summary.validate()
                for part in inc.parts:
                    part.validate()
            if max_samples is not None and oracle.summary is not None:
                assert sum(p.num_samples for p in inc.parts) <= max_samples
        if oracle.summary is not None:
            inc.summary.validate()
            assert inc.summary.to_bytes() == oracle.summary.to_bytes()
            assert len(inc.parts) == 1

    def test_runs_wait_until_the_compaction_point(self, rng):
        inc = IncrementalOPAQ(LAZY_CONFIG, max_samples=3 * SAMPLES)
        for expected in (1, 2, 3):
            inc.update(rng.uniform(size=RUN))
            assert len(inc.parts) == expected
        # A fourth run would make 4 x SAMPLES > max: one merge, compacted.
        inc.update(rng.uniform(size=RUN))
        (summary,) = inc.parts
        assert summary.count == 4 * RUN
        assert summary.num_samples <= 3 * SAMPLES

    def test_summarize_and_estimate_read_the_folded_summary(self, rng):
        inc = IncrementalOPAQ(LAZY_CONFIG)
        first = rng.uniform(size=RUN)
        assert inc.summarize(first).count == RUN
        bounds = inc.estimate(rng.uniform(size=RUN), [0.5])
        assert len(inc.parts) == 1
        assert bounds == inc.bounds(inc.summary, [0.5])
        assert inc.summary.count == 2 * RUN
