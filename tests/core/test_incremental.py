"""Tests for incremental OPAQ (paper section 4)."""

import numpy as np
import pytest

from repro.core import OPAQ, IncrementalOPAQ, OPAQConfig
from repro.core.incremental import LazySummary
from repro.errors import EstimationError


@pytest.fixture
def config():
    return OPAQConfig(run_size=1000, sample_size=100)


class TestIncrementalOPAQ:
    def test_empty_state(self, config):
        inc = IncrementalOPAQ(config)
        assert inc.count == 0
        assert inc.batches == 0
        assert inc.parts == ()
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
# Lazy folds: the runs wait in a LazySummary (tests/core/test_lazy_summary.py
# holds it to the eager merge-then-compact chain)
# ----------------------------------------------------------------------

RUN = 64
SAMPLES = 8
LAZY_CONFIG = OPAQConfig(run_size=RUN, sample_size=SAMPLES)


class TestLazyFolds:
    def test_update_feeds_each_run_summary_to_a_lazy_summary(self, rng):
        inc = IncrementalOPAQ(LAZY_CONFIG, max_samples=3 * SAMPLES)
        lazy = LazySummary(3 * SAMPLES)
        for size in (RUN, 1, 3 * RUN, RUN, 2 * RUN):
            batch = rng.integers(-4, 4, size=size) / 2.0  # heavy ties
            inc.update(batch)
            lazy.absorb(OPAQ(LAZY_CONFIG).summarize(batch))
            assert [p.to_bytes() for p in inc.parts] == [
                p.to_bytes() for p in lazy.parts
            ]
            assert inc.count == lazy.count
        assert inc.summary.to_bytes() == lazy.folded().to_bytes()

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
