"""Tests for the sample phase."""

import numpy as np
import pytest

from repro.core import OPAQConfig, build_summary, sample_run, scaled_sample_count
from repro.errors import DataError, EstimationError
from repro.selection import STRATEGY_NAMES, get_strategy


class TestScaledSampleCount:
    def test_full_run_gets_nominal(self):
        assert scaled_sample_count(1000, 1000, 100) == 100

    def test_half_run_gets_half(self):
        assert scaled_sample_count(500, 1000, 100) == 50

    def test_at_least_one(self):
        assert scaled_sample_count(3, 1000, 100) == 1

    def test_at_most_run_size(self):
        assert scaled_sample_count(5, 1000, 1000) == 5

    def test_empty_run_rejected(self):
        with pytest.raises(EstimationError):
            scaled_sample_count(0, 1000, 100)

    def test_single_element_run(self):
        # A run of one element always yields exactly one sample.
        assert scaled_sample_count(1, 1000, 100) == 1
        assert scaled_sample_count(1, 1, 1) == 1

    def test_run_smaller_than_nominal_s(self):
        # When the run is shorter than the nominal sample count, the
        # scaled count stays proportional and is clamped to the run size.
        assert scaled_sample_count(50, 100, 80) == 40
        assert scaled_sample_count(5, 100, 80) == 4
        assert scaled_sample_count(2, 100, 80) == 2  # round(1.6) clamps up

    def test_rounding_is_to_nearest(self):
        assert scaled_sample_count(25, 100, 10) == 2   # 2.5 banker-rounds
        assert scaled_sample_count(26, 100, 10) == 3
        assert scaled_sample_count(24, 100, 10) == 2

    def test_never_exceeds_run_size(self):
        for run_size in range(1, 40):
            s = scaled_sample_count(run_size, 100, 1000)
            assert 1 <= s <= run_size


class TestSampleRun:
    def test_samples_are_regular(self, rng):
        run = rng.uniform(size=1000)
        samples, gaps, _, _ = sample_run(run, 10, get_strategy("numpy"))
        expected = np.sort(run)[np.arange(1, 11) * 100 - 1]
        np.testing.assert_array_equal(samples, expected)
        assert np.all(gaps == 100)

    def test_gaps_sum_to_run_size(self, rng):
        run = rng.uniform(size=997)
        samples, gaps, floors, _ = sample_run(run, 10, get_strategy("numpy"))
        assert gaps.sum() == 997
        assert floors[0] == -np.inf
        np.testing.assert_array_equal(floors[1:], samples[:-1])

    def test_last_sample_is_maximum(self, rng):
        run = rng.uniform(size=573)
        samples, _, _, _ = sample_run(run, 7, get_strategy("numpy"))
        assert samples[-1] == run.max()

    def test_two_dimensional_rejected(self, rng):
        with pytest.raises(DataError, match="one-dimensional"):
            sample_run(rng.uniform(size=(10, 10)), 2, get_strategy("numpy"))


class TestBuildSummary:
    def test_counts_and_extremes(self, rng):
        """Under every strategy, and on numpy's partition path (s = 1)
        that leaves the run buffer unsorted."""
        runs = [rng.uniform(size=100) for _ in range(5)]
        full = np.concatenate(runs)
        for strategy in STRATEGY_NAMES:
            for s in (10, 1, 2):
                config = OPAQConfig(run_size=100, sample_size=s, strategy=strategy)
                summary = build_summary(runs, config)
                assert summary.count == 500
                assert summary.num_runs == 5
                assert summary.num_samples == 5 * s
                assert summary.minimum == full.min(), (strategy, s)
                assert summary.maximum == full.max()

    def test_samples_sorted(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        summary = build_summary([rng.uniform(size=100) for _ in range(3)], config)
        assert np.all(np.diff(summary.samples) >= 0)

    def test_ragged_last_run_scaled(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        summary = build_summary(
            [rng.uniform(size=100), rng.uniform(size=30)], config
        )
        # 10 samples from the full run, ~3 from the ragged one.
        assert summary.num_samples == 13
        assert summary.count == 130

    def test_last_run_of_one_element(self, rng):
        # The shortest possible ragged tail: one trailing element still
        # becomes one sample and the gap bookkeeping stays exact.
        config = OPAQConfig(run_size=100, sample_size=10)
        summary = build_summary(
            [rng.uniform(size=100), rng.uniform(size=1)], config
        )
        assert summary.count == 101
        assert summary.num_samples == 11
        assert summary.gaps.sum() == 101

    def test_run_size_one_runs(self, rng):
        # Degenerate m=1: every run is its own sample; the summary is the
        # whole (sorted) dataset and the guarantee collapses to exact.
        config = OPAQConfig(run_size=1, sample_size=1)
        values = rng.uniform(size=17)
        summary = build_summary([np.array([v]) for v in values], config)
        assert summary.num_samples == 17
        np.testing.assert_array_equal(summary.samples, np.sort(values))
        assert summary.gaps.sum() == 17

    def test_ragged_runs_preserve_gap_invariant(self, rng):
        # Mixed run sizes: gaps always partition the data (G1 of
        # docs/guarantees.md) no matter how ragged the input.
        config = OPAQConfig(run_size=64, sample_size=8)
        sizes = [64, 3, 64, 1, 17, 50]
        summary = build_summary([rng.uniform(size=k) for k in sizes], config)
        assert summary.count == sum(sizes)
        assert summary.gaps.sum() == sum(sizes)
        assert np.all(np.diff(summary.samples) >= 0)

    def test_empty_runs_skipped(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        summary = build_summary(
            [rng.uniform(size=100), np.empty(0), rng.uniform(size=100)], config
        )
        assert summary.num_runs == 2

    def test_no_data_rejected(self):
        config = OPAQConfig(run_size=100, sample_size=10)
        with pytest.raises(EstimationError, match="no data"):
            build_summary([], config)
        with pytest.raises(EstimationError, match="no data"):
            build_summary([np.empty(0)], config)

    def test_strategies_equivalent(self, rng):
        runs = [rng.uniform(size=200) for _ in range(4)]
        summaries = {}
        for name in ("numpy", "sort", "median_of_medians"):
            config = OPAQConfig(run_size=200, sample_size=20, strategy=name)
            summaries[name] = build_summary([r.copy() for r in runs], config)
        base = summaries["numpy"].samples
        for name in ("sort", "median_of_medians"):
            np.testing.assert_array_equal(summaries[name].samples, base)


class TestNaNRejection:
    def test_nan_in_run_rejected(self, rng):
        run = rng.uniform(size=100)
        run[17] = np.nan
        with pytest.raises(DataError, match="NaN"):
            sample_run(run, 10, get_strategy("numpy"))

    def test_nan_rejected_through_build(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        bad = rng.uniform(size=200)
        bad[150] = np.nan
        with pytest.raises(DataError, match="NaN"):
            build_summary([bad[:100], bad[100:]], config)
