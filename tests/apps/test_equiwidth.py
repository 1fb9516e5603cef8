"""Tests for the equi-width histogram strawman."""

import numpy as np
import pytest

from repro.apps import EquiWidthHistogram
from repro.errors import ConfigError, DataError, EstimationError


class TestEquiWidthHistogram:
    def test_validation(self):
        with pytest.raises(ConfigError):
            EquiWidthHistogram(1.0, 1.0, 10)
        with pytest.raises(ConfigError):
            EquiWidthHistogram(0.0, 1.0, 0)

    def test_counts_conserved(self, rng):
        h = EquiWidthHistogram(0.0, 1.0, 16)
        h.update(rng.uniform(size=5000))
        h.update(rng.uniform(size=5000))
        assert h.n == 10_000
        assert h.counts.sum() == 10_000

    def test_out_of_range_clamped(self):
        h = EquiWidthHistogram(0.0, 1.0, 4)
        h.update(np.array([-1.0, 0.5, 2.0]))
        assert h.counts.sum() == 3
        assert h.counts[0] >= 1 and h.counts[-1] >= 1
        # Infinities and values past int64 clamp into the end cells too.
        h.update(np.array([np.inf, 1e300, -np.inf, -1e300]))
        np.testing.assert_array_equal(h.counts, [3, 0, 1, 3])

    def test_nan_refused(self):
        h = EquiWidthHistogram(0.0, 1.0, 4)
        with pytest.raises(DataError, match="NaN"):
            h.update(np.array([0.5, np.nan]))
        assert h.n == 0

    def test_uniform_selectivity_accurate(self, rng):
        data = rng.uniform(size=100_000)
        h = EquiWidthHistogram(0.0, 1.0, 100)
        h.update(data)
        true = np.count_nonzero((data >= 0.2) & (data <= 0.7)) / data.size
        assert abs(h.selectivity(0.2, 0.7) - true) < 0.01

    def test_uniform_quantiles_accurate(self, rng):
        data = rng.uniform(size=100_000)
        h = EquiWidthHistogram(0.0, 1.0, 100)
        h.update(data)
        for phi in (0.25, 0.5, 0.75):
            assert abs(h.quantile(phi) - phi) < 0.01

    def test_skew_breaks_it(self, rng):
        """The intro's claim: equal-width + skew = large relative errors."""
        data = np.concatenate(
            [rng.uniform(0.0, 0.005, size=95_000), rng.uniform(0.0, 1.0, size=5_000)]
        )
        h = EquiWidthHistogram(0.0, 1.0, 100)
        h.update(data)
        # Nearly everything is in cell 0; a narrow range inside that cell
        # gets a wildly wrong uniform-within-cell estimate.
        true = np.count_nonzero((data >= 0.0) & (data <= 0.001)) / data.size
        est = h.selectivity(0.0, 0.001)
        assert abs(est - true) / true > 0.3

    def test_requires_data(self):
        h = EquiWidthHistogram(0.0, 1.0, 4)
        with pytest.raises(EstimationError):
            h.selectivity(0.1, 0.2)
        with pytest.raises(EstimationError):
            h.quantile(0.5)

    def test_range_validation(self, rng):
        h = EquiWidthHistogram(0.0, 1.0, 4)
        h.update(rng.uniform(size=10))
        with pytest.raises(EstimationError):
            h.selectivity(0.5, 0.4)
        with pytest.raises(EstimationError):
            h.quantile(0.0)
