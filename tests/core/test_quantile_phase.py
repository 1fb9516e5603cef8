"""Tests for the quantile phase: the paper's index formulas and lemmas."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    OPAQ,
    OPAQConfig,
    bounds_arrays,
    lower_bound_index,
    quantile_bounds,
    splitters,
    upper_bound_index,
)
from repro.core.quantile_phase import bounds_at_rank, bounds_for
from repro.errors import EstimationError
from repro.metrics import quantile_rank


class TestPaperFormulas:
    """Formulas (2) and (5) for the divisible case."""

    def test_upper_formula_5(self):
        # j = ceil(psi * s/m); with m/s = 10: psi=55 -> j=6.
        assert upper_bound_index(55, num_runs=4, subrun=10) == 6
        assert upper_bound_index(50, num_runs=4, subrun=10) == 5
        assert upper_bound_index(1, num_runs=4, subrun=10) == 1

    def test_lower_formula_2(self):
        # i = floor((psi - (r-1)(c-1)) / c): psi=100, r=4, c=10 -> (100-27)/10 -> 7.
        assert lower_bound_index(100, num_runs=4, subrun=10) == 7

    def test_lower_clamps_to_zero(self):
        assert lower_bound_index(5, num_runs=10, subrun=10) == 0

    def test_validation(self):
        with pytest.raises(EstimationError):
            upper_bound_index(0, 1, 1)
        with pytest.raises(EstimationError):
            lower_bound_index(1, 0, 1)


class TestQuantileBounds:
    def test_enclosure_uniform(self, uniform_data, sorted_uniform):
        config = OPAQConfig(run_size=5000, sample_size=500)
        summary = OPAQ(config).summarize(uniform_data)
        for phi in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
            b = quantile_bounds(summary, phi)
            true = sorted_uniform[b.rank - 1]
            assert b.lower <= true <= b.upper

    def test_lemma_rank_error(self, uniform_data, sorted_uniform):
        """Lemmas 1/2: at most ~n/s elements between either bound and truth."""
        config = OPAQConfig(run_size=5000, sample_size=500)
        summary = OPAQ(config).summarize(uniform_data)
        n, s = uniform_data.size, 500
        budget = summary.guaranteed_rank_error()
        assert budget <= n // s  # divisible case
        for phi in (0.1, 0.5, 0.9):
            b = quantile_bounds(summary, phi)
            assert b.max_below <= budget
            assert b.max_above <= budget
            # And the *actual* displacement respects the declared bound.
            below = b.rank - np.searchsorted(sorted_uniform, b.lower, "right")
            above = np.searchsorted(sorted_uniform, b.upper, "left") - b.rank + 1
            assert below <= b.max_below
            assert above <= max(b.max_above, 0) + 1

    def test_extreme_low_quantile_uses_minimum(self, rng):
        config = OPAQConfig(run_size=100, sample_size=2)
        data = rng.uniform(size=1000)
        summary = OPAQ(config).summarize(data)
        b = quantile_bounds(summary, 0.001)
        assert b.lower == data.min()
        assert b.lower_index == 0

    def test_phi_one_returns_maximum_side(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        data = rng.uniform(size=1000)
        summary = OPAQ(config).summarize(data)
        b = quantile_bounds(summary, 1.0)
        assert b.upper == data.max()

    def test_all_equal_data(self):
        config = OPAQConfig(run_size=100, sample_size=10)
        summary = OPAQ(config).summarize(np.full(1000, 7.0))
        b = quantile_bounds(summary, 0.5)
        assert b.lower == b.upper == 7.0
        assert 7.0 in b

    def test_bounds_metadata(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        summary = OPAQ(config).summarize(rng.uniform(size=1000))
        b = quantile_bounds(summary, 0.5)
        assert b.rank == 500
        assert b.max_between == b.max_below + b.max_above
        assert b.width == b.upper - b.lower
        assert b.midpoint == pytest.approx((b.lower + b.upper) / 2)

    def test_invalid_phi(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        summary = OPAQ(config).summarize(rng.uniform(size=1000))
        with pytest.raises(EstimationError):
            quantile_bounds(summary, 0.0)
        with pytest.raises(EstimationError):
            quantile_bounds(summary, 1.5)


class TestBoundsAtRank:
    def test_agrees_with_phi_entry(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        summary = OPAQ(config).summarize(rng.uniform(size=1000))
        via_phi = quantile_bounds(summary, 0.37)
        via_rank = bounds_at_rank(summary, quantile_rank(0.37, 1000))
        assert via_phi.lower == via_rank.lower
        assert via_phi.upper == via_rank.upper

    def test_rank_validation(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        summary = OPAQ(config).summarize(rng.uniform(size=1000))
        with pytest.raises(EstimationError):
            bounds_at_rank(summary, 0)
        with pytest.raises(EstimationError):
            bounds_at_rank(summary, 1001)


class TestBoundsArrays:
    """The vectorised φ-vector kernel must be bit-identical to the
    scalar path — it is what both wire protocols serve from."""

    PHI_GRID = [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0]

    @pytest.mark.parametrize(
        "run_size,sample_size", [(100, 10), (5000, 500), (64, 1), (97, 13)]
    )
    def test_bit_identical_to_scalar_path(self, rng, run_size, sample_size):
        data = rng.normal(size=10_000)
        # Quantised duplicates stress the tie-handling searchsorted sides;
        # ``+ 0.0`` canonicalises the -0.0 that np.round produces (equal
        # zeros tie-break differently between min() and np.minimum, which
        # byte-comparison would flag on the sign bit alone).
        data[::3] = np.round(data[::3]) + 0.0
        config = OPAQConfig(run_size=run_size, sample_size=sample_size)
        summary = OPAQ(config).summarize(data)
        psi, lower, upper, below, above, phis = bounds_arrays(
            summary, self.PHI_GRID
        )
        for i, phi in enumerate(self.PHI_GRID):
            b = quantile_bounds(summary, phi)
            assert psi[i] == b.rank
            # Byte-level equality, not approx: same IEEE-754 doubles.
            assert lower[i].tobytes() == np.float64(b.lower).tobytes()
            assert upper[i].tobytes() == np.float64(b.upper).tobytes()
            assert below[i] == b.max_below
            assert above[i] == b.max_above

    def test_all_equal_data_vectorised(self):
        config = OPAQConfig(run_size=100, sample_size=10)
        summary = OPAQ(config).summarize(np.full(1000, 7.0))
        _, lower, upper, _, _, _ = bounds_arrays(summary, [0.25, 0.5, 0.75])
        assert np.all(lower == 7.0) and np.all(upper == 7.0)

    def test_validation(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        summary = OPAQ(config).summarize(rng.uniform(size=1000))
        for bad in ([], [0.0], [1.5], [[0.5]]):
            with pytest.raises(EstimationError):
                bounds_arrays(summary, bad)


class TestBoundsFor:
    """``bounds_for`` (and so ``OPAQ.bounds``) answers from the vector
    sweep, yet returns exactly the scalar path's objects."""

    PHIS = [1e-9, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0]

    @staticmethod
    def _bits(bounds):
        return [
            (
                np.float64(b.phi).tobytes(),
                b.rank,
                np.float64(b.lower).tobytes(),
                np.float64(b.upper).tobytes(),
                b.max_below,
                b.max_above,
                b.lower_index,
                b.upper_index,
            )
            for b in bounds
        ]

    @pytest.mark.parametrize(
        "run_size,sample_size", [(100, 10), (5000, 500), (64, 1), (97, 13)]
    )
    def test_same_objects_as_the_scalar_path(self, rng, run_size, sample_size):
        data = rng.normal(size=10_000)
        data[::3] = np.round(data[::3])  # duplicates, and -0.0 among them
        summary = OPAQ(OPAQConfig(run_size=run_size, sample_size=sample_size)).summarize(data)
        scalar = [quantile_bounds(summary, phi) for phi in self.PHIS]
        vector = bounds_for(summary, self.PHIS)
        assert vector == scalar
        assert self._bits(vector) == self._bits(scalar)
        assert [type(b.lower) for b in vector] == [float] * len(self.PHIS)

    def test_negative_zero_minimum_keeps_its_sign(self):
        """The guard against an inverted enclosure is the scalar path's
        ``upper < lower``, not ``np.minimum``, which would flip -0.0."""
        from repro.core import OPAQSummary

        summary = OPAQSummary(
            samples=np.array([0.0, 1.0]),
            gaps=np.array([3, 3]),
            num_runs=1,
            count=6,
            minimum=-0.0,
            maximum=1.0,
        )
        [b] = bounds_for(summary, [0.001])
        assert b.lower_index == 0
        assert np.float64(b.lower).tobytes() == np.float64(-0.0).tobytes()
        assert self._bits([b]) == self._bits([quantile_bounds(summary, 0.001)])
        _, lower, _, _, _, _ = bounds_arrays(summary, [0.001])
        assert lower[0].tobytes() == np.float64(-0.0).tobytes()

    def test_no_fractions(self, rng):
        summary = OPAQ(OPAQConfig(run_size=100, sample_size=10)).summarize(
            rng.uniform(size=1000)
        )
        assert bounds_for(summary, []) == []

    def test_invalid_fraction_raises_as_the_scalar_path(self, rng):
        summary = OPAQ(OPAQConfig(run_size=100, sample_size=10)).summarize(
            rng.uniform(size=1000)
        )
        for bad in ([0.5, 1.5, 0.0], [0.0], [-0.1], [float("nan")]):
            first = next(phi for phi in bad if not 0.0 < phi <= 1.0)
            with pytest.raises(EstimationError) as vector:
                bounds_for(summary, bad)
            with pytest.raises(EstimationError) as scalar:
                quantile_bounds(summary, first)
            assert str(vector.value) == str(scalar.value)

    def test_emits_the_quantile_span_and_counter(self, rng):
        from repro.obs import MemorySink, tracing

        summary = OPAQ(OPAQConfig(run_size=100, sample_size=10)).summarize(
            rng.uniform(size=1000)
        )
        sink = MemorySink()
        with tracing(sink):
            bounds_for(summary, [0.25, 0.5, 0.75])
        spans = [e for e in sink.events if e.kind == "span"]
        assert [(e.name, dict(e.attrs)) for e in spans] == [
            ("phase.quantile", {"queries": 3})
        ]
        assert sink.counters()["quantile.queries"] == 3


class TestSplitters:
    def test_counts_and_order(self, uniform_data):
        config = OPAQConfig(run_size=5000, sample_size=500)
        summary = OPAQ(config).summarize(uniform_data)
        cuts = splitters(summary, 10)
        assert cuts.size == 9
        assert np.all(np.diff(cuts) >= 0)

    def test_which_variants(self, uniform_data):
        config = OPAQConfig(run_size=5000, sample_size=500)
        summary = OPAQ(config).summarize(uniform_data)
        lower = splitters(summary, 4, which="lower")
        upper = splitters(summary, 4, which="upper")
        mid = splitters(summary, 4, which="mid")
        assert np.all(lower <= mid) and np.all(mid <= upper)

    def test_validation(self, uniform_data):
        config = OPAQConfig(run_size=5000, sample_size=500)
        summary = OPAQ(config).summarize(uniform_data)
        with pytest.raises(EstimationError):
            splitters(summary, 1)
        with pytest.raises(EstimationError):
            splitters(summary, 4, which="median")


class TestEnclosureProperty:
    """Hypothesis: the enclosure invariant holds for arbitrary data."""

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=4,
            max_size=500,
        ),
        run_size=st.integers(min_value=4, max_value=100),
        sample_size=st.integers(min_value=1, max_value=20),
        phi_millis=st.integers(min_value=1, max_value=1000),
    )
    def test_lower_true_upper(self, values, run_size, sample_size, phi_millis):
        data = np.array(values, dtype=np.float64)
        sample_size = min(sample_size, run_size)
        config = OPAQConfig(run_size=run_size, sample_size=sample_size)
        summary = OPAQ(config).summarize(data)
        phi = phi_millis / 1000.0
        b = quantile_bounds(summary, phi)
        true = np.sort(data)[b.rank - 1]
        assert b.lower <= true <= b.upper
        # Declared rank-error budgets are honoured too.
        sd = np.sort(data)
        below = b.rank - np.searchsorted(sd, b.lower, "right")
        assert below <= b.max_below
        above = np.searchsorted(sd, b.upper, "left") + 1 - b.rank
        assert above <= b.max_above + 1
