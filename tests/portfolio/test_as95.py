"""The [AS95] adaptive intervals behind :class:`~repro.portfolio.IntervalSummary`."""

import numpy as np
import pytest

from repro.baselines import consume
from repro.errors import ConfigError
from repro.portfolio import IntervalSummary


def _estimates(summary, phis):
    """The point estimates: AS95's enclosure is degenerate (lower == upper)."""
    _, lower, upper, _, _, _ = summary.bounds_arrays(phis)
    np.testing.assert_array_equal(lower, upper)
    return lower


def test_validation():
    with pytest.raises(ConfigError):
        IntervalSummary(intervals=3)
    with pytest.raises(ConfigError):
        IntervalSummary(intervals=10, split_factor=1.0)


def test_memory_footprint():
    assert IntervalSummary(intervals=100).memory_footprint == 201


def test_uniform_accuracy(rng):
    data = rng.uniform(size=100_000)
    est = consume(IntervalSummary(intervals=200), data, run_size=10_000)
    estimates = _estimates(est, [0.1, 0.5, 0.9])
    np.testing.assert_allclose(estimates, [0.1, 0.5, 0.9], atol=0.01)


def test_range_extension(rng):
    """Values outside the seeded range must still be counted."""
    est = IntervalSummary(intervals=10)
    est.update(rng.uniform(0.4, 0.6, size=5000))
    est.update(rng.uniform(0.0, 1.0, size=5000))
    assert est.count == 10_000
    low, high = _estimates(est, [0.01, 0.99])
    assert 0.0 <= low <= 0.45
    assert 0.55 <= high <= 1.0


def test_interval_count_stays_constant(rng):
    est = IntervalSummary(intervals=32)
    for _ in range(10):
        est.update(rng.exponential(size=2000))
    assert est._counts.size == 32
    assert est._bounds.size == 33


def test_counts_conserved(rng):
    est = IntervalSummary(intervals=16)
    est.update(rng.uniform(size=5000))
    est.update(rng.uniform(size=5000))
    assert est._counts.sum() == pytest.approx(10_000)


def _with_infinite_end(rng, end):
    data = rng.normal(size=20_000)
    return np.concatenate([data, [end]]) if end > 0 else np.concatenate([[end], data])


@pytest.mark.parametrize("end", [-np.inf, np.inf], ids=["-inf", "+inf"])
def test_infinite_end_answers_ordered_bounds_inside_the_range(rng, end):
    """A cell with an infinite boundary has nothing to interpolate: it
    answers its finite end, never ``-inf + x * inf``'s NaN."""
    from repro.portfolio import AS95Engine

    data = _with_infinite_end(rng, end)
    summary = AS95Engine().summarize(data)
    phis = [0.0001, 0.001, 0.5, 0.999, 0.9999, 1.0]
    _, lower, upper, _, _, _ = summary.bounds_arrays(phis)
    assert not np.isnan(lower).any() and not np.isnan(upper).any()
    assert np.all(lower <= upper)
    assert np.all(lower >= data.min()) and np.all(upper <= data.max())


@pytest.mark.parametrize("end", [-np.inf, np.inf], ids=["-inf", "+inf"])
def test_infinite_end_through_the_cli(rng, tmp_path, capsys, end):
    from repro.cli import main
    from repro.storage import DatasetWriter

    path = tmp_path / "inf.opaq"
    with DatasetWriter(path) as writer:
        writer.append(_with_infinite_end(rng, end))
    phi = "0.0001" if end < 0 else "0.9999"
    # 100 samples buy fewer intervals than seed from 20,001 keys.
    args = ["run", str(path), "--phi", phi, "--engine", "as95", "--sample-size", "100"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "nan" not in out.lower()
