"""The KLL compactor stack behind :class:`~repro.portfolio.KLLSummary`."""

import numpy as np
import pytest

from repro.baselines import consume
from repro.errors import ConfigError
from repro.portfolio import KLLSummary


def test_validation():
    with pytest.raises(ConfigError):
        KLLSummary(k=4)


def test_memory_sublinear(rng):
    data = rng.uniform(size=500_000)
    kll = consume(KLLSummary(k=200, seed=2), data, run_size=50_000)
    assert kll.memory_footprint < 5000
    assert kll.num_levels > 5


def test_deterministic_given_seed(rng):
    data = rng.uniform(size=50_000)
    a = consume(KLLSummary(k=64, seed=7), data, run_size=5000)
    b = consume(KLLSummary(k=64, seed=7), data, run_size=5000)
    assert a.to_bytes() == b.to_bytes()
    for u, v in zip(a.bounds_arrays([0.5]), b.bounds_arrays([0.5])):
        np.testing.assert_array_equal(u, v)


def test_weights_conserve_count(rng):
    data = rng.uniform(size=123_457)
    kll = consume(KLLSummary(k=128, seed=6), data, run_size=10_000)
    _, weights = kll._weighted_items()
    assert weights.sum() == pytest.approx(data.size)
