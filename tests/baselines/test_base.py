"""Tests for the baseline streaming interface."""

import numpy as np
import pytest

from repro.baselines import RandomSamplingEstimator, consume
from repro.errors import DataError, EstimationError


class TestStreamingInterface:
    def test_n_tracks_consumed(self, rng):
        est = RandomSamplingEstimator(capacity=10, seed=0)
        est.update(rng.uniform(size=7))
        est.update(rng.uniform(size=5))
        assert est.n == 12

    def test_empty_chunk_noop(self):
        est = RandomSamplingEstimator(capacity=10, seed=0)
        est.update(np.empty(0))
        assert est.n == 0

    def test_2d_chunk_rejected(self, rng):
        est = RandomSamplingEstimator(capacity=10, seed=0)
        with pytest.raises(DataError, match="one-dimensional"):
            est.update(rng.uniform(size=(2, 2)))

    def test_query_before_data(self):
        est = RandomSamplingEstimator(capacity=10, seed=0)
        with pytest.raises(EstimationError):
            est.query(0.5)

    def test_query_many(self, rng):
        est = consume(RandomSamplingEstimator(capacity=100, seed=0), rng.uniform(size=1000))
        out = est.query_many([0.25, 0.75])
        assert out.shape == (2,)
        assert out[0] <= out[1]


class TestConsume:
    def test_array_source(self, rng):
        data = rng.uniform(size=1000)
        est = consume(RandomSamplingEstimator(capacity=50, seed=0), data)
        assert est.n == 1000

    def test_dataset_source(self, dataset_factory, rng):
        data = rng.uniform(size=1000)
        ds = dataset_factory(data)
        est = consume(RandomSamplingEstimator(capacity=50, seed=0), ds, run_size=300)
        assert est.n == 1000

    def test_iterable_source(self, rng):
        chunks = [rng.uniform(size=100) for _ in range(3)]
        est = consume(RandomSamplingEstimator(capacity=50, seed=0), iter(chunks))
        assert est.n == 300

    def test_returns_estimator(self, rng):
        est = RandomSamplingEstimator(capacity=5, seed=0)
        assert consume(est, rng.uniform(size=10)) is est
