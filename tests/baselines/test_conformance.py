"""Uniform-interface conformance for the streaming point estimators.

The comparison harness relies on every one-pass point estimator behaving
identically at the interface level: construct with no arguments, absorb
chunks via ``update``, answer ``query``/``query_many``, report ``n`` and a
``memory_footprint``, and fail loudly when queried before any data.  The
portfolio's sketch summaries answer through ``bounds_arrays`` instead and
have their own suite (``tests/portfolio/test_conformance.py``).
"""

import numpy as np
import pytest

from repro.baselines import RandomSamplingEstimator
from repro.errors import DataError, EstimationError

#: Chunks the ingest policy refuses.
BAD_CHUNKS = (
    np.random.default_rng(0).uniform(size=(4, 4)),
    np.array([1.0, np.nan, 2.0]),
    ["a", "b"],
)

ESTIMATORS = {cls.name: cls for cls in (RandomSamplingEstimator,)}
NAMES = sorted(ESTIMATORS)


@pytest.mark.parametrize("name", NAMES)
class TestStreamingConformance:
    def test_constructs_with_defaults(self, name):
        est = ESTIMATORS[name]()
        assert est.n == 0
        assert est.memory_footprint >= 0

    def test_query_before_data_raises(self, name):
        est = ESTIMATORS[name]()
        with pytest.raises(EstimationError):
            est.query(0.5)

    def test_update_then_query(self, name, rng):
        est = ESTIMATORS[name]()
        data = rng.uniform(size=5000)
        for i in range(0, data.size, 1000):
            est.update(data[i : i + 1000])
        assert est.n == data.size
        assert est.memory_footprint > 0
        estimate = est.query(0.5)
        # Point estimates carry no guarantee, but the uniform [0, 1]
        # median must land well inside the support.
        assert 0.2 <= estimate <= 0.8

    def test_query_many_matches_query(self, name, rng):
        est = ESTIMATORS[name]()
        est.update(rng.uniform(size=4000))
        phis = [0.1, 0.5, 0.9]
        many = est.query_many(phis)
        assert many.shape == (3,)
        assert list(many) == [est.query(phi) for phi in phis]

    def test_empty_chunk_is_noop(self, name):
        est = ESTIMATORS[name]()
        est.update(np.empty(0))
        assert est.n == 0

    def test_2d_chunk_rejected(self, name, rng):
        """2-D, NaN-holding and non-numeric chunks: the ingest policy's
        refusals, every one a ``DataError`` that leaves ``n`` at 0."""
        est = ESTIMATORS[name]()
        for chunk in BAD_CHUNKS:
            with pytest.raises(DataError):
                est.update(chunk)
        assert est.n == 0
