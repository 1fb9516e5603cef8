"""Tests for the OPAQ facade and the one-shot helper."""

import numpy as np
import pytest

from repro.core import OPAQ, OPAQConfig
from repro.errors import ConfigError, DataError
from repro.storage import RunReader


class TestSources:
    def test_array_source(self, uniform_data, sorted_uniform):
        config = OPAQConfig(run_size=10_000, sample_size=100)
        [b] = OPAQ(config).estimate(uniform_data, [0.5])
        assert b.lower <= sorted_uniform[b.rank - 1] <= b.upper

    def test_dataset_source(self, dataset_factory, uniform_data):
        ds = dataset_factory(uniform_data)
        config = OPAQConfig(run_size=10_000, sample_size=100)
        summary = OPAQ(config).summarize(ds)
        assert summary.count == uniform_data.size

    def test_reader_source(self, dataset_factory, uniform_data):
        ds = dataset_factory(uniform_data)
        reader = RunReader(ds, run_size=10_000)
        config = OPAQConfig(run_size=10_000, sample_size=100)
        summary = OPAQ(config).summarize(reader)
        assert reader.stats.elements_read == uniform_data.size

    def test_reader_run_size_mismatch(self, dataset_factory, uniform_data):
        ds = dataset_factory(uniform_data)
        reader = RunReader(ds, run_size=5000)
        config = OPAQConfig(run_size=10_000, sample_size=100)
        with pytest.raises(ConfigError, match="differs"):
            OPAQ(config).summarize(reader)

    def test_iterable_of_runs(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        runs = (rng.uniform(size=100) for _ in range(3))
        summary = OPAQ(config).summarize(runs)
        assert summary.count == 300

    def test_2d_array_rejected(self, rng):
        config = OPAQConfig(run_size=10, sample_size=2)
        with pytest.raises(DataError, match="one-dimensional"):
            OPAQ(config).summarize(rng.uniform(size=(5, 5)))

    def test_memory_budget_enforced_on_source(self, rng):
        config = OPAQConfig(run_size=100, sample_size=50, memory=200)
        with pytest.raises(ConfigError):
            OPAQ(config).summarize(rng.uniform(size=10_000))

    def test_memory_budget_enforced_on_run_iterable(self, rng):
        # Iterable sources have unknowable size up front; the budget is
        # checked against the observed total when the pass completes.
        config = OPAQConfig(run_size=100, sample_size=50, memory=200)
        runs = (rng.uniform(size=100) for _ in range(100))
        with pytest.raises(ConfigError):
            OPAQ(config).summarize(runs)

    def test_2d_run_in_iterable_rejected(self, rng):
        config = OPAQConfig(run_size=10, sample_size=2)
        with pytest.raises(DataError, match="one-dimensional"):
            OPAQ(config).summarize(iter([rng.uniform(size=(5, 5))]))

    def test_non_numeric_input_rejected(self):
        config = OPAQConfig(run_size=10, sample_size=2)
        for source in (np.array(["a", "b"]), iter([["a", "b"]])):
            with pytest.raises(DataError, match="not numeric"):
                OPAQ(config).summarize(source)

    def test_unsupported_source_rejected(self):
        config = OPAQConfig(run_size=10, sample_size=2)
        with pytest.raises(ConfigError, match="unsupported data source"):
            OPAQ(config).summarize(42)


class TestQuantilesOneShot:
    def test_default_run_size(self, uniform_data, sorted_uniform):
        bounds = OPAQ.quantiles(uniform_data, [0.25, 0.75], sample_size=200)
        for b in bounds:
            assert b.lower <= sorted_uniform[b.rank - 1] <= b.upper

    def test_small_input(self):
        data = np.array([3.0, 1.0, 2.0])
        [b] = OPAQ.quantiles(data, [0.5], sample_size=100)
        assert b.lower <= 2.0 <= b.upper

    def test_dataset_input(self, dataset_factory, uniform_data):
        ds = dataset_factory(uniform_data)
        [b] = OPAQ.quantiles(ds, [0.5], sample_size=100)
        assert ds.count == uniform_data.size

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            OPAQ.quantiles(np.empty(0), [0.5])

    def test_explicit_run_size(self, uniform_data):
        bounds = OPAQ.quantiles(
            uniform_data, [0.5], sample_size=100, run_size=25_000
        )
        assert len(bounds) == 1


class TestBoundAccessors:
    def test_bound_and_bounds(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        opaq = OPAQ(config)
        summary = opaq.summarize(rng.uniform(size=1000))
        single = opaq.bound(summary, 0.5)
        [multi] = opaq.bounds(summary, [0.5])
        assert single.lower == multi.lower

    def test_splitters_facade(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        opaq = OPAQ(config)
        summary = opaq.summarize(rng.uniform(size=1000))
        assert opaq.splitters(summary, 4).size == 3
