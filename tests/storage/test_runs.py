"""Tests for run-at-a-time reading and the one-pass discipline."""

import numpy as np
import pytest

from repro.errors import ConfigError, SinglePassViolation
from repro.storage import RunReader


class TestRunIteration:
    def test_runs_cover_dataset_in_order(self, dataset_factory):
        ds = dataset_factory(np.arange(100, dtype=float))
        reader = RunReader(ds, run_size=30)
        runs = list(reader.runs())
        assert [r.size for r in runs] == [30, 30, 30, 10]
        np.testing.assert_array_equal(np.concatenate(runs), np.arange(100))

    def test_num_runs(self, dataset_factory):
        ds = dataset_factory(np.arange(100, dtype=float))
        assert RunReader(ds, run_size=30).num_runs == 4
        assert RunReader(ds, run_size=100).num_runs == 1
        assert RunReader(ds, run_size=1000).num_runs == 1

    def test_exact_division_no_ragged_run(self, dataset_factory):
        ds = dataset_factory(np.arange(90, dtype=float))
        runs = list(RunReader(ds, run_size=30))
        assert [r.size for r in runs] == [30, 30, 30]

    def test_bad_parameters(self, dataset_factory):
        ds = dataset_factory(np.arange(10, dtype=float))
        with pytest.raises(ConfigError):
            RunReader(ds, run_size=0)
        with pytest.raises(ConfigError):
            RunReader(ds, run_size=5, max_passes=0)


class TestRunsIntoABuffer:
    def test_runs_are_views_of_out(self, dataset_factory):
        ds = dataset_factory(np.arange(100, dtype=float))
        out = np.empty(30)
        seen = []
        for run in RunReader(ds, run_size=30).runs(out=out):
            assert run.base is out
            seen.append(run.copy())  # valid only until the next run
        assert [r.size for r in seen] == [30, 30, 30, 10]
        np.testing.assert_array_equal(np.concatenate(seen), np.arange(100))

    def test_without_out_runs_are_fresh(self, dataset_factory):
        ds = dataset_factory(np.arange(100, dtype=float))
        runs = list(RunReader(ds, run_size=30).runs())
        assert len({id(r) for r in runs}) == 4
        np.testing.assert_array_equal(np.concatenate(runs), np.arange(100))

    def test_int_keys_convert_into_a_float_buffer(self, tmp_path):
        from repro.storage import DiskDataset

        values = np.arange(0, 70, dtype=np.int64) * 7
        ds = DiskDataset.create(tmp_path / "i.opaq", values)
        out = np.empty(32, dtype=np.float64)
        got = [r.copy() for r in RunReader(ds, run_size=32).runs(out=out)]
        assert all(r.dtype == np.float64 for r in got)
        assert np.concatenate(got).tobytes() == values.astype(np.float64).tobytes()

    def test_out_must_hold_a_run(self, dataset_factory):
        ds = dataset_factory(np.arange(100, dtype=float))
        reader = RunReader(ds, run_size=30)
        with pytest.raises(ConfigError):
            next(reader.runs(out=np.empty(29)))
        with pytest.raises(ConfigError):
            next(reader.runs(out=np.empty((30, 2))))
        # A rejected buffer draws nothing from the pass budget.
        assert reader.stats.passes_started == 0
        small = dataset_factory(np.arange(5, dtype=float))
        assert [r.size for r in RunReader(small, run_size=30).runs(out=np.empty(5))] == [5]


class TestSinglePassEnforcement:
    def test_second_pass_rejected(self, dataset_factory):
        ds = dataset_factory(np.arange(10, dtype=float))
        reader = RunReader(ds, run_size=5)
        list(reader.runs())
        with pytest.raises(SinglePassViolation):
            list(reader.runs())

    def test_budget_drawn_lazily(self, dataset_factory):
        """Creating the generator costs nothing; reading starts the pass."""
        ds = dataset_factory(np.arange(10, dtype=float))
        reader = RunReader(ds, run_size=5)
        gen = reader.runs()  # not consumed
        assert reader.stats.passes_started == 0
        next(gen)
        assert reader.stats.passes_started == 1

    def test_two_pass_budget(self, dataset_factory):
        ds = dataset_factory(np.arange(10, dtype=float))
        reader = RunReader(ds, run_size=5, max_passes=2)
        list(reader.runs())
        list(reader.runs())
        with pytest.raises(SinglePassViolation):
            list(reader.runs())

    def test_iter_protocol(self, dataset_factory):
        ds = dataset_factory(np.arange(10, dtype=float))
        reader = RunReader(ds, run_size=4)
        assert sum(r.size for r in reader) == 10


class TestIOAccounting:
    def test_stats_counted(self, dataset_factory):
        ds = dataset_factory(np.arange(100, dtype=float))
        reader = RunReader(ds, run_size=30)
        list(reader.runs())
        assert reader.stats.elements_read == 100
        assert reader.stats.bytes_read == 800
        assert reader.stats.read_ops == 4
        assert reader.stats.runs_read == 4
        assert reader.stats.passes_started == 1

    def test_partial_consumption_counts_partial(self, dataset_factory):
        ds = dataset_factory(np.arange(100, dtype=float))
        reader = RunReader(ds, run_size=30)
        gen = reader.runs()
        next(gen)
        next(gen)
        assert reader.stats.elements_read == 60
