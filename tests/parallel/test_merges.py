"""Tests for the two global merge algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.parallel import SimulatedMachine, bitonic_merge, sample_merge


def _blocks(rng, p, size):
    return [np.sort(rng.uniform(size=size)) for _ in range(p)]


class TestBitonicMerge:
    @pytest.mark.parametrize("p", [1, 2, 4, 8, 16])
    def test_global_sort(self, rng, p):
        blocks = _blocks(rng, p, 64)
        machine = SimulatedMachine(p)
        out, _ = bitonic_merge([b.copy() for b in blocks], machine)
        cat = np.concatenate(out)
        np.testing.assert_array_equal(cat, np.sort(np.concatenate(blocks)))

    def test_block_sizes_preserved_per_slot(self, rng):
        blocks = _blocks(rng, 4, 32)
        machine = SimulatedMachine(4)
        out, _ = bitonic_merge([b.copy() for b in blocks], machine)
        assert [b.size for b in out] == [32, 32, 32, 32]

    def test_payload_alignment(self, rng):
        p = 4
        blocks = _blocks(rng, p, 50)
        payloads = [np.full(50, i, dtype=np.int64) for i in range(p)]
        machine = SimulatedMachine(p)
        out, pays = bitonic_merge(
            [b.copy() for b in blocks], machine, payloads=[q.copy() for q in payloads]
        )
        keys = np.concatenate(out)
        tags = np.concatenate(pays)
        for i in range(p):
            np.testing.assert_array_equal(np.sort(keys[tags == i]), blocks[i])

    def test_power_of_two_required(self, rng):
        machine = SimulatedMachine(3)
        with pytest.raises(ConfigError, match="power-of-two"):
            bitonic_merge(_blocks(rng, 3, 8), machine)

    def test_unsorted_block_rejected(self, rng):
        machine = SimulatedMachine(2)
        blocks = [np.array([2.0, 1.0]), np.array([1.0, 2.0])]
        with pytest.raises(ConfigError, match="sorted"):
            bitonic_merge(blocks, machine)

    def test_block_count_must_match_machine(self, rng):
        machine = SimulatedMachine(4)
        with pytest.raises(ConfigError):
            bitonic_merge(_blocks(rng, 2, 8), machine)

    def test_clock_advances(self, rng):
        machine = SimulatedMachine(4)
        bitonic_merge(_blocks(rng, 4, 128), machine)
        assert machine.elapsed() > 0
        assert machine.phases(0).times.get("global_merge", 0) > 0


class TestSampleMerge:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
    def test_global_sort_any_p(self, rng, p):
        blocks = _blocks(rng, p, 64)
        machine = SimulatedMachine(p)
        out, _, expansion = sample_merge([b.copy() for b in blocks], machine)
        cat = np.concatenate(out)
        np.testing.assert_array_equal(cat, np.sort(np.concatenate(blocks)))
        assert expansion >= 1.0

    def test_expansion_bounded_with_oversampling(self, rng):
        p = 8
        blocks = _blocks(rng, p, 2000)
        machine = SimulatedMachine(p)
        _, _, expansion = sample_merge(
            [b.copy() for b in blocks], machine, oversample=64
        )
        assert expansion < 1.5  # the [LLS+93] bucket expansion bound

    def test_payload_alignment(self, rng):
        p = 3
        blocks = _blocks(rng, p, 40)
        payloads = [np.full(40, i, dtype=np.int64) for i in range(p)]
        machine = SimulatedMachine(p)
        out, pays, _ = sample_merge(
            [b.copy() for b in blocks], machine, payloads=[q.copy() for q in payloads]
        )
        keys = np.concatenate(out)
        tags = np.concatenate(pays)
        for i in range(p):
            np.testing.assert_array_equal(np.sort(keys[tags == i]), blocks[i])

    def test_varying_block_sizes(self, rng):
        blocks = [
            np.sort(rng.uniform(size=s)) for s in (10, 200, 0, 77)
        ]
        machine = SimulatedMachine(4)
        out, _, _ = sample_merge([b.copy() for b in blocks], machine)
        cat = np.concatenate(out)
        np.testing.assert_array_equal(cat, np.sort(np.concatenate(blocks)))

    def test_duplicate_heavy_blocks(self, rng):
        blocks = [np.sort(rng.integers(0, 3, size=100).astype(float)) for _ in range(4)]
        machine = SimulatedMachine(4)
        out, _, _ = sample_merge([b.copy() for b in blocks], machine)
        cat = np.concatenate(out)
        np.testing.assert_array_equal(cat, np.sort(np.concatenate(blocks)))

    @pytest.mark.parametrize("seed", [2, 5])
    def test_equal_pivots_on_duplicate_heavy_data(self, seed):
        """Two equal pivots leave a bucket empty; its merge must keep the
        payload's (n, 2) rows or the global concatenate fails."""
        from repro.core import OPAQConfig
        from repro.parallel import ParallelOPAQ

        rng = np.random.default_rng(seed)
        data = np.concatenate(
            [rng.uniform(size=30_000), np.repeat(rng.normal(size=1000), 7)]
        )
        rng.shuffle(data)
        config = OPAQConfig(run_size=4000, sample_size=100)
        result = ParallelOPAQ(4, config, merge_method="sample").run(data, [0.5])
        [bound] = result.bounds([0.5])
        exact = np.sort(data)[int(np.ceil(0.5 * data.size)) - 1]
        assert bound.lower <= exact <= bound.upper
        assert result.summary.count == data.size

    def test_single_processor_identity(self, rng):
        machine = SimulatedMachine(1)
        block = np.sort(rng.uniform(size=32))
        out, _, expansion = sample_merge([block], machine)
        np.testing.assert_array_equal(out[0], block)
        assert expansion == 1.0

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                max_size=60,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_property_sample_merge_sorts(self, data):
        blocks = [np.sort(np.array(lst, dtype=np.float64)) for lst in data]
        machine = SimulatedMachine(len(blocks))
        out, _, _ = sample_merge([b.copy() for b in blocks], machine)
        cat = np.concatenate(out) if out else np.empty(0)
        np.testing.assert_array_equal(cat, np.sort(np.concatenate(blocks)))
