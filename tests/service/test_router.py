"""Shard routing: determinism, coverage, input validation."""

import numpy as np
import pytest

from repro.errors import ConfigError, DataError
from repro.service import ShardRouter


class TestSplit:
    def test_split_partitions_exactly(self, rng):
        router = ShardRouter(4)
        values = rng.uniform(size=5_000)
        parts = router.split(values)
        assert len(parts) == 4
        assert sum(p.size for p in parts) == values.size
        np.testing.assert_array_equal(
            np.sort(np.concatenate(parts)), np.sort(values)
        )

    def test_zero_shards_rejected(self):
        with pytest.raises(ConfigError):
            ShardRouter(0)

    def test_single_shard_fast_path(self, rng):
        values = rng.uniform(size=100)
        (part,) = ShardRouter(1).split(values)
        np.testing.assert_array_equal(part, values)

    def test_nan_rejected(self):
        with pytest.raises(DataError, match="NaN"):
            ShardRouter(2).split([1.0, float("nan"), 2.0])

    def test_non_numeric_rejected(self):
        with pytest.raises(DataError, match="not numeric"):
            ShardRouter(2).split(["a", "b"])

    def test_two_dimensional_rejected(self):
        with pytest.raises(DataError, match="one-dimensional"):
            ShardRouter(2).split(np.zeros((3, 3)))


class TestChunkPolicy:
    """The one ingest partitioning: contiguous views."""

    def test_partitions_exactly_and_preserves_order(self, rng):
        values = rng.uniform(size=5_003)  # deliberately not divisible
        parts = ShardRouter(4).split(values)
        assert len(parts) == 4
        np.testing.assert_array_equal(np.concatenate(parts), values)

    def test_near_even_sizes(self, rng):
        parts = ShardRouter(8).split(rng.uniform(size=10_001))
        sizes = [p.size for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_parts_are_views_not_copies(self, rng):
        values = rng.uniform(size=1_000)
        parts = ShardRouter(4).split(values)
        assert all(p.base is not None for p in parts if p.size)

    def test_deterministic(self, rng):
        values = rng.uniform(size=2_000)
        a = ShardRouter(3).split(values)
        b = ShardRouter(3).split(values.copy())
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)

    def test_same_validation_as_hash(self):
        with pytest.raises(DataError, match="NaN"):
            ShardRouter(2).split([1.0, float("nan")])
