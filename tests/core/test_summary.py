"""Tests for OPAQSummary (rank bookkeeping, merging, serialisation)."""

import numpy as np
import pytest

from repro.core import OPAQ, OPAQConfig, OPAQSummary
from repro.errors import DataError, EstimationError


def make_summary(samples, gaps, runs=1, **kw):
    samples = np.asarray(samples, dtype=float)
    gaps = np.asarray(gaps, dtype=np.int64)
    defaults = dict(
        num_runs=runs,
        count=int(gaps.sum()),
        minimum=float(samples.min()),
        maximum=float(samples.max()),
    )
    defaults.update(kw)
    return OPAQSummary(samples=samples, gaps=gaps, **defaults)


class TestValidation:
    def test_valid(self):
        s = make_summary([1.0, 2.0, 3.0], [2, 2, 2])
        assert s.count == 6
        assert s.subrun_floor == 2 and s.subrun_ceil == 2

    def test_unsorted_samples_rejected(self):
        with pytest.raises(EstimationError, match="sorted"):
            make_summary([3.0, 1.0], [1, 1])

    def test_gap_shape_mismatch(self):
        with pytest.raises(EstimationError, match="align"):
            make_summary([1.0, 2.0], [1])

    def test_gap_sum_must_match_count(self):
        with pytest.raises(EstimationError, match="sum to"):
            make_summary([1.0, 2.0], [1, 1], count=5)

    def test_zero_gap_rejected(self):
        with pytest.raises(EstimationError, match="at least 1"):
            make_summary([1.0, 2.0], [0, 2], count=2)

    def test_empty_samples_rejected(self):
        with pytest.raises(EstimationError):
            OPAQSummary(
                samples=np.empty(0),
                gaps=np.empty(0, dtype=np.int64),
                num_runs=1,
                count=1,
                minimum=0.0,
                maximum=1.0,
            )

    def test_min_above_max_rejected(self):
        with pytest.raises(EstimationError, match="minimum exceeds"):
            make_summary([1.0], [1], minimum=2.0, maximum=1.0)


class TestRankBookkeeping:
    def test_min_rank_is_cumsum(self):
        s = make_summary([1.0, 2.0, 3.0], [4, 3, 5])
        assert [s.min_rank_at(i) for i in range(3)] == [4, 7, 12]

    def test_max_below_single_run_with_floors(self):
        # Floors carry the "elements of this group are >= floor" fact.
        s = make_summary(
            [1.0, 2.0, 3.0], [4, 4, 4], runs=1, floors=[-np.inf, 1.0, 2.0]
        )
        # v=2.0: groups fully below contribute 4; the only straddler is
        # v's own group (floor 1.0 < 2.0 <= 2.0) at gap-1 = 3 -> 7.
        assert s.max_below_at(1) == 7

    def test_max_below_conservative_without_floors(self):
        # Default -inf floors: every later group is a potential straddler.
        s = make_summary([1.0, 2.0, 3.0], [4, 4, 4], runs=1)
        assert s.max_below_at(1) == 4 + 3 + 3

    def test_max_below_clamped_to_n_minus_one(self):
        s = make_summary([1.0, 2.0], [5, 5], runs=5)
        assert s.max_below_at(1) <= s.count - 1

    def test_index_out_of_range(self):
        s = make_summary([1.0], [3])
        with pytest.raises(EstimationError):
            s.min_rank_at(1)
        with pytest.raises(EstimationError):
            s.max_below_at(-1)

    def test_cumulative_view_read_only(self):
        s = make_summary([1.0, 2.0], [1, 1])
        view = s.cumulative_min_ranks()
        with pytest.raises(ValueError):
            view[0] = 99

    def test_guaranteed_rank_error_divisible_case(self, rng):
        # n=10k, m=1k, s=100 -> n/s per run = 10; r=10 runs.
        config = OPAQConfig(run_size=1000, sample_size=100)
        summary = OPAQ(config).summarize(rng.uniform(size=10_000))
        n_over_s = 10_000 // 100
        assert summary.guaranteed_rank_error() <= n_over_s
        assert summary.memory_footprint == 3 * summary.num_samples


class TestMerge:
    def test_merge_matches_joint_build(self, rng):
        config = OPAQConfig(run_size=500, sample_size=50)
        a_data = rng.uniform(size=2000)
        b_data = rng.uniform(size=1500)
        opaq = OPAQ(config)
        merged = opaq.summarize(a_data).merge(opaq.summarize(b_data))
        joint = opaq.summarize(np.concatenate([a_data, b_data]))
        np.testing.assert_array_equal(np.sort(merged.samples), np.sort(joint.samples))
        assert merged.count == joint.count
        assert merged.num_runs == joint.num_runs

    def test_merge_preserves_extremes(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        opaq = OPAQ(config)
        a = opaq.summarize(rng.uniform(0, 1, size=100))
        b = opaq.summarize(rng.uniform(5, 6, size=100))
        m = a.merge(b)
        assert m.minimum == a.minimum
        assert m.maximum == b.maximum

    def test_add_operator(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        opaq = OPAQ(config)
        a = opaq.summarize(rng.uniform(size=100))
        b = opaq.summarize(rng.uniform(size=100))
        assert (a + b).count == 200

    def test_merge_wrong_type(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        s = OPAQ(config).summarize(rng.uniform(size=100))
        with pytest.raises(EstimationError):
            s.merge("not a summary")


class TestSerialisation:
    def test_roundtrip(self, rng, tmp_path):
        config = OPAQConfig(run_size=100, sample_size=10)
        s = OPAQ(config).summarize(rng.uniform(size=1000))
        path = tmp_path / "summary.npz"
        s.save(path)
        loaded = OPAQSummary.load(path)
        np.testing.assert_array_equal(loaded.samples, s.samples)
        np.testing.assert_array_equal(loaded.gaps, s.gaps)
        assert loaded.count == s.count
        assert loaded.num_runs == s.num_runs
        assert loaded.minimum == s.minimum

    def test_load_missing(self, tmp_path):
        with pytest.raises(DataError):
            OPAQSummary.load(tmp_path / "nope.npz")

    def test_load_malformed(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, wrong_key=np.arange(3))
        with pytest.raises(DataError):
            OPAQSummary.load(path)


class TestFormatStamp:
    """The on-disk format carries a magic + version stamp."""

    def _meta_of(self, path):
        import json

        with np.load(path) as archive:
            return json.loads(bytes(archive["meta"].tobytes()).decode())

    def _write_with_meta(self, s, path, meta):
        import json

        np.savez(
            path,
            samples=s.samples,
            gaps=s.gaps,
            floors=s.floors,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )

    def _fresh(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        return OPAQ(config).summarize(rng.uniform(size=1000))

    def test_save_stamps_magic_and_version(self, rng, tmp_path):
        s = self._fresh(rng)
        path = tmp_path / "stamped.npz"
        s.save(path)
        meta = self._meta_of(path)
        assert meta["magic"] == OPAQSummary.FORMAT_MAGIC == "OPAQSUM"
        assert meta["format"] == OPAQSummary.FORMAT_VERSION

    def test_unknown_version_raises_clearly(self, rng, tmp_path):
        s = self._fresh(rng)
        path = tmp_path / "future.npz"
        self._write_with_meta(
            s,
            path,
            {
                "magic": "OPAQSUM",
                "num_runs": s.num_runs,
                "count": s.count,
                "minimum": s.minimum,
                "maximum": s.maximum,
                "format": 99,
            },
        )
        with pytest.raises(DataError, match="format version 99"):
            OPAQSummary.load(path)
        with pytest.raises(DataError, match="upgrade the library"):
            OPAQSummary.load(path)

    def test_wrong_magic_raises_clearly(self, rng, tmp_path):
        s = self._fresh(rng)
        path = tmp_path / "alien.npz"
        self._write_with_meta(
            s,
            path,
            {
                "magic": "NOTOPAQ",
                "num_runs": s.num_runs,
                "count": s.count,
                "minimum": s.minimum,
                "maximum": s.maximum,
                "format": 5,
            },
        )
        with pytest.raises(DataError, match="not an OPAQ summary"):
            OPAQSummary.load(path)

    def test_missing_version_rejected(self, rng, tmp_path):
        s = self._fresh(rng)
        path = tmp_path / "unversioned.npz"
        self._write_with_meta(
            s,
            path,
            {
                "num_runs": s.num_runs,
                "count": s.count,
                "minimum": s.minimum,
                "maximum": s.maximum,
            },
        )
        with pytest.raises(DataError, match="format version None"):
            OPAQSummary.load(path)


class TestCompaction:
    def test_compact_halves_samples(self, rng):
        config = OPAQConfig(run_size=1000, sample_size=100)
        s = OPAQ(config).summarize(rng.uniform(size=10_000))
        c = s.compact(2)
        assert c.num_samples == s.num_samples // 2
        assert c.count == s.count
        assert c.num_runs == s.num_runs

    def test_compact_preserves_mass_and_extremes(self, rng):
        config = OPAQConfig(run_size=1000, sample_size=100)
        data = rng.uniform(size=10_000)
        s = OPAQ(config).summarize(data)
        c = s.compact(4)
        assert c.gaps.sum() == data.size
        assert c.samples[-1] == data.max()
        assert c.minimum == s.minimum and c.maximum == s.maximum

    def test_compact_floors_take_group_minimum(self, rng):
        config = OPAQConfig(run_size=1000, sample_size=100)
        s = OPAQ(config).summarize(rng.uniform(size=10_000))
        c = s.compact(8)
        assert c.subrun_ceil > s.subrun_ceil
        # Every surviving group's floor bounds its members' floors.
        assert np.all(c.floors[1:] <= c.samples[:-1] + 1e-12)
        assert c.floors.min() == -np.inf

    @pytest.mark.parametrize("factor", [2, 3, 4, 5, 8, 9, 16, 17])
    def test_compact_equals_the_group_reduction(self, rng, factor):
        """Groups of at most 8 fold column by column, wider ones by
        ``reduceat``; both equal one ``reduceat`` over the groups, bit
        for bit, tied signed zeros and infinite floors included.  Groups
        of 9 and 17 pin the column bound: there ``reduceat`` does not
        keep the first of two tied zeros, so columns would change a
        floor's sign."""
        for n in (1, factor - 1, factor, 5 * factor + 3, 128 * factor - 1,
                  128 * factor, 128 * factor + 3, 2_000):
            pool = np.array([-np.inf, -1.0, -0.0, 0.0, 2.0])
            samples = np.sort(rng.choice(pool[1:], size=n))
            floors = np.minimum(samples, rng.choice(pool, size=n))
            gaps = rng.integers(1, 4, size=n)
            s = make_summary(samples, gaps, floors=floors)
            survivors = np.arange(n - 1, -1, -factor)[::-1]
            starts = np.concatenate([[0], survivors[:-1] + 1])
            c = s.compact(factor)
            assert c.samples.tobytes() == samples[survivors].tobytes()
            assert c.gaps.tobytes() == np.add.reduceat(s.gaps, starts).tobytes()
            assert c.floors.tobytes() == np.minimum.reduceat(floors, starts).tobytes()
            assert c.count == s.count

    def test_compact_factor_one_identity(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        s = OPAQ(config).summarize(rng.uniform(size=1000))
        assert s.compact(1) is s

    def test_compact_bad_factor(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        s = OPAQ(config).summarize(rng.uniform(size=1000))
        with pytest.raises(EstimationError):
            s.compact(0)

    def test_compact_to_target(self, rng):
        config = OPAQConfig(run_size=1000, sample_size=100)
        s = OPAQ(config).summarize(rng.uniform(size=10_000))
        c = s.compact_to(300)
        assert c.num_samples <= 300
        assert s.compact_to(10_000) is s
        with pytest.raises(EstimationError):
            s.compact_to(0)

    def test_compacted_bounds_still_enclose(self, rng):
        from repro.core import quantile_bounds

        config = OPAQConfig(run_size=1000, sample_size=100)
        data = rng.uniform(size=20_000)
        s = OPAQ(config).summarize(data)
        sd = np.sort(data)
        for factor in (2, 3, 7, 50):
            c = s.compact(factor)
            for phi in (0.01, 0.25, 0.5, 0.75, 0.99, 1.0):
                b = quantile_bounds(c, phi)
                assert b.lower <= sd[b.rank - 1] <= b.upper

    def test_compacted_guarantee_degrades_gracefully(self, rng):
        config = OPAQConfig(run_size=1000, sample_size=100)
        s = OPAQ(config).summarize(rng.uniform(size=20_000))
        g1 = s.guaranteed_rank_error()
        g2 = s.compact(2).guaranteed_rank_error()
        # Roughly doubles — NOT multiplied by the number of runs.
        assert g1 < g2 < 4 * g1

    def test_format2_summary_still_loads(self, rng, tmp_path):
        """Backwards compatibility with pre-max_subrun archives."""
        import json

        config = OPAQConfig(run_size=100, sample_size=10)
        s = OPAQ(config).summarize(rng.uniform(size=1000))
        meta = {
            "num_runs": s.num_runs,
            "count": s.count,
            "minimum": s.minimum,
            "maximum": s.maximum,
            "format": 2,
        }
        path = tmp_path / "old.npz"
        np.savez(
            path,
            samples=s.samples,
            gaps=s.gaps,
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
        loaded = OPAQSummary.load(path)
        # Pre-floor archives load with conservative -inf floors.
        assert np.all(np.isneginf(loaded.floors))


class TestRepr:
    def test_concise_repr(self, rng):
        config = OPAQConfig(run_size=100, sample_size=10)
        s = OPAQ(config).summarize(rng.uniform(size=1000))
        text = repr(s)
        assert "OPAQSummary(count=1,000" in text
        assert "samples=100" in text
        assert len(text) < 200  # no raw arrays in the repr
