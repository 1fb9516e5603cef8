"""Tests for the on-disk dataset format."""

import errno
import struct
import threading

import numpy as np
import pytest

from repro import cores
from repro.errors import ConfigError, DataError
from repro.selection import multiselect_numpy, regular_sample_ranks
from repro.storage import DatasetWriter, DiskDataset, RunReader, datafile

read_span = datafile._read_span


class TestRoundTrip:
    def test_create_open_read(self, tmp_path, rng):
        values = rng.uniform(size=1000)
        ds = DiskDataset.create(tmp_path / "d.opaq", values)
        assert ds.count == 1000
        np.testing.assert_array_equal(ds.read_all(), values)

    def test_int64_dtype(self, tmp_path):
        values = np.arange(10, dtype=np.int64)
        with DatasetWriter(tmp_path / "i.opaq", dtype=np.int64) as w:
            w.append(values)
        ds = DiskDataset.open(tmp_path / "i.opaq")
        assert ds.dtype == np.dtype("<i8")
        np.testing.assert_array_equal(ds.read_all(), values)

    def test_read_range(self, tmp_path):
        ds = DiskDataset.create(tmp_path / "d.opaq", np.arange(100, dtype=float))
        np.testing.assert_array_equal(
            ds.read_range(10, 5), np.arange(10, 15, dtype=float)
        )

    def test_read_range_bounds(self, tmp_path):
        ds = DiskDataset.create(tmp_path / "d.opaq", np.arange(10, dtype=float))
        with pytest.raises(DataError):
            ds.read_range(5, 6)
        with pytest.raises(DataError):
            ds.read_range(-1, 2)

    def test_read_range_into_out(self, tmp_path):
        ds = DiskDataset.create(tmp_path / "d.opaq", np.arange(100, dtype=float))
        out = np.full(5, -1.0)
        got = ds.read_range(10, 5, out=out)
        assert got is out
        np.testing.assert_array_equal(out, np.arange(10, 15, dtype=float))

    def test_read_range_converts_into_out(self, tmp_path):
        values = np.arange(-50, 50, dtype=np.int64) * 3
        ds = DiskDataset.create(tmp_path / "i.opaq", values)
        out = np.empty(7, dtype=np.float64)
        got = ds.read_range(20, 7, out=out)
        assert got is out
        assert out.tobytes() == np.asarray(values[20:27], dtype=np.float64).tobytes()
        strided = np.empty(14)[::2]  # not contiguous: no readinto
        ds_f = DiskDataset.create(tmp_path / "f.opaq", np.arange(30, dtype=float))
        np.testing.assert_array_equal(ds_f.read_range(3, 7, out=strided), np.arange(3, 10))

    def test_read_range_out_shape_checked(self, tmp_path):
        ds = DiskDataset.create(tmp_path / "d.opaq", np.arange(10, dtype=float))
        with pytest.raises(ConfigError):
            ds.read_range(0, 4, out=np.empty(5))
        with pytest.raises(ConfigError):
            ds.read_range(0, 4, out=np.empty((2, 2)))

    def test_iter_ranges(self, tmp_path):
        ds = DiskDataset.create(tmp_path / "d.opaq", np.arange(10, dtype=float))
        chunks = list(ds.iter_ranges(4))
        assert [c.size for c in chunks] == [4, 4, 2]
        np.testing.assert_array_equal(np.concatenate(chunks), np.arange(10))

    def test_iter_ranges_bad_chunk(self, tmp_path):
        ds = DiskDataset.create(tmp_path / "d.opaq", np.arange(4, dtype=float))
        with pytest.raises(ConfigError):
            list(ds.iter_ranges(0))

    def test_nbytes(self, tmp_path):
        ds = DiskDataset.create(tmp_path / "d.opaq", np.arange(10, dtype=float))
        assert ds.nbytes == 80


class TestWriter:
    def test_chunked_writes(self, tmp_path, rng):
        chunks = [rng.uniform(size=17) for _ in range(5)]
        with DatasetWriter(tmp_path / "d.opaq") as w:
            for c in chunks:
                w.append(c)
        ds = DiskDataset.open(tmp_path / "d.opaq")
        np.testing.assert_array_equal(ds.read_all(), np.concatenate(chunks))

    def test_close_returns_dataset(self, tmp_path):
        w = DatasetWriter(tmp_path / "d.opaq")
        w.append(np.array([1.0]))
        ds = w.close()
        assert ds.count == 1

    def test_double_close_idempotent(self, tmp_path):
        w = DatasetWriter(tmp_path / "d.opaq")
        w.append(np.array([1.0]))
        w.close()
        w.close()

    def test_append_after_close_rejected(self, tmp_path):
        w = DatasetWriter(tmp_path / "d.opaq")
        w.close()
        with pytest.raises(DataError):
            w.append(np.array([1.0]))

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(ConfigError):
            DatasetWriter(tmp_path / "d.opaq", dtype=np.float32)

    def test_crashed_writer_leaves_invalid_file(self, tmp_path):
        """Failure injection: an exception mid-write must not leave a file
        that opens as a (short) valid dataset."""
        try:
            with DatasetWriter(tmp_path / "d.opaq") as w:
                w.append(np.arange(10, dtype=float))
                raise RuntimeError("power cut")
        except RuntimeError:
            pass
        with pytest.raises(DataError):
            DiskDataset.open(tmp_path / "d.opaq")


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="does not exist"):
            DiskDataset.open(tmp_path / "nope.opaq")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.opaq"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(DataError, match="bad magic"):
            DiskDataset.open(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.opaq"
        path.write_bytes(b"OPAQ")
        with pytest.raises(DataError, match="truncated"):
            DiskDataset.open(path)

    def test_truncated_payload(self, tmp_path):
        ds = DiskDataset.create(tmp_path / "d.opaq", np.arange(10, dtype=float))
        raw = ds.path.read_bytes()
        ds.path.write_bytes(raw[:-8])
        with pytest.raises(DataError, match="truncated or padded"):
            DiskDataset.open(ds.path)

    def test_padded_payload(self, tmp_path):
        ds = DiskDataset.create(tmp_path / "d.opaq", np.arange(10, dtype=float))
        with open(ds.path, "ab") as f:
            f.write(b"\x00" * 8)
        with pytest.raises(DataError, match="truncated or padded"):
            DiskDataset.open(ds.path)

    def test_bad_dtype_code(self, tmp_path):
        path = tmp_path / "odd.opaq"
        header = struct.Struct("<8s2sxxxxxxq").pack(b"OPAQDS01", b"f4", 0)
        path.write_bytes(header)
        with pytest.raises(DataError, match="unsupported dtype"):
            DiskDataset.open(path)


class TestInt64EndToEnd:
    def test_opaq_over_int_dataset(self, tmp_path, rng):
        """Integer keys flow through the whole pipeline (cast to float64
        in memory, which is lossless for the 2^53 range used here)."""
        from repro.core import OPAQ, OPAQConfig

        values = rng.integers(0, 2**40, size=20_000)
        with DatasetWriter(tmp_path / "i.opaq", dtype=np.int64) as w:
            w.append(values)
        ds = DiskDataset.open(tmp_path / "i.opaq")
        config = OPAQConfig(run_size=4000, sample_size=200)
        summary = OPAQ(config).summarize(ds)
        [b] = OPAQ(config).bounds(summary, [0.5])
        true = float(np.sort(values)[b.rank - 1])
        assert b.lower <= true <= b.upper


class TestSplitRead:
    """A range that sorts as two halves is read as two halves: the
    second on the helper thread, into the same buffer.  The ``split``
    fixture lowers the cutoff and reports two CPUs, so every range of two
    or more keys splits; each must read what the one-thread read reads,
    and fail as it fails."""

    @pytest.fixture
    def split(self, monkeypatch):
        monkeypatch.setattr(cores, "_SPLIT_CUTOFF", 2)
        monkeypatch.setattr(cores, "_usable_cpus", lambda: 2)

    @pytest.fixture
    def threads(self, monkeypatch):
        """The name of the thread each span of a read ran on."""
        seen = []

        def spy(path, view, offset):
            seen.append(threading.current_thread().name)
            return read_span(path, view, offset)

        monkeypatch.setattr(datafile, "_read_span", spy)
        return seen

    @staticmethod
    def _one_thread(ds, start, count):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cores, "_usable_cpus", lambda: 1)
            return ds.read_range(start, count, out=np.empty(count, ds.dtype))

    def test_split_reads_the_one_thread_bytes(self, tmp_path, split, threads):
        values = np.random.default_rng(3).normal(size=10_007)
        ds = DiskDataset.create(tmp_path / "d.opaq", values)
        for start, count in [(0, 2), (0, 3), (5, 1_001), (17, 9_990), (0, 10_007)]:
            out = np.full(count, np.nan)
            assert ds.read_range(start, count, out=out) is out
            assert out.tobytes() == values[start : start + count].tobytes()
            assert ds.read_range(start, count).tobytes() == out.tobytes()
        assert "opaq-sort-helper" in threads and "MainThread" in threads
        reader = RunReader(ds, run_size=1_001)  # ten odd runs, a ragged last
        buffer = np.empty(1_001)
        got = [run.copy() for run in reader.runs(out=buffer)]
        assert [r.size for r in got] == [1_001] * 9 + [998]
        assert np.concatenate(got).tobytes() == values.tobytes()
        assert reader.stats.read_ops == 10
        assert reader.stats.bytes_read == values.nbytes

    def test_one_cpu_and_short_ranges_read_on_the_calling_thread(
        self, tmp_path, monkeypatch, threads
    ):
        ds = DiskDataset.create(tmp_path / "d.opaq", np.arange(5_000.0))
        ds.read_range(0, 5_000, out=np.empty(5_000))  # below the cutoff
        monkeypatch.setattr(cores, "_SPLIT_CUTOFF", 2)
        monkeypatch.setattr(cores, "_usable_cpus", lambda: 1)
        ds.read_range(0, 5_000, out=np.empty(5_000))
        assert threads == ["MainThread", "MainThread"]

    def test_conversions_keep_one_read(self, tmp_path, split, threads):
        """An int64 file, a foreign-dtype ``out`` and a non-contiguous
        ``out`` convert as ``np.asarray`` would, on the calling thread."""
        ints = np.arange(-500, 501, dtype=np.int64) * 7
        ds_i = DiskDataset.create(tmp_path / "i.opaq", ints)
        out = np.empty(999)
        ds_i.read_range(1, 999, out=out)
        assert out.tobytes() == ints[1:1000].astype(np.float64).tobytes()
        ds_f = DiskDataset.create(tmp_path / "f.opaq", np.arange(1_000.0))
        narrow = np.empty(999, dtype=np.float32)
        ds_f.read_range(1, 999, out=narrow)
        assert narrow.tobytes() == np.arange(1.0, 1_000.0, dtype=np.float32).tobytes()
        strided = np.empty(1_998)[::2]
        ds_f.read_range(1, 999, out=strided)
        np.testing.assert_array_equal(strided, np.arange(1.0, 1_000.0))
        assert threads == []  # no readinto: numpy's own read

    @pytest.mark.parametrize("half", ["caller", "helper"])
    def test_an_oserror_on_either_half_is_the_one_thread_error(
        self, tmp_path, monkeypatch, split, half
    ):
        ds = DiskDataset.create(tmp_path / "d.opaq", np.arange(2_001.0))
        failing = {"caller": "MainThread", "helper": "opaq-sort-helper"}[half]

        def flaky(path, view, offset):
            if threading.current_thread().name == failing:
                raise OSError(errno.EIO, "Input/output error", str(path))
            return read_span(path, view, offset)

        monkeypatch.setattr(datafile, "_read_span", flaky)
        with pytest.raises(OSError) as split_error:
            ds.read_range(0, 2_001, out=np.empty(2_001))
        failing = "MainThread"  # the one-thread read runs only here
        with pytest.raises(OSError) as one_thread_error:
            self._one_thread(ds, 0, 2_001)
        assert type(split_error.value) is type(one_thread_error.value)
        assert str(split_error.value) == str(one_thread_error.value)
        self._helper_still_serves()

    @pytest.mark.parametrize("cut", [700, 1_900])  # in the head, in the tail
    def test_a_short_read_on_either_half_is_the_one_thread_error(
        self, tmp_path, split, cut
    ):
        ds = DiskDataset.create(tmp_path / "d.opaq", np.arange(2_001.0))
        size = ds.path.stat().st_size
        with open(ds.path, "r+b") as f:  # the file shrinks after open()
            f.truncate(size - (2_001 - cut) * 8 - 3)
        with pytest.raises(DataError, match="short read") as split_error:
            ds.read_range(0, 2_001, out=np.empty(2_001))
        with pytest.raises(DataError, match="short read") as one_thread_error:
            self._one_thread(ds, 0, 2_001)
        assert str(split_error.value) == str(one_thread_error.value)
        assert f"wanted 2001, got {cut - 1}" in str(split_error.value)
        self._helper_still_serves()

    def test_a_short_span_is_read_to_the_end(self, tmp_path, monkeypatch, split):
        """``readinto`` may return less than asked before the end of the
        file; each half loops until it is full."""
        values = np.random.default_rng(8).uniform(size=4_001)
        ds = DiskDataset.create(tmp_path / "d.opaq", values)
        real_open = open

        class Dribble:
            def __init__(self, f):
                self._f = f

            def __getattr__(self, name):
                return getattr(self._f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._f.close()

            def readinto(self, view):
                return self._f.readinto(view[:1_000])  # at most 1,000 bytes

        monkeypatch.setattr(
            datafile, "open", lambda *a, **k: Dribble(real_open(*a, **k)), raising=False
        )
        out = np.empty(4_001)
        ds.read_range(0, 4_001, out=out)
        assert out.tobytes() == values.tobytes()

    @staticmethod
    def _helper_still_serves():
        helper = cores._running_helper()
        run = np.random.default_rng(5).normal(size=1_001)
        ranks = regular_sample_ranks(run.size, 10)
        assert multiselect_numpy(run, ranks).tobytes() == np.sort(run)[ranks].tobytes()
        assert cores._running_helper() is helper and helper.alive
