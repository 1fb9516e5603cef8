"""Tests for the on-disk dataset format."""

import struct

import numpy as np
import pytest

from repro.errors import ConfigError, DataError
from repro.storage import DatasetWriter, DiskDataset


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
