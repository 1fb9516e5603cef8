"""Versioned ``.npz`` archives: round trips, magics, version gates.

Every engine's summary persists with the OPAQSUM discipline — named
arrays plus a ``meta`` JSON blob carrying a per-engine magic and a
format version — so a mixed-engine spill directory fails loudly instead
of mis-parsing a foreign archive.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DataError
from repro.portfolio import ENGINES

from tests.portfolio.conftest import bounds_arrays_of

PHIS = [0.05, 0.25, 0.5, 0.75, 0.95, 1.0]


def _summary(name: str, n: int = 12_000):
    data = np.random.default_rng(11).normal(size=n)
    return ENGINES[name].make().summarize(data)


@pytest.mark.parametrize("name", sorted(ENGINES), ids=sorted(ENGINES))
def test_round_trip_preserves_answers(name, tmp_path):
    summary = _summary(name)
    path = tmp_path / f"{name}.npz"
    summary.save(path)
    restored = ENGINES[name].load(path)
    assert restored.count == summary.count
    assert float(restored.minimum) == float(summary.minimum)
    assert float(restored.maximum) == float(summary.maximum)
    assert restored.guaranteed_rank_error() == summary.guaranteed_rank_error()
    for u, v in zip(
        bounds_arrays_of(restored, PHIS), bounds_arrays_of(summary, PHIS)
    ):
        np.testing.assert_array_equal(u, v)


@pytest.mark.parametrize("name", sorted(ENGINES), ids=sorted(ENGINES))
def test_load_suffixes_npz_like_the_core(name, tmp_path):
    summary = _summary(name, n=2_000)
    bare = tmp_path / "summary"
    summary.save(bare)
    restored = ENGINES[name].load(bare)
    assert restored.count == summary.count


@pytest.mark.parametrize("name", sorted(ENGINES), ids=sorted(ENGINES))
def test_missing_file_raises_data_error(name, tmp_path):
    with pytest.raises(DataError, match="does not exist"):
        ENGINES[name].load(tmp_path / "nope.npz")


def test_cross_engine_magic_mismatch_fails_loudly(tmp_path):
    """Loading one engine's archive as another engine's summary names
    both magics — the exact failure a mixed spill directory would hit."""
    names = sorted(ENGINES)
    paths = {}
    for name in names:
        paths[name] = tmp_path / f"{name}.npz"
        _summary(name, n=2_000).save(paths[name])
    for writer in names:
        for reader in names:
            if writer == reader:
                continue
            with pytest.raises(DataError):
                ENGINES[reader].load(paths[writer])


@pytest.mark.parametrize(
    "name", [n for n in sorted(ENGINES) if n != "opaq"]
)
def test_future_format_version_is_rejected(name, tmp_path):
    summary = _summary(name, n=2_000)
    path = tmp_path / "v999.npz"
    summary.save(path)
    # Rewrite the meta blob with a version this build does not read.
    import json

    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files if k != "meta"}
        meta = json.loads(bytes(archive["meta"].tobytes()).decode())
    meta["format"] = 999
    np.savez(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **arrays,
    )
    with pytest.raises(DataError, match="format version"):
        ENGINES[name].load(path)


def test_kll_rng_state_survives_the_round_trip(tmp_path):
    """A restored KLL sketch resumes its RNG stream: feeding the same
    continuation to the original and the restored copy produces
    bit-identical answers (what makes spill/restore deterministic)."""
    rng = np.random.default_rng(23)
    head, tail = rng.normal(size=30_000), rng.normal(size=30_000)
    engine = ENGINES["kll"].make(k=64)  # small k: plenty of compactions
    original = engine.summarize(head)
    assert original.compactions > 0
    path = tmp_path / "kll.npz"
    original.save(path)
    restored = ENGINES["kll"].load(path)

    original.absorb(tail)
    restored.absorb(tail)
    assert restored.count == original.count
    assert restored.compactions == original.compactions
    for u, v in zip(
        bounds_arrays_of(restored, PHIS), bounds_arrays_of(original, PHIS)
    ):
        np.testing.assert_array_equal(u, v)


@pytest.mark.parametrize("name", sorted(ENGINES), ids=sorted(ENGINES))
def test_byte_record_carries_the_archive_fields(name, tmp_path):
    """``to_bytes`` encodes the same field list as ``save``: a record
    round-trips to identical answers, and an archive loaded back encodes
    to the very same record bytes."""
    summary = _summary(name)
    record = summary.to_bytes()
    restored = ENGINES[name].from_bytes(record)
    assert restored.to_bytes() == record
    assert restored.guaranteed_rank_error() == summary.guaranteed_rank_error()
    for u, v in zip(
        bounds_arrays_of(restored, PHIS), bounds_arrays_of(summary, PHIS)
    ):
        np.testing.assert_array_equal(u, v)
    path = tmp_path / f"{name}.npz"
    summary.save(path)
    assert ENGINES[name].load(path).to_bytes() == record


def test_byte_records_keep_the_magic_and_version_gates():
    import json
    import struct

    records = {name: _summary(name, n=2_000).to_bytes() for name in ENGINES}
    for writer, record in records.items():
        for reader in ENGINES:
            if reader != writer:
                with pytest.raises(DataError, match="magic"):
                    ENGINES[reader].from_bytes(record)
        # Same record with a format version this build does not read.
        (size,) = struct.unpack_from("<I", record)
        head = json.loads(record[4 : 4 + size])
        head["meta"]["format"] = 999
        blob = json.dumps(head).encode()
        future = struct.pack("<I", len(blob)) + blob + record[4 + size :]
        with pytest.raises(DataError, match="format version 999"):
            ENGINES[writer].from_bytes(future)
        with pytest.raises(DataError, match="malformed summary record"):
            ENGINES[writer].from_bytes(record[:-3])
