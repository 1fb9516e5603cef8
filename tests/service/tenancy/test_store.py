"""The spill store: byte-identical restore, crash windows, fault injection
at the storage seam, and segment reclaim under a disk bound."""

import errno
import math
import os
import sys
import threading

import numpy as np
import pytest

from repro.core import OPAQ, OPAQConfig
from repro.errors import DataError, ServiceError
from repro.service.tenancy import SpillStore
from repro.service.tenancy import store as store_module


def summary_fingerprint(summary) -> bytes:
    """Byte-exact identity of a summary: arrays as raw IEEE-754 + scalars."""
    floors = summary.floors
    return b"|".join(
        [
            summary.samples.tobytes(),
            summary.gaps.tobytes(),
            b"" if floors is None else floors.tobytes(),
            repr(
                (summary.num_runs, summary.count, summary.minimum, summary.maximum)
            ).encode(),
        ]
    )


def make_summary(rng, n=2_000):
    return OPAQ(OPAQConfig(run_size=500, sample_size=40)).summarize(
        rng.uniform(size=n)
    )


def segments(directory):
    return sorted(directory.glob("segment-*.log"))


def restore_all(store, keys):
    return {key: summary_fingerprint(store.restore(key)[0]) for key in keys}


@pytest.fixture
def small_segments(monkeypatch):
    """Segments of 16 KiB, so a few dozen spills cross several of them."""
    monkeypatch.setattr(store_module, "_SEGMENT_BYTES", 16 << 10)
    return 16 << 10


class TestSpillRestore:
    def test_restore_is_byte_identical(self, rng, tmp_path):
        summary = make_summary(rng)
        with SpillStore(tmp_path) as store:
            store.spill("k", summary, compactions=3, epsilon=0.01)
            restored, record, nbytes = store.restore("k")
        assert nbytes > 0
        assert record.compactions == 3 and record.epsilon == 0.01
        assert summary_fingerprint(restored) == summary_fingerprint(summary)
        np.testing.assert_array_equal(restored.samples, summary.samples)
        np.testing.assert_array_equal(restored.gaps, summary.gaps)

    def test_restore_consumes_the_spill(self, rng, tmp_path):
        with SpillStore(tmp_path) as store:
            store.spill("k", make_summary(rng), compactions=0, epsilon=0.01)
            assert "k" in store and len(store) == 1
            store.restore("k")
            assert "k" not in store and len(store) == 0
            with pytest.raises(DataError, match="not spilled"):
                store.restore("k")

    def test_respill_keeps_last_one_record_per_key(self, rng, tmp_path):
        with SpillStore(tmp_path) as store:
            for _ in range(4):
                last = make_summary(rng)
                nbytes = store.spill("k", last, compactions=0, epsilon=0.01)
            assert store.keys() == ["k"]
            assert store.bytes_live == nbytes
            assert store.bytes_on_disk > 4 * nbytes  # superseded, not yet reclaimed
            restored, _, _ = store.restore("k")
        assert summary_fingerprint(restored) == summary_fingerprint(last)
        # One segment log, no per-key files and no manifest.
        assert [p.name for p in tmp_path.iterdir()] == [segments(tmp_path)[0].name]

    def test_reopen_replays_manifest(self, rng, tmp_path):
        summary = make_summary(rng)
        with SpillStore(tmp_path) as store:
            store.spill("a", summary, compactions=1, epsilon=0.02)
            store.spill("b", make_summary(rng), compactions=0, epsilon=0.02)
            store.restore("b")
        with SpillStore(tmp_path) as reopened:
            assert reopened.keys() == ["a"]
            restored, record, _ = reopened.restore("a")
            assert record.compactions == 1
            assert summary_fingerprint(restored) == summary_fingerprint(summary)


class TestCrashWindows:
    @pytest.mark.parametrize("cut", ["header", "meta", "payload"])
    def test_torn_trailing_record_truncated(self, rng, tmp_path, cut):
        kept = make_summary(rng)
        with SpillStore(tmp_path) as store:
            store.spill("a", kept, compactions=0, epsilon=0.01)
            store.spill("b", make_summary(rng), compactions=0, epsilon=0.01)
            torn = store._live["b"]
        # A crash mid-append leaves a prefix of b's record behind.
        into = {"header": 9, "meta": 30, "payload": torn.length - 5}[cut]
        (path,) = segments(tmp_path)
        os.truncate(path, torn.offset + into)
        with SpillStore(tmp_path) as reopened:
            assert reopened.keys() == ["a"]
            assert path.stat().st_size == torn.offset  # the tail was cut off
            reopened.spill("c", make_summary(rng), compactions=0, epsilon=0.01)
        with SpillStore(tmp_path) as again:
            assert again.keys() == ["a", "c"]
            restored, _, _ = again.restore("a")
        assert summary_fingerprint(restored) == summary_fingerprint(kept)

    def test_corrupt_whole_record_raises(self, rng, tmp_path):
        with SpillStore(tmp_path) as store:
            store.spill("a", make_summary(rng), compactions=0, epsilon=0.01)
            record = store._live["a"]
        (path,) = segments(tmp_path)
        data = bytearray(path.read_bytes())
        data[record.offset + record.length - 1] ^= 0xFF  # last payload byte
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="corrupt spill record"):
            SpillStore(tmp_path)

    def test_torn_record_in_a_sealed_segment_raises(
        self, rng, tmp_path, small_segments
    ):
        with SpillStore(tmp_path) as store:
            for i in range(12):
                store.spill(f"k{i}", make_summary(rng), compactions=0, epsilon=0.01)
        oldest = segments(tmp_path)[0]
        assert len(segments(tmp_path)) > 1
        os.truncate(oldest, oldest.stat().st_size - 3)
        with pytest.raises(DataError, match="not the newest segment"):
            SpillStore(tmp_path)

    @pytest.mark.parametrize("failing", ["pread", "pwrite"])
    def test_restore_appends_its_tombstone_after_the_read(
        self, rng, tmp_path, monkeypatch, failing
    ):
        """A restore whose read fails, or whose tombstone never lands,
        leaves the key spilled — the state a crash between the read and
        the append leaves too."""
        summary = make_summary(rng)
        with SpillStore(tmp_path) as store:
            store.spill("k", summary, compactions=0, epsilon=0.01)
            with monkeypatch.context() as patch:
                patch.setattr(store_module.os, failing, _enospc)
                with pytest.raises(ServiceError, match="retry"):
                    store.restore("k")
            assert store.keys() == ["k"]
        with SpillStore(tmp_path) as reopened:
            restored, _, _ = reopened.restore("k")
        assert summary_fingerprint(restored) == summary_fingerprint(summary)

    def test_record_with_vanished_file_dropped(
        self, rng, tmp_path, small_segments
    ):
        """A sealed segment removed from under the store loses only the
        keys whose records it held; the rest restore byte-identically."""
        spilled = {}
        with SpillStore(tmp_path) as store:
            for i in range(12):
                spilled[f"k{i}"] = make_summary(rng)
                store.spill(f"k{i}", spilled[f"k{i}"], compactions=0, epsilon=0.01)
            records = dict(store._live)
        paths = segments(tmp_path)
        assert len(paths) >= 3
        victim = paths[1]
        victim.unlink()
        lost = {k for k, r in records.items() if r.segment == int(victim.stem[8:])}
        assert lost
        with SpillStore(tmp_path) as reopened:
            assert set(reopened.keys()) == set(spilled) - lost
            for key, fingerprint in restore_all(reopened, reopened.keys()).items():
                assert fingerprint == summary_fingerprint(spilled[key])

    def test_foreign_segment_head_rejected(self, tmp_path):
        (tmp_path / "segment-0000000001.log").write_bytes(
            store_module._encode(store_module._HEAD, {"magic": "NOTSPILL", "version": 2})
        )
        with pytest.raises(DataError, match="not an OPAQ spill segment"):
            SpillStore(tmp_path)

    def test_future_segment_version_rejected(self, tmp_path):
        (tmp_path / "segment-0000000001.log").write_bytes(
            store_module._encode(store_module._HEAD, {"magic": "OPAQSPILL", "version": 99})
        )
        with pytest.raises(DataError, match="version 99"):
            SpillStore(tmp_path)

    @pytest.mark.parametrize("leftover", ["SPILLS.jsonl", "spill-0000000003.npz"])
    def test_old_layout_refused(self, tmp_path, leftover):
        (tmp_path / leftover).write_bytes(b"")
        with pytest.raises(DataError, match="old per-key layout"):
            SpillStore(tmp_path)
        assert segments(tmp_path) == []


def _enospc(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestFaultInjection:
    """Storage-seam faults: the log stays readable and no answer changes."""

    def test_short_write_then_enospc_truncates_back(
        self, rng, tmp_path, monkeypatch
    ):
        real_pwrite = os.pwrite
        calls = []

        def half_then_full_disk(fd, data, offset):
            calls.append(len(data))
            if len(calls) == 1:
                return real_pwrite(fd, bytes(data[: len(data) // 2]), offset)
            raise OSError(errno.ENOSPC, "No space left on device")

        kept = {f"k{i}": make_summary(rng) for i in range(3)}
        with SpillStore(tmp_path) as store:
            for key, summary in kept.items():
                store.spill(key, summary, compactions=0, epsilon=0.01)
            (path,) = segments(tmp_path)
            size = path.stat().st_size
            with monkeypatch.context() as patch:
                patch.setattr(store_module.os, "pwrite", half_then_full_disk)
                with pytest.raises(ServiceError, match="retry"):
                    store.spill("k0", make_summary(rng), compactions=0, epsilon=0.01)
            assert len(calls) == 2  # the short write was continued, then failed
            assert path.stat().st_size == size  # no garbage behind the log
            assert store.keys() == list(kept)
            # The next append lands right after the last whole record.
            store.spill("k3", kept["k0"], compactions=0, epsilon=0.01)
            assert store._live["k3"].offset == size
        with SpillStore(tmp_path) as reopened:
            assert reopened.keys() == ["k0", "k1", "k2", "k3"]
            restored = restore_all(reopened, reopened.keys())
        for key, summary in kept.items():
            assert restored[key] == summary_fingerprint(summary)

    def test_failed_truncate_is_repaired_before_the_next_append(
        self, rng, tmp_path, monkeypatch
    ):
        real_pwrite = os.pwrite
        calls = []

        def short_then_failing(fd, data, offset):
            calls.append(offset)
            if len(calls) == 1:
                return real_pwrite(fd, bytes(data[:200]), offset)
            raise OSError(errno.EIO, "I/O error")

        def refuse(fd, length):
            raise OSError(errno.EIO, "I/O error")

        kept = make_summary(rng)
        with SpillStore(tmp_path) as store:
            store.spill("a", kept, compactions=0, epsilon=0.01)
            store.spill("b", kept, compactions=0, epsilon=0.01)
            (path,) = segments(tmp_path)
            size = path.stat().st_size
            with monkeypatch.context() as patch:
                patch.setattr(store_module.os, "pwrite", short_then_failing)
                patch.setattr(store_module.os, "ftruncate", refuse)
                with pytest.raises(ServiceError):
                    store.spill("x", make_summary(rng), compactions=0, epsilon=0.01)
            assert path.stat().st_size == size + 200  # garbage left behind
            store.restore("b")  # its tombstone is shorter than the garbage
            assert path.stat().st_size == store.bytes_on_disk
        with SpillStore(tmp_path) as reopened:
            assert reopened.keys() == ["a"]
            restored, _, _ = reopened.restore("a")
        assert summary_fingerprint(restored) == summary_fingerprint(kept)

    def test_crash_between_reclaim_copy_and_unlink(
        self, rng, tmp_path, monkeypatch, small_segments
    ):
        class Crash(BaseException):
            pass

        def crash(path):
            raise Crash(path)

        spilled = {f"k{i}": make_summary(rng) for i in range(6)}
        store = SpillStore(tmp_path)
        for key, summary in spilled.items():
            store.spill(key, summary, compactions=0, epsilon=0.01)
        with monkeypatch.context() as patch:
            patch.setattr(store_module.os, "unlink", crash)
            with pytest.raises(Crash):
                # Churn one key until the sealed segments are mostly dead.
                for _ in range(100):
                    store.spill("k0", spilled["k0"], compactions=0, epsilon=0.01)
        copied = [p for p in segments(tmp_path) if int(p.stem[8:]) not in store._segments]
        assert len(copied) == 1  # reclaimed, its records copied, not yet unlinked
        store.close()
        # Both copies of every moved record are on disk; replay keeps the
        # later one, byte for byte the same.
        with SpillStore(tmp_path) as reopened:
            assert sorted(reopened.keys()) == sorted(spilled)
            restored = restore_all(reopened, list(spilled))
        for key, summary in spilled.items():
            assert restored[key] == summary_fingerprint(summary)


class TestReclaim:
    def test_churn_reclaims_segments(self, rng, tmp_path, small_segments):
        pool = [make_summary(rng, n=1_000) for _ in range(8)]
        with SpillStore(tmp_path) as store:
            expected = {}
            for step in range(400):
                key = f"k{step % 7}" if step % 3 else "hot"
                summary = pool[step % len(pool)]
                store.spill(key, summary, compactions=0, epsilon=0.01)
                expected[key] = summary
                if step % 11 == 0:
                    victim = sorted(expected)[step % len(expected)]
                    store.restore(victim)
                    del expected[victim]
                live, disk = store.bytes_live, store.bytes_on_disk
                assert disk <= 2 * live + small_segments, (step, live, disk)
                on_disk = sum(p.stat().st_size for p in segments(tmp_path))
                assert on_disk == disk
            # Hundreds of records went through; the early segments are gone.
            assert int(segments(tmp_path)[0].stem[8:]) > 10
        with SpillStore(tmp_path) as reopened:
            assert sorted(reopened.keys()) == sorted(expected)
            restored = restore_all(reopened, sorted(expected))
        for key, summary in expected.items():
            assert restored[key] == summary_fingerprint(summary)


class TestConcurrency:
    def test_threads_spilling_and_restoring_keep_every_record(
        self, rng, tmp_path, small_segments
    ):
        """More threads than cores spill, re-spill and restore their own
        keys through one store while reclaim runs; afterwards every key
        holds its last summary and the byte accounting matches the files."""
        pool = [make_summary(rng, n=1_000) for _ in range(6)]
        workers, steps = 6, 60
        finals: dict[str, int] = {}
        errors = []

        def work(w, store):
            try:
                for step in range(steps):
                    key = f"w{w}-k{step % 5}"
                    store.spill(key, pool[(w + step) % len(pool)], compactions=w, epsilon=0.01)
                    finals[key] = (w + step) % len(pool)
                    if step % 7 == 3:
                        store.restore(key)
                        del finals[key]
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SpillStore(tmp_path) as store:
                threads = [
                    threading.Thread(target=work, args=(w, store))
                    for w in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert sorted(store.keys()) == sorted(finals)
                on_disk = sum(p.stat().st_size for p in segments(tmp_path))
                assert store.bytes_on_disk == on_disk
                assert on_disk <= 2 * store.bytes_live + small_segments
        finally:
            sys.setswitchinterval(interval)
        with SpillStore(tmp_path) as reopened:
            restored = restore_all(reopened, sorted(finals))
        for key, index in finals.items():
            assert restored[key] == summary_fingerprint(pool[index])


class TestAux:
    def test_aux_roundtrip_and_replacement(self, rng, tmp_path):
        first, second = make_summary(rng), make_summary(rng)
        with SpillStore(tmp_path) as store:
            store.save_aux("rollup-shard-0", first)
            store.save_aux("rollup-shard-0", second)
            assert store.aux_names() == ["rollup-shard-0"]
        with SpillStore(tmp_path) as reopened:
            loaded = reopened.load_aux("rollup-shard-0")
            assert summary_fingerprint(loaded) == summary_fingerprint(second)
            assert reopened.load_aux("missing") is None


def sorted_chunk(rng, n=20):
    return np.sort(rng.normal(size=n))


def chain_of(store, key, keep=True):
    """``(base fingerprint, delta values, pending)`` of a spilled key."""
    summary, record, _ = store.restore(key, keep=keep)
    return summary_fingerprint(summary), record.values.tobytes(), record.pending


def live_chain_bytes(store):
    return sum(
        length for r in store._live.values() for _s, _o, length in r.chain
    ) + sum(length for _s, _o, length in store._aux.values())


class TestDeltaChains:
    """Deltas: a spilled key's pending data appended to its chain."""

    def test_deltas_chain_onto_the_base_in_append_order(self, rng, tmp_path):
        base = make_summary(rng)
        first, second = sorted_chunk(rng), sorted_chunk(rng, 7)
        with SpillStore(tmp_path) as store:
            store.spill("k", base, compactions=2, epsilon=0.01)
            store.spill("k", first, delta=True)
            store.spill("k", second, delta=True)
            (path,) = segments(tmp_path)
            size, disk = path.stat().st_size, store.bytes_on_disk
            summary, record, nbytes = store.restore("k", keep=True)
            # A kept read appends nothing and leaves the index as it was.
            assert path.stat().st_size == size and store.bytes_on_disk == disk
            assert "k" in store and store.record("k") == record
            assert summary_fingerprint(summary) == summary_fingerprint(base)
            np.testing.assert_array_equal(
                record.values, np.concatenate([first, second])
            )
            assert record.pending == 27 and record.compactions == 2
            assert len(record.deltas) == 2
            assert nbytes == sum(length for _s, _o, length in record.chain)
            assert store.bytes_live == nbytes
            assert chain_of(store, "k", keep=False)[1] == record.values.tobytes()
            assert "k" not in store and store.bytes_live == 0

    def test_delta_needs_a_base(self, rng, tmp_path):
        with SpillStore(tmp_path) as store:
            with pytest.raises(DataError, match="not spilled"):
                store.spill("k", sorted_chunk(rng), delta=True)
            assert store.bytes_on_disk == 0

    def test_reopen_replays_chains(self, rng, tmp_path):
        with SpillStore(tmp_path) as store:
            store.spill("a", make_summary(rng), compactions=1, epsilon=0.01)
            store.spill("a", sorted_chunk(rng), delta=True)
            store.spill("b", make_summary(rng), compactions=0, epsilon=0.01)
            store.spill("a", sorted_chunk(rng), delta=True)
            expected = {key: chain_of(store, key) for key in ("a", "b")}
            live = store.bytes_live
        with SpillStore(tmp_path) as reopened:
            assert {key: chain_of(reopened, key) for key in ("a", "b")} == expected
            assert reopened.bytes_live == live
            assert reopened.record("a").pending == 40

    def test_tombstone_kills_the_whole_chain(self, rng, tmp_path):
        with SpillStore(tmp_path) as store:
            store.spill("other", make_summary(rng), compactions=0, epsilon=0.01)
            other = store.bytes_live
            store.spill("k", make_summary(rng), compactions=0, epsilon=0.01)
            store.spill("k", sorted_chunk(rng), delta=True)
            store.spill("k", sorted_chunk(rng), delta=True)
            store.restore("k")
            assert store.bytes_live == other == live_chain_bytes(store)
            # A new base starts a new chain: the old deltas stay dead.
            fresh = make_summary(rng)
            store.spill("k", fresh, compactions=0, epsilon=0.01)
            assert chain_of(store, "k") == (summary_fingerprint(fresh), b"", 0)
        with SpillStore(tmp_path) as reopened:
            assert chain_of(reopened, "k") == (summary_fingerprint(fresh), b"", 0)
            assert reopened.bytes_live == live_chain_bytes(reopened)

    def test_respill_supersedes_the_chain(self, rng, tmp_path):
        with SpillStore(tmp_path) as store:
            store.spill("k", make_summary(rng), compactions=0, epsilon=0.01)
            store.spill("k", sorted_chunk(rng), delta=True)
            last = make_summary(rng)
            nbytes = store.spill("k", last, compactions=0, epsilon=0.01)
            assert chain_of(store, "k") == (summary_fingerprint(last), b"", 0)
            assert store.bytes_live == nbytes
        with SpillStore(tmp_path) as reopened:
            assert chain_of(reopened, "k") == (summary_fingerprint(last), b"", 0)
            assert reopened.bytes_live == nbytes

    @pytest.mark.parametrize("cut", ["header", "meta", "payload"])
    def test_torn_delta_tail_truncated_on_open(self, rng, tmp_path, cut):
        base, first = make_summary(rng), sorted_chunk(rng)
        with SpillStore(tmp_path) as store:
            store.spill("k", base, compactions=0, epsilon=0.01)
            store.spill("k", first, delta=True)
            store.spill("k", sorted_chunk(rng), delta=True)
            _seq, offset, length = store._live["k"].deltas[-1]
        into = {"header": 9, "meta": 30, "payload": length - 5}[cut]
        (path,) = segments(tmp_path)
        os.truncate(path, offset + into)
        with SpillStore(tmp_path) as reopened:
            assert path.stat().st_size == offset  # the torn delta is gone
            assert chain_of(reopened, "k") == (
                summary_fingerprint(base), first.tobytes(), first.size
            )

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EIO])
    def test_failed_delta_append_truncates_back(
        self, rng, tmp_path, monkeypatch, code
    ):
        def fail(*args):
            raise OSError(code, os.strerror(code))

        first, third = sorted_chunk(rng), sorted_chunk(rng)
        with SpillStore(tmp_path) as store:
            store.spill("k", make_summary(rng), compactions=0, epsilon=0.01)
            store.spill("k", first, delta=True)
            (path,) = segments(tmp_path)
            size, before = path.stat().st_size, store.record("k")
            with monkeypatch.context() as patch:
                patch.setattr(store_module.os, "pwrite", fail)
                with pytest.raises(ServiceError, match="retry"):
                    store.spill("k", sorted_chunk(rng), delta=True)
            assert path.stat().st_size == size
            assert store.record("k") == before
            store.spill("k", third, delta=True)
            assert store.record("k").deltas[-1][1] == size
            expected = chain_of(store, "k")
        with SpillStore(tmp_path) as reopened:
            assert chain_of(reopened, "k") == expected
        assert expected[1] == np.concatenate([first, third]).tobytes()

    def test_vanished_base_segment_drops_its_later_deltas(
        self, rng, tmp_path, small_segments
    ):
        """``k`` re-spilled and ``j`` spilled in segment 2, both given a
        delta in segment 3; segment 2 vanishes.  Their deltas name a
        base that is gone, so they are dropped: ``k`` falls back to its
        older spill alone and ``j`` is gone, while every other key reads
        byte-identically."""
        filler = {}

        def fill_until(store, count):
            while len(store._segments) < count:
                key = f"f{len(filler)}"
                filler[key] = make_summary(rng)
                store.spill(key, filler[key], compactions=0, epsilon=0.01)

        older = make_summary(rng)
        with SpillStore(tmp_path) as store:
            store.spill("k", older, compactions=0, epsilon=0.01)
            fill_until(store, 2)
            store.spill("k", make_summary(rng), compactions=0, epsilon=0.01)
            store.spill("j", make_summary(rng), compactions=0, epsilon=0.01)
            fill_until(store, 3)
            store.spill("k", sorted_chunk(rng), delta=True)
            store.spill("j", sorted_chunk(rng), delta=True)
            assert store._live["k"].segment == store._live["j"].segment == 2
            assert store._live["k"].deltas[0][0] == 3
            records = dict(store._live)
            expected = {key: chain_of(store, key) for key in filler}
        victim = segments(tmp_path)[1]
        assert int(victim.stem[8:]) == 2
        victim.unlink()
        kept = {key for key in filler if records[key].segment != 2}
        with SpillStore(tmp_path) as reopened:
            assert set(reopened.keys()) == kept | {"k"}
            assert chain_of(reopened, "k") == (summary_fingerprint(older), b"", 0)
            for key in kept:
                assert chain_of(reopened, key) == expected[key]

    def test_reclaim_consolidates_chains(self, rng, tmp_path, small_segments):
        """Reclaim rewrites a chain with deltas as one record holding the
        base and every delta's values, in append order."""
        expected = {}
        pool = [make_summary(rng, n=1_000) for _ in range(4)]
        with SpillStore(tmp_path) as store:
            for i in range(8):
                key = f"k{i}"
                store.spill(key, pool[i % 4], compactions=i, epsilon=0.01)
                chunks = [sorted_chunk(rng, 5 + i + j) for j in range(3)]
                for chunk in chunks:
                    store.spill(key, chunk, delta=True)
                expected[key] = (
                    summary_fingerprint(pool[i % 4]),
                    np.concatenate(chunks).tobytes(),
                    sum(c.size for c in chunks),
                )
            first = min(store._segments)
            for step in range(300):  # churn one hot key into dead bytes
                store.spill("hot", pool[step % 4], compactions=0, epsilon=0.01)
            assert min(store._segments) > first  # segments were reclaimed
            consolidated = [
                key for key in expected
                if store._live[key].pending and not store._live[key].deltas
            ]
            assert consolidated
            assert {key: chain_of(store, key) for key in expected} == expected
            assert store.record("k3").compactions == 3
            assert store.bytes_live == live_chain_bytes(store)
        with SpillStore(tmp_path) as reopened:
            assert {key: chain_of(reopened, key) for key in expected} == expected

    def test_crash_between_consolidating_reclaim_and_unlink(
        self, rng, tmp_path, monkeypatch, small_segments
    ):
        """Both the old chains and their consolidated copies on disk: on
        reopen every key serves its base and each delta element once."""

        class Crash(BaseException):
            pass

        def crash(path):
            raise Crash(path)

        expected = {}
        store = SpillStore(tmp_path)
        for i in range(6):
            key = f"k{i}"
            summary = make_summary(rng)
            store.spill(key, summary, compactions=0, epsilon=0.01)
            chunks = [sorted_chunk(rng), sorted_chunk(rng, 9)]
            for chunk in chunks:
                store.spill(key, chunk, delta=True)
            expected[key] = (
                summary_fingerprint(summary), np.concatenate(chunks).tobytes(), 29
            )
        hot = make_summary(rng)
        with monkeypatch.context() as patch:
            patch.setattr(store_module.os, "unlink", crash)
            with pytest.raises(Crash):
                for _ in range(100):
                    store.spill("hot", hot, compactions=0, epsilon=0.01)
        copied = [p for p in segments(tmp_path) if int(p.stem[8:]) not in store._segments]
        assert len(copied) == 1  # reclaimed, chains consolidated, not unlinked
        assert any(
            store._live[key].pending and not store._live[key].deltas
            for key in expected
        )
        store.close()
        with SpillStore(tmp_path) as reopened:
            assert sorted(reopened.keys()) == sorted([*expected, "hot"])
            assert {key: chain_of(reopened, key) for key in expected} == expected

    def test_older_segment_version_refused(self, tmp_path):
        """Version 2 (no deltas) and 3 (JSON record meta): every version
        writes its segment head alike, so the refusal names the version."""
        path = tmp_path / "segment-0000000001.log"
        for version in (2, 3):
            path.write_bytes(
                store_module._encode(
                    store_module._HEAD, {"magic": "OPAQSPILL", "version": version}
                )
            )
            with pytest.raises(DataError, match=f"version {version}"):
                SpillStore(tmp_path)


def make_raw(rng, n=300):
    """A raw key state of ``n`` values over two absorbs."""
    from repro.portfolio import ENGINES

    state = ENGINES["opaq"].raw_key_state(0.01, 4_096)
    for part in np.array_split(rng.normal(size=n), 2):
        state = state.absorb(np.sort(part))
    return state


def raw_fingerprint(values, record) -> bytes:
    return values.tobytes() + repr(
        (record.count, record.absorbs, record.minimum, record.maximum)
    ).encode()


def raw_state_fingerprint(state) -> bytes:
    return raw_fingerprint(state.values, state)


def forge_base(path, record, *, swap_last=False, **fields):
    """Rewrite one base record in place with valid CRCs: ``fields`` of
    its meta replaced and, with ``swap_last``, its last two values
    swapped — a record that only ``restore``'s own checks can refuse."""
    data = bytearray(path.read_bytes())
    meta_at = record.offset + store_module._HEADER_BYTES
    names = (
        "code", "count", "compactions", "epsilon", "absorbs", "minimum",
        "maximum", "folded",
    )
    meta = dict(zip(names, store_module._BASE.unpack_from(data, meta_at)))
    meta.update(fields)
    store_module._BASE.pack_into(data, meta_at, *meta.values())
    if swap_last:
        at = record.offset + record.length - 16
        data[at : at + 16] = data[at + 8 : at + 16] + data[at : at + 8]
    body_len, op, meta_len, _crc = store_module._FIELDS.unpack_from(data, record.offset)
    fields_bytes = store_module._FIELDS.pack(
        body_len, op, meta_len,
        store_module.zlib.crc32(data[meta_at : record.offset + record.length]),
    )
    data[record.offset : meta_at] = fields_bytes + store_module._CRC.pack(
        store_module.zlib.crc32(fields_bytes)
    )
    path.write_bytes(bytes(data))


def restore_raw(store, keys):
    out = {}
    for key in keys:
        values, record, _ = store.restore(key, keep=True)
        assert record.raw
        out[key] = raw_fingerprint(values, record)
    return out


class TestRawBases:
    """A raw key spills as its sorted values (segment version 4); the
    crash-window and fault-injection guarantees hold for it as well."""

    def test_raw_base_round_trip_and_deltas(self, rng, tmp_path):
        state, first = make_raw(rng), sorted_chunk(rng)
        with SpillStore(tmp_path) as store:
            store.spill("k", state, epsilon=0.01, engine="gk")
            store.spill("k", first, delta=True)
            values, record, _ = store.restore("k", keep=True)
            assert record.raw and record.engine == "gk" and record.pending == 20
            assert raw_fingerprint(values, record) == raw_state_fingerprint(state)
            assert record.values.tobytes() == first.tobytes()
            assert not values.flags.writeable
        with SpillStore(tmp_path) as reopened:
            values, record, _ = reopened.restore("k")
            assert raw_fingerprint(values, record) == raw_state_fingerprint(state)
            assert record.values.tobytes() == first.tobytes()
            assert "k" not in reopened

    @pytest.mark.parametrize("cut", ["header", "meta", "payload"])
    def test_torn_raw_tail_truncated(self, rng, tmp_path, cut):
        kept = make_raw(rng)
        with SpillStore(tmp_path) as store:
            store.spill("a", kept, epsilon=0.01)
            store.spill("b", make_raw(rng), epsilon=0.01)
            torn = store._live["b"]
        into = {"header": 9, "meta": 30, "payload": torn.length - 5}[cut]
        (path,) = segments(tmp_path)
        os.truncate(path, torn.offset + into)
        with SpillStore(tmp_path) as reopened:
            assert reopened.keys() == ["a"]
            assert path.stat().st_size == torn.offset
            assert restore_raw(reopened, ["a"]) == {"a": raw_state_fingerprint(kept)}

    def test_short_write_then_enospc_over_raw_bases(self, rng, tmp_path, monkeypatch):
        real_pwrite = os.pwrite
        calls = []

        def half_then_full_disk(fd, data, offset):
            calls.append(len(data))
            if len(calls) == 1:
                return real_pwrite(fd, bytes(data[: len(data) // 2]), offset)
            raise OSError(errno.ENOSPC, "No space left on device")

        kept = {f"k{i}": make_raw(rng) for i in range(3)}
        with SpillStore(tmp_path) as store:
            for key, state in kept.items():
                store.spill(key, state, epsilon=0.01)
            (path,) = segments(tmp_path)
            size = path.stat().st_size
            with monkeypatch.context() as patch:
                patch.setattr(store_module.os, "pwrite", half_then_full_disk)
                with pytest.raises(ServiceError, match="retry"):
                    store.spill("k0", make_raw(rng), epsilon=0.01)
            assert len(calls) == 2 and path.stat().st_size == size
            assert store.keys() == list(kept)
        with SpillStore(tmp_path) as reopened:
            assert restore_raw(reopened, list(kept)) == {
                key: raw_state_fingerprint(state) for key, state in kept.items()
            }

    def test_crash_between_consolidating_reclaim_and_unlink(
        self, rng, tmp_path, monkeypatch, small_segments
    ):
        """Raw chains consolidate into one raw base carrying its deltas;
        with both copies on disk each element is served once."""

        class Crash(BaseException):
            pass

        def crash(path):
            raise Crash(path)

        expected = {}
        store = SpillStore(tmp_path)
        for i in range(6):
            key = f"k{i}"
            state = make_raw(rng, n=800)
            store.spill(key, state, epsilon=0.01)
            chunks = [sorted_chunk(rng), sorted_chunk(rng, 9)]
            for chunk in chunks:
                store.spill(key, chunk, delta=True)
            expected[key] = (
                raw_state_fingerprint(state), np.concatenate(chunks).tobytes(), 29
            )
        hot = make_raw(rng, n=800)
        with monkeypatch.context() as patch:
            patch.setattr(store_module.os, "unlink", crash)
            with pytest.raises(Crash):
                for _ in range(100):
                    store.spill("hot", hot, epsilon=0.01)
        assert any(
            store._live[key].pending and not store._live[key].deltas
            for key in expected
        )
        store.close()

        def chain(store, key):
            values, record, _ = store.restore(key, keep=True)
            return raw_fingerprint(values, record), record.values.tobytes(), record.pending

        with SpillStore(tmp_path) as reopened:
            assert sorted(reopened.keys()) == sorted([*expected, "hot"])
            assert {key: chain(reopened, key) for key in expected} == expected

    @pytest.mark.parametrize(
        "forged, match",
        [
            ({"swap_last": True}, "out of order"),
            ({"count": 0}, "does not hold 0 values"),
            ({"count": 31}, "does not hold 31 values"),
            ({"absorbs": 0}, "claims 0 absorbs"),
            ({"absorbs": 31}, "claims 31 absorbs"),
            ({"minimum": -math.inf}, "claims extremes"),
            ({"maximum": -math.inf}, "claims extremes"),
            ({"minimum": math.nan}, "claims extremes"),
            ({"maximum": 1e300}, "claims extremes"),
            ({"folded": -1}, "appended values"),
            ({"folded": 10_000}, "appended values"),
            ({"folded": 1}, "does not hold 30 values"),
        ],
    )
    def test_malformed_raw_base_is_refused(self, rng, tmp_path, forged, match):
        """A raw base is checked where it enters, like a decoded summary:
        a record that passes its CRCs but could not have been written
        for a raw key is refused with a ``DataError``."""
        state = make_raw(rng, n=30)
        with SpillStore(tmp_path) as store:
            store.spill("k", state, epsilon=0.01)
            record = store._live["k"]
        (path,) = segments(tmp_path)
        forge_base(path, record, **forged)
        with SpillStore(tmp_path) as reopened:
            with pytest.raises(DataError, match=match):
                reopened.restore("k", keep=True)
            with pytest.raises(DataError, match=match):
                reopened.restore("k")
            assert "k" in reopened

    def test_chain_whose_values_miss_its_pending_count_is_refused(self, rng, tmp_path):
        with SpillStore(tmp_path) as store:
            store.spill("k", make_raw(rng, n=30), epsilon=0.01)
            delta = store_module._DELTA_META.pack(21, *store._live["k"].chain[0][:2])
            with store._lock:  # a delta whose meta claims one value too many
                store._append_record(
                    store_module._DELTA, delta + b"k", sorted_chunk(rng).tobytes()
                )
            with pytest.raises(DataError, match="not 21 values"):
                store.restore("k", keep=True)
