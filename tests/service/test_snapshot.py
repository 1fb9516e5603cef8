"""Snapshot persistence: atomic store, manifest versioning, warm restart."""

import json

import numpy as np
import pytest

from repro.core import OPAQ, OPAQConfig, OPAQSummary
from repro.errors import DataError
from repro.service import EpochSnapshot, QuantileService, ServiceConfig, SnapshotStore


def make_snapshot(rng, epoch=1, n=5_000):
    summary = OPAQ(OPAQConfig(run_size=1_000, sample_size=50)).summarize(
        rng.uniform(size=n)
    )
    return EpochSnapshot(epoch=epoch, summary=summary)


def service_config(tmp_path, **kw):
    defaults = dict(
        num_shards=2,
        run_size=1_000,
        sample_size=50,
        snapshot_dir=tmp_path / "snaps",
    )
    defaults.update(kw)
    return ServiceConfig(**defaults)


class TestSnapshotStore:
    def test_roundtrip(self, rng, tmp_path):
        store = SnapshotStore(tmp_path)
        snapshot = make_snapshot(rng, epoch=7)
        path = store.save(snapshot)
        assert path.name == "epoch-00000007.npz"

        loaded = store.load_latest()
        assert loaded is not None
        assert loaded.epoch == 7
        assert loaded.count == snapshot.count
        np.testing.assert_array_equal(
            loaded.summary.samples, snapshot.summary.samples
        )
        np.testing.assert_array_equal(loaded.summary.gaps, snapshot.summary.gaps)

    def test_empty_store_loads_none(self, tmp_path):
        assert SnapshotStore(tmp_path).load_latest() is None

    def test_no_tmp_litter_after_save(self, rng, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(make_snapshot(rng))
        assert not list(tmp_path.glob("*.tmp*"))

    def test_prune_keeps_newest(self, rng, tmp_path):
        store = SnapshotStore(tmp_path)
        for epoch in range(1, 6):
            store.save(make_snapshot(rng, epoch=epoch), retain=2)
        kept = sorted(p.name for p in tmp_path.glob("epoch-*.npz"))
        assert kept == ["epoch-00000004.npz", "epoch-00000005.npz"]
        assert store.load_latest().epoch == 5

    def test_bad_manifest_magic_rejected(self, rng, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(make_snapshot(rng))
        manifest = json.loads(store.manifest_path.read_text())
        manifest["magic"] = "NOTSNAP"
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="not an OPAQ snapshot manifest"):
            store.load_latest()

    def test_unknown_manifest_version_rejected(self, rng, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(make_snapshot(rng))
        manifest = json.loads(store.manifest_path.read_text())
        manifest["version"] = 99
        store.manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="version 99"):
            store.load_latest()

    def test_garbage_manifest_rejected(self, rng, tmp_path):
        store = SnapshotStore(tmp_path)
        store.manifest_path.write_text("{not json")
        with pytest.raises(DataError, match="unreadable"):
            store.load_latest()


class TestWarmRestart:
    def test_restart_serves_identical_answers(self, rng, tmp_path):
        data = rng.normal(size=20_000)
        phis = [0.05, 0.25, 0.5, 0.75, 0.95]

        with QuantileService(service_config(tmp_path)) as service:
            service.ingest(data)
            service.snapshot()
            before = service.query(phis)

        with QuantileService(service_config(tmp_path)) as restarted:
            assert restarted.restored_epoch is not None
            assert restarted.restored_epoch.epoch == before.epoch
            after = restarted.query(phis)
            restarted.close(final_snapshot=False)

        assert after.epoch == before.epoch
        assert after.count == before.count
        assert after.guarantee == before.guarantee
        assert after.bounds == before.bounds

    def test_restart_keeps_restored_data_under_new_epochs(self, rng, tmp_path):
        first = rng.uniform(size=8_000)
        second = rng.uniform(size=4_000)

        with QuantileService(service_config(tmp_path)) as service:
            service.ingest(first)

        with QuantileService(service_config(tmp_path)) as restarted:
            restarted.ingest(second)
            snapshot = restarted.snapshot()
            # The new epoch covers the restored 8k AND the new 4k.
            assert snapshot.count == 12_000
            assert snapshot.epoch == 2
            assert restarted.staleness == 0

    def test_close_final_snapshot_persists_tail(self, rng, tmp_path):
        service = QuantileService(service_config(tmp_path))
        service.ingest(rng.uniform(size=3_000))
        service.close()  # default: flush a final epoch to disk

        with QuantileService(service_config(tmp_path)) as restarted:
            assert restarted.restored_epoch is not None
            assert restarted.restored_epoch.count == 3_000
            restarted.close(final_snapshot=False)

    def test_no_snapshot_dir_means_no_restore(self, rng):
        config = ServiceConfig(num_shards=2, run_size=1_000, sample_size=50)
        with QuantileService(config) as service:
            assert service.restored_epoch is None


class TestCrashResilience:
    """Injected-kill coverage of the npz-write -> manifest-swap window."""

    @staticmethod
    def _kill_manifest_swap(monkeypatch):
        """Make os.replace die exactly at the manifest commit point."""
        import os as os_module

        real_replace = os_module.replace

        def injected(src, dst, *args, **kwargs):
            if str(dst).endswith("LATEST.json"):
                raise OSError("injected kill before the manifest swap")
            return real_replace(src, dst, *args, **kwargs)

        monkeypatch.setattr("repro.service.snapshot.os.replace", injected)

    def test_crash_between_epoch_write_and_manifest_swap(
        self, rng, tmp_path, monkeypatch
    ):
        store = SnapshotStore(tmp_path)
        committed = make_snapshot(rng, epoch=1)
        store.save(committed)

        self._kill_manifest_swap(monkeypatch)
        with pytest.raises(OSError, match="injected kill"):
            store.save(make_snapshot(rng, epoch=2))
        monkeypatch.undo()

        # The uncommitted epoch-2 archive landed, but the manifest still
        # commits epoch 1 — and that is what a warm restart serves.
        assert (tmp_path / "epoch-00000002.npz").exists()
        loaded = store.load_latest()
        assert loaded.epoch == 1
        assert loaded.count == committed.count

    def test_prune_never_drops_the_manifest_referenced_epoch(
        self, rng, tmp_path, monkeypatch
    ):
        store = SnapshotStore(tmp_path)
        store.save(make_snapshot(rng, epoch=1))
        self._kill_manifest_swap(monkeypatch)
        with pytest.raises(OSError, match="injected kill"):
            store.save(make_snapshot(rng, epoch=2))
        monkeypatch.undo()

        # epoch-2 is the newest *file* but an orphan; retain=1 must keep
        # the committed epoch-1, not prune it in favour of the orphan.
        store.prune(retain=1)
        assert (tmp_path / "epoch-00000001.npz").exists()
        assert store.load_latest().epoch == 1

        # Recovery: the next successful save commits epoch 2 for real.
        recovered = make_snapshot(rng, epoch=2)
        store.save(recovered, retain=1)
        assert store.load_latest().epoch == 2

    def test_missing_manifest_falls_back_to_newest_archive(
        self, rng, tmp_path
    ):
        store = SnapshotStore(tmp_path)
        store.save(make_snapshot(rng, epoch=1), retain=5)
        store.save(make_snapshot(rng, epoch=2), retain=5)
        store.manifest_path.unlink()
        loaded = store.load_latest()
        assert loaded is not None and loaded.epoch == 2

    def test_vanished_referenced_archive_falls_back(self, rng, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(make_snapshot(rng, epoch=1), retain=5)
        store.save(make_snapshot(rng, epoch=2), retain=5)
        (tmp_path / "epoch-00000002.npz").unlink()
        loaded = store.load_latest()
        assert loaded is not None and loaded.epoch == 1

    def test_archive_that_breaks_the_invariants_falls_back(self, rng, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(make_snapshot(rng, epoch=1), retain=5)
        store.save(make_snapshot(rng, epoch=2), retain=5)
        path = tmp_path / "epoch-00000002.npz"
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["samples"] = arrays["samples"][::-1].copy()  # parses, unsorted
        np.savez(path, **arrays)
        with pytest.raises(DataError, match="malformed summary file"):
            OPAQSummary.load(path)
        loaded = store.load_latest()
        assert loaded is not None and loaded.epoch == 1

    def test_open_sweeps_torn_temporaries(self, rng, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(make_snapshot(rng, epoch=1))
        (tmp_path / "epoch-00000002.npz.tmp.npz").write_bytes(b"torn")
        (tmp_path / "LATEST.json.tmp").write_text("torn")
        reopened = SnapshotStore(tmp_path)
        assert not list(tmp_path.glob("*.tmp*"))
        assert reopened.load_latest().epoch == 1
