"""Epoch persistence: the epoch log, its crash windows, warm restart."""

import json
import re

import pytest

from repro.core import OPAQ, OPAQConfig, OPAQSummary
from repro.errors import ConfigError, DataError
from repro.service import QuantileService, ServiceConfig, Snapshotter
from repro.service.tenancy import RegistryConfig, SpillStore
from repro.service.tenancy import store as store_module


def make_summary(rng, n=5_000):
    return OPAQ(OPAQConfig(run_size=1_000, sample_size=50)).summarize(
        rng.uniform(size=n)
    )


def service_config(tmp_path, **kw):
    defaults = dict(
        num_shards=2,
        run_size=1_000,
        sample_size=50,
        snapshot_dir=tmp_path / "snaps",
    )
    defaults.update(kw)
    return ServiceConfig(**defaults)


def epoch_names(directory):
    """The live epoch records of a closed snapshot directory."""
    with SpillStore(directory) as log:
        return log.aux_names()


def epochs_of(rng, config, count, size=2_000):
    """A service that advances ``count`` epochs, then closes without a
    final one."""
    with QuantileService(config) as service:
        for _ in range(count):
            service.ingest(rng.uniform(size=size))
            service.snapshot()
        service.close(final_snapshot=False)


class Crash(BaseException):
    """A kill: nothing below the raise runs, no handler catches it."""


class TestSnapshotStore:
    """The snapshot directory's store: a segment log whose one live
    record is the newest epoch's summary, named ``epoch-NNNNNNNN``."""

    def test_roundtrip(self, rng, tmp_path):
        summary = make_summary(rng)
        with SpillStore(tmp_path) as log:
            log.save_aux("epoch-00000007", summary)
        restored = Snapshotter([], tmp_path).restore()
        assert restored is not None
        assert restored.epoch == 7
        assert restored.count == summary.count
        assert restored.summary.to_bytes() == summary.to_bytes()

    def test_empty_store_loads_none(self, tmp_path):
        assert Snapshotter([], tmp_path).restore() is None

    def test_no_tmp_litter_after_save(self, rng, tmp_path):
        epochs_of(rng, service_config(tmp_path), 3)
        files = sorted(p.name for p in (tmp_path / "snaps").iterdir())
        assert files and all(
            name.startswith("segment-") and name.endswith(".log") for name in files
        )

    def test_prune_keeps_newest(self, rng, tmp_path):
        epochs_of(rng, service_config(tmp_path), 5)
        assert epoch_names(tmp_path / "snaps") == ["epoch-00000005"]
        with QuantileService(service_config(tmp_path)) as restarted:
            assert restarted.restored_epoch.epoch == 5
            restarted.close(final_snapshot=False)

    def test_bad_manifest_magic_rejected(self, rng, tmp_path):
        """A manifest of the retired layout is refused even beside a
        log: the directory holds two formats."""
        config = service_config(tmp_path)
        epochs_of(rng, config, 1)
        manifest = {"magic": "NOTSNAP", "version": 1, "epoch": 1}
        (tmp_path / "snaps" / "LATEST.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="retired layout .LATEST.json."):
            QuantileService(config)

    def test_unknown_manifest_version_rejected(self, tmp_path):
        """The retired manifest is refused by name, whatever its
        version, and nothing is written beside it."""
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        manifest = {"magic": "OPAQSNAP", "version": 99, "epoch": 1}
        (snaps / "LATEST.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=re.escape(str(snaps))):
            QuantileService(service_config(tmp_path))
        assert [p.name for p in snaps.iterdir()] == ["LATEST.json"]

    def test_garbage_manifest_rejected(self, tmp_path):
        """An unparseable manifest gets the same typed refusal: the
        file is never parsed."""
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        (snaps / "LATEST.json").write_text("{not json")
        with pytest.raises(DataError, match="fresh directory"):
            QuantileService(service_config(tmp_path))

    def test_retired_epoch_archive_is_refused(self, rng, tmp_path):
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        make_summary(rng).save(snaps / "epoch-00000003.npz")
        with pytest.raises(DataError, match="epoch-00000003.npz"):
            QuantileService(service_config(tmp_path))

    def test_shared_directory_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="tenancy.spill_dir"):
            service_config(
                tmp_path,
                snapshot_dir=str(tmp_path / "state"),
                tenancy=RegistryConfig(spill_dir=tmp_path / "x" / ".." / "state"),
            )

    def test_fifty_epochs_leave_one_record_and_bounded_disk(
        self, rng, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(store_module, "_SEGMENT_BYTES", 16 << 10)
        config = service_config(tmp_path, max_merged_samples=200)
        with QuantileService(config) as service:
            for _ in range(50):
                service.ingest(rng.uniform(size=500))
                service.snapshot()
            log = service._snapshotter._log
            assert log.aux_names() == ["epoch-00000050"]
            live = log.bytes_live
            assert live > 0
            assert log.bytes_on_disk <= (
                (1 + store_module._RECLAIM_RATIO) * live
                + store_module._SEGMENT_BYTES
            )
            service.close(final_snapshot=False)
        assert len(list((tmp_path / "snaps").glob("segment-*.log"))) <= 3


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
    """Kills injected into an epoch's two log writes: the append of the
    new record, and the tombstone that drops the previous one."""

    def test_torn_epoch_append_serves_the_previous_epoch(
        self, rng, tmp_path, monkeypatch
    ):
        config = service_config(tmp_path)
        service = QuantileService(config)
        service.ingest(rng.uniform(size=4_000))
        committed = service.snapshot()
        (segment,) = (tmp_path / "snaps").glob("segment-*.log")
        size = segment.stat().st_size
        real_pwrite = store_module.os.pwrite

        def killed_mid_append(fd, data, offset):
            real_pwrite(fd, bytes(data[: len(data) // 2]), offset)
            raise Crash

        service.ingest(rng.uniform(size=4_000))
        with monkeypatch.context() as patch:
            patch.setattr(store_module.os, "pwrite", killed_mid_append)
            with pytest.raises(Crash):
                service.snapshot()
        assert segment.stat().st_size > size  # the torn half landed
        assert service.current_epoch is committed
        service.close(final_snapshot=False)

        with QuantileService(config) as restarted:
            assert segment.stat().st_size == size  # truncated at open
            restored = restarted.restored_epoch
            assert restored.epoch == committed.epoch
            assert restored.summary.to_bytes() == committed.summary.to_bytes()
            restarted.ingest(rng.uniform(size=1_000))
            assert restarted.snapshot().epoch == committed.epoch + 1

    def test_crash_between_append_and_drop_serves_newest(
        self, rng, tmp_path, monkeypatch
    ):
        config = service_config(tmp_path)
        service = QuantileService(config)
        service.ingest(rng.uniform(size=4_000))
        service.snapshot()
        service.ingest(rng.uniform(size=2_000))

        def killed(self, name):
            raise Crash

        with monkeypatch.context() as patch:
            patch.setattr(SpillStore, "drop_aux", killed)
            with pytest.raises(Crash):
                service.snapshot()
        service.close(final_snapshot=False)
        assert epoch_names(tmp_path / "snaps") == [
            "epoch-00000001", "epoch-00000002",
        ]

        with QuantileService(config) as restarted:
            assert restarted.restored_epoch.epoch == 2
            assert restarted.restored_epoch.count == 6_000
            restarted.close(final_snapshot=False)
        assert epoch_names(tmp_path / "snaps") == ["epoch-00000002"]

    def test_invalid_epoch_record_is_refused(
        self, rng, tmp_path
    ):
        """A whole record that fails ``validate()`` is a ``DataError`` at
        startup, as a spill record's is: never a silent serve of older
        data."""
        good = make_summary(rng)
        bad = OPAQSummary._trusted(
            good.samples[::-1].copy(), good.gaps, good.floors,
            good.num_runs, good.count, good.minimum, good.maximum,
        )
        with SpillStore(tmp_path / "snaps") as log:
            log.save_aux("epoch-00000001", good)
            log.save_aux("epoch-00000002", bad)
        with pytest.raises(DataError, match="malformed summary"):
            QuantileService(service_config(tmp_path))
