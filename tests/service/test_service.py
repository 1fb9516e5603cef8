"""QuantileService: ingest, epochs, queries, backpressure, lifecycle."""

import errno

import numpy as np
import pytest

from repro.errors import ConfigError, DataError, EstimationError, ServiceError
from repro.obs import MemorySink, tracing
from repro.service import QuantileService, ServiceConfig
from repro.service.tenancy import RegistryConfig, SummaryRegistry, compose_key


def small_config(**kw):
    defaults = dict(num_shards=2, run_size=1_000, sample_size=50)
    defaults.update(kw)
    return ServiceConfig(**defaults)


class TestConfigValidation:
    def test_defaults_valid(self):
        config = ServiceConfig()
        assert config.num_shards == 4
        assert config.queue_capacity == 64

    @pytest.mark.parametrize(
        "kw",
        [
            {"num_shards": 0},
            {"queue_capacity": 0},
            {"ingest_timeout": 0.0},
            {"sample_size": 0},
            {"snapshot_every": 0},
            {"max_merged_samples": 1},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            ServiceConfig(**kw)


class TestIngestAndQuery:
    def test_ingest_then_snapshot_then_query(self, rng):
        data = rng.normal(size=20_000)
        with QuantileService(small_config()) as service:
            receipt = service.ingest(data)
            assert receipt == {"accepted": 20_000, "epoch": 0}
            snapshot = service.snapshot()
            assert snapshot.epoch == 1
            assert snapshot.count == 20_000

            result = service.quantiles([0.25, 0.5, 0.75])
            assert result.epoch == 1
            assert result.count == 20_000
            assert result.staleness == 0
            sorted_data = np.sort(data)
            for b in result.bounds:
                true_value = sorted_data[b.rank - 1]
                assert b.lower <= true_value <= b.upper
                assert b.max_between <= 2 * result.guarantee

    def test_query_before_first_epoch_raises(self):
        with QuantileService(small_config()) as service:
            service.ingest([1.0, 2.0, 3.0])
            with pytest.raises(EstimationError, match="no epoch"):
                service.quantiles([0.5])

    def test_scalar_phi_deprecated_but_answered(self, rng):
        with QuantileService(small_config()) as service:
            service.ingest(rng.uniform(size=4_000))
            service.snapshot()
            with pytest.deprecated_call():
                result = service.query(0.5)
            assert len(result.bounds) == 1
            assert result.bounds[0].phi == 0.5

    def test_scalar_ingest_refused(self):
        """A scalar is not a batch: refused like ``ServiceClient.ingest``
        refuses it, with nothing accepted."""
        with QuantileService(small_config()) as service:
            with pytest.raises(DataError, match="one-dimensional"):
                service.ingest(1.5)
            assert service.stats()["accepted"] == 0

    def test_staleness_counts_unsnapshotted_elements(self, rng):
        with QuantileService(small_config()) as service:
            service.ingest(rng.uniform(size=5_000))
            service.snapshot()
            service.ingest(rng.uniform(size=1_234))
            assert service.staleness == 1_234
            assert service.quantiles([0.5]).staleness == 1_234
            service.snapshot()
            assert service.staleness == 0

    def test_snapshot_every_advances_epochs_automatically(self, rng):
        config = small_config(snapshot_every=5_000)
        with QuantileService(config) as service:
            for _ in range(4):
                service.ingest(rng.uniform(size=2_500))
            current = service.current_epoch
            assert current is not None and current.epoch == 2
            assert current.count == 10_000

    def test_epoch_boundaries_depend_on_volume_not_batching(self, rng):
        """The same stream in different batch sizes ends at the same epoch."""
        data = rng.uniform(size=12_000)
        epochs = []
        for step in (1_000, 3_000):
            config = small_config(num_shards=1, snapshot_every=6_000)
            with QuantileService(config) as service:
                for start in range(0, data.size, step):
                    service.ingest(data[start : start + step])
                epochs.append(service.current_epoch.epoch)
        assert epochs[0] == epochs[1] == 2

    def test_snapshot_of_empty_service_raises(self):
        with QuantileService(small_config()) as service:
            with pytest.raises(EstimationError, match="empty service"):
                service.snapshot()

    def test_nan_batch_rejected_whole(self):
        with QuantileService(small_config()) as service:
            with pytest.raises(DataError):
                service.ingest([1.0, float("nan")])
            assert service.stats()["accepted"] == 0


class TestShardPartitioning:
    def test_sharding_does_not_change_guarantee_validity(self, rng):
        """4-way sharding must serve enclosing bounds just like 1 shard."""
        data = rng.normal(size=30_000)
        sorted_data = np.sort(data)
        for shards in (1, 4):
            with QuantileService(small_config(num_shards=shards)) as service:
                service.ingest(data)
                service.snapshot()
                result = service.quantiles([0.1, 0.5, 0.9])
                for b in result.bounds:
                    assert b.lower <= sorted_data[b.rank - 1] <= b.upper

    def test_stats_reports_per_shard_ingest(self, rng):
        with QuantileService(small_config(num_shards=2)) as service:
            service.ingest(rng.uniform(size=10_000))
            service.snapshot()
            per_shard = service.stats()["per_shard"]
            assert len(per_shard) == 2
            assert sum(s["ingested"] for s in per_shard) == 10_000
            assert all(s["ingested"] > 0 for s in per_shard)


class TestBackpressure:
    def test_full_queue_times_out_with_service_error(self):
        # A capacity-1 queue on a worker whose thread never starts: the
        # second submit has no consumer and must hit the backpressure
        # timeout instead of hanging.
        from repro.service.shard import ShardWorker

        config = small_config(
            num_shards=1, queue_capacity=1, ingest_timeout=0.05
        )
        worker = ShardWorker(0, config)
        worker.submit(np.ones(10))  # fills the only slot
        with pytest.raises(ServiceError, match="backpressure"):
            worker.submit(np.ones(10), timeout=0.05)

    def test_rejected_counter_emitted(self):
        from repro.service.shard import ShardWorker

        config = small_config(num_shards=1, queue_capacity=1, ingest_timeout=0.05)
        worker = ShardWorker(0, config)
        worker.submit(np.ones(10))
        sink = MemorySink()
        with tracing(sink):
            with pytest.raises(ServiceError):
                worker.submit(np.ones(7), timeout=0.05)
        assert sink.counter_total("service.ingest.rejected") == 7


class TestLifecycle:
    def test_closed_service_rejects_ingest(self, rng):
        service = QuantileService(small_config())
        service.ingest(rng.uniform(size=1_000))
        service.close()
        with pytest.raises(ServiceError, match="closed"):
            service.ingest([1.0])
        with pytest.raises(ServiceError, match="closed"):
            service.snapshot()

    def test_close_is_idempotent(self, rng):
        service = QuantileService(small_config())
        service.ingest(rng.uniform(size=1_000))
        service.close()
        service.close()

    def test_close_flushes_final_epoch(self, rng):
        service = QuantileService(small_config())
        service.ingest(rng.uniform(size=2_000))
        assert service.current_epoch is None
        service.close()
        assert service.current_epoch is not None
        assert service.current_epoch.count == 2_000

    def test_close_without_final_snapshot(self, rng):
        service = QuantileService(small_config())
        service.ingest(rng.uniform(size=2_000))
        service.close(final_snapshot=False)
        assert service.current_epoch is None

    def test_queries_still_answered_after_close(self, rng):
        service = QuantileService(small_config())
        service.ingest(rng.uniform(size=2_000))
        service.close()
        assert service.quantiles([0.5]).count == 2_000


def _enospc(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


class TestFailedPersist:
    """A full disk under the epoch log never turns an accepted batch or a
    shutdown into loss."""

    def test_failed_trigger_keeps_the_batch_accepted(self, rng, tmp_path):
        config = small_config(snapshot_every=3_000, snapshot_dir=tmp_path)
        sink = MemorySink()
        with QuantileService(config) as service:
            service.ingest(rng.uniform(size=3_000))
            log = service._snapshotter._log
            log._write = _enospc  # the epoch log's writes fail
            with tracing(sink):
                receipt = service.ingest(rng.uniform(size=5_000))
            assert receipt == {"accepted": 5_000, "epoch": 1}
            assert sink.counters()["service.snapshot.failed"] == 1
            assert service.staleness == 5_000
            with pytest.raises(ServiceError, match="retry"):
                service.snapshot()  # an explicit epoch still raises
            del log._write
            # The failed trigger counted as an attempt: the retry waits
            # for another snapshot_every elements.
            assert service.ingest(rng.uniform(size=10)) == {
                "accepted": 10, "epoch": 1,
            }
            assert service.ingest(rng.uniform(size=2_990)) == {
                "accepted": 2_990, "epoch": 2,
            }
            assert service.current_epoch.count == 11_000

    def test_failed_triggers_retry_once_per_snapshot_every(self, rng, tmp_path):
        """A full disk costs one epoch attempt per ``snapshot_every``
        elements, not one per ingest; once writes succeed, the next
        trigger advances the epoch."""
        config = small_config(snapshot_every=3_000, snapshot_dir=tmp_path)
        sink = MemorySink()
        with QuantileService(config) as service:
            service.ingest(rng.uniform(size=3_000))
            log = service._snapshotter._log
            log._write = _enospc
            with tracing(sink):
                for _ in range(40):  # 20,000 elements in batches of 500
                    assert service.ingest(rng.uniform(size=500))["epoch"] == 1
            failed = sink.counters()["service.snapshot.failed"]
            assert 1 <= failed <= -(-20_000 // 3_000)
            assert service.staleness == 20_000
            del log._write
            # 2,000 elements since the last failed trigger: the next one
            # comes 1,000 elements later.
            epochs = [service.ingest(rng.uniform(size=500))["epoch"] for _ in range(4)]
            assert epochs == [1, 2, 2, 2]
            assert service.current_epoch.count == 24_000
        with QuantileService(config) as restarted:  # close() persisted the rest
            assert restarted.restored_epoch.count == 25_000

    def test_failed_final_epoch_raises_after_everything_closed(
        self, rng, tmp_path
    ):
        config = small_config(
            snapshot_dir=tmp_path / "snaps",
            tenancy=RegistryConfig(spill_dir=tmp_path / "spills"),
        )
        service = QuantileService(config)
        service.ingest(rng.uniform(size=5_000))
        key = compose_key("acme", "latency")
        service.ingest_keyed([key], [100], rng.uniform(size=100))
        log = service._snapshotter._log
        log._write = _enospc
        with pytest.raises(ServiceError, match="retry"):
            service.close()
        assert service.current_epoch is None  # nothing was served
        assert all(not w._thread.is_alive() for w in service._workers)
        with pytest.raises(ServiceError, match="closed"):
            service.ingest([1.0])
        service.close()  # idempotent: the failure is reported once
        assert log._closed and service.registry._store._closed  # both logs
        with SummaryRegistry(config.tenancy) as reopened:
            assert reopened._store.keys() == [key]


class TestObservability:
    def test_ingest_and_snapshot_counters(self, rng):
        sink = MemorySink()
        with tracing(sink):
            with QuantileService(small_config()) as service:
                service.ingest(rng.uniform(size=6_000))
                service.snapshot()
                service.quantiles([0.5, 0.9])
        assert sink.counter_total("service.ingest.elements") == 6_000
        assert sink.counter_total("service.ingest.batches") == 1
        assert sink.counter_total("service.snapshot.epoch") == 1
        assert sink.counter_total("service.snapshot.count") == 6_000
        assert sink.counter_total("service.query.count") == 2
        assert sink.counter_total("service.closed") == 1
        assert sink.spans("service.query")
        assert sink.spans("service.snapshot.merge")
