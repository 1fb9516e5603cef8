"""Lazy shard folds: epochs and shard summaries equal an IncrementalOPAQ
fed the same coalesced runs (tests/core/test_lazy_summary.py holds its
lazy fold to the eager chain) byte for byte, and readers racing the
workers lose nothing."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core import OPAQ, IncrementalOPAQ
from repro.core.incremental import fold
from repro.service import (
    QuantileService,
    ServiceConfig,
    ShardRouter,
    ShardWorker,
    Snapshotter,
)
from repro.service.tenancy import SpillStore

SHARDS = 3


class ShardOracle:
    """One shard without its thread: coalesce like the worker, then
    update an estimator."""

    def __init__(self, config):
        self.estimator = IncrementalOPAQ(
            config.opaq_config(), max_samples=config.max_shard_samples
        )
        self._threshold = config.effective_flush_threshold
        self._buffer = []

    def submit(self, batch):
        if batch.size:
            self._buffer.append(batch)
        if sum(b.size for b in self._buffer) >= self._threshold:
            self.flush()

    def flush(self):
        if self._buffer:
            self.estimator.update(np.concatenate(self._buffer))
            self._buffer = []

    @property
    def summary(self):
        return fold(self.estimator.parts)


def oracle_epoch(base, shards, max_merged):
    parts = [] if base is None else [base]
    parts += [s.summary for s in shards if s.summary is not None]
    return fold(parts, max_merged)


def batches(rng, count, largest):
    """Batch sizes from 1 to ``largest``, heavy duplicates and ±0.0."""
    out = []
    for _ in range(count):
        size = int(rng.integers(1, largest + 1))
        values = rng.choice([-0.0, 0.0, 1.0, -1.0, 2.5], size=size)
        noisy = rng.random(size) < 0.5
        values[noisy] = rng.normal(size=int(noisy.sum()))
        out.append(values)
    return out


def as_bytes(summary):
    return None if summary is None else summary.to_bytes()


@pytest.mark.parametrize(
    "max_shard, max_merged, flush",
    [
        (None, None, None),
        (120, None, None),  # shards cross their compaction point mid-run
        (120, 300, None),
        (15, 100, 1),  # below one run: every fold compacts
    ],
)
def test_epochs_equal_the_eager_chain(tmp_path, rng, max_shard, max_merged, flush):
    config = ServiceConfig(
        num_shards=SHARDS,
        run_size=200,
        sample_size=20,
        flush_threshold=flush,
        max_shard_samples=max_shard,
        max_merged_samples=max_merged,
    )
    base = OPAQ(config.opaq_config()).summarize(rng.normal(size=700))
    with SpillStore(tmp_path) as log:
        log.save_aux("epoch-00000003", base)
    workers = [ShardWorker(shard, config) for shard in range(SHARDS)]
    snapshotter = Snapshotter(workers, tmp_path, max_merged_samples=max_merged)
    for worker in workers:
        worker.start()
    try:
        restored = snapshotter.restore()
        assert restored.epoch == 3
        oracle = [ShardOracle(config) for _ in range(SHARDS)]
        router = ShardRouter(SHARDS)
        # The first round's one-element batches reach shard 0 only.
        rounds = [batches(rng, 4, 1)] + [batches(rng, 12, 600) for _ in range(4)]
        for epoch, round_batches in enumerate(rounds, start=4):
            for batch in round_batches:
                for worker, shard, part in zip(workers, oracle, router.split(batch)):
                    worker.submit(part)
                    shard.submit(part)
            snapshot = snapshotter.run_epoch()
            for shard in oracle:
                shard.flush()
            assert snapshot.epoch == epoch
            expected = oracle_epoch(restored.summary, oracle, max_merged)
            assert as_bytes(snapshot.summary) == as_bytes(expected)
            # The log holds this epoch's record alone.
            name = f"epoch-{epoch:08d}"
            assert snapshotter._log.aux_names() == [name]
            assert as_bytes(snapshotter._log.load_aux(name)) == as_bytes(expected)
            for worker, shard in zip(workers, oracle):
                assert as_bytes(worker.summary) == as_bytes(shard.summary)
                # The barrier merged the shard's pending runs.
                assert len(worker.parts) == (shard.summary is not None)
    finally:
        for worker in workers:
            worker.stop()
        snapshotter.close()


def wait_for_folds(workers, oracle, timeout=30.0):
    deadline = time.monotonic() + timeout
    while any(w.folds != s.estimator.batches for w, s in zip(workers, oracle)):
        assert time.monotonic() < deadline, "workers did not fold in time"
        time.sleep(0.001)


def test_unflushed_epochs_merge_the_pending_runs(rng):
    """An epoch without a barrier reads each shard's summary plus the
    runs folded since, which no worker has merged yet."""
    config = ServiceConfig(
        num_shards=2, run_size=100, sample_size=10, max_shard_samples=150
    )
    workers = [ShardWorker(shard, config) for shard in range(2)]
    for worker in workers:
        worker.start()
    try:
        snapshotter = Snapshotter(workers)
        oracle = [ShardOracle(config) for _ in range(2)]
        router = ShardRouter(2)
        pending = []
        for _ in range(6):
            for batch in batches(rng, 5, 300):
                for worker, shard, part in zip(workers, oracle, router.split(batch)):
                    worker.submit(part)
                    shard.submit(part)
            wait_for_folds(workers, oracle)
            pending += [len(w.parts) - 1 for w in workers]
            snapshot = snapshotter.run_epoch(flush=False)
            expected = oracle_epoch(None, oracle, None)
            assert as_bytes(snapshot.summary) == as_bytes(expected)
        assert max(pending) > 1
    finally:
        for worker in workers:
            worker.stop()


def test_stats_reads_each_shard_summary_once(monkeypatch, rng):
    reads = []
    summary = ShardWorker.summary

    def counted(worker):
        reads.append(worker.shard_id)
        return summary.fget(worker)

    monkeypatch.setattr(ShardWorker, "summary", property(counted))
    config = ServiceConfig(num_shards=2, run_size=100, sample_size=10)
    with QuantileService(config) as service:
        service.ingest(rng.normal(size=1_000))
        service.snapshot()
        reads.clear()
        stats = service.stats()
        assert sorted(reads) == [0, 1]
        assert [s["samples"] for s in stats["per_shard"]] == [50, 50]


def test_snapshots_and_stats_race_the_folds():
    """Snapshots and stats run while the workers fold, under a short
    switch interval.  With a flush threshold of one element each routed
    part folds alone, whenever the barriers land, so the last epoch must
    still equal the eager chain byte for byte."""
    config = ServiceConfig(
        num_shards=2,
        run_size=64,
        sample_size=8,
        flush_threshold=1,
        max_shard_samples=100,
    )
    local = np.random.default_rng(17)
    feed = batches(local, 300, 200)
    oracle = [ShardOracle(config) for _ in range(2)]
    router = ShardRouter(2)
    for batch in feed:
        for shard, part in zip(oracle, router.split(batch)):
            shard.submit(part)
    errors: list[BaseException] = []
    done = threading.Event()
    counts: list[list[int]] = [[], []]

    with QuantileService(config) as service:

        def ingest() -> None:
            try:
                for batch in feed:
                    service.ingest(batch)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)
            finally:
                done.set()

        def read(slot: int) -> None:
            try:
                while not done.is_set():
                    counts[slot].append(service.snapshot().count)
                    for shard in service.stats()["per_shard"]:
                        assert shard["samples"] <= config.max_shard_samples
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=ingest)]
        threads += [threading.Thread(target=read, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for seen in counts:
            assert seen == sorted(seen)
        final = service.snapshot()
        assert final.count == sum(b.size for b in feed)
        for shard in oracle:
            shard.flush()
        assert as_bytes(final.summary) == as_bytes(oracle_epoch(None, oracle, None))
