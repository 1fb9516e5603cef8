"""Golden digests: SHA-256 of the byte records fixed inputs produce,
compared with ``tests/golden_digests.json``.

The determinism suites compare two runs of one build (spilled against
resident, before against after a restart).  This file compares a build
with digests committed beside it, so a change that moves a summary's
bytes — a merge's tie order, a compaction's grouping, a lazy fold that
merges at another point — fails here even when every run of the new
build agrees with itself.  A change that moves bytes on purpose updates
the file and names each digest it changed, and why.

Inputs are bytes from a seeded stdlib :class:`random.Random`, taken as
small integers and scaled by a power of two: heavy ties, and the same
float64 bits whatever numpy is installed.  To regenerate the file, write
:func:`current_digests`'s result to it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import struct
from pathlib import Path

import numpy as np

from repro import cores
from repro.core import OPAQ, IncrementalOPAQ, OPAQConfig
from repro.service import QuantileService, ServiceConfig
from repro.service.tenancy import RegistryConfig, SummaryRegistry, compose_key
from repro.storage import DiskDataset, RunReader

GOLDEN = Path(__file__).with_name("golden_digests.json")
PHIS = [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]


def draws(seed: int, size: int, span: int = 48) -> np.ndarray:
    """``size`` values in ``[-span/2, span/2) / 8``: integers over a
    power of two, so ties are heavy and the bits are exact."""
    raw = np.frombuffer(random.Random(seed).randbytes(size), dtype=np.uint8)
    return (raw.astype(np.float64) % span - span // 2) / 8.0


def digest(records: list[bytes]) -> str:
    """One SHA-256 over length-prefixed records, in order."""
    h = hashlib.sha256()
    for record in records:
        h.update(struct.pack("<Q", len(record)))
        h.update(record)
    return h.hexdigest()


# ----------------------------------------------------------------------
# (a) IncrementalOPAQ
# ----------------------------------------------------------------------


def incremental_records(max_samples: int | None) -> list[bytes]:
    """Batches of 1 to 900 elements; the summary is read after every
    third batch and at the end (a read merges the waiting runs)."""
    records: list[bytes] = []
    incremental_summary(max_samples, records)
    return records


def incremental_summary(max_samples, records=None):
    inc = IncrementalOPAQ(OPAQConfig(run_size=128, sample_size=8), max_samples)
    for i in range(24):
        inc.update(draws(100 + i, 1 + (i * 379) % 900))
        if records is not None and i % 3 == 2:
            records.append(inc.summary.to_bytes())
    if records is not None:
        records.append(inc.summary.to_bytes())
    return inc.summary


# ----------------------------------------------------------------------
# (b) One pass over a disk file, every run split
# ----------------------------------------------------------------------


@contextlib.contextmanager
def forced_split():
    """Every run of two or more keys is handled as two halves, on this
    thread and the helper, whatever this host's CPUs: the split seam of
    ``tests/selection/test_split_sort.py``."""
    saved = cores._SPLIT_CUTOFF, cores._usable_cpus
    cores._SPLIT_CUTOFF, cores._usable_cpus = 2, lambda: 2
    try:
        yield
    finally:
        cores._SPLIT_CUTOFF, cores._usable_cpus = saved


def split_pass_records(scratch: Path, sample_size: int) -> list[bytes]:
    """``OPAQ.summarize(RunReader(DiskDataset))`` over 20,011 keys in runs
    of 3,000 (odd halves, a ragged last run).  The third run holds no
    negative key and its zeros are ``-0.0``, so its minimum is a zero;
    ``sample_size=1`` takes numpy's partition path, larger ones the sort
    path."""
    values = draws(400, 20_011)
    third = values[6_000:9_000]
    third[third <= 0] = -0.0
    path = scratch / "split-pass.opaq"
    if not path.exists():
        DiskDataset.create(path, values)
    estimator = OPAQ(OPAQConfig(run_size=3_000, sample_size=sample_size))
    with forced_split():
        return [
            estimator.summarize(RunReader(DiskDataset.open(path), 3_000)).to_bytes()
            for _ in range(2)
        ]


# ----------------------------------------------------------------------
# (c) QuantileService: shards, epochs, a warm restart
# ----------------------------------------------------------------------


def service_records(snapshot_dir: Path) -> tuple[list[bytes], list[bytes]]:
    """Epochs of a 2-shard service whose shard and merged bounds are
    crossed, then two more epochs after a warm restart."""
    config = ServiceConfig(
        num_shards=2,
        run_size=256,
        sample_size=16,
        max_shard_samples=120,
        max_merged_samples=160,
        snapshot_dir=snapshot_dir,
    )
    before = []
    service = QuantileService(config)
    try:
        for epoch in range(5):
            for j in range(4):
                service.ingest(draws(200 + 4 * epoch + j, 100 + 211 * j))
            before.append(service.snapshot().summary.to_bytes())
    finally:
        service.close(final_snapshot=False)
    after = []
    service = QuantileService(config)
    try:
        after.append(service.restored_epoch.summary.to_bytes())
        for epoch in range(2):
            for j in range(3):
                service.ingest(draws(300 + 3 * epoch + j, 150 + 97 * j))
            after.append(service.snapshot().summary.to_bytes())
    finally:
        service.close(final_snapshot=False)
    return before, after


# ----------------------------------------------------------------------
# (d) SummaryRegistry: spills, rollups, key answers, a reopen
# ----------------------------------------------------------------------

TENANTS = ["t0", "t1", "t2", "t3", "t4"]
METRICS = ["lat", "bytes", "rps"]
#: The fixed key set whose answers are digested.
ANSWERED = [("t0", "lat"), ("t1", "bytes"), ("t3", "rps"), ("t4", "lat")]


def registry_config(spill_dir: Path, num_shards: int = 2) -> RegistryConfig:
    return RegistryConfig(
        memory_budget=1_500,
        num_shards=num_shards,
        per_key_epsilon=0.05,
        max_key_samples=24,
        fold_threshold=48,
        rollup_max_samples=160,
        spill_dir=spill_dir,
    )


def frame(seed: int) -> tuple[list[str], list[int], np.ndarray]:
    """A multi-metric frame: every (tenant, metric) key with 1-40
    elements (seed 0 gives one key 400, past ``rollup_max_samples``)."""
    gen = random.Random(seed)
    keys, counts = [], []
    for tenant in TENANTS:
        for metric in METRICS:
            keys.append(compose_key(tenant, metric))
            counts.append(gen.randrange(1, 41))
    if seed == 0:
        counts[0] = 400
    return keys, counts, draws(1000 + seed, sum(counts))


def rollup_records(registry: SummaryRegistry) -> list[bytes]:
    tree = registry._tree
    summaries = [tree.shard_summary(i) for i in range(registry.config.num_shards)]
    summaries += [tree.metric_summary(m) for m in tree.metrics()]
    summaries.append(tree.global_summary())
    return [b"" if s is None else s.to_bytes() for s in summaries]


def answer_records(registry: SummaryRegistry) -> list[bytes]:
    answers = registry.quantiles_many(ANSWERED + [("*", "lat"), ("*", "*")], PHIS)
    records = []
    for answer in answers:
        head = f"{answer.tenant}|{answer.metric}|{answer.source}|{answer.engine}"
        record = head.encode() + struct.pack(
            "<QQqd", answer.count, answer.guarantee, answer.compactions,
            answer.epsilon_bound,
        )
        for arr in (answer.phis, answer.psi, answer.lower, answer.upper,
                    answer.max_below, answer.max_above):
            record += np.ascontiguousarray(arr).tobytes()
        records.append(record)
    return records


def directory_records(directory: Path) -> list[bytes]:
    return [
        path.name.encode() + b"\0" + path.read_bytes()
        for path in sorted(directory.iterdir())
    ]


def registry_digests(spill_dir: Path) -> dict[str, str]:
    out = {}
    registry = SummaryRegistry(registry_config(spill_dir))
    try:
        for seed in range(12):
            registry.ingest_frame(*frame(seed))
            if seed == 5:
                out["registry/answers_mid"] = digest(answer_records(registry))
        out["registry/rollups"] = digest(rollup_records(registry))
        out["registry/answers"] = digest(answer_records(registry))
        stats = registry.stats()
        assert stats["spills"] > 0 and stats["delta_appends"] > 0, stats
    finally:
        registry.close()
    out["registry/spill_dir"] = digest(directory_records(spill_dir))
    with SummaryRegistry(registry_config(spill_dir)) as reopened:
        out["registry/reopened_rollups"] = digest(rollup_records(reopened))
        for seed in range(12, 15):
            reopened.ingest_frame(*frame(seed))
        out["registry/reopened_answers"] = digest(answer_records(reopened))
    # One shard: both saved shard rollups fold into shard 0.
    with SummaryRegistry(registry_config(spill_dir, num_shards=1)) as narrowed:
        out["registry/narrowed_rollups"] = digest(rollup_records(narrowed))
    return out


def current_digests(scratch: Path) -> dict[str, str]:
    """Every golden digest of this build, computed under ``scratch``."""
    out = {
        "incremental/unbounded": digest(incremental_records(None)),
        "incremental/bounded": digest(incremental_records(300)),
        "pass/split_sort": digest(split_pass_records(scratch, 40)),
        # Recorded when two samples took the partition path; they sort
        # now, and must select the same bytes.
        "pass/split_partition": digest(split_pass_records(scratch, 2)),
        "pass/split_partition_one": digest(split_pass_records(scratch, 1)),
    }
    before, after = service_records(scratch / "snapshots")
    out["service/epochs"] = digest(before)
    out["service/restart_epochs"] = digest(after)
    # The epoch log's segment files after both lives closed.
    out["service/snapshot_dir"] = digest(directory_records(scratch / "snapshots"))
    out.update(registry_digests(scratch / "spills"))
    return out


def test_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    current = current_digests(tmp_path)
    changed = sorted(k for k in golden if current.get(k) != golden[k])
    assert set(current) == set(golden)
    assert changed == [], f"digests moved: {changed}"


def test_the_inputs_tie_and_cross_the_bound():
    """The inputs exercise what the digests are for: heavy ties, and a
    bound the first batch fits under and later batches cross."""
    unbounded = incremental_summary(None)
    assert np.unique(unbounded.samples).size < unbounded.num_samples / 4
    assert unbounded.num_samples > 300
    first = IncrementalOPAQ(OPAQConfig(run_size=128, sample_size=8), 300)
    first.update(draws(100, 1))
    assert first.summary.num_samples < 300
    assert incremental_summary(300).num_samples <= 300
