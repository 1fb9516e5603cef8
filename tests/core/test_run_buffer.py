"""The sample phase's one run buffer.

A :class:`~repro.core.sample_phase.RunSampler` holds one float64 buffer
of ``m`` keys: a :class:`~repro.storage.RunReader` reads each run into
it, any other run is copied in, and the selection sorts it in place.  So
a pass over a disk-resident dataset holds about one run's bytes plus the
``O(r·s)`` sample lists, a caller's array is never reordered, and no
thread starts unless a run is split.
"""

import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import cores
from repro.core import OPAQ, OPAQConfig, build_summary
from repro.core.sample_phase import RunSampler
from repro.parallel import ParallelOPAQ
from repro.parallel.backends import ProcessBackend
from repro.storage import DiskDataset, RunReader

RUN = 200_000


@pytest.fixture
def force_split(monkeypatch):
    """Every dense run is read and sorted as two halves, whatever this
    host's CPUs."""
    monkeypatch.setattr(cores, "_SPLIT_CUTOFF", 2)
    monkeypatch.setattr(cores, "_usable_cpus", lambda: 2)


def _summary_bytes(summary):
    return (
        summary.samples.tobytes(),
        summary.gaps.tobytes(),
        summary.floors.tobytes(),
        summary.count,
        summary.num_runs,
        repr(summary.minimum),
        repr(summary.maximum),
    )


@pytest.mark.parametrize("split", [False, True])
def test_a_pass_holds_one_run_buffer(tmp_path, monkeypatch, split):
    """Peak traced memory of a 5-run pass: one run's bytes plus O(r·s).

    A fresh read array per run plus ``np.sort``'s copy would peak at two
    runs' bytes.  The estimator keeps its buffer from the warm pass, so
    the traced pass takes no new one, and nothing of the run is left
    behind once it is over, even after the helper (if it ran) read and
    sorted half of it.
    """
    if split:
        monkeypatch.setattr(cores, "_SPLIT_CUTOFF", 2)
        monkeypatch.setattr(cores, "_usable_cpus", lambda: 2)
    values = np.random.default_rng(0).uniform(size=5 * RUN - 17)
    dataset = DiskDataset.create(tmp_path / "d.opaq", values)
    estimator = OPAQ(OPAQConfig(run_size=RUN, sample_size=100))
    warm = estimator.summarize(RunReader(dataset, run_size=RUN))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        summary = estimator.summarize(RunReader(dataset, run_size=RUN))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    run_bytes = RUN * 8
    assert peak - base < 1.25 * run_bytes
    assert current - base < run_bytes / 4
    assert _summary_bytes(summary) == _summary_bytes(warm)


@pytest.mark.parametrize("split", [False, True])
def test_two_passes_of_one_estimator_allocate_one_run_buffer(
    tmp_path, monkeypatch, split
):
    """The estimator lends its sampler the buffer of its last pass: a
    second pass takes nothing from the allocator for its runs, and holds
    the same buffer afterwards."""
    if split:
        monkeypatch.setattr(cores, "_SPLIT_CUTOFF", 2)
        monkeypatch.setattr(cores, "_usable_cpus", lambda: 2)
    values = np.random.default_rng(5).uniform(size=3 * RUN + 11)
    dataset = DiskDataset.create(tmp_path / "d.opaq", values)
    estimator = OPAQ(OPAQConfig(run_size=RUN, sample_size=100))
    tracemalloc.start()
    try:
        first = estimator.summarize(RunReader(dataset, run_size=RUN))
        buffer = estimator._buffer
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        second = estimator.summarize(RunReader(dataset, run_size=RUN))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert buffer is not None and buffer.size == RUN
    assert estimator._buffer is buffer
    assert peak - base < RUN * 8 / 4
    assert _summary_bytes(second) == _summary_bytes(first)


def test_concurrent_passes_on_one_estimator(tmp_path, force_split):
    """More threads than cores summarizing through one estimator, from
    a disk file (split reads) and from an array: a pass that finds the
    buffer lent out allocates its own, and each returns the bytes a
    one-thread pass returns."""
    values = np.random.default_rng(9).normal(size=20_011)
    dataset = DiskDataset.create(tmp_path / "d.opaq", values)
    config = OPAQConfig(run_size=3_000, sample_size=30)
    expected = _summary_bytes(OPAQ(config).summarize(dataset))
    shared = OPAQ(config)
    got: list[list[tuple]] = [[] for _ in range(4)]

    def work(i):
        for _ in range(10):
            source = dataset if i % 2 else values
            got[i].append(_summary_bytes(shared.summarize(source)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[expected] * 10] * 4


def test_reader_runs_land_in_the_buffer(dataset_factory):
    values = np.random.default_rng(1).normal(size=10_007)
    dataset = dataset_factory(values)
    sampler = RunSampler(OPAQConfig(run_size=1000, sample_size=10))
    runs = list(sampler.read(RunReader(dataset, run_size=1000)))
    assert len(runs) == 11
    assert all(run.base is sampler._buffer for run in runs)
    assert sampler._buffer.size == 1000


def test_int64_dataset_pass(tmp_path):
    values = np.random.default_rng(2).integers(-(10**6), 10**6, size=35_003)
    dataset = DiskDataset.create(tmp_path / "i.opaq", values)
    config = OPAQConfig(run_size=5_000, sample_size=50)
    from_disk = OPAQ(config).summarize(dataset)
    in_memory = OPAQ(config).summarize(values.astype(np.float64))
    assert _summary_bytes(from_disk) == _summary_bytes(in_memory)


def test_buffer_grows_for_larger_caller_runs():
    config = OPAQConfig(run_size=64, sample_size=8)
    rng = np.random.default_rng(3)
    runs = [rng.uniform(size=k) for k in (3, 64, 1, 200, 17)]
    summary = build_summary(runs, config)
    assert summary.count == sum(r.size for r in runs)
    assert summary.minimum == min(r.min() for r in runs)
    assert summary.maximum == max(r.max() for r in runs)


def test_summarize_leaves_an_array_source_unchanged(force_split):
    data = np.random.default_rng(4).normal(size=30_011)
    before = data.copy()
    OPAQ(OPAQConfig(run_size=4_000, sample_size=40)).summarize(data)
    assert data.tobytes() == before.tobytes()


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_backends_leave_their_inputs_unchanged(force_split, backend):
    rng = np.random.default_rng(6)
    parts = [rng.normal(size=12_000) for _ in range(2)]
    before = [p.copy() for p in parts]
    config = OPAQConfig(run_size=3_000, sample_size=30)
    result = ParallelOPAQ(2, config, backend=backend).run(parts, [0.5])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(parts, before))
    serial = ParallelOPAQ(2, config, backend="serial").run(
        [p.copy() for p in before], [0.5]
    )
    assert result.summary.samples.tobytes() == serial.summary.samples.tobytes()


def test_process_backend_after_the_parent_started_its_helper(force_split):
    """Forked workers start their own helper; the parent's did not come
    along.  Every run splits (the seam is inherited through fork), and the
    backend's own timeout turns a hang into a ParallelError."""
    cores._running_helper()  # the parent's helper is up before the fork
    rng = np.random.default_rng(7)
    parts = [rng.normal(size=20_000) for _ in range(2)]
    config = OPAQConfig(run_size=5_000, sample_size=50)
    result = ParallelOPAQ(2, config, backend=ProcessBackend(timeout=60)).run(
        parts, [0.5]
    )
    serial = ParallelOPAQ(2, config, backend="serial").run(parts, [0.5])
    assert result.summary.samples.tobytes() == serial.summary.samples.tobytes()
    assert result.bounds([0.5]) == serial.bounds([0.5])


def test_a_pass_below_the_cutoff_starts_no_thread():
    """In a fresh interpreter: importing repro and one pass of runs below
    the cutoff leave the process single-threaded."""
    script = (
        "import threading, numpy as np\n"
        "import repro\n"
        "from repro.core import OPAQ, OPAQConfig\n"
        "from repro import cores\n"
        "assert threading.active_count() == 1, 'import'\n"
        "m = cores._SPLIT_CUTOFF // 2\n"
        "OPAQ(OPAQConfig(run_size=m, sample_size=100)).summarize(\n"
        "    np.random.default_rng(0).uniform(size=3 * m))\n"
        "assert threading.active_count() == 1, 'pass'\n"
        "assert cores._helper is None\n"
        "print('single-threaded')\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "single-threaded"
