"""The two-slice dense path of :func:`multiselect_numpy` against ``sort``.

Runs of at least ``_SPLIT_CUTOFF`` keys, in a process allowed on two or
more CPUs, sort as two halves (one on a helper thread) and select by a
merge-path bisection.  The ``force_split`` fixture lowers the cutoff and
reports two CPUs, so every shape of run below takes that path; each must
select exactly what the ``sort`` strategy selects.
"""

import sys
import threading

import numpy as np
import pytest

from repro import cores
from repro.core.sample_phase import sample_run
from repro.selection import get_strategy, kernels, multiselect_numpy
from repro.selection import regular_sample_ranks


@pytest.fixture
def force_split(monkeypatch):
    """Every dense run of two or more keys sorts as two slices."""
    monkeypatch.setattr(cores, "_SPLIT_CUTOFF", 2)
    monkeypatch.setattr(cores, "_usable_cpus", lambda: 2)


def _organ_pipe(n):
    half = np.arange(n // 2, dtype=np.float64)
    return np.concatenate([half, np.arange(n - n // 2, dtype=np.float64)[::-1]])


def _runs():
    rng = np.random.default_rng(7)
    yield "ragged", rng.normal(size=997)
    yield "odd", rng.uniform(size=1001)
    yield "two", np.asarray([2.0, 1.0])
    yield "three", np.asarray([3.0, 1.0, 2.0])
    yield "duplicates", rng.integers(0, 5, size=600).astype(np.float64)
    yield "sorted", np.arange(513, dtype=np.float64)
    yield "reversed", np.arange(513, dtype=np.float64)[::-1].copy()
    yield "organ pipe", _organ_pipe(401)
    yield "all equal", np.full(300, 4.25)
    yield "infinities", rng.choice([-np.inf, np.inf, -1.0, 0.5], size=257)


@pytest.mark.parametrize("name,run", list(_runs()), ids=[n for n, _ in _runs()])
def test_split_matches_the_sort_strategy_bytewise(force_split, name, run):
    for s in sorted({1, 2, 3, min(run.size, 7), run.size}):
        if s > run.size:
            continue
        ranks = regular_sample_ranks(run.size, s)
        reference = get_strategy("sort").multiselect(run, ranks)
        assert multiselect_numpy(run, ranks).tobytes() == reference.tobytes()
        ours = sample_run(run, s, get_strategy("numpy"))
        for got, theirs in zip(ours, sample_run(run, s, get_strategy("sort"))):
            assert got.tobytes() == theirs.tobytes()
        assert ours[3] == run.min()


def test_split_takes_the_split_path(force_split):
    assert cores._slice_count(2) == 2
    buffer = np.asarray([5.0, 4.0, 3.0, 2.0, 1.0])
    head, tail = kernels._sort_slices(buffer, 2)
    assert head.tolist() == [4.0, 5.0] and tail.tolist() == [1.0, 2.0, 3.0]


def test_mixed_signed_zeros_compare_equal(force_split):
    """-0.0 and 0.0 tie, so a split sample may carry either sign."""
    rng = np.random.default_rng(3)
    run = rng.choice([-0.0, 0.0, -1.0, 1.0], size=999)
    ranks = regular_sample_ranks(run.size, 37)
    reference = get_strategy("sort").multiselect(run, ranks)
    split = multiselect_numpy(run, ranks)
    assert np.array_equal(split, reference)  # == treats -0.0 == 0.0


@pytest.mark.parametrize("split", [False, True])
def test_nan_ranks_last(monkeypatch, split):
    if split:
        monkeypatch.setattr(cores, "_SPLIT_CUTOFF", 2)
        monkeypatch.setattr(cores, "_usable_cpus", lambda: 2)
    rng = np.random.default_rng(11)
    for nans in (1, 4, 50):
        run = rng.uniform(size=101)
        run[rng.choice(run.size, size=nans, replace=False)] = np.nan
        ranks = np.arange(run.size)
        got = multiselect_numpy(run, ranks)
        np.testing.assert_array_equal(got, np.sort(run))  # NaN == NaN here


def test_int_runs_split(force_split):
    run = np.random.default_rng(5).integers(-9, 9, size=301)
    ranks = regular_sample_ranks(run.size, 17)
    got = multiselect_numpy(run, ranks)
    assert got.dtype == np.float64
    assert got.tobytes() == np.sort(run)[ranks].astype(np.float64).tobytes()


def test_overwrite_input_false_never_reorders(force_split):
    run = np.random.default_rng(2).uniform(size=400)
    before = run.copy()
    ranks = regular_sample_ranks(run.size, 20)
    multiselect_numpy(run, ranks)
    get_strategy("sort").multiselect(run, ranks)
    sample_run(run, 20, get_strategy("numpy"))
    assert run.tobytes() == before.tobytes()


def test_overwrite_input_true_sorts_in_place():
    run = np.random.default_rng(2).uniform(size=400)
    ranks = regular_sample_ranks(run.size, 20)
    reference = np.sort(run)[ranks]
    got = multiselect_numpy(run, ranks, overwrite_input=True)
    assert got.tobytes() == reference.tobytes()
    assert np.all(np.diff(run) >= 0)  # the input itself was sorted


def test_sample_run_rejects_nan_under_every_strategy(force_split):
    from repro.errors import DataError
    from repro.selection import STRATEGY_NAMES

    run = np.random.default_rng(4).uniform(size=200)
    run[123] = np.nan
    for bad in (run, np.full(200, np.nan)):  # the minimum is NaN too
        for name in STRATEGY_NAMES:
            for s in (1, 2, 10):  # one rank takes numpy's partition path
                for overwrite in (False, True):
                    with pytest.raises(DataError, match="NaN"):
                        sample_run(bad.copy(), s, get_strategy(name), overwrite)


def _minimum_runs():
    rng = np.random.default_rng(12)
    zeros = rng.choice([-0.0, 0.0, 1.0, 2.5], size=301)
    yield "signed zeros", zeros
    yield "negative zero only", np.abs(zeros) * np.where(zeros == 0, -1.0, 1.0)
    yield "minus infinity", rng.choice([-np.inf, -1.0, 0.5, np.inf], size=257)
    yield "all equal", np.full(300, -4.25)
    yield "all minus infinity", np.full(64, -np.inf)
    yield "one key", np.asarray([-0.0])


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize(
    "name,run", list(_minimum_runs()), ids=[n for n, _ in _minimum_runs()]
)
def test_the_minimum_is_rank_0_under_every_strategy(monkeypatch, split, name, run):
    """``sample_run`` selects the run's minimum with its samples: under
    every strategy, on numpy's partition path (s = 1, 2) and its sort
    path, split or not, with every zero stored as +0.0."""
    from repro.selection import STRATEGY_NAMES

    if split:
        monkeypatch.setattr(cores, "_SPLIT_CUTOFF", 2)
        monkeypatch.setattr(cores, "_usable_cpus", lambda: 2)
    expected = run.min() + 0.0
    for strategy in STRATEGY_NAMES:
        for s in sorted({1, min(run.size, 2), min(run.size, 9)}):
            for overwrite in (False, True):
                *_, minimum = sample_run(run.copy(), s, get_strategy(strategy), overwrite)
                assert minimum.dtype == np.float64
                assert minimum.tobytes() == np.float64(expected).tobytes(), (strategy, s)


def test_one_cpu_starts_no_thread(monkeypatch):
    monkeypatch.setattr(cores, "_SPLIT_CUTOFF", 2)
    monkeypatch.setattr(cores, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(cores, "_helper", None)
    before = threading.active_count()
    run = np.random.default_rng(1).uniform(size=1000)
    multiselect_numpy(run, regular_sample_ranks(run.size, 50))
    assert cores._helper is None
    assert threading.active_count() == before


def test_affinity_mask_decides_the_slice_count(monkeypatch):
    """Two or more CPUs in the process's affinity mask allow the split."""
    monkeypatch.setattr(cores, "_SPLIT_CUTOFF", 2)
    monkeypatch.setattr(cores.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cores._slice_count(10_000) == 1
    monkeypatch.setattr(cores.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert cores._slice_count(10_000) == 2
    assert cores._slice_count(1) == 1


def test_one_helper_serves_many_threads(force_split):
    """More splitting threads than cores, switching often: every caller
    gets its own run's samples, and the process has one helper."""
    rng = np.random.default_rng(9)
    runs = [rng.normal(size=2001) for _ in range(8)]
    ranks = regular_sample_ranks(2001, 40)
    expected = [np.sort(r)[ranks].tobytes() for r in runs]
    got = [[] for _ in runs]

    def work(i):
        for _ in range(20):
            got[i].append(multiselect_numpy(runs[i], ranks).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(runs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[e] * 20 for e in expected]
    helpers = [t for t in threading.enumerate() if t.name == "opaq-sort-helper"]
    assert len(helpers) == 1
