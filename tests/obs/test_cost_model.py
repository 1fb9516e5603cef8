"""Counters versus the paper's analytic cost model — exact, not approximate.

Every quantity below has a closed form in the paper's analysis, so the
emitted counters double as a correctness oracle:

- one pass reads exactly ``n`` elements (``n * 8`` bytes of float64);
- the sorted sample list holds exactly ``r * s`` samples when ``s | m``
  and ``m | n``;
- the bitonic merge of ``p = 2^k`` equal blocks performs
  ``S = k(k+1)/2`` compare-split supersteps of ``p/2`` pairwise
  exchanges, i.e. ``p * S`` message endpoints carrying ``p * rs * S``
  keys in total.
"""

import numpy as np
import pytest

from repro.core import OPAQ, OPAQConfig
from repro.obs import MemorySink, tracing
from repro.parallel import ParallelOPAQ
from repro.storage import DiskDataset

N = 80_000
M = 4_000  # run size: r = 20 runs
S = 400  # samples per run

CONFIG = OPAQConfig(run_size=M, sample_size=S)


@pytest.fixture
def dataset(tmp_path):
    data = np.random.default_rng(11).uniform(0.0, 1.0, size=N)
    return DiskDataset.create(tmp_path / "keys.opaq", data)


def test_io_counters_match_one_pass_exactly(dataset):
    sink = MemorySink()
    with tracing(sink):
        OPAQ(CONFIG).summarize(dataset)
    counters = sink.counters()
    assert counters["io.pass"] == 1
    assert counters["io.elements"] == N
    assert counters["io.bytes"] == N * dataset.dtype.itemsize


def test_sample_list_length_is_r_times_s(dataset):
    sink = MemorySink()
    with tracing(sink):
        OPAQ(CONFIG).summarize(dataset)
    counters = sink.counters()
    r = N // M
    assert counters["sample.runs"] == r
    assert counters["sample.list_length"] == r * S
    assert counters["merge.keys"] == r * S


def test_modelled_selection_comparisons(dataset):
    # The vectorised default engine reports the paper's O(m log s) figure:
    # m * ceil(log2(s + 1)) comparisons per run, r runs.  s = 255 sits at
    # a power of two: the minimum's rank 0, selected with the samples,
    # is not one of the s.
    for s in (S, 255):
        sink = MemorySink()
        with tracing(sink):
            OPAQ(OPAQConfig(run_size=M, sample_size=s)).summarize(dataset)
        log_s = int(np.ceil(np.log2(s + 1)))
        assert sink.counters()["selection.comparisons"] == N * log_s, s


def test_measured_selection_work_within_asymptotic_bound(dataset):
    # The recursive multiselect reports *measured* element scans; the
    # paper's bound is O(m log s) per run with a small constant.
    sink = MemorySink()
    config = OPAQConfig(run_size=M, sample_size=S, strategy="floyd_rivest")
    with tracing(sink):
        OPAQ(config).summarize(dataset)
    counters = sink.counters()
    log_s = int(np.ceil(np.log2(S + 1)))
    assert 0 < counters["selection.comparisons"] <= 6 * N * log_s
    assert counters["selection.depth"] >= 1
    assert counters["selection.partitions"] >= 1


@pytest.mark.parametrize("p", [2, 4, 8])
def test_bitonic_merge_message_volume_exact(p):
    # p processors, each holding per_proc elements in runs of M:
    # rs = (per_proc / M) * S samples per local list.
    per_proc = 2 * M
    rs = (per_proc // M) * S
    data = np.random.default_rng(13).uniform(size=p * per_proc)
    sink = MemorySink()
    with tracing(sink):
        ParallelOPAQ(p, CONFIG, merge_method="bitonic").run(data)
    counters = sink.counters()
    k = int(np.log2(p))
    supersteps = k * (k + 1) // 2
    assert counters["spmd.procs"] == p
    assert counters["spmd.messages"] == p * supersteps
    assert counters["spmd.keys"] == p * rs * supersteps


def test_spmd_phase_seconds_cover_the_breakdown():
    data = np.random.default_rng(17).uniform(size=4 * M * 4)
    sink = MemorySink()
    with tracing(sink):
        res = ParallelOPAQ(4, CONFIG).run(data, phis=[0.5])
    phases = {
        e.attributes["phase"]: e.value
        for e in sink.events
        if e.name == "spmd.phase_seconds"
    }
    # The emitted per-phase means reproduce the machine's own breakdown.
    assert phases == pytest.approx(res.machine.phase_totals())
    assert phases["io"] > 0
    assert phases["sampling"] > 0
