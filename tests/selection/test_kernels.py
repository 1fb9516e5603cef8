"""The sample phase's two steps against their oracles, bit for bit.

:func:`multiselect_numpy` and every selection strategy against the
``sort`` strategy, and :func:`kway_merge` against the textbook heap
r-way merge, over ragged run sizes, heavy duplicates and mixed-sign
zeros — the regimes where a subtly different tie order or dtype would
first show.
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sample_phase import sample_run
from repro.errors import ConfigError, EstimationError
from repro.selection import (
    STRATEGY_NAMES,
    get_strategy,
    kway_merge,
    multiselect_numpy,
    regular_sample_ranks,
)

# ----------------------------------------------------------------------
# multiselect_numpy vs the reference selection
# ----------------------------------------------------------------------


@given(
    values=st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        min_size=1,
        max_size=200,
    ),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_multiselect_numpy_matches_reference(values, data):
    run = np.asarray(values, dtype=np.float64)
    num_ranks = data.draw(st.integers(min_value=1, max_value=min(8, run.size)))
    ranks = sorted(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=run.size - 1),
                min_size=num_ranks,
                max_size=num_ranks,
            )
        )
    )
    reference = get_strategy("sort").multiselect(run, ranks)
    vectorised = multiselect_numpy(run, ranks)
    np.testing.assert_array_equal(reference, vectorised)
    assert vectorised.dtype == np.float64


@given(
    run_size=st.integers(min_value=1, max_value=500),
    sample_count=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_sample_run_is_kernel_invariant_over_ragged_runs(
    run_size, sample_count, seed
):
    """The whole per-run hot path: ragged sizes, any s, every strategy."""
    run = np.random.default_rng(seed).uniform(size=run_size)
    # Duplicate-heavy variant of the same run exercises tie handling.
    duplicated = np.repeat(run[: max(1, run_size // 3)], 3)[:run_size]
    for data in (run, duplicated):
        s = min(sample_count, data.size)
        reference = sample_run(data, s, get_strategy("sort"))
        for name in STRATEGY_NAMES:
            got = sample_run(data, s, get_strategy(name))
            for ours, theirs in zip(got, reference):
                assert ours.tobytes() == theirs.tobytes(), name


def test_one_rank_above_zero_partitions_and_two_sort():
    """A sample of one (ranks 0 and m - 1) takes numpy's partition path,
    which leaves the buffer partitioned; two samples sort it.  Both
    select what the ``sort`` strategy selects."""
    run = np.random.default_rng(5).uniform(size=1_000)
    for s, sorts in ((1, False), (2, True)):
        ranks = np.concatenate([[0], regular_sample_ranks(run.size, s)])
        work = run.copy()
        got = multiselect_numpy(work, ranks, overwrite_input=True)
        assert got.tobytes() == np.sort(run)[ranks].tobytes()
        assert bool(np.all(np.diff(work) >= 0)) is sorts, s


def test_multiselect_numpy_rejects_bad_ranks():
    values = np.arange(10.0)
    with pytest.raises(EstimationError):
        multiselect_numpy(values, [3, 1])  # decreasing
    with pytest.raises(EstimationError):
        multiselect_numpy(values, [10])  # out of range
    assert multiselect_numpy(values, []).size == 0


def test_multiselect_numpy_permits_duplicate_ranks():
    values = np.asarray([5.0, 1.0, 3.0])
    np.testing.assert_array_equal(
        multiselect_numpy(values, [1, 1, 2]), [3.0, 3.0, 5.0]
    )


# ----------------------------------------------------------------------
# kway_merge vs the heap merge
# ----------------------------------------------------------------------


def _heap_merge(lists, payloads=None):
    """The textbook ``O(N log r)`` heap merge, ties broken by list index.

    A heap of (head value, list index, cursor) triples; the winning list
    drains in bulk up to the next head.  A key EQUAL to that head belongs
    to whichever list has the lower index, so the drain may swallow ties
    only when its list's index is below the waiting head's.  Payloads are
    one int64 per key.
    """
    total = sum(lst.size for lst in lists)
    out = np.empty(total, dtype=np.float64)
    out_pay = np.empty(total, dtype=np.int64)
    heap = [(float(lst[0]), i, 0) for i, lst in enumerate(lists) if lst.size]
    heapq.heapify(heap)
    pos = 0
    while heap:
        _, i, cursor = heapq.heappop(heap)
        lst = lists[i]
        if heap:
            limit, j = heap[0][0], heap[0][1]
            side = "right" if i < j else "left"
        else:
            limit, side = np.inf, "right"
        end = max(cursor + 1, int(np.searchsorted(lst, limit, side=side)))
        out[pos : pos + end - cursor] = lst[cursor:end]
        if payloads is not None:
            out_pay[pos : pos + end - cursor] = payloads[i][cursor:end]
        pos += end - cursor
        if end < lst.size:
            heapq.heappush(heap, (float(lst[end]), i, end))
    return out if payloads is None else (out, out_pay)


@st.composite
def _sorted_lists(draw):
    """A ragged collection of sorted float64 arrays, duplicates likely."""
    count = draw(st.integers(min_value=0, max_value=6))
    lists = []
    for _ in range(count):
        values = draw(
            st.lists(
                st.one_of(
                    st.integers(min_value=-5, max_value=5).map(float),
                    st.floats(allow_nan=False, allow_infinity=False, width=16),
                    st.sampled_from([0.0, -0.0]),
                ),
                min_size=0,
                max_size=30,
            )
        )
        lists.append(np.sort(np.asarray(values, dtype=np.float64)))
    return lists


@given(lists=_sorted_lists())
@settings(max_examples=150, deadline=None)
def test_merge_kernels_are_bit_identical(lists):
    merged = kway_merge(lists)
    # assert_array_equal treats 0.0 == -0.0; the contract is bitwise.
    assert merged.tobytes() == _heap_merge(lists).tobytes()
    assert merged.dtype == np.float64


@given(lists=_sorted_lists())
@settings(max_examples=100, deadline=None)
def test_merge_kernels_carry_payloads_identically(lists):
    """Ties must resolve to the SAME payload row as in the heap merge."""
    payloads = [
        np.arange(lst.size, dtype=np.int64) + 100 * idx
        for idx, lst in enumerate(lists)
    ]
    keys, rows = kway_merge(lists, payloads)
    keys_ref, rows_ref = _heap_merge(lists, payloads)
    assert keys.tobytes() == keys_ref.tobytes()
    assert rows.tobytes() == rows_ref.tobytes()


def test_kway_merge_validates_payload_shapes():
    lists = [np.asarray([1.0, 2.0])]
    with pytest.raises(ConfigError):
        kway_merge(lists, payloads=[])
    with pytest.raises(ConfigError):
        kway_merge(lists, payloads=[np.arange(3)])


def test_regular_sample_ranks_feed_both_kernels_identically():
    """The exact ranks the sample phase uses, on a ragged final run."""
    for m in (97, 100, 1000, 1003):
        run = np.random.default_rng(m).normal(size=m)
        ranks = regular_sample_ranks(m, min(10, m))
        np.testing.assert_array_equal(
            get_strategy("sort").multiselect(run, ranks),
            multiselect_numpy(run, ranks),
        )
