"""Tests for merging sorted sample lists."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.selection import is_sorted, kway_merge, merge_two_with_payload

sorted_list = st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=100
).map(sorted)


class TestMergeTwo:
    """Two-list merges through :func:`kway_merge`."""

    def test_basic(self):
        out = kway_merge([np.array([1.0, 3.0]), np.array([2.0, 4.0])])
        assert out.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_one_empty(self):
        out = kway_merge([np.empty(0), np.array([1.0, 2.0])])
        assert out.tolist() == [1.0, 2.0]

    def test_duplicates(self):
        out = kway_merge([np.array([1.0, 2.0, 2.0]), np.array([2.0, 3.0])])
        assert out.tolist() == [1.0, 2.0, 2.0, 2.0, 3.0]

    @settings(max_examples=60)
    @given(sorted_list, sorted_list)
    def test_property_equals_sorted_concat(self, a, b):
        out = kway_merge([np.array(a), np.array(b)])
        assert np.array_equal(out, np.sort(np.concatenate([a, b])))


class TestMergeTwoWithPayload:
    def test_payload_travels_with_keys(self):
        a = np.array([1.0, 5.0])
        b = np.array([3.0])
        out, pay = merge_two_with_payload(
            a, np.array([10, 50]), b, np.array([30])
        )
        assert out.tolist() == [1.0, 3.0, 5.0]
        assert pay.tolist() == [10, 30, 50]

    def test_tied_keys_keep_their_own_payload(self):
        a = np.array([2.0, 2.0])
        b = np.array([2.0])
        out, pay = merge_two_with_payload(a, np.array([1, 2]), b, np.array([9]))
        assert out.tolist() == [2.0, 2.0, 2.0]
        assert sorted(pay.tolist()) == [1, 2, 9]


class TestKwayMerge:
    def test_merges_many_lists(self, rng):
        lists = [np.sort(rng.uniform(size=rng.integers(0, 50))) for _ in range(7)]
        out = kway_merge(lists)
        assert np.array_equal(out, np.sort(np.concatenate(lists)))

    def test_empty_input(self):
        assert kway_merge([]).size == 0

    def test_single_list_copied(self):
        src = np.array([1.0, 2.0])
        out = kway_merge([src])
        out[0] = 99.0
        assert src[0] == 1.0

    def test_lists_with_interleaved_duplicates(self):
        lists = [np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 2.0])]
        out = kway_merge(lists)
        assert out.tolist() == [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]

    def test_payloads_three_or_more_lists(self, rng):
        lists, pays = [], []
        for i in range(5):
            keys = np.sort(rng.uniform(size=20))
            lists.append(keys)
            pays.append(np.full(20, i, dtype=np.int64))
        out, out_pay = kway_merge(lists, payloads=pays)
        assert is_sorted(out)
        # Each payload value appears exactly 20 times.
        assert np.bincount(out_pay, minlength=5).tolist() == [20] * 5
        # Keys from list i still pair with payload i.
        for i in range(5):
            np.testing.assert_array_equal(np.sort(out[out_pay == i]), lists[i])

    def test_payload_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kway_merge([np.array([1.0])], payloads=[np.array([1, 2])])

    def test_payload_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kway_merge([np.array([1.0])], payloads=[])

    @settings(max_examples=40)
    @given(st.lists(sorted_list, min_size=1, max_size=6))
    def test_property_equals_sorted_concat(self, lists):
        arrays = [np.array(lst) for lst in lists]
        out = kway_merge(arrays)
        expected = np.sort(np.concatenate([a for a in arrays])) if arrays else np.empty(0)
        assert np.array_equal(out, expected)


class TestIsSorted:
    def test_cases(self):
        assert is_sorted(np.array([1.0, 1.0, 2.0]))
        assert not is_sorted(np.array([2.0, 1.0]))
        assert is_sorted(np.empty(0))
        assert is_sorted(np.array([5.0]))
