"""Tests for the Greenwald-Khanna sketch."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import GreenwaldKhanna, consume
from repro.errors import ConfigError
from repro.portfolio.gk import GKSummary


def worst_rank_error(data, sketch, phis):
    sd = np.sort(data)
    worst = 0
    for phi in phis:
        est = sketch.query(phi)
        lo = np.searchsorted(sd, est, side="left")
        hi = np.searchsorted(sd, est, side="right")
        target = int(np.ceil(phi * data.size))
        err = 0 if lo < target <= hi else min(abs(lo + 1 - target), abs(hi - target))
        worst = max(worst, err)
    return worst


class TestGreenwaldKhanna:
    def test_epsilon_validation(self):
        with pytest.raises(ConfigError):
            GreenwaldKhanna(epsilon=0.0)
        with pytest.raises(ConfigError):
            GreenwaldKhanna(epsilon=0.5)

    def test_guarantee_uniform(self, rng):
        data = rng.uniform(size=100_000)
        gk = consume(GreenwaldKhanna(epsilon=0.005), data, run_size=10_000)
        phis = np.arange(0.05, 1.0, 0.05)
        assert worst_rank_error(data, gk, phis) <= 0.005 * data.size

    def test_guarantee_duplicates(self, rng):
        data = rng.integers(0, 50, size=50_000).astype(float)
        gk = consume(GreenwaldKhanna(epsilon=0.01), data, run_size=5000)
        phis = np.arange(0.1, 1.0, 0.1)
        assert worst_rank_error(data, gk, phis) <= 0.01 * data.size

    def test_guarantee_sorted_arrival(self, rng):
        data = np.sort(rng.uniform(size=50_000))
        gk = consume(GreenwaldKhanna(epsilon=0.01), data, run_size=5000)
        phis = np.arange(0.1, 1.0, 0.1)
        assert worst_rank_error(data, gk, phis) <= 0.01 * data.size

    def test_compression_sublinear(self, rng):
        data = rng.uniform(size=200_000)
        gk = consume(GreenwaldKhanna(epsilon=0.001), data, run_size=20_000)
        # Theory: O((1/eps) * log(eps*n)) tuples = a few thousand here.
        assert gk.tuples < 10_000

    def test_rank_error_bound_property(self, rng):
        gk = consume(GreenwaldKhanna(epsilon=0.01), rng.uniform(size=1000))
        assert gk.rank_error_bound() == pytest.approx(10.0)

    def test_memory_footprint_tracks_tuples(self, rng):
        gk = consume(GreenwaldKhanna(epsilon=0.01), rng.uniform(size=10_000))
        assert gk.memory_footprint == 3 * gk.tuples

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=10,
            max_size=2000,
        )
    )
    def test_property_guarantee_holds(self, values):
        data = np.array(values, dtype=np.float64)
        gk = GreenwaldKhanna(epsilon=0.05)
        for i in range(0, data.size, 97):
            gk.update(data[i : i + 97])
        phis = [0.1, 0.5, 0.9]
        assert worst_rank_error(data, gk, phis) <= max(1, 0.05 * data.size)


# ----------------------------------------------------------------------
# The list-based compress against the scalar loop it replaced
# ----------------------------------------------------------------------


def _scalar_compress(self, cap):
    """The reference compress: one tuple at a time over numpy scalars."""
    v, g, d = self._v, self._g, self._d
    if v.size <= 2:
        return
    keep_v = [float(v[0])]
    keep_g = [int(g[0])]
    keep_d = [int(d[0])]
    acc_g = 0
    for i in range(1, v.size - 1):
        if acc_g + g[i] + g[i + 1] + d[i + 1] <= cap:
            acc_g += int(g[i])
        else:
            keep_v.append(float(v[i]))
            keep_g.append(acc_g + int(g[i]))
            keep_d.append(int(d[i]))
            acc_g = 0
    keep_v.append(float(v[-1]))
    keep_g.append(acc_g + int(g[-1]))
    keep_d.append(int(d[-1]))
    self._v = np.array(keep_v)
    self._g = np.array(keep_g, dtype=np.int64)
    self._d = np.array(keep_d, dtype=np.int64)


def _stream(kind, rng):
    """24 chunks of one arrival pattern."""
    if kind == "random":
        return [rng.normal(size=rng.integers(1, 1500)) for _ in range(24)]
    if kind == "duplicates":
        return [rng.integers(0, 7, size=rng.integers(1, 1500)).astype(float)
                for _ in range(24)]
    if kind == "sorted":
        return np.array_split(np.sort(rng.uniform(size=20_000)), 24)
    # Signed zeros: equal under comparison, distinct in their sign bit.
    return [rng.choice([-0.0, 0.0, 1.0, -1.0], size=rng.integers(1, 1500))
            for _ in range(24)]


def _tuple_states(epsilon, chunks):
    """Tuple bytes and compaction count after every absorb and merge."""

    def state(s):
        return (s._v.tobytes(), s._g.tobytes(), s._d.tobytes(), s.compactions)

    a, b = GKSummary(epsilon), GKSummary(epsilon)
    states = []
    for i, chunk in enumerate(chunks):
        side = a if i % 2 else b
        side.absorb(chunk)
        states.append(state(side))
        if i % 4 == 3:
            states.append(state(a.merge(b)))
            states.append(state(b.merge(a)))
    return states


@pytest.mark.parametrize("epsilon", [0.001, 0.01, 0.05, 0.2])
@pytest.mark.parametrize("kind", ["random", "duplicates", "sorted", "zeros"])
def test_compress_matches_the_scalar_loop(kind, epsilon, monkeypatch):
    chunks = _stream(kind, np.random.default_rng(17))
    live = _tuple_states(epsilon, chunks)
    monkeypatch.setattr(GreenwaldKhanna, "_compress", _scalar_compress)
    assert _tuple_states(epsilon, chunks) == live
