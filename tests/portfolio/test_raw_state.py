"""Raw key states against each engine's own key state.

Every registry key starts as a :class:`~repro.portfolio.RawKeyState`:
its sorted values, billed one slot per element, until the first absorb
at which its engine's state would compact.  The engine's own key state
(``EngineSpec.key_state``), fed the same chunks, is the oracle: after
every absorb the two must answer alike, and once the raw key is promoted
they must be the same state, byte for byte.  The chunks are what the
registry folds: sorted, and taken in under the ingest policy, so a
``-0.0`` in the input arrives as ``+0.0`` and ``±inf`` as itself.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.values import ingest_values
from repro.portfolio import ENGINES, RawKeyState
from repro.service.tenancy import SpillStore

EPSILON = 0.5
MAX_SAMPLES = 16
SEED = 7
PHIS = [0.01, 0.2, 0.5, 0.8, 0.99, 1.0]
NAMES = sorted(ENGINES)

#: Each engine's promotion point under (EPSILON, MAX_SAMPLES): OPAQ's
#: ``max_samples``; GK's largest ``n`` with ``int(2·(ε/2)·n) < 2``;
#: KLL's level-0 capacity ``k``; one short of AS95's ``4 × intervals``.
LIMITS = {"opaq": 16, "gk": 3, "kll": 35, "as95": 63}


def _chunks(pool):
    chunk = st.lists(st.sampled_from(pool), min_size=1, max_size=24)
    return st.lists(
        chunk.map(lambda c: np.sort(ingest_values(c))), min_size=1, max_size=10
    )


#: Heavy duplicates: with both signs of zero and both infinities, and
#: finite data that never held ``-0.0``.
INGESTED = _chunks([-np.inf, -1.5, -0.0, 0.0, 0.0, 2.0, 3.25, 3.25, np.inf])
UNSIGNED = _chunks([-1.5, 0.0, 2.0, 2.0, 3.25, 7.0])


def _same_arrays(a, b):
    for x, y in zip(a, b):
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


def _round_trip(store, name, state):
    """Spill ``state`` and read it back into a key state."""
    spec = ENGINES[name]
    store.spill("t\x1fk", state, epsilon=EPSILON, engine=name)
    base, record, _ = store.restore("t\x1fk", keep=True)
    if record.raw:
        return spec.raw_key_state(
            EPSILON, MAX_SAMPLES, SEED, base, record.absorbs, record.minimum,
            record.maximum,
        )
    return spec.restored_key_state(
        base, record.compactions, epsilon=EPSILON, max_samples=MAX_SAMPLES
    )


def _check_against_oracle(name, chunks):
    spec = ENGINES[name]
    state = spec.raw_key_state(EPSILON, MAX_SAMPLES, SEED)
    oracle = spec.key_state(EPSILON, MAX_SAMPLES, seed=SEED)
    with tempfile.TemporaryDirectory() as spill_dir, SpillStore(
        spill_dir, loaders={n: s.from_bytes for n, s in ENGINES.items()}
    ) as store:
        for chunk in chunks:
            state = state.absorb(chunk.copy())
            oracle.absorb(chunk.copy())
            assert state.count == oracle.count
            assert state.compactions == oracle.compactions
            assert state.guaranteed_rank_error() == oracle.guaranteed_rank_error()
            _same_arrays(state.bounds_arrays(PHIS), oracle.bounds_arrays(PHIS))
            if isinstance(state, RawKeyState):
                assert state.count <= LIMITS[name]
                assert state.memory_footprint == state.count
                assert state.guaranteed_rank_error() == 1
            else:
                assert state.count > LIMITS[name]
                assert state.to_bytes() == oracle.to_bytes()
            restored = _round_trip(store, name, state)
            assert type(restored) is type(state)
            _same_arrays(restored.bounds_arrays(PHIS), state.bounds_arrays(PHIS))
            if isinstance(state, RawKeyState):
                assert restored.values.tobytes() == state.values.tobytes()
                assert (restored.absorbs, repr(restored.minimum), repr(restored.maximum)) == (
                    state.absorbs, repr(state.minimum), repr(state.maximum)
                )
            else:
                assert restored.to_bytes() == state.to_bytes()
    return state


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None)
@given(chunks=INGESTED)
def test_raw_then_promoted_matches_the_engine_state(name, chunks):
    _check_against_oracle(name, chunks)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None)
@given(chunks=UNSIGNED)
def test_without_negative_zero_every_engine_matches_byte_for_byte(name, chunks):
    _check_against_oracle(name, chunks)


@pytest.mark.parametrize("name", NAMES)
def test_promotion_happens_at_the_first_absorb_that_would_compact(name, rng):
    """Up to the limit the engine's own state still holds the data (no
    compaction, no AS95 seed) and the raw key stays raw; the next
    element compacts the engine's state and promotes the raw key."""
    spec = ENGINES[name]
    limit = spec.raw_key_state(EPSILON, MAX_SAMPLES).plan.limit
    assert limit == LIMITS[name]
    data = np.sort(rng.normal(size=limit + 1))
    state = spec.raw_key_state(EPSILON, MAX_SAMPLES, SEED)
    oracle = spec.key_state(EPSILON, MAX_SAMPLES, seed=SEED)
    for part in (data[: limit // 2], data[limit // 2 : limit]):
        if part.size:
            state = state.absorb(part.copy())
            oracle.absorb(part.copy())
    assert isinstance(state, RawKeyState) and state.count == limit
    assert state.memory_footprint == limit
    assert oracle.compactions == 0
    if name == "as95":
        assert oracle._bounds is None  # its seed buffer is not full yet
    last = data[limit:]
    state = state.absorb(last.copy())
    oracle.absorb(last.copy())
    assert not isinstance(state, RawKeyState)
    if name == "as95":
        assert oracle._bounds is not None
    else:
        assert oracle.compactions > 0
    assert state.to_bytes() == oracle.to_bytes()


@pytest.mark.parametrize("name", NAMES)
def test_a_first_chunk_past_the_limit_starts_the_engines_own_state(
    name, rng, monkeypatch
):
    """A raw key with no values promotes to the engine's new key state,
    never to a state built from empty raw values."""
    spec = ENGINES[name]

    def refuse(*args, **kwargs):
        raise AssertionError("a key state built from no raw values")

    monkeypatch.setattr(spec.engine_cls, "key_state_from_raw", refuse)
    data = np.sort(rng.normal(size=LIMITS[name] + 5))
    state = spec.raw_key_state(EPSILON, MAX_SAMPLES, SEED).absorb(data.copy())
    oracle = spec.key_state(EPSILON, MAX_SAMPLES, seed=SEED)
    oracle.absorb(data.copy())
    assert not isinstance(state, RawKeyState)
    assert state.to_bytes() == oracle.to_bytes()


def test_raw_answers_are_the_order_statistics():
    spec = ENGINES["opaq"]
    state = spec.raw_key_state(0.01, 512)
    data = np.array([3.0, 1.0, 2.0, 2.0, 5.0])
    state = state.absorb(np.sort(data))
    psi, lower, upper, max_below, max_above, phis = state.bounds_arrays([0.2, 0.5, 1.0])
    np.testing.assert_array_equal(psi, [1, 3, 5])
    np.testing.assert_array_equal(lower, [1.0, 2.0, 5.0])
    np.testing.assert_array_equal(upper, [1.0, 2.0, 5.0])
    assert not max_below.any() and not max_above.any()
    assert state.engine == "opaq" and state.absorbs == 1
    assert (state.minimum, state.maximum) == (1.0, 5.0)
