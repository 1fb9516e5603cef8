"""The registry's per-key contract, engine by engine.

``EngineSpec.key_state(epsilon, max_samples, seed)`` builds the fold
state the multi-tenant registry holds per key.  Whatever the engine, the
state answers one interface (absorb / count / memory_footprint /
compactions / guaranteed_rank_error / bounds_arrays / save); engines
with a real guarantee must additionally keep the served bound within the
key's epsilon contract ``(g - 1) <= epsilon * count`` after every fold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.portfolio import ENGINES
from repro.portfolio.opaq import OpaqKeyState

EPSILON = 0.01
MAX_SAMPLES = 256

#: Engines whose key state is expected to honour the epsilon contract
#: (deterministically or per seeded query); as95 is exempt by design.
CONTRACT_ENGINES = [n for n, s in sorted(ENGINES.items()) if s.guarantee != "none"]


def absorb(state, data: np.ndarray) -> None:
    """Fold ``data`` in; an OPAQ state's summary is built unchecked, so
    its invariants are checked here after every fold."""
    state.absorb(data)
    if isinstance(state, OpaqKeyState):
        state.summary.validate()


def _chunks(rng, count=40, size=1_500):
    for _ in range(count):
        yield np.sort(rng.normal(size=size))


#: Key sizes below ~1/epsilon: the state still holds every element, so
#: the contract ``(g - 1) <= epsilon * count`` demands exact answers.
SMALL_COUNTS = (1, 32, 99)


@pytest.mark.parametrize("name", CONTRACT_ENGINES)
def test_epsilon_contract_holds_after_every_fold(name, rng):
    state = ENGINES[name].key_state(EPSILON, MAX_SAMPLES, seed=7)
    total = 0
    for chunk in _chunks(rng):
        absorb(state, chunk)
        total += chunk.size
        assert state.count == total
        g = state.guaranteed_rank_error()
        assert g - 1 <= EPSILON * total, (name, total, g)
    for count in SMALL_COUNTS:
        small = ENGINES[name].key_state(EPSILON, MAX_SAMPLES, seed=7)
        data = np.sort(rng.normal(size=count))
        absorb(small, data)
        g = small.guaranteed_rank_error()
        assert g - 1 <= EPSILON * count, (name, count, g)
        psi, lower, upper, _, _, _ = small.bounds_arrays([0.01, 0.5, 1.0])
        np.testing.assert_array_equal(lower, data[psi - 1])
        np.testing.assert_array_equal(upper, data[psi - 1])


@pytest.mark.parametrize("name", sorted(ENGINES), ids=sorted(ENGINES))
def test_key_state_answers_the_uniform_interface(name, rng, tmp_path):
    state = ENGINES[name].key_state(EPSILON, MAX_SAMPLES, seed=3)
    data = np.sort(rng.normal(size=6_000))
    absorb(state, data)
    assert state.count == data.size
    assert state.memory_footprint > 0
    assert state.compactions >= 0
    phis = [0.1, 0.5, 0.9]
    psi, lower, upper, max_below, max_above, fractions = state.bounds_arrays(
        phis
    )
    assert psi.shape == (3,)
    assert np.all(lower <= upper)
    path = tmp_path / "state.npz"
    state.save(path)
    restored = ENGINES[name].load(path)
    assert restored.count == data.size


@pytest.mark.parametrize("name", sorted(ENGINES), ids=sorted(ENGINES))
def test_restored_key_state_resumes_folding(name, rng, tmp_path):
    spec = ENGINES[name]
    state = spec.key_state(EPSILON, MAX_SAMPLES, seed=5)
    absorb(state, np.sort(rng.normal(size=5_000)))
    compactions = state.compactions
    path = tmp_path / "spilled.npz"
    state.save(path)

    resumed = spec.restored_key_state(
        spec.load(path),
        compactions,
        epsilon=EPSILON,
        max_samples=MAX_SAMPLES,
    )
    assert resumed.count == 5_000
    assert resumed.compactions == compactions
    absorb(resumed, np.sort(rng.normal(size=5_000)))
    assert resumed.count == 10_000
    if spec.guarantee != "none":
        g = resumed.guaranteed_rank_error()
        assert g - 1 <= EPSILON * resumed.count


def test_opaq_key_state_compaction_is_epsilon_gated(rng):
    """The historical registry behaviour, preserved through the move to
    the portfolio: compaction backs off (retains more samples) rather
    than breach the key's epsilon."""
    tight = ENGINES["opaq"].key_state(1e-6, 4, seed=0)
    data = np.sort(rng.normal(size=2_000))
    absorb(tight, data)
    # Epsilon of 1e-6 over 2k elements forbids any lossy compaction.
    assert tight.guaranteed_rank_error() == 1
    assert tight.compactions == 0
    assert tight.memory_footprint == 3 * data.size

    loose = ENGINES["opaq"].key_state(0.05, 4, seed=0)
    absorb(loose, data)
    assert loose.compactions == 1
    assert loose.memory_footprint < 3 * data.size
    assert loose.guaranteed_rank_error() - 1 <= 0.05 * data.size
