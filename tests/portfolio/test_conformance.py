"""Every engine behind the same surface: the cross-engine contract.

Each :class:`~repro.portfolio.EngineSpec` in :data:`~repro.portfolio.ENGINES`
carries machine-readable claims (guarantee kind, mergeability, merge
commutativity, archive magic).  This module asserts each claim against
the implementation, so ``docs/portfolio.md``'s catalogue — generated from
the same fields — cannot drift from the code.  The sketch summaries also
share the single-pass chunk interface with random sampling, and are held
to its input checks here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import QuantileBounds, QuantileEstimator
from repro.errors import ConfigError, DataError, EstimationError
from repro.portfolio import (
    ENGINES,
    ENGINE_POLICIES,
    SketchSummary,
    make_engine,
    resolve_engine,
)

from tests.portfolio.conftest import assert_summary_sound, bounds_arrays_of

PHIS = [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]

each_engine = pytest.mark.parametrize(
    "name", sorted(ENGINES), ids=sorted(ENGINES)
)
SKETCHES = sorted(
    name
    for name, spec in ENGINES.items()
    if issubclass(spec.summary_cls, SketchSummary)
)
each_sketch = pytest.mark.parametrize("name", SKETCHES, ids=SKETCHES)


def _data(n: int = 20_000) -> np.ndarray:
    return np.random.default_rng(7).normal(size=n)


@each_engine
def test_engine_satisfies_the_estimator_protocol(name):
    engine = ENGINES[name].make()
    assert isinstance(engine, QuantileEstimator)


@each_engine
def test_summarize_bounds_bound_estimate_agree(name):
    engine = ENGINES[name].make()
    data = _data()
    summary = engine.summarize(data)
    rows = engine.bounds(summary, PHIS)
    assert len(rows) == len(PHIS)
    assert all(isinstance(row, QuantileBounds) for row in rows)
    single = engine.bound(summary, 0.5)
    median = rows[PHIS.index(0.5)]
    assert (single.lower, single.upper) == (median.lower, median.upper)
    # estimate() == summarize() + bounds() for a fresh engine (KLL's RNG
    # is owned by the summary, so two summaries from one seeded engine
    # behave identically).
    direct = ENGINES[name].make().estimate(data, PHIS)
    assert [(r.lower, r.upper) for r in direct] == [
        (r.lower, r.upper) for r in rows
    ]


@each_engine
def test_summary_duck_surface_is_sound(name):
    data = _data()
    summary = ENGINES[name].make().summarize(data)
    assert_summary_sound(summary, data, PHIS)
    assert summary.memory_footprint > 0
    # OPAQ tracks compactions on its per-key fold state, not the summary.
    assert getattr(summary, "compactions", 0) >= 0


@each_engine
def test_guarantee_claim_matches_engine(name):
    spec = ENGINES[name]
    engine = spec.make()
    assert engine.name == name
    assert engine.guarantee_kind == spec.guarantee
    summary = engine.summarize(_data())
    if spec.guarantee == "none":
        # Stated honestly: the vacuous bound, the whole count.
        assert summary.guaranteed_rank_error() == summary.count
    else:
        assert summary.guaranteed_rank_error() < summary.count


@each_engine
def test_mergeable_claim_matches_summary(name):
    spec = ENGINES[name]
    engine = spec.make()
    a, b = np.split(_data(), 2)
    first, second = engine.summarize(a), engine.summarize(b)
    if not spec.mergeable:
        with pytest.raises(EstimationError):
            first.merge(second)
        return
    merged = first.merge(second)
    assert merged.count == a.size + b.size
    data = np.concatenate([a, b])
    assert_summary_sound(merged, data, PHIS)


@each_engine
def test_merge_commutes_claim(name):
    spec = ENGINES[name]
    if not spec.mergeable:
        pytest.skip("engine does not merge at all")
    engine = spec.make()
    a, b = np.split(_data(4_000), 2)
    ab = engine.summarize(a).merge(engine.summarize(b))
    ba = engine.summarize(b).merge(engine.summarize(a))
    if spec.merge_commutes:
        for u, v in zip(bounds_arrays_of(ab, PHIS), bounds_arrays_of(ba, PHIS)):
            np.testing.assert_array_equal(u, v)
    # Non-commuting engines make no ordering promise; both orders must
    # still be sound.
    data = np.concatenate([a, b])
    assert_summary_sound(ab, data, PHIS)
    assert_summary_sound(ba, data, PHIS)


@each_engine
def test_for_budget_respects_the_slot_budget(name):
    budget = 900
    n = 30_000
    engine = ENGINES[name].for_budget(budget, n_hint=n)
    summary = engine.summarize(_data(n))
    assert summary.memory_footprint <= budget
    assert summary.count == n


@each_engine
def test_resolve_engine_and_policies(name):
    assert resolve_engine(name) == name
    engine = make_engine(name)
    assert engine.name == name
    for policy, target in ENGINE_POLICIES.items():
        assert resolve_engine(policy) == target
    with pytest.raises(ConfigError, match="unknown engine"):
        resolve_engine("quantum")


# ----------------------------------------------------------------------
# The single-pass chunk interface the sketch summaries ingest through
# ----------------------------------------------------------------------


@each_sketch
def test_empty_chunk_is_a_noop(name):
    summary = ENGINES[name].summary_cls()
    summary.update(np.empty(0))
    assert summary.count == 0


@each_sketch
def test_two_dimensional_chunk_is_rejected(name):
    """2-D, NaN-holding and non-numeric chunks are refused with a
    ``DataError`` (the ingest policy), and leave the summary empty."""
    summary = ENGINES[name].summary_cls()
    for chunk in (np.zeros((4, 4)), np.array([1.0, np.nan, 2.0]), ["a", "b"]):
        with pytest.raises(DataError):
            summary.update(chunk)
    assert summary.count == 0


@each_sketch
def test_reading_before_data_raises(name):
    summary = ENGINES[name].summary_cls()
    with pytest.raises(EstimationError):
        summary.bounds_arrays([0.5])
    for extreme in ("minimum", "maximum"):
        with pytest.raises(EstimationError):
            getattr(summary, extreme)
    with pytest.raises(EstimationError):
        summary.to_bytes()
