"""Snapshot of the public API surface.

A change to any list below is a deliberate API decision: additions belong
in docs/api.md, removals need a deprecation cycle (see the policy there).
This test exists so neither can happen by accident.
"""

import inspect

import repro
import repro.baselines
import repro.core
import repro.obs

TOP_LEVEL = {
    "OPAQ",
    "OPAQConfig",
    "OPAQSummary",
    "QuantileBounds",
    "QuantileEstimator",
    "DataSource",
    "RankBounds",
    "IncrementalOPAQ",
    "estimate_quantiles",
    "estimate_rank",
    "exact_quantiles",
    "DiskDataset",
    "DatasetWriter",
    "RunReader",
    "MemoryModel",
    "ReproError",
    "ConfigError",
    "DataError",
    "EstimationError",
    "ParallelError",
    "ServiceError",
    "SinglePassViolation",
    "__version__",
}

OBS = {
    "Event",
    "Sink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "TeeSink",
    "Tracer",
    "current_tracer",
    "tracing",
    "aggregate",
    "phase_seconds",
    "io_fraction",
    "write_metrics",
}

SERVICE = {
    "ServiceConfig",
    "QuantileService",
    "QueryResult",
    "QuantileVector",
    "ShardRouter",
    "ShardWorker",
    "EpochSnapshot",
    "SnapshotStore",
    "Snapshotter",
    "ServiceClient",
    "ServiceHTTPServer",
    "AsyncServiceServer",
    "ThreadedBinaryServer",
    "make_server",
    "RegistryConfig",
    "SummaryRegistry",
    "KeyAnswer",
}

TENANCY = {
    "KEY_SEP",
    "WILDCARD",
    "AggregationTree",
    "KeyAnswer",
    "RegistryConfig",
    "SpillRecord",
    "SpillStore",
    "SummaryRegistry",
    "compact_within_budget",
    "compose_key",
    "split_key",
    "validate_component",
}

PORTFOLIO = {
    "ENGINES",
    "ENGINE_POLICIES",
    "EngineSpec",
    "resolve_engine",
    "make_engine",
    "OPAQEngine",
    "OpaqKeyState",
    "RawKeyState",
    "KLLEngine",
    "KLLSummary",
    "GKEngine",
    "GKSummary",
    "AS95Engine",
    "IntervalSummary",
    "SketchEngine",
    "SketchSummary",
    "compact_within_budget",
    "exact_delta",
}

SELECTION = {
    "multiselect_numpy",
    "floyd_rivest_select",
    "median_of_medians_select",
    "median_of_medians_pivot",
    "multiselect",
    "regular_sample_ranks",
    "partition_three_way",
    "partition_counts",
    "kway_merge",
    "merge_two_with_payload",
    "is_sorted",
    "SelectionStrategy",
    "SortStrategy",
    "NumpyPartitionStrategy",
    "MedianOfMediansStrategy",
    "FloydRivestStrategy",
    "get_strategy",
    "STRATEGY_NAMES",
}

BASELINES = {
    "StreamingQuantileEstimator",
    "consume",
    "RandomSamplingEstimator",
}

ESTIMATOR_METHODS = {"summarize", "bounds", "bound", "estimate"}


def test_top_level_surface_is_exactly_the_snapshot():
    assert set(repro.__all__) == TOP_LEVEL


def test_obs_surface_is_exactly_the_snapshot():
    assert set(repro.obs.__all__) == OBS


def test_service_surface_is_exactly_the_snapshot():
    import repro.service

    assert set(repro.service.__all__) == SERVICE


def test_tenancy_surface_is_exactly_the_snapshot():
    import repro.service.tenancy

    assert set(repro.service.tenancy.__all__) == TENANCY


def test_portfolio_surface_is_exactly_the_snapshot():
    import repro.portfolio

    assert set(repro.portfolio.__all__) == PORTFOLIO


def test_selection_surface_is_exactly_the_snapshot():
    """One r-way merge and the strategies; no hot-path switch."""
    import repro.selection

    assert set(repro.selection.__all__) == SELECTION


def test_engine_registry_is_stable():
    """The engine names and policy aliases are wire/CLI surface: the
    proto v3 engine byte and ``--engine`` both key off these names."""
    from repro.portfolio import ENGINES, ENGINE_POLICIES

    assert set(ENGINES) == {"opaq", "kll", "gk", "as95"}
    assert ENGINE_POLICIES == {
        "deterministic-guarantee": "opaq",
        "mergeable-sketch": "kll",
        "smallest-memory": "gk",
    }


def test_service_client_batched_surface():
    """The redesigned client: batched unkeyed methods plus the keyed
    (multi-tenant) pair.  The v1 spellings — scalar ingest(x) and the
    dict-returning quantile() — completed their deprecation cycle and
    are gone (see docs/api.md)."""
    from repro.service import ServiceClient

    for method in (
        "ingest",
        "ingest_keyed",
        "quantiles",
        "quantiles_keyed",
        "quantiles_many",
        "snapshot",
        "stats",
        "health",
        "close",
    ):
        assert callable(getattr(ServiceClient, method)), method
    assert not hasattr(ServiceClient, "quantile")


def test_baselines_surface_is_exactly_the_snapshot():
    """Random sampling and the shared single-pass ingest base; every
    sketch lives in ``repro.portfolio``."""
    assert set(repro.baselines.__all__) == BASELINES


def test_estimators_conform_to_protocol():
    from repro.core import IncrementalOPAQ, OPAQ, QuantileEstimator

    for cls in (OPAQ, IncrementalOPAQ):
        assert issubclass(cls, QuantileEstimator), cls.__name__


def test_estimator_query_signatures_agree():
    """OPAQ and IncrementalOPAQ expose the same (summary, ...) shapes."""
    from repro.core import IncrementalOPAQ, OPAQ

    for method in ESTIMATOR_METHODS:
        opaq_params = list(
            inspect.signature(getattr(OPAQ, method)).parameters
        )
        inc_params = list(
            inspect.signature(getattr(IncrementalOPAQ, method)).parameters
        )
        assert opaq_params == inc_params, method


def test_one_shot_classmethod_exists():
    sig = inspect.signature(repro.OPAQ.quantiles)
    assert list(sig.parameters)[:2] == ["source", "phis"]
