"""Conformance suite for the real execution backends.

The contract under test (docs/parallel.md): the identical POPAQ program,
run on any backend, produces **bit-identical** sample lists and bounds —
equal to each other and to the simulated machine's — and every failure
mode surfaces as a typed
:class:`~repro.errors.ParallelError`, never a hang or a bare
multiprocessing traceback.
"""

import os
import time

import numpy as np
import pytest

from repro.core import OPAQConfig
from repro.errors import ConfigError, ParallelError
from repro.parallel import ParallelOPAQ
from repro.parallel.backends import (
    BACKEND_NAMES,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
    validate_backend,
)
from repro.parallel.backends.process import _pack, _ShmArray, _unpack

REAL_BACKENDS = ("serial", "thread", "process")

#: Distinct values everywhere: ties may legitimately permute *payload
#: rows* between equal keys, which is outside the bitwise contract for
#: arbitrary data but inside it for distinct keys.
_DATA = np.random.default_rng(42).permutation(np.arange(60_000.0))
_PHIS = (0.1, 0.5, 0.9)


def _config():
    return OPAQConfig(run_size=5_000, sample_size=100)


# ----------------------------------------------------------------------
# The determinism contract
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def simulated_reference():
    result = ParallelOPAQ(4, _config()).run(_DATA, _PHIS)
    return result


def _partitions(form):
    """The test data in either input form ``run`` accepts: one ndarray it
    block-partitions itself (``"numpy"``), or one plain Python list per
    processor (``"python"``), which the process backend pickles instead of
    placing in shared memory."""
    if form == "numpy":
        return _DATA
    return [part.tolist() for part in np.array_split(_DATA, 4)]


@pytest.mark.parametrize("backend", REAL_BACKENDS)
@pytest.mark.parametrize("form", ["python", "numpy"])
def test_backends_match_the_simulated_machine_bitwise(
    backend, form, simulated_reference
):
    result = ParallelOPAQ(4, _config(), backend=backend).run(
        _partitions(form), _PHIS
    )
    reference = simulated_reference
    assert (
        result.summary.samples.tobytes()
        == reference.summary.samples.tobytes()
    )
    for ours, theirs in zip(result.bounds(_PHIS), reference.bounds(_PHIS)):
        assert (ours.lower, ours.upper) == (theirs.lower, theirs.upper)


def test_backend_answers_enclose_the_truth():
    sorted_data = np.sort(_DATA)
    result = ParallelOPAQ(4, _config(), backend="process").run(
        _DATA, _PHIS
    )
    for phi, bound in zip(_PHIS, result.bounds(_PHIS)):
        truth = sorted_data[int(np.ceil(phi * sorted_data.size)) - 1]
        assert bound.lower <= truth <= bound.upper


@pytest.mark.parametrize("backend", REAL_BACKENDS)
def test_real_backends_report_measured_phases(backend):
    result = ParallelOPAQ(2, _config(), backend=backend).run(_DATA, _PHIS)
    assert result.backend == backend
    assert len(result.worker_reports) == 2
    measured = result.measured_phase_totals()
    assert set(measured) >= {"io", "sampling", "local_merge"}
    assert result.measured_elapsed() > 0
    fractions = result.measured_phase_fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-9
    # The modelled replay exists alongside, phase for phase.
    assert result.total_time > 0
    assert set(result.phase_fractions()) >= {"io", "sampling"}


@pytest.mark.parametrize("merge_method", ["sample", "bitonic"])
@pytest.mark.parametrize("overlap_io", [False, True])
def test_replay_charges_the_local_phase_as_the_simulation_does(
    merge_method, overlap_io
):
    """A real run's modelled replay charges reads, sampling and the local
    merge exactly as the simulated execution does — here over a ragged
    last run, so the per-run layout matters."""
    data = _DATA[:-1]
    options = {"merge_method": merge_method, "overlap_io": overlap_io}
    simulated = ParallelOPAQ(4, _config(), **options).run(data, _PHIS)
    replayed = ParallelOPAQ(4, _config(), backend="serial", **options).run(
        data, _PHIS
    )
    modelled = simulated.machine.phase_totals()
    replay = replayed.machine.phase_totals()
    for phase in ("io", "sampling", "local_merge"):
        assert modelled[phase] == replay[phase], phase


def test_simulated_runs_measure_nothing():
    result = ParallelOPAQ(2, _config()).run(_DATA, _PHIS)
    assert result.worker_reports is None
    assert result.measured_phase_totals() is None
    assert result.measured_elapsed() is None


# ----------------------------------------------------------------------
# The registry and the Comm contract
# ----------------------------------------------------------------------


def test_registry_knows_all_backends():
    assert set(BACKEND_NAMES) == {"serial", "thread", "process"}
    for name in BACKEND_NAMES:
        assert get_backend(name).name == name
    assert validate_backend("simulated") == "simulated"
    with pytest.raises(ConfigError):
        get_backend("gpu")
    with pytest.raises(ConfigError):
        validate_backend("gpu")


@pytest.mark.parametrize(
    "backend", [SerialBackend(), ThreadBackend(timeout=5.0)]
)
def test_self_sends_are_rejected(backend):
    def worker(comm):
        comm.send(comm.rank, "hello me")

    with pytest.raises(ParallelError, match="itself"):
        backend.run(worker, [(), ()])


def test_out_of_range_peer_is_rejected():
    def worker(comm):
        if comm.rank == 0:
            comm.send(7, "nobody home")

    with pytest.raises(ParallelError, match="only ranks"):
        SerialBackend().run(worker, [(), ()])


def test_fifo_order_per_channel():
    def worker(comm):
        if comm.rank == 1:
            for value in range(5):
                comm.send(0, value)
            return None
        return [comm.recv(1) for _ in range(5)]

    for backend in (SerialBackend(), ThreadBackend(timeout=5.0)):
        results = backend.run(worker, [(), ()])
        assert results[0] == [0, 1, 2, 3, 4]


def test_serial_backend_detects_cyclic_patterns():
    def worker(comm):
        # 0 waits on 1 while 1 waits on 0: unserialisable.
        peer = 1 - comm.rank
        value = comm.recv(peer)
        comm.send(peer, value)

    with pytest.raises(ParallelError, match="cyclic"):
        SerialBackend().run(worker, [(), ()])


def test_serial_backend_reports_missing_message():
    def worker(comm):
        if comm.rank == 0:
            return comm.recv(1)  # rank 1 never sends
        return None

    with pytest.raises(ParallelError, match="without sending"):
        SerialBackend().run(worker, [(), ()])


# ----------------------------------------------------------------------
# Typed failure propagation
# ----------------------------------------------------------------------


def _explode(comm):
    if comm.rank == 1:
        raise ValueError("boom at rank 1")
    comm.barrier()


@pytest.mark.parametrize(
    "backend",
    [SerialBackend(), ThreadBackend(timeout=5.0), ProcessBackend(timeout=15.0)],
    ids=["serial", "thread", "process"],
)
def test_worker_exceptions_become_parallel_errors(backend):
    with pytest.raises(ParallelError, match="ValueError"):
        backend.run(_explode, [(), ()])


def test_thread_backend_reports_the_root_cause_not_the_knock_on():
    # Rank 0 blocks in barrier() and fails *because* rank 1 raised; the
    # reported error must be rank 1's ValueError, not rank 0's broken
    # barrier.
    try:
        ThreadBackend(timeout=5.0).run(_explode, [(), ()])
    except ParallelError as exc:
        assert "ValueError" in str(exc)
        assert "boom at rank 1" in str(exc)
    else:  # pragma: no cover
        pytest.fail("expected ParallelError")


def _die_silently(comm):
    if comm.rank == 1:
        os._exit(3)
    comm.barrier()


def test_process_backend_reports_silent_worker_death():
    with pytest.raises(ParallelError, match="exit code 3"):
        ProcessBackend(timeout=15.0).run(_die_silently, [(), ()])


def _hang(comm):
    if comm.rank == 1:
        time.sleep(30.0)
    comm.recv(1 - comm.rank)


def test_process_backend_times_out_instead_of_hanging():
    start = time.perf_counter()
    with pytest.raises(ParallelError):
        ProcessBackend(timeout=2.0).run(_hang, [(), ()])
    assert time.perf_counter() - start < 25.0


def test_empty_worker_list_is_rejected():
    for backend in (SerialBackend(), ThreadBackend(), ProcessBackend()):
        with pytest.raises(ParallelError, match="at least one"):
            backend.run(lambda comm: None, [])


# ----------------------------------------------------------------------
# The shared-memory transport
# ----------------------------------------------------------------------


def test_pack_round_trips_nested_structures():
    big = np.random.default_rng(0).uniform(size=64)
    small = np.arange(3.0)
    payload = {"big": big, "nested": [(small, big * 2), "text"], "n": 7}
    packed = _pack(payload, threshold=128)  # big crosses, small does not
    assert isinstance(packed["big"], _ShmArray)
    assert isinstance(packed["nested"][0][1], _ShmArray)
    assert packed["nested"][0][0] is small  # under threshold: untouched
    restored = _unpack(packed)
    np.testing.assert_array_equal(restored["big"], big)
    np.testing.assert_array_equal(restored["nested"][0][1], big * 2)
    assert restored["n"] == 7


def test_unpack_of_vanished_segment_is_typed():
    ghost = _ShmArray(name="opaq-test-no-such-segment", shape=(4,), dtype="<f8")
    with pytest.raises(ParallelError, match="vanished"):
        _unpack(ghost)


def test_process_backend_with_tiny_shm_threshold():
    """Force every array through shared memory and still match bitwise."""
    backend = ProcessBackend(timeout=15.0, shm_threshold=1)
    result = ParallelOPAQ(2, _config(), backend=backend).run(_DATA, _PHIS)
    reference = ParallelOPAQ(2, _config()).run(_DATA, _PHIS)
    assert (
        result.summary.samples.tobytes()
        == reference.summary.samples.tobytes()
    )


# ----------------------------------------------------------------------
# Wiring: estimator and service entry points
# ----------------------------------------------------------------------


def test_quantiles_classmethod_takes_backend():
    from repro import OPAQ

    data = np.random.default_rng(5).uniform(size=30_000)
    [direct] = OPAQ.quantiles(data, [0.5], sample_size=100, run_size=5_000)
    [routed] = OPAQ.quantiles(
        data,
        [0.5],
        sample_size=100,
        run_size=5_000,
        backend="thread",
        num_procs=2,
    )
    truth = np.sort(data)[int(np.ceil(0.5 * data.size)) - 1]
    assert routed.lower <= truth <= routed.upper
    assert direct.lower <= truth <= direct.upper


def test_service_estimate_uses_the_configured_backend():
    from repro.service import QuantileService, ServiceConfig

    config = ServiceConfig(
        num_shards=2, run_size=5_000, sample_size=100, backend="serial"
    )
    data = np.random.default_rng(6).uniform(size=30_000)
    with QuantileService(config) as service:
        [bound] = service.estimate(data, [0.5])
    truth = np.sort(data)[int(np.ceil(0.5 * data.size)) - 1]
    assert bound.lower <= truth <= bound.upper


def test_service_config_rejects_unknown_backend():
    from repro.service import ServiceConfig

    with pytest.raises(ConfigError):
        ServiceConfig(backend="gpu")
