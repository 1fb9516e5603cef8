"""The three workloads: ``scan``, ``stream`` and ``keyed``.

Each ``run_*`` function builds its inputs from the seed (outside the
timed region), starts the system as a child process in a fresh work
directory, drives it for ``seconds`` of timed work, checks the answers
it collected against an exact oracle and returns an :class:`Outcome`.

* ``scan`` — the paper's pipeline in one process on one thread:
  ``OPAQ.summarize(RunReader(DiskDataset))`` passes over a page-cached
  Zipf-with-jitter file, each followed by ``OPAQ.bounds`` calls.  Storage
  here means the page cache: the run reads no device.
* ``stream`` — unkeyed serving (``opaq serve --shards 2 --snapshot-dir``):
  100k-element INGEST batches, a SNAPSHOT every ``group`` batches, then
  six 9-fraction QUANTILES: a dashboard vector twice (a poller; the
  second is a reply-cache hit) and four fresh vectors (misses).  Each
  session against a fresh server sends the same fixed number of groups;
  sessions repeat until the run's seconds are used.
* ``keyed`` — multi-tenant serving with spilling: wide INGEST_KEYED
  frames over a fixed, skewed key population, each followed by one
  QUANTILES_KEYED batch of 64 keys x 3 fractions; the registry budget
  sits below the working set, so cold keys spill and come back.  Each
  session's untimed warm-up frames fill the budget, so its timed frames
  all run in the spilling regime.

The server workloads are closed loops: one synchronous ``ServiceClient``
connection sends its next request when the previous reply has arrived.
Request payloads are encoded before timing starts; the client's garbage
collector is frozen after set-up.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    HERE,
    ChildProcess,
    DENSE_PHIS,
    CycleOracle,
    Server,
    WorkDir,
    latency_line,
    measure_setup,
    peak_rss_mb,
    quantile_rank,
)

#: Start-ups per run timed only for ``setup_s``; the measured children's
#: own start-ups join them before the median is taken.
SETUP_RUNS = 5

SCALES = {
    "full": {
        "scan_n": 8_000_000,
        "scan_run_size": 1_000_000,
        "stream_batch": 100_000,
        "stream_pool": 48,
        "stream_group": 20,
        "stream_session_groups": 10,
        "keyed_tenants": 64,
        "keyed_metrics": 250,
        "keyed_frame_keys": 512,
        "keyed_per_key": 32,
        "keyed_budget": 500_000,
        "keyed_warmup_frames": 22,
        "keyed_session_frames": 30,
    },
    "tiny": {
        "scan_n": 200_000,
        "scan_run_size": 50_000,
        "stream_batch": 10_000,
        "stream_pool": 6,
        "stream_group": 3,
        "stream_session_groups": 2,
        "keyed_tenants": 16,
        "keyed_metrics": 40,
        "keyed_frame_keys": 256,
        "keyed_per_key": 8,
        "keyed_budget": 20_000,
        "keyed_warmup_frames": 2,
        "keyed_session_frames": 6,
    },
}

#: Per-layer metrics of a traced run: name -> unit.
LAYER_UNITS = {
    "storage.read_s": "s",
    "storage.read_bytes": "bytes",
    "selection.sample_s": "s",
    "core.kway_merge_s": "s",
    "core.bounds_s": "s",
    "core.incremental_update_s": "s",
    "core.summary_merge_s": "s",
    "proto.encode_s": "s",
    "proto.decode_s": "s",
    "proto.bytes": "bytes",
    "wire.overhead_s": "s",
    "router.split_s": "s",
    "shard.submit_wait_s": "s",
    "shard.folds": "count",
    "snapshot.epoch_s": "s",
    "snapshot.epochs": "count",
    "reply_cache.hit_ratio": "frac",
    "registry.ingest_frame_s": "s",
    "registry.quantiles_s": "s",
    "registry.folds": "count",
    "registry.evictions": "count",
    "registry.resident_keys": "count",
    "registry.used_slots": "slots",
    "store.spill_s": "s",
    "store.restore_s": "s",
    "store.spills": "count",
    "store.restores": "count",
    "store.restore_ratio": "frac",
    "tree.absorb_s": "s",
    "engine.absorb_s.opaq": "s",
    "engine.absorb_s.kll": "s",
    "engine.absorb_s.gk": "s",
    "trace.overhead_frac": "frac",
}

#: Ledger names whose totals become ``<name>_s`` layer metrics.
_TIMED_LAYERS = {
    "storage.read": "storage.read_s",
    "selection.sample": "selection.sample_s",
    "core.kway_merge": "core.kway_merge_s",
    "core.bounds": "core.bounds_s",
    "core.incremental_update": "core.incremental_update_s",
    "core.summary_merge": "core.summary_merge_s",
    "proto.encode": "proto.encode_s",
    "proto.decode": "proto.decode_s",
    "router.split": "router.split_s",
    "shard.submit_wait": "shard.submit_wait_s",
    "snapshot.epoch": "snapshot.epoch_s",
    "registry.ingest_frame": "registry.ingest_frame_s",
    "registry.quantiles": "registry.quantiles_s",
    "store.spill": "store.spill_s",
    "store.restore": "store.restore_s",
    "tree.absorb": "tree.absorb_s",
    "engine.absorb.opaq": "engine.absorb_s.opaq",
    "engine.absorb.kll": "engine.absorb_s.kll",
    "engine.absorb.gk": "engine.absorb_s.gk",
}


@dataclass
class Outcome:
    """What one run measured and how many of its operations failed."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def absorb(self, other: "Outcome") -> None:
        """Count another session's operations into this run's totals."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes)


def zipf_with_jitter(n: int, seed: int) -> np.ndarray:
    """The paper's Zipf keys (10% duplicates) plus jitter below key spacing
    on most of the domain, so observed rank errors are not all zero."""
    from repro.workloads.generators import ZipfGenerator

    values = ZipfGenerator().generate(n, seed)
    values += np.random.default_rng(seed + 1).uniform(0.0, 1.0, n)
    return values


def _fill_layers(outcome: Outcome, values: dict[str, float]) -> None:
    for name, unit in LAYER_UNITS.items():
        outcome.layers[name] = (float(values.get(name, 0.0)), unit)


def _timed_layers(ledger: dict) -> dict[str, float]:
    seconds = ledger["seconds"]
    return {metric: seconds.get(name, 0.0) for name, metric in _TIMED_LAYERS.items()}


def _overhead(traced: float, untraced: float) -> float:
    return 1.0 - traced / untraced


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------


class _ScanChild(ChildProcess):
    """``scan_child.py``; started once it has opened the dataset."""

    def __init__(self, work: WorkDir, dataset: Path, out: Path, seconds: float,
                 run_size: int, *flags: str) -> None:
        argv = [sys.executable, str(HERE / "scan_child.py"), str(dataset), str(out),
                str(seconds), str(run_size), *flags]
        super().__init__(argv, work.path / "scan.log")
        self.setup_s = 0.0

    def start(self) -> None:
        super().start()
        self.read_line("ready", timeout=60)
        self.setup_s = time.perf_counter() - self.started_at


def _scan_session(work: WorkDir, dataset: Path, oracle: CycleOracle, seconds: float,
                  run_size: int, trace: bool) -> tuple[Outcome, dict, float]:
    out = work.path / f"scan-{'traced' if trace else 'plain'}.json"
    child = _ScanChild(work, dataset, out, seconds, run_size, *(["--trace"] if trace else []))
    with child:
        setup_s = child.setup_s
        child.read_line("done", timeout=seconds + 150)
    result = json.loads(out.read_text())
    n = result["count"]
    outcome = Outcome()
    outcome.attempted = result["passes"] + result["bounds_calls"]
    outcome.failed = result["mismatches"]
    psi = np.asarray(result["psi"], dtype=np.int64)
    lower = np.asarray(result["lower"])
    upper = np.asarray(result["upper"])
    observed, encloses = oracle.check(1, 0, psi, lower, upper)
    sound = (
        n == oracle.sorted.size
        and np.array_equal(psi, quantile_rank(DENSE_PHIS, n))
        and encloses
        and observed < result["guarantee"]
    )
    if not sound:
        outcome.failed += result["bounds_calls"]
        outcome.notes.append(f"scan answer unsound: observed={observed} encloses={encloses}")
    if trace:
        expected = result["passes"] * n * 8
        got = result["ledger"]["units"].get("storage.read", 0)
        if got != expected:
            outcome.failed += 1
            outcome.notes.append(f"storage.read_bytes {got} != passes*n*8 = {expected}")
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_el_s": (result["elements"] / result["elapsed_s"], "el/s"),
        "query_p50_ms": (statistics.median(result["latencies_ms"]), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "guarantee_frac": (result["guarantee"] / n, "frac"),
        "observed_error_frac": (observed / n, "frac"),
    }
    outcome.notes.append(latency_line("OPAQ.bounds latency", result["latencies_ms"]))
    outcome.notes.append(f"scan: {result['passes']} passes over n={n:,} in {result['elapsed_s']:.3f}s")
    return outcome, result, setup_s


def run_scan(seed: int, seconds: float, trace: bool, work: WorkDir, scale: dict) -> Outcome:
    from repro.storage import DiskDataset

    n, run_size = scale["scan_n"], scale["scan_run_size"]
    values = zipf_with_jitter(n, seed)
    dataset = work.path / "scan.opaq"
    DiskDataset.create(dataset, values)
    with open(dataset, "rb") as handle:
        os.fsync(handle.fileno())  # no write-back during the timed passes
    oracle = CycleOracle([values])
    del values
    if not trace:
        setups = measure_setup(
            lambda: _ScanChild(work, dataset, work.path / "setup.json", 0, run_size,
                               "--setup-only"),
            SETUP_RUNS,
        )
    outcome, result, setup_s = _scan_session(work, dataset, oracle, seconds, run_size, False)
    if not trace:
        outcome.metrics["setup_s"] = (statistics.median(setups + [setup_s]), "s")
        outcome.notes.insert(0, "scan reads the page cache, not a device")
        return outcome
    traced, traced_result, _ = _scan_session(work, dataset, oracle, seconds, run_size, True)
    outcome.absorb(traced)
    layers = _timed_layers(traced_result["ledger"])
    layers["storage.read_bytes"] = traced_result["ledger"]["units"].get("storage.read", 0)
    layers["trace.overhead_frac"] = _overhead(
        traced.metrics["throughput_el_s"][0], outcome.metrics["throughput_el_s"][0]
    )
    _fill_layers(outcome, layers)
    return outcome


# ----------------------------------------------------------------------
# Server sessions (stream, keyed)
# ----------------------------------------------------------------------


@dataclass
class _Session:
    """Client-side record of one server session."""

    elements: int = 0
    elapsed_s: float = 0.0
    rtt_s: float = 0.0
    quantile_requests: int = 0
    attempted: int = 0
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    records: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    ledger: dict | None = None
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0


def _drive(server: Server, session: _Session, step, steps: int, warmup: int = 1) -> None:
    """``warmup`` untimed steps, then ``steps`` timed steps."""
    gc.collect()
    gc.freeze()
    try:
        for _ in range(warmup):
            step()
        warm_elements = session.elements
        warm_latencies = len(session.latencies_ms)
        clock = time.perf_counter
        start = clock()
        for _ in range(steps):
            step()
        elapsed = clock() - start
        session.elapsed_s = elapsed
        session.elements -= warm_elements
        del session.latencies_ms[:warm_latencies]
    finally:
        gc.unfreeze()


def _server_layers(sessions: list[_Session]) -> dict[str, float]:
    """Layer totals over traced sessions (registry gauges: the largest)."""
    ledger: dict[str, dict] = {"seconds": {}, "calls": {}, "units": {}}
    for session in sessions:
        for part, totals in session.ledger.items():
            for name, value in totals.items():
                ledger[part][name] = ledger[part].get(name, 0) + value
    calls = ledger["calls"]
    tenancy = [s.stats.get("tenancy", {}) for s in sessions]
    requests = sum(s.quantile_requests for s in sessions)
    spills = calls.get("store.spill", 0)
    restores = calls.get("store.restore", 0)
    layers = _timed_layers(ledger)
    layers.update(
        {
            "proto.bytes": ledger["units"].get("proto.encode", 0)
            + ledger["units"].get("proto.decode", 0),
            "wire.overhead_s": sum(s.rtt_s for s in sessions)
            - ledger["seconds"].get("handler", 0.0),
            "shard.folds": sum(shard["folds"] for s in sessions
                               for shard in s.stats.get("per_shard", [])),
            "snapshot.epochs": calls.get("snapshot.epoch", 0),
            "reply_cache.hit_ratio": (
                1.0 - calls.get("handler.query_arrays", 0) / requests if requests else 0.0
            ),
            "registry.folds": sum(t.get("folds", 0) for t in tenancy),
            "registry.evictions": sum(t.get("evictions", 0) for t in tenancy),
            "registry.resident_keys": max(t.get("resident_keys", 0) for t in tenancy),
            "registry.used_slots": max(t.get("used_slots", 0) for t in tenancy),
            "store.spills": spills,
            "store.restores": restores,
            "store.restore_ratio": restores / spills if spills else 0.0,
        }
    )
    return layers


def _run_server_workload(name: str, seconds: float, trace: bool, work: WorkDir,
                         serve_args, build, session_fn, check) -> Outcome:
    """Shared shape of ``stream`` and ``keyed``.

    Set-up spawns, then timed sessions until ``seconds`` of timed work
    are done.  Each session runs against a fresh server in a fresh state
    directory and does the same fixed work, so a slower run does not
    also measure a smaller server state, and summing several servers
    averages out how one process's threads happened to be scheduled.
    ``--trace 1`` then repeats the sessions traced.
    """
    inputs = build()

    def new_server(ledger_path: Path | None = None) -> Server:
        state = work.fresh_dir(name)
        return Server(serve_args(state), work.path / f"{name}-server.log", state, ledger_path)

    def sessions(ledger_path: Path | None) -> list[_Session]:
        done: list[_Session] = []
        while sum(s.elapsed_s for s in done) < seconds:
            session = _Session()
            with new_server(ledger_path) as server:
                session.setup_s = server.setup_s
                session_fn(server, session, inputs)
                session.stats = server.client.stats()
                session.peak_rss_mb = peak_rss_mb(server.proc.pid)
                if ledger_path is not None:
                    session.ledger = server.read_ledger()
            done.append(session)
            if ledger_path is not None:
                ledger_path.unlink()  # each traced server writes its own
        return done

    setups = [] if trace else measure_setup(new_server, SETUP_RUNS)
    plain = sessions(None)
    outcome = _combine(plain, [check(s, inputs) for s in plain])
    if not trace:
        outcome.metrics["setup_s"] = (
            statistics.median(setups + [s.setup_s for s in plain]), "s"
        )
        return outcome
    traced = sessions(work.path / f"{name}-ledger.json")
    traced_outcome = _combine(traced, [check(s, inputs) for s in traced])
    outcome.absorb(traced_outcome)
    layers = _server_layers(traced)
    layers["trace.overhead_frac"] = _overhead(
        traced_outcome.metrics["throughput_el_s"][0], outcome.metrics["throughput_el_s"][0]
    )
    _fill_layers(outcome, layers)
    return outcome


def _combine(sessions: list[_Session], checked: list[Outcome]) -> Outcome:
    """One outcome over sessions: summed work, pooled latencies, worst errors."""
    outcome = Outcome()
    for part in checked:
        outcome.absorb(part)
    latencies = [ms for s in sessions for ms in s.latencies_ms]
    elements = sum(s.elements for s in sessions)
    elapsed = sum(s.elapsed_s for s in sessions)
    outcome.metrics = {
        "throughput_el_s": (elements / elapsed, "el/s"),
        "query_p50_ms": (statistics.median(latencies), "ms"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in sessions), "MB"),
        "guarantee_frac": (max(c.metrics["guarantee_frac"][0] for c in checked), "frac"),
        "observed_error_frac": (max(c.metrics["observed_error_frac"][0] for c in checked), "frac"),
    }
    outcome.notes.append(latency_line("query latency", latencies))
    outcome.notes.append(
        f"{elements:,} elements in {elapsed:.3f}s over {len(sessions)} server session(s)"
    )
    return outcome


def _timed_request(transport, session: _Session, opcode, payload: bytes):
    start = time.perf_counter()
    reply = transport.request(opcode, payload)
    took = time.perf_counter() - start
    session.rtt_s += took
    return reply, took


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------


_DASHBOARD = np.arange(1, 10) / 10.0
#: Fresh vectors after the dashboard pair.  The first query of an epoch
#: also builds the epoch's rank arrays and the repeat is a cache hit, so
#: with four fresh vectors the median latency sits among plain misses.
_RANDOM_QUERIES = 4


def run_stream(seed: int, seconds: float, trace: bool, work: WorkDir, scale: dict) -> Outcome:
    from repro.errors import ReproError
    from repro.service import proto

    batch, pool, group = scale["stream_batch"], scale["stream_pool"], scale["stream_group"]

    def build():
        values = zipf_with_jitter(batch * pool, seed)
        parts = [values[i * batch:(i + 1) * batch] for i in range(pool)]
        rng = np.random.default_rng(seed + 2)
        randoms = [np.sort(rng.uniform(0.001, 1.0, 9)) for _ in range(64)]
        return {
            "frames": [proto.encode_ingest_request(p) for p in parts],
            "dashboard": proto.encode_quantiles_request(_DASHBOARD),
            "randoms": [(v, proto.encode_quantiles_request(v)) for v in randoms],
            "dense": proto.encode_quantiles_request(DENSE_PHIS),
            "oracle": CycleOracle(parts),
        }

    def session_fn(server: Server, session: _Session, inputs: dict) -> None:
        transport = server.client._transport  # pre-encoded frames skip client encode
        frames, dashboard, randoms = inputs["frames"], inputs["dashboard"], inputs["randoms"]
        sent = 0

        def query(payload: bytes, phis: np.ndarray, kind: str) -> None:
            session.attempted += 1
            session.quantile_requests += 1
            try:
                reply, took = _timed_request(transport, session, proto.Op.QUANTILES, payload)
                vector = proto.decode_quantiles_reply(reply)
            except ReproError as exc:
                session.failed += 1
                session.records.append(("error", sent, phis, repr(exc)))
                return
            session.latencies_ms.append(took * 1e3)
            session.records.append((kind, sent, phis, vector))

        def step() -> None:
            nonlocal sent
            for _ in range(group):
                session.attempted += 1
                try:
                    reply, _ = _timed_request(transport, session, proto.Op.INGEST, frames[sent % pool])
                    accepted = proto.decode_ingest_reply(reply)["accepted"]
                except ReproError:
                    session.failed += 1
                    continue
                sent += 1
                session.elements += accepted
            session.attempted += 1
            try:
                _timed_request(transport, session, proto.Op.SNAPSHOT, b"")
            except ReproError:
                session.failed += 1
            query(dashboard, _DASHBOARD, "fresh")
            query(dashboard, _DASHBOARD, "repeat")
            for i in range(_RANDOM_QUERIES):
                phis, payload = randoms[(sent // group * _RANDOM_QUERIES + i) % len(randoms)]
                query(payload, phis, "fresh")

        _drive(server, session, step, scale["stream_session_groups"])
        # Untimed: the final state's answer on a dense grid, for accuracy.
        session.attempted += 1
        session.quantile_requests += 1
        try:
            reply, _ = _timed_request(transport, session, proto.Op.QUANTILES, inputs["dense"])
            session.records.append(("dense", sent, DENSE_PHIS,
                                    proto.decode_quantiles_reply(reply)))
        except ReproError:
            session.failed += 1

    def check(session: _Session, inputs: dict) -> Outcome:
        oracle: CycleOracle = inputs["oracle"]
        outcome = Outcome(attempted=session.attempted, failed=session.failed)
        checked = [r for r in session.records if r[0] in ("fresh", "dense")]
        worst_g = worst_obs = 0.0
        previous = None
        for kind, sent, phis, vector in session.records:
            if kind == "repeat":
                same = previous is not None and all(
                    np.array_equal(getattr(vector, f), getattr(previous, f))
                    for f in ("lower", "upper", "ranks")
                )
                if not same:
                    outcome.failed += 1
                    outcome.notes.append(f"stream: repeated query after {sent} batches differs")
            if kind == "fresh":
                previous = vector
        for kind, sent, phis, vector in checked:
            count = sent * batch
            observed, encloses = oracle.check(sent // pool, sent % pool, vector.ranks,
                                              vector.lower, vector.upper)
            sound = (
                vector.count == count
                and np.array_equal(vector.ranks, quantile_rank(phis, count))
                and encloses
                and observed < vector.guarantee
            )
            if not sound:
                outcome.failed += 1
                outcome.notes.append(
                    f"stream: unsound answer after {sent} batches: count={vector.count} "
                    f"observed={observed} guarantee={vector.guarantee} encloses={encloses}"
                )
            worst_g = max(worst_g, vector.guarantee / count)
            worst_obs = max(worst_obs, observed / count)
        outcome.metrics = {
            "guarantee_frac": (worst_g, "frac"),
            "observed_error_frac": (worst_obs, "frac"),
        }
        outcome.notes.append(f"stream session: {len(checked)} answers checked")
        return outcome

    def serve_args(state: Path) -> list[str]:
        return ["--shards", "2", "--snapshot-dir", str(state)]

    return _run_server_workload("stream", seconds, trace, work, serve_args,
                                build, session_fn, check)


# ----------------------------------------------------------------------
# keyed
# ----------------------------------------------------------------------


_KEYED_PHIS = np.array([0.5, 0.9, 0.99])
_QUERY_KEYS = 64


def _engine_of(tenant: int, tenants: int) -> str:
    if tenant < tenants // 8:
        return "gk"
    if tenant < tenants // 4:
        return "kll"
    return "opaq"


def run_keyed(seed: int, seconds: float, trace: bool, work: WorkDir, scale: dict) -> Outcome:
    from repro.errors import ReproError
    from repro.service import proto
    from repro.service.tenancy.keys import compose_key

    tenants, metrics = scale["keyed_tenants"], scale["keyed_metrics"]
    width, per_key = scale["keyed_frame_keys"], scale["keyed_per_key"]
    warmup, timed = scale["keyed_warmup_frames"], scale["keyed_session_frames"]
    num_keys = tenants * metrics
    names = [compose_key(f"t{k // metrics:03d}", f"m{k % metrics:04d}") for k in range(num_keys)]

    def build():
        rng = np.random.default_rng(seed)
        # Skewed popularity over a fixed population, in a seeded order.
        popularity = 1.0 / np.arange(1, num_keys + 1) ** 1.0
        popularity = popularity[rng.permutation(num_keys)]
        popularity /= popularity.sum()
        centre = rng.uniform(0.0, 1000.0, num_keys)
        payloads, queries, members = [], [], []
        seen: list[int] = []
        seen_set: set[int] = set()
        for f in range(warmup + timed):
            keys = np.sort(rng.choice(num_keys, size=width, replace=False, p=popularity))
            values = (np.repeat(centre[keys], per_key)
                      + rng.standard_normal(width * per_key) * 10.0)
            counts = np.full(width, per_key, dtype=np.int64)
            payloads.append(proto.encode_ingest_keyed_request(
                [names[k] for k in keys], counts, values))
            for k in keys.tolist():
                if k not in seen_set:
                    seen_set.add(k)
                    seen.append(k)
            hot = rng.choice(keys, size=_QUERY_KEYS // 2, replace=False)
            cold = np.asarray(seen)[rng.integers(0, len(seen), _QUERY_KEYS // 2)]
            asked = np.concatenate([hot, cold]).tolist()
            queries.append((asked, proto.encode_quantiles_keyed_request(
                [names[k] for k in asked], _KEYED_PHIS)))
            members.append((keys, values.reshape(width, per_key)))
        return {"payloads": payloads, "queries": queries, "members": members}

    def session_fn(server: Server, session: _Session, inputs: dict) -> None:
        transport = server.client._transport
        payloads, queries = inputs["payloads"], inputs["queries"]
        sent = 0

        def step() -> None:
            nonlocal sent
            session.attempted += 1
            try:
                reply, _ = _timed_request(transport, session, proto.Op.INGEST_KEYED,
                                          payloads[sent])
                session.elements += proto.decode_ingest_keyed_reply(reply)["elements"]
            except ReproError:
                session.failed += 1
                return
            sent += 1
            asked, payload = queries[sent - 1]
            session.attempted += 1
            try:
                reply, took = _timed_request(transport, session, proto.Op.QUANTILES_KEYED, payload)
                answers = proto.decode_quantiles_keyed_reply(reply)
            except ReproError:
                session.failed += 1
                return
            session.latencies_ms.append(took * 1e3)
            session.records.append((sent, asked, answers))

        _drive(server, session, step, timed, warmup)

    def check(session: _Session, inputs: dict) -> Outcome:
        outcome = Outcome(attempted=session.attempted, failed=session.failed)
        members = inputs["members"]
        # key -> [(frame, values)], built only for keys an answer names.
        index: dict[int, list] = {}

        def parts_of(key: int) -> list:
            if key not in index:
                for f, (keys, values) in enumerate(members):
                    row = np.searchsorted(keys, key)
                    if row < keys.size and keys[row] == key:
                        index.setdefault(key, []).append((f, values[row]))
            return index[key]

        oracles: dict[int, CycleOracle] = {}
        worst_g = worst_obs = 0.0
        checked = 0
        for sent, asked, answers in session.records:
            bad = len(answers) != len(asked)
            for key, answer in zip(asked, answers):
                if key not in oracles:
                    parts = parts_of(key)
                    oracles[key] = CycleOracle([v for _, v in parts], [f for f, _ in parts])
                oracle = oracles[key]
                count = oracle.weights_total(0, sent)
                if answer.count != count or not np.array_equal(
                    answer.psi, quantile_rank(_KEYED_PHIS, count)
                ):
                    bad = True
                    continue
                observed, encloses = oracle.check(0, sent, answer.psi, answer.lower, answer.upper)
                bad |= not encloses or observed >= answer.guarantee
                worst_g = max(worst_g, answer.epsilon_bound)
                worst_obs = max(worst_obs, observed / count)
                checked += 1
            if bad:
                outcome.failed += 1
                outcome.notes.append(f"keyed: unsound answer batch after frame {sent}")
        tenancy = session.stats.get("tenancy", {})
        outcome.metrics = {
            "guarantee_frac": (worst_g, "frac"),
            "observed_error_frac": (worst_obs, "frac"),
        }
        outcome.notes.append(
            f"keyed session: {checked} key answers checked, spills={tenancy.get('spills')} "
            f"restores={tenancy.get('restores')} resident={tenancy.get('resident_keys')}"
        )
        return outcome

    def serve_args(state: Path) -> list[str]:
        pins = []
        for t in range(tenants):
            engine = _engine_of(t, tenants)
            if engine != "opaq":
                pins += ["--tenant-engine", f"t{t:03d}={engine}"]
        return ["--tenancy-spill-dir", str(state),
                "--tenancy-budget", str(scale["keyed_budget"]), *pins]

    return _run_server_workload("keyed", seconds, trace, work, serve_args,
                                build, session_fn, check)


WORKLOADS = {"scan": run_scan, "stream": run_stream, "keyed": run_keyed}
