"""The OPQ7xx family must *derive* the service layer's documented
concurrency invariants — not restate them.

``docs/service.md`` promises: each shard worker thread sole-owns its
estimator state, the served snapshot reference is swapped only under the
snapshotter's lock, and readers are lock-free.  These tests build the
thread model over the real ``repro.service`` sources and assert those
invariants as facts the analyzer inferred on its own.
"""

import textwrap
from pathlib import Path

import repro
from repro.analysis import build_project, build_thread_model
from repro.analysis.framework import ModuleContext
from repro.analysis.runner import iter_python_files, parse_module
from repro.analysis.rules_threads import ROLE_EVENT_LOOP, ROLE_MAIN, ROLE_THREAD

SERVICE = Path(repro.__file__).parent / "service"


def service_model():
    modules = [ModuleContext.from_path(p) for p in iter_python_files([SERVICE])]
    project = build_project(modules)
    return build_thread_model(project)


class TestDerivedRoles:
    def test_shard_worker_loop_runs_in_a_worker_role(self):
        model = service_model()
        worker = model.for_class("ShardWorker")
        assert "worker:ShardWorker._loop" in worker.roles["_loop"]
        # _fold is reached from the loop, so it inherits the role.
        assert "worker:ShardWorker._loop" in worker.roles["_fold"]

    def test_binary_server_handlers_carry_the_loop_role(self):
        """The binary server's request handlers run on its event loop,
        and the loop, not the embedder, calls them: no ambient role."""
        model = service_model()
        server = model.for_class("AsyncServiceServer")
        for method in ("_dispatch", "_handle", "_answer_quantiles"):
            assert server.roles[method] == {ROLE_EVENT_LOOP}, method
        reader = model.for_class("_FrameReader")
        for method in ("buffer_updated", "_push", "_serve"):
            assert reader.roles[method] == {ROLE_EVENT_LOOP}, method

    def test_handler_role_propagates_into_the_service(self):
        # _handle offloads self.service.ingest(...) through _blocking to
        # the executor, crossing the module boundary: the engine's
        # public entry points run on the executor's threads too, and
        # the inline query path on the loop.
        model = service_model()
        service = model.for_class("QuantileService")
        assert service.roles["ingest"] == {ROLE_MAIN, ROLE_THREAD}
        assert service.roles["ingest_keyed"] == {ROLE_MAIN, ROLE_THREAD}
        assert service.roles["query_arrays"] == {ROLE_MAIN, ROLE_EVENT_LOOP}

    def test_handler_role_is_concurrent(self):
        # The executor runs many requests at once; the loop runs one.
        model = service_model()
        service = model.for_class("QuantileService")
        assert ROLE_THREAD in service.concurrent_roles
        assert ROLE_EVENT_LOOP not in service.concurrent_roles


class TestDerivedInvariants:
    def test_worker_estimator_state_is_sole_owned(self):
        """Writers sole-own the estimator: every write to the fold-side
        fields happens from the worker role alone."""
        model = service_model()
        worker = model.for_class("ShardWorker")
        for field in ("_buffer", "_buffered", "_folds", "_latest"):
            writing = worker.writing_roles(field)
            assert writing == {"worker:ShardWorker._loop"}, (field, writing)

    def test_snapshot_swaps_only_under_the_lock(self):
        """Every write to the published snapshot reference holds the
        snapshotter's lock — the swap discipline, derived."""
        model = service_model()
        snap = model.for_class("Snapshotter")
        writes = snap.writes("_snapshot")
        assert writes  # restore() and run_epoch() both publish
        assert all("self._lock" in w.locks for w in writes)
        assert snap.guard_of("_snapshot") == "self._lock"

    def test_snapshot_reads_are_lock_free(self):
        """The `current` property reads the reference without the lock —
        sanctioned because every writer publishes under it."""
        model = service_model()
        snap = model.for_class("Snapshotter")
        reads = [a for a in snap.accesses["_snapshot"] if a.kind == "read"]
        assert any(a.method == "current" and not a.locks for a in reads)

    def test_service_counters_are_guarded_by_the_state_lock(self):
        model = service_model()
        service = model.for_class("QuantileService")
        for field in ("_accepted", "_since_snapshot", "_queries"):
            writes = service.writes(field)
            assert writes, field
            assert all("self._state_lock" in w.locks for w in writes), field
            assert service.guard_of(field) == "self._state_lock"

    def test_queue_fields_are_classified_thread_safe(self):
        model = service_model()
        worker = model.for_class("ShardWorker")
        assert worker.field_is_thread_safe("_queue")
        assert not worker.field_is_thread_safe("_buffer")


class TestAccessPrecision:
    def test_guarded_mutate_in_with_body_carries_the_lock_fact(self):
        """A mutating call inside ``with self._lock:`` belongs to the body
        op, with the lock held — not (also) to the with-enter op with the
        pre-statement fact.  The double record used to make OPQ701 flag
        correctly guarded multi-role code."""
        ctx = parse_module(
            textwrap.dedent(
                """
                import asyncio
                import threading


                class Service:
                    def __init__(self):
                        self._state_lock = threading.Lock()
                        self._pending = []

                    def submit(self, batch):
                        with self._state_lock:
                            self._pending.append(batch)

                    def drain(self):
                        with self._state_lock:
                            self._pending = []


                class Server:
                    def __init__(self, service: Service):
                        self.service = service

                    async def handle(self):
                        loop = asyncio.get_running_loop()
                        await loop.run_in_executor(
                            None, lambda: self.service.submit([1.0])
                        )
                """
            )
        )
        model = build_thread_model(build_project([ctx]))
        svc = model.for_class("Service")
        writes = svc.writes("_pending")
        # Exactly one mutate (submit) and one write (drain) — no duplicate
        # access recorded at the with-enter event.
        assert sorted(w.kind for w in writes) == ["mutate", "write"]
        assert all("self._state_lock" in w.locks for w in writes)
        assert svc.writing_roles("_pending") >= {ROLE_MAIN, ROLE_THREAD}


class TestServiceIsDeepClean:
    def test_no_thread_findings_in_the_service_layer(self, deep_lint):
        # Reads the package-wide deep lint: the thread family's findings
        # on service/ are the same whether it lints service/ or the whole
        # package, as its roles come from the service's own call graph.
        thread_findings = [
            f
            for f in deep_lint.findings
            if f.code in ("OPQ701", "OPQ702")
            and Path(f.path).resolve().is_relative_to(SERVICE.resolve())
        ]
        assert thread_findings == []
