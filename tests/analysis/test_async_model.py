"""The OPQ77x family must *derive* the asyncio server's documented
contract — not restate it.

``docs/service.md`` promises that the event loop in ``service/aio.py``
never blocks: every registry/engine mutation crosses the ``_blocking``
offload boundary (``run_in_executor`` under a ``wait_for`` deadline),
only the lock-free snapshot read is answered inline, and the frame
reader's protocol callbacks only move bytes.  These tests build
the async model over the real ``repro.service`` sources and assert that
contract as facts the analyzer inferred on its own.
"""

import ast
from pathlib import Path

import repro
from repro.analysis import build_project, lint_paths
from repro.analysis.framework import ModuleContext
from repro.analysis.runner import iter_python_files
from repro.analysis.rules_async import (
    ROLE_EVENT_LOOP,
    ROLE_THREAD,
    _Resolver,
    _scoped_items,
    blocking_reasons,
    build_async_model,
    protocol_callbacks,
)

SERVICE = Path(repro.__file__).parent / "service"


def service_project():
    modules = [
        ModuleContext.from_path(p) for p in iter_python_files([SERVICE])
    ]
    return build_project(modules)


def async_model(project):
    return build_async_model(project, list(project.classes))


def fn_named(project, qualname: str):
    cls_name, _, name = qualname.partition(".")
    for cls in project.class_named(cls_name):
        if name in cls.methods:
            return cls.methods[name]
    raise AssertionError(f"no {qualname} in the service project")


class TestDerivedRoles:
    def test_every_aio_handler_is_event_loop_role(self):
        project = service_project()
        model = async_model(project)
        for method in ("_handle", "_dispatch"):
            fn = fn_named(project, f"AsyncServiceServer.{method}")
            assert ROLE_EVENT_LOOP in model.roles_of(fn), method
        # The loop calls the reader's protocol callbacks itself, and the
        # helpers they call inline inherit the role.
        for method in (
            "get_buffer",
            "buffer_updated",
            "eof_received",
            "connection_lost",
            "_push",
            "_fail",
            "_serve",
            "_answer",
        ):
            fn = fn_named(project, f"_FrameReader.{method}")
            assert model.roles_of(fn) == {ROLE_EVENT_LOOP}, method

    def test_only_asyncio_protocols_have_loop_callbacks(self):
        project = service_project()
        callbacks = {
            fn.qualname
            for fn in protocol_callbacks(project, list(project.classes))
        }
        assert callbacks == {
            f"aio.py:_FrameReader.{name}"
            for name in (
                "connection_made",
                "get_buffer",
                "buffer_updated",
                "eof_received",
                "connection_lost",
                "pause_writing",
                "resume_writing",
            )
        }

    def test_offloaded_callees_carry_the_thread_role(self):
        # self._blocking(self.service.stats) crosses the role boundary:
        # the engine's stats/snapshot/ingest paths run on executor
        # threads, not on the loop.
        project = service_project()
        model = async_model(project)
        for method in ("stats", "snapshot", "ingest"):
            fn = fn_named(project, f"QuantileService.{method}")
            assert ROLE_THREAD in model.roles_of(fn), method

    def test_the_offload_summary_is_transitive(self):
        # _blocking's summary records that its `fn` parameter is handed
        # to run_in_executor — the seed every thread role flows from.
        project = service_project()
        blocking = fn_named(project, "AsyncServiceServer._blocking")
        summary = project.summaries().summary_of(blocking)
        assert "fn" in summary.offloads_params


class TestDerivedInvariants:
    def test_the_event_loop_never_blocks(self):
        """The marquee fact: no coroutine and no protocol callback in the
        service calls blocking synchronous code inline — except the one
        documented inline answer path (the lock-free quantile read),
        which carries its suppression in the source."""
        project = service_project()
        classes = list(project.classes)
        resolver = _Resolver(project, classes)
        loop_code = [
            fn
            for cls in classes
            for fn in cls.methods.values()
            if isinstance(fn.node, ast.AsyncFunctionDef)
        ] + protocol_callbacks(project, classes)
        offenders = []
        for fn in loop_code:
            for call, why in blocking_reasons(project, resolver, fn):
                offenders.append((fn.qualname, call.lineno, why))
        assert len(offenders) == 1, offenders
        qualname, _, why = offenders[0]
        assert qualname == "aio.py:AsyncServiceServer._handle"
        # ... and that one site is the suppressed _answer_quantiles
        # call, acknowledged in the source as the documented exception.
        assert "_answer_quantiles" in why

    def test_no_threading_lock_spans_a_suspension(self):
        """Second derived fact: the must-held threading-lock set is
        empty at every suspension point of every service coroutine."""
        from repro.analysis.dataflow import (
            ThreadLockTracker,
            iter_ops_with_facts,
        )

        project = service_project()
        for cls in project.classes:
            for fn in cls.methods.values():
                if not isinstance(fn.node, ast.AsyncFunctionDef):
                    continue
                cfg = project.cfg(fn)
                for op, held in iter_ops_with_facts(
                    cfg, ThreadLockTracker()
                ):
                    assert not (op.suspends and held), (
                        fn.qualname,
                        getattr(op.node, "lineno", None),
                        held,
                    )

    def test_deep_lint_is_clean_over_the_service(self):
        result = lint_paths(
            [SERVICE],
            select=["OPQ771", "OPQ772", "OPQ773", "OPQ774"],
            deep=True,
        )
        assert result.findings == [], result.findings


class TestResolutionPrecision:
    """The precision bits that keep OPQ771 quiet on external receivers."""

    def test_annotated_field_resolves_precisely(self):
        project = service_project()
        handle = fn_named(project, "AsyncServiceServer._handle")
        resolver = _Resolver(project, list(project.classes))
        candidates, precise = resolver.resolve(handle, "self.service.stats")
        assert precise
        assert [c.qualname for c in candidates] == [
            "engine.py:QuantileService.stats"
        ]

    def test_external_receiver_is_precisely_empty(self):
        # self._transport: asyncio.Transport — a known type outside the
        # project: precise and empty means "out of judgement", not
        # "every close() in the repo might run".
        project = service_project()
        serve = fn_named(project, "_FrameReader._serve")
        resolver = _Resolver(project, list(project.classes))
        candidates, precise = resolver.resolve(serve, "self._transport.close")
        assert precise
        assert candidates == []

    def test_scoped_items_matches_rule_scope(self):
        from repro.analysis.rules_async import BlockingCallInCoroutineRule

        project = service_project()
        classes, functions, _ = _scoped_items(
            BlockingCallInCoroutineRule(), project
        )
        assert {c.name for c in classes} >= {
            "AsyncServiceServer",
            "QuantileService",
        }
        scoped_modules = {id(c.module) for c in classes}
        assert all(id(fn.module) in scoped_modules for fn in functions)
