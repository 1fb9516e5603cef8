"""Function summaries: seeded effects, transitive propagation through
the call graph, and fixpoint convergence on call-graph cycles."""

import textwrap

from repro.analysis import build_project
from repro.analysis.runner import parse_module
from repro.analysis.summaries import qualified_lock


def project_of(source: str):
    return build_project([parse_module(textwrap.dedent(source))])


def fn_named(project, name):
    for fn in project.iter_functions():
        if fn.qualname.split(":")[-1] == name:
            return fn
    raise AssertionError(f"no function named {name}")


class TestSeededEffects:
    def test_direct_iteration_consumes_the_parameter(self):
        project = project_of(
            """
            def eat(items):
                for item in items:
                    pass
            """
        )
        index = project.summaries()
        assert "items" in index.summary_of(fn_named(project, "eat")).consumes_params

    def test_release_methods_and_unlink_are_kind_aware(self):
        project = project_of(
            """
            def put_back(handle):
                handle.close()

            def destroy(segment):
                segment.unlink()
            """
        )
        index = project.summaries()
        put_back = index.summary_of(fn_named(project, "put_back"))
        destroy = index.summary_of(fn_named(project, "destroy"))
        assert "handle" in put_back.releases_params
        assert "handle" not in put_back.unlinks_params  # close != unlink
        assert "segment" in destroy.releases_params
        assert "segment" in destroy.unlinks_params

    def test_storing_and_returning_escape_the_parameter(self):
        project = project_of(
            """
            _KEEP = []

            def stash(handle):
                _KEEP.append(handle)
                _KEEP[0] = handle

            def hand_back(handle):
                return handle
            """
        )
        index = project.summaries()
        assert "handle" in index.summary_of(fn_named(project, "stash")).escapes_params
        assert (
            "handle"
            in index.summary_of(fn_named(project, "hand_back")).escapes_params
        )

    def test_lock_acquisition_and_unbounded_blocking_are_recorded(self):
        project = project_of(
            """
            import threading

            _swap_lock = threading.Lock()

            def swap(q):
                with _swap_lock:
                    pass
                q.get()
            """
        )
        index = project.summaries()
        summary = index.summary_of(fn_named(project, "swap"))
        assert any(name.endswith("_swap_lock") for name in summary.acquires_locks)
        assert any("q.get()" in site for site in summary.blocking_calls)


class TestTransitivePropagation:
    def test_forwarding_to_a_consumer_consumes(self):
        project = project_of(
            """
            def eat(items):
                for item in items:
                    pass

            def outer(stream):
                eat(stream)
            """
        )
        index = project.summaries()
        assert (
            "stream" in index.summary_of(fn_named(project, "outer")).consumes_params
        )

    def test_release_and_unlink_flow_through_helpers(self):
        project = project_of(
            """
            def _quietly(segment):
                segment.unlink()

            def dispose(segment):
                _quietly(segment)
            """
        )
        index = project.summaries()
        dispose = index.summary_of(fn_named(project, "dispose"))
        assert "segment" in dispose.releases_params
        assert "segment" in dispose.unlinks_params

    def test_locks_and_blocking_flow_up_without_bindings(self):
        project = project_of(
            """
            import threading

            _state_lock = threading.Lock()

            def _inner(q):
                with _state_lock:
                    q.wait()

            def outer(q):
                _inner(q)
            """
        )
        index = project.summaries()
        outer = index.summary_of(fn_named(project, "outer"))
        assert any(n.endswith("_state_lock") for n in outer.acquires_locks)
        assert outer.blocking_calls


class TestFixpointOnCycles:
    def test_mutual_recursion_converges_and_propagates(self):
        # ping <-> pong form a call-graph cycle; the grow-only summaries
        # must reach a fixpoint (termination IS the assertion) with the
        # consume fact visible from both entry points.
        project = project_of(
            """
            def ping(stream, n):
                if n:
                    pong(stream, n - 1)
                for item in stream:
                    pass

            def pong(stream, n):
                ping(stream, n)
            """
        )
        index = project.summaries()
        for name in ("ping", "pong"):
            assert (
                "stream"
                in index.summary_of(fn_named(project, name)).consumes_params
            ), name

    def test_self_recursion_converges(self):
        project = project_of(
            """
            def drain(stream):
                for item in stream:
                    drain(stream)
            """
        )
        index = project.summaries()
        assert (
            "stream" in index.summary_of(fn_named(project, "drain")).consumes_params
        )


class TestVerdicts:
    def test_consumption_verdict_contract(self):
        # True: resolved consuming candidate; False: every candidate
        # resolved and none consumes; None: unknown callee.
        import ast

        project = project_of(
            """
            def eat(items):
                for item in items:
                    pass

            def count(items):
                return 0

            def caller(stream):
                eat(stream)
                count(stream)
                mystery(stream)
            """
        )
        index = project.summaries()
        caller = fn_named(project, "caller")
        calls = {
            node.func.id: node
            for node in ast.walk(caller.node)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert index.consumption_verdict(
            caller, "eat", "stream", calls["eat"]
        )[0] is True
        assert index.consumption_verdict(
            caller, "count", "stream", calls["count"]
        )[0] is False
        assert index.consumption_verdict(
            caller, "mystery", "stream", calls["mystery"]
        )[0] is None

    def test_qualified_lock_spellings(self):
        project = project_of(
            """
            import threading

            class Snapshotter:
                def __init__(self):
                    self._lock = threading.Lock()

                def swap(self):
                    with self._lock:
                        pass
            """
        )
        swap = fn_named(project, "Snapshotter.swap")
        assert qualified_lock("self._lock", swap) == "Snapshotter._lock"
        assert qualified_lock("_g_lock", swap).endswith(".py:_g_lock")


class TestResolution:
    def test_a_module_imported_from_outside_resolves_to_nothing(self):
        project = project_of(
            """
            import os
            from concurrent import futures

            class Store:
                def close(self):
                    os.close(3)
                    futures.wait([])

            def shadowed(os):
                os.close()

            def rebound():
                os = Store()
                os.close()
            """
        )
        index = project.summaries()
        close = fn_named(project, "Store.close")
        assert index.resolve(close, "os.close") == []
        assert index.resolve(close, "futures.wait") == []
        # An untyped receiver still resolves to every project close().
        assert index.resolve(close, "peer.close") == [close]
        # A parameter or local named like the import shadows it.
        assert index.resolve(fn_named(project, "shadowed"), "os.close") == [close]
        assert index.resolve(fn_named(project, "rebound"), "os.close") == [close]

    def test_an_alias_of_a_project_module_keeps_the_fallback(self):
        project = build_project(
            [
                parse_module(
                    textwrap.dedent(
                        """
                        import helpers

                        class Store:
                            def close(self):
                                helpers.close()
                        """
                    ),
                    name="store.py",
                ),
                parse_module("def close():\n    pass\n", name="helpers.py"),
            ]
        )
        close = fn_named(project, "Store.close")
        assert project.summaries().resolve(close, "helpers.close") == [close]
