"""Function summaries: the interprocedural layer of opaqlint v3.

The PR-4 engine judged one function at a time; call edges were handled
by an ad-hoc oracle (OPQ802's "does the callee iterate its parameter?")
that deliberately looked one level deep.  This module replaces that with
a real bottom-up pass over the :class:`~repro.analysis.project.ProjectContext`
call graph: every function gets a :class:`FunctionSummary` describing
the effects a caller can observe through a call edge —

- ``consumes_params``: parameters the function exhausts as single-pass
  streams (directly or through its own callees),
- ``releases_params``: parameters it releases (``close``/``unlink``/
  ``__exit__``, directly or transitively),
- ``escapes_params``: parameters it stores into fields/containers,
  returns, or yields — ownership leaves the call,
- ``acquires_locks``: qualified lock names the function may acquire,
  including through callees (the deadlock family's edge source),
- ``blocking_calls``: unbounded blocking call sites (``get``/``wait``/
  ``join``/``acquire`` with no timeout) reachable from the function,
- ``offloads_params``: parameters handed to a worker thread via
  ``asyncio.to_thread``/``run_in_executor`` (the async family's role
  boundary), directly or transitively.

Summaries are computed by worklist fixpoint.  Every field is a set that
only ever grows and the universe (parameter names, lock names, call
sites in the program text) is finite, so the iteration is monotone and
converges even on call-graph cycles — mutual recursion terminates with
the least fixpoint instead of hanging, which the summary tests pin.

Call resolution is name-based and conservative like the rest of the
engine, with one precision upgrade over the old oracle: ``self.f.m(...)``
resolves through :attr:`~repro.analysis.project.ClassInfo.field_types`
when ``__init__`` recorded ``self.f = Ctor(...)``, so
``self._snapshotter.run_epoch()`` finds ``Snapshotter.run_epoch`` rather
than every ``run_epoch`` in the project.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.dataflow import lock_names_of
from repro.analysis.framework import dotted_name
from repro.analysis.project import FunctionInfo, ProjectContext

__all__ = [
    "FunctionSummary",
    "SummaryIndex",
    "offload_callable",
    "param_names",
    "matched_param",
    "qualified_lock",
    "unbounded_blocking_attr",
    "RELEASE_METHODS",
    "EXHAUSTING_BUILTINS",
]

#: Method calls on a resource that end its lifetime from the caller's
#: point of view.
RELEASE_METHODS = frozenset({"close", "unlink", "__exit__", "shutdown"})

#: Builtins that exhaust an iterable argument (shared with the one-pass
#: family; kept here so the seed and the rule agree on the list).
EXHAUSTING_BUILTINS = frozenset(
    {
        "list",
        "tuple",
        "set",
        "frozenset",
        "sorted",
        "sum",
        "max",
        "min",
        "any",
        "all",
        "enumerate",
        "zip",
        "iter",
    }
)

#: Blocking primitives that accept ``timeout=`` and block forever
#: without one (the OPQ404/OPQ752 call shape).
_BLOCKING_ATTRS = frozenset({"get", "wait", "join", "acquire"})


def unbounded_blocking_attr(call: ast.Call) -> str | None:
    """The blocking attribute name when ``call`` blocks without a bound.

    Matches the OPQ404 shape: a zero-positional-argument attribute call
    on ``get``/``wait``/``join``/``acquire`` with no ``timeout=`` keyword.
    ``dict.get(key)``, ``"".join(seq)`` and ``worker.join(5.0)`` all pass
    positional arguments and return ``None`` here.
    """
    if not (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in _BLOCKING_ATTRS
    ):
        return None
    if call.args:
        return None
    if any(kw.arg == "timeout" for kw in call.keywords):
        return None
    return call.func.attr


def offload_callable(call: ast.Call) -> ast.expr | None:
    """The callable ``call`` ships off the event loop, if it is one.

    Recognises the two asyncio thread-handoff primitives:
    ``asyncio.to_thread(fn, ...)`` (first positional argument) and
    ``loop.run_in_executor(executor, fn, ...)`` (second).  The returned
    expression runs in a worker thread — the role boundary of the
    OPQ77x coroutine model.
    """
    callee = dotted_name(call.func)
    if callee is None:
        return None
    last = callee.rsplit(".", 1)[-1]
    if last == "to_thread" and call.args:
        return call.args[0]
    if last == "run_in_executor" and len(call.args) >= 2:
        return call.args[1]
    return None


def param_names(fn: FunctionInfo) -> list[str]:
    """Positional parameter names of ``fn``, minus ``self``/``cls``."""
    args = fn.node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if fn.is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def matched_param(
    fn: FunctionInfo, name: str, call: ast.Call
) -> str | None:
    """The parameter of ``fn`` that ``name`` binds to at ``call``."""
    params = param_names(fn)
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Name) and arg.id == name:
            if index < len(params):
                return params[index]
            return None
    for kw in call.keywords:
        if (
            kw.arg is not None
            and isinstance(kw.value, ast.Name)
            and kw.value.id == name
        ):
            return kw.arg if kw.arg in params else None
    return None


def qualified_lock(name: str, fn: FunctionInfo) -> str:
    """Project-unique spelling of a lock's dotted name.

    ``self._lock`` inside a method of ``Snapshotter`` becomes
    ``Snapshotter._lock`` — the *class* owns the lock object, so two
    methods naming ``self._lock`` acquire the same node of the lock-order
    graph.  Anything else is qualified by the defining module
    (``engine.py:_GLOBAL_LOCK``).
    """
    if name.startswith("self."):
        owner = fn.class_name or fn.module.path.stem
        return f"{owner}.{name[len('self.'):]}"
    return f"{fn.module.path.stem}.py:{name}"


@dataclass
class FunctionSummary:
    """Caller-observable effects of one function (grow-only sets)."""

    fn: FunctionInfo
    consumes_params: set[str] = field(default_factory=set)
    releases_params: set[str] = field(default_factory=set)
    #: Subset of interest to the resource family: parameters the function
    #: calls ``unlink()`` on (transitively).  A *created* SharedMemory
    #: segment is only released by ``unlink``; ``close`` merely detaches,
    #: so the kind-aware kill needs the distinction.
    unlinks_params: set[str] = field(default_factory=set)
    escapes_params: set[str] = field(default_factory=set)
    acquires_locks: set[str] = field(default_factory=set)
    #: Human-readable sites: ``"queue.get() at shard.py:92"``.
    blocking_calls: set[str] = field(default_factory=set)
    #: Parameters the function hands to a worker thread — directly via
    #: ``asyncio.to_thread``/``run_in_executor``, or by passing them on
    #: to a callee that does.  A callable argument bound to one of these
    #: runs in the thread role, not the caller's (the async family's
    #: role boundary: ``AsyncServiceServer._blocking`` offloads ``fn``).
    offloads_params: set[str] = field(default_factory=set)

    def snapshot(self) -> tuple[frozenset[str], ...]:
        """Immutable view used to detect fixpoint convergence."""
        return (
            frozenset(self.consumes_params),
            frozenset(self.releases_params),
            frozenset(self.unlinks_params),
            frozenset(self.escapes_params),
            frozenset(self.acquires_locks),
            frozenset(self.blocking_calls),
            frozenset(self.offloads_params),
        )


@dataclass(frozen=True)
class _Edge:
    """One resolved call edge with the caller-side argument bindings."""

    caller: FunctionInfo
    callee: FunctionInfo
    #: caller parameter name -> callee parameter name, for bare-name
    #: arguments that are themselves parameters of the caller.
    bindings: tuple[tuple[str, str], ...]


class SummaryIndex:
    """Bottom-up function summaries over one project's call graph."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self._summaries: dict[int, FunctionSummary] = {}
        self._functions: list[FunctionInfo] = list(project.iter_functions())
        self._resolve_cache: dict[tuple[int, str], tuple[FunctionInfo, ...]] = {}
        for fn in self._functions:
            self._summaries[id(fn.node)] = self._seed(fn)
        edges = self._build_edges()
        self._fixpoint(edges)

    # -- public queries ------------------------------------------------

    def summary_of(self, fn: FunctionInfo) -> FunctionSummary:
        """The summary of one indexed function."""
        return self._summaries[id(fn.node)]

    def resolve(
        self, caller: FunctionInfo | None, callee: str
    ) -> list[FunctionInfo]:
        """Candidate targets for a dotted callee name, conservatively.

        Bare names resolve to module-level functions; ``self.m`` to the
        caller's own class (falling back to every method named ``m``);
        ``self.f.m`` through the field's recorded constructor type; a
        call through an import alias of a module outside the project
        (``os.close``) to nothing; anything else to every method with
        the final name.
        """
        key = (id(caller.node) if caller is not None else 0, callee)
        if key not in self._resolve_cache:
            self._resolve_cache[key] = tuple(self._resolve(caller, callee))
        return list(self._resolve_cache[key])

    def consumption_verdict(
        self,
        caller: FunctionInfo | None,
        callee: str | None,
        name: str,
        call: ast.Call,
    ) -> tuple[bool | None, FunctionInfo | None]:
        """Does passing ``name`` into ``call`` consume the stream?

        ``(True, candidate)`` when a resolved candidate's matched
        parameter is in its (transitive) consume set; ``(False, None)``
        when every candidate resolved and none consumes; ``(None, None)``
        when the callee is unknown.
        """
        if callee is None:
            return None, None
        candidates = self.resolve(caller, callee)
        if not candidates:
            return None, None
        for candidate in candidates:
            param = matched_param(candidate, name, call)
            if (
                param is not None
                and param in self.summary_of(candidate).consumes_params
            ):
                return True, candidate
        return False, None

    def releases_argument(
        self,
        caller: FunctionInfo | None,
        callee: str | None,
        name: str,
        call: ast.Call,
    ) -> bool:
        """True when *every* resolved candidate releases the argument.

        Used as a kill fact by the resource family, so it must hold on
        all possible targets; an unknown callee keeps the resource live.
        """
        if callee is None:
            return False
        candidates = self.resolve(caller, callee)
        if not candidates:
            return False
        for candidate in candidates:
            param = matched_param(candidate, name, call)
            if (
                param is None
                or param not in self.summary_of(candidate).releases_params
            ):
                return False
        return True

    def escapes_argument(
        self,
        caller: FunctionInfo | None,
        callee: str | None,
        name: str,
        call: ast.Call,
    ) -> bool:
        """True when *some* resolved candidate lets the argument escape."""
        if callee is None:
            return False
        for candidate in self.resolve(caller, callee):
            param = matched_param(candidate, name, call)
            if (
                param is not None
                and param in self.summary_of(candidate).escapes_params
            ):
                return True
        return False

    # -- resolution ----------------------------------------------------

    def _resolve(
        self, caller: FunctionInfo | None, callee: str
    ) -> list[FunctionInfo]:
        parts = callee.split(".")
        if len(parts) == 1:
            return self.project.functions_named(parts[0])
        if parts[0] == "self" and caller is not None and caller.is_method:
            own = self._own_class_method(caller, parts)
            if own is not None:
                return own
        if caller is not None and self.project.external_alias(caller, parts[0]):
            return []
        return self.project.methods_named(parts[-1])

    def _own_class_method(
        self, caller: FunctionInfo, parts: list[str]
    ) -> list[FunctionInfo] | None:
        """Resolve ``self.m`` / ``self.f.m`` inside the caller's class."""
        cls = next(
            (
                c
                for c in self.project.class_named(caller.class_name or "")
                if c.module is caller.module
            ),
            None,
        )
        if cls is None:
            return None
        if len(parts) == 2:
            method = cls.methods.get(parts[1])
            return [method] if method is not None else None
        if len(parts) == 3:
            ctor = cls.field_types.get(parts[1])
            if ctor is not None:
                targets = [
                    m
                    for owner in self.project.class_named(
                        ctor.rsplit(".", 1)[-1]
                    )
                    if (m := owner.methods.get(parts[2])) is not None
                ]
                if targets:
                    return targets
        return None

    # -- seeds ---------------------------------------------------------

    def _seed(self, fn: FunctionInfo) -> FunctionSummary:
        summary = FunctionSummary(fn=fn)
        params = set(param_names(fn))
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if isinstance(node.iter, ast.Name) and node.iter.id in params:
                    summary.consumes_params.add(node.iter.id)
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
            ):
                for gen in node.generators:
                    if (
                        isinstance(gen.iter, ast.Name)
                        and gen.iter.id in params
                    ):
                        summary.consumes_params.add(gen.iter.id)
            elif isinstance(node, ast.Call):
                self._seed_call(node, params, summary)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                self._seed_with(node, fn, params, summary)
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                for name in _bare_names_of(node.value):
                    if name in params:
                        summary.escapes_params.add(name)
            elif isinstance(node, ast.Assign):
                self._seed_store(node.targets, node.value, params, summary)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._seed_store([node.target], node.value, params, summary)
        return summary

    def _seed_call(
        self, call: ast.Call, params: set[str], summary: FunctionSummary
    ) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            receiver = func.value.id
            if receiver in params:
                if func.attr == "runs":
                    summary.consumes_params.add(receiver)
                if func.attr in RELEASE_METHODS:
                    summary.releases_params.add(receiver)
                if func.attr == "unlink":
                    summary.unlinks_params.add(receiver)
        callee = dotted_name(func)
        if callee in EXHAUSTING_BUILTINS:
            for arg in call.args:
                if isinstance(arg, ast.Name) and arg.id in params:
                    summary.consumes_params.add(arg.id)
        offloaded = offload_callable(call)
        if (
            isinstance(offloaded, ast.Name)
            and offloaded.id in params
        ):
            summary.offloads_params.add(offloaded.id)
        attr = unbounded_blocking_attr(call)
        if attr is not None:
            receiver_name = dotted_name(func) or attr
            summary.blocking_calls.add(
                f"{receiver_name}() at "
                f"{summary.fn.module.path.name}:{call.lineno}"
            )

    def _seed_with(
        self,
        node: ast.With | ast.AsyncWith,
        fn: FunctionInfo,
        params: set[str],
        summary: FunctionSummary,
    ) -> None:
        # Lock acquisitions: qualified so the lock-order graph joins
        # the same lock across methods and modules.
        for name in lock_names_of(node):
            summary.acquires_locks.add(qualified_lock(name, fn))
        # `with p:` on a parameter releases it on block exit.
        for item in node.items:
            if (
                isinstance(item.context_expr, ast.Name)
                and item.context_expr.id in params
            ):
                summary.releases_params.add(item.context_expr.id)

    def _seed_store(
        self,
        targets: list[ast.expr],
        value: ast.expr,
        params: set[str],
        summary: FunctionSummary,
    ) -> None:
        stored = {name for name in _bare_names_of(value) if name in params}
        if not stored:
            return
        for target in targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                summary.escapes_params.update(stored)

    # -- propagation ---------------------------------------------------

    def _build_edges(self) -> dict[int, list[_Edge]]:
        """callee id(node) -> edges into it (for worklist re-processing)."""
        by_callee: dict[int, list[_Edge]] = {}
        for fn in self._functions:
            params = set(param_names(fn))
            for site in fn.calls:
                for candidate in self.resolve(fn, site.callee):
                    if id(candidate.node) not in self._summaries:
                        continue
                    bindings: list[tuple[str, str]] = []
                    for name in params:
                        target = matched_param(candidate, name, site.node)
                        if target is not None:
                            bindings.append((name, target))
                    edge = _Edge(
                        caller=fn,
                        callee=candidate,
                        bindings=tuple(bindings),
                    )
                    by_callee.setdefault(id(candidate.node), []).append(edge)
        return by_callee

    def _fixpoint(self, edges_by_callee: dict[int, list[_Edge]]) -> None:
        worklist = list(self._functions)
        in_list = {id(fn.node) for fn in worklist}
        while worklist:
            fn = worklist.pop()
            in_list.discard(id(fn.node))
            before = self.summary_of(fn).snapshot()
            self._absorb_callees(fn)
            if self.summary_of(fn).snapshot() == before:
                continue
            # fn's summary grew: every caller may now observe more.
            for edge in edges_by_callee.get(id(fn.node), []):
                caller_key = id(edge.caller.node)
                if caller_key not in in_list:
                    in_list.add(caller_key)
                    worklist.append(edge.caller)

    def _absorb_callees(self, fn: FunctionInfo) -> None:
        summary = self.summary_of(fn)
        params = set(param_names(fn))
        for site in fn.calls:
            for candidate in self.resolve(fn, site.callee):
                callee_summary = self._summaries.get(id(candidate.node))
                if callee_summary is None:
                    continue
                summary.acquires_locks |= callee_summary.acquires_locks
                summary.blocking_calls |= callee_summary.blocking_calls
                for name in params:
                    target = matched_param(candidate, name, site.node)
                    if target is None:
                        continue
                    if target in callee_summary.consumes_params:
                        summary.consumes_params.add(name)
                    if target in callee_summary.releases_params:
                        summary.releases_params.add(name)
                    if target in callee_summary.unlinks_params:
                        summary.unlinks_params.add(name)
                    if target in callee_summary.escapes_params:
                        summary.escapes_params.add(name)
                    if target in callee_summary.offloads_params:
                        summary.offloads_params.add(name)


def _bare_names_of(value: ast.expr | None) -> list[str]:
    """Names a value expression hands over *as whole objects*.

    ``return p`` and ``return (p, q)`` pass ownership; ``return len(p)``
    does not.  Only the value itself and the elements of literal
    tuples/lists/sets/dicts count — a deliberate precision choice so a
    returned *property of* a resource is not mistaken for the resource.
    """
    if value is None:
        return []
    names: list[str] = []
    stack: list[ast.expr] = [value]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Dict):
            stack.extend(v for v in node.values if v is not None)
        elif isinstance(node, ast.Yield) and node.value is not None:
            stack.append(node.value)
    return names
