"""Rule family 77x (OPQ77x): asyncio-aware concurrency discipline.

PR 7 moved the serving hot path onto an asyncio server
(``service/aio.py``); the thread family (OPQ70x) cannot see its two
failure modes, because neither involves a second thread:

* **A blocked event loop.**  One coroutine calling into synchronous code
  that sleeps, does file I/O, or takes a contended lock stalls *every*
  connection, not just its own — the loop cannot run other tasks until
  the call returns.  ``docs/service.md`` promises the loop only ever
  executes lock-free snapshot reads inline; everything else crosses to a
  worker thread via ``asyncio.wait_for(run_in_executor(...))``.
* **A lock held across a suspension.**  ``await`` hands control to the
  loop, which may run arbitrary other tasks; a ``threading.Lock`` still
  held at that point blocks any of them (or any real thread) that
  contends for it — and unlike a plain critical section, the hold time
  is unbounded because it spans foreign work.

The model mirrors the thread family's shape, with coroutines as the
seed:

1. **Coroutine roles.**  Every ``async def``, every callback method of
   an ``asyncio.Protocol``/``BufferedProtocol`` subclass (the loop calls
   ``get_buffer``, ``buffer_updated``, ``eof_received`` and the rest
   itself), and every sync function either calls directly — not through
   a stored callback or a lambda — runs in the ``event-loop`` role.
   ``threading.Thread(target=...)`` targets and callables handed to
   ``asyncio.to_thread``/``run_in_executor`` — directly or through a
   callee whose summary *offloads* the parameter, like
   ``AsyncServiceServer._blocking`` — run in the ``thread`` role.  The
   offload boundary is exactly where a call chain stops being the
   loop's problem.
2. **Judgement.**  OPQ771 flags calls a coroutine or a protocol
   callback makes into blocking synchronous code; OPQ772 runs the
   sync-lock must-analysis over the new suspension-point ops; OPQ773
   catches the classic dropped coroutine object; OPQ774 is the asyncio
   half of OPQ701 — state written by both roles needs a loop-safe
   handoff.

Call resolution here carries a precision bit: receivers whose type is
known (``self.m``, ``self.f.m`` with a recorded field type, annotated
parameters) resolve *precisely* — an empty result then means "external
code, out of judgement".  Unknown receivers fall back to every scoped
method with the bare name, and a finding is only issued when **all**
such candidates agree it would block — the conservative-may bias of the
thread rules would drown this family in false positives (every
``writer.close()`` resolving to every ``close`` in the service).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.dataflow import ThreadLockTracker, iter_ops_with_facts
from repro.analysis.framework import Finding, ProjectRule, dotted_name
from repro.analysis.project import (
    ClassInfo,
    FunctionInfo,
    ProjectContext,
    annotation_type,
)
from repro.analysis.registry import register
from repro.analysis.rules_threads import (
    _CONSTRUCTION_METHODS,
    ROLE_EVENT_LOOP,
    ROLE_THREAD,
    ClassThreadModel,
    FieldAccess,
    _accesses_of_op,
    _thread_target,
)
from repro.analysis.summaries import offload_callable, param_names

__all__ = [
    "AsyncModel",
    "build_async_model",
    "protocol_callbacks",
    "serving_roles",
    "BlockingCallInCoroutineRule",
    "LockAcrossAwaitRule",
    "UnawaitedCoroutineRule",
    "CrossRoleWriteRule",
    "ROLE_EVENT_LOOP",
    "ROLE_THREAD",
]

#: Dotted names that block the calling thread outright.
_SLEEP_CALLS = {"time.sleep"}

#: asyncio's stream protocol classes (``typing.Protocol`` is not one).
_PROTOCOL_BASES = {"asyncio.Protocol", "asyncio.BufferedProtocol"}

#: The methods the event loop itself calls on a protocol instance.
_PROTOCOL_CALLBACKS = (
    "connection_made",
    "connection_lost",
    "pause_writing",
    "resume_writing",
    "data_received",
    "eof_received",
    "get_buffer",
    "buffer_updated",
)


def _is_coroutine_fn(fn: FunctionInfo) -> bool:
    return isinstance(fn.node, ast.AsyncFunctionDef)


def protocol_callbacks(
    project: ProjectContext, classes: list[ClassInfo]
) -> list[FunctionInfo]:
    """The protocol callback methods defined by ``classes``.

    A class qualifies when a base, with the module's import aliases
    resolved, names one of asyncio's protocol classes.  The loop calls
    these methods inline, so they are as much the loop's code as a
    coroutine is.
    """
    found: list[FunctionInfo] = []
    for cls in classes:
        aliases = project.aliases.get(str(cls.module.path), {})
        bases: set[str] = set()
        for base in cls.bases:
            head, _, rest = base.partition(".")
            resolved = aliases.get(head, head)
            bases.add(f"{resolved}.{rest}" if rest else resolved)
        if bases & _PROTOCOL_BASES:
            found.extend(
                cls.methods[name]
                for name in _PROTOCOL_CALLBACKS
                if name in cls.methods
            )
    return found


def _direct_call_ids(fn: FunctionInfo) -> set[int]:
    """ids of call nodes executed *by this function's own body*.

    Calls inside a nested ``def`` or a ``lambda`` are excluded: defining
    a callback does not run it, and the loop-role judgement must not
    charge the loop for work that executes elsewhere (the lambdas handed
    to ``self._blocking`` run on the executor).
    """
    nested: set[int] = set()
    for node in ast.walk(fn.node):
        if node is fn.node:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    nested.add(id(sub))
    return {id(site.node) for site in fn.calls} - nested


def _awaited_call_ids(fn: FunctionInfo) -> set[int]:
    """ids of call nodes that are the direct operand of an ``await``."""
    return {
        id(node.value)
        for node in ast.walk(fn.node)
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call)
    }


class _Resolver:
    """Scoped call resolution with a precision verdict.

    ``resolve`` returns ``(candidates, precise)``.  ``precise`` means the
    receiver's type was known (own class, recorded field type, annotated
    parameter) — an empty candidate list is then a *positive* statement
    that the target lives outside the analysed scope.  Imprecise results
    are bare-name guesses over every scoped method; callers must demand
    unanimity before judging on them.
    """

    def __init__(self, project: ProjectContext, classes: list[ClassInfo]) -> None:
        self.project = project
        self.by_class: dict[str, ClassInfo] = {c.name: c for c in classes}
        self.scoped_methods: dict[str, list[FunctionInfo]] = {}
        self.scoped_functions: dict[str, list[FunctionInfo]] = {}
        scoped_modules = {id(c.module) for c in classes}
        for cls in classes:
            for name, method in cls.methods.items():
                self.scoped_methods.setdefault(name, []).append(method)
        for fn in project.functions:
            if id(fn.module) in scoped_modules:
                self.scoped_functions.setdefault(fn.name, []).append(fn)

    def resolve(
        self, caller: FunctionInfo, name: str
    ) -> tuple[list[FunctionInfo], bool]:
        parts = name.split(".")
        if len(parts) == 1:
            return list(self.scoped_functions.get(parts[0], [])), True
        attr = parts[-1]
        if parts[0] == "self" and caller.class_name is not None:
            cls = self.by_class.get(caller.class_name)
            if cls is not None:
                if len(parts) == 2:
                    method = cls.methods.get(attr)
                    return ([method] if method is not None else []), True
                if len(parts) == 3:
                    declared = cls.field_types.get(parts[1])
                    if declared is not None:
                        return self._methods_of_type(declared, attr), True
        if len(parts) == 2:
            declared = self._param_annotation(caller, parts[0])
            if declared is not None:
                return self._methods_of_type(declared, attr), True
        return list(self.scoped_methods.get(attr, [])), False

    def _methods_of_type(self, declared: str, attr: str) -> list[FunctionInfo]:
        cls = self.by_class.get(declared.rsplit(".", 1)[-1])
        if cls is None:
            return []
        method = cls.methods.get(attr)
        return [method] if method is not None else []

    @staticmethod
    def _param_annotation(caller: FunctionInfo, name: str) -> str | None:
        args = caller.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg == name:
                return annotation_type(arg.annotation)
        return None


@dataclass(eq=False)
class AsyncModel:
    """The project's derived coroutine/thread role model."""

    #: class name -> per-class model (roles are async roles here:
    #: subsets of {event-loop, thread}, possibly empty for code neither
    #: side reaches).
    classes: dict[str, ClassThreadModel] = field(default_factory=dict)
    #: every scoped coroutine definition.
    coroutines: list[FunctionInfo] = field(default_factory=list)
    #: function -> async roles (identity-keyed via FunctionInfo).
    roles: dict[FunctionInfo, frozenset[str]] = field(default_factory=dict)

    def roles_of(self, fn: FunctionInfo) -> frozenset[str]:
        return self.roles.get(fn, frozenset())


class _AsyncRoleInference:
    """Seeds and propagates event-loop/thread roles over call edges."""

    def __init__(
        self,
        project: ProjectContext,
        classes: list[ClassInfo],
        resolver: _Resolver,
        thread_targets: bool = True,
    ) -> None:
        self.project = project
        self.classes = classes
        self.resolver = resolver
        #: Whether ``Thread(target=...)`` targets seed the thread role.
        self.thread_targets = thread_targets
        self.roles: dict[FunctionInfo, set[str]] = {}
        scoped_modules = {id(c.module) for c in classes}
        self.scoped_fns: list[FunctionInfo] = [
            fn
            for fn in project.iter_functions()
            if id(fn.module) in scoped_modules
        ]

    def infer(self) -> None:
        summaries = self.project.summaries()
        worklist: list[tuple[FunctionInfo, str]] = []

        def seed(fn: FunctionInfo, role: str) -> None:
            if role not in self.roles.setdefault(fn, set()):
                self.roles[fn].add(role)
                worklist.append((fn, role))

        for fn in protocol_callbacks(self.project, self.classes):
            seed(fn, ROLE_EVENT_LOOP)
        for fn in self.scoped_fns:
            if _is_coroutine_fn(fn):
                seed(fn, ROLE_EVENT_LOOP)
            for site in fn.calls:
                target = _thread_target(site.node) if self.thread_targets else None
                if target is not None:
                    self._seed_callable(fn, target, seed)
                for expr in self._offloaded_args(fn, site, summaries):
                    self._seed_callable(fn, expr, seed)

        while worklist:
            fn, role = worklist.pop()
            sites = (
                _direct_call_ids(fn)
                if role == ROLE_EVENT_LOOP
                else {id(site.node) for site in fn.calls}
            )
            for site in fn.calls:
                if id(site.node) not in sites:
                    continue
                for callee in self.resolver.resolve(fn, site.callee)[0]:
                    if callee.name in _CONSTRUCTION_METHODS:
                        continue
                    seed(callee, role)

    def _offloaded_args(self, fn, site, summaries) -> list[ast.expr]:
        """Argument expressions of ``site`` that will run on a thread."""
        direct = offload_callable(site.node)
        out = [direct] if direct is not None else []
        for candidate in summaries.resolve(fn, site.callee):
            offloads = summaries.summary_of(candidate).offloads_params
            if not offloads:
                continue
            params = param_names(candidate)
            for index, arg in enumerate(site.node.args):
                if index < len(params) and params[index] in offloads:
                    out.append(arg)
            for kw in site.node.keywords:
                if kw.arg in offloads:
                    out.append(kw.value)
        return out

    def _seed_callable(self, fn, expr, seed) -> None:
        """Give ``expr`` (a callable reference or lambda) the thread role."""
        if isinstance(expr, ast.Lambda):
            for sub in ast.walk(expr.body):
                if isinstance(sub, ast.Call):
                    callee = dotted_name(sub.func)
                    if callee is None:
                        continue
                    for target in self.resolver.resolve(fn, callee)[0]:
                        if target.name not in _CONSTRUCTION_METHODS:
                            seed(target, ROLE_THREAD)
            return
        name = dotted_name(expr)
        if name is None:
            return
        for target in self.resolver.resolve(fn, name)[0]:
            if target.name not in _CONSTRUCTION_METHODS:
                seed(target, ROLE_THREAD)


def serving_roles(
    project: ProjectContext, classes: list[ClassInfo]
) -> tuple[dict[FunctionInfo, set[str]], set[FunctionInfo]]:
    """The asyncio server's roles, as the thread family (OPQ70x) sees them.

    The same inference as this family's, without ``Thread(target=...)``
    seeds: the thread family gives each thread target a worker role of
    its own, so only the event loop's code and what it offloads to the
    executor come from here.  Returns the roles and the loop's entry
    points (coroutines and protocol callbacks), which the loop calls,
    not the embedding application.
    """
    inference = _AsyncRoleInference(
        project, classes, _Resolver(project, classes), thread_targets=False
    )
    inference.infer()
    entries = set(protocol_callbacks(project, classes))
    entries.update(fn for fn in inference.scoped_fns if _is_coroutine_fn(fn))
    return inference.roles, entries


def build_async_model(
    project: ProjectContext, classes: list[ClassInfo] | None = None
) -> AsyncModel:
    """Derive coroutine roles and per-class field accesses for ``classes``."""
    chosen = list(project.classes) if classes is None else classes
    resolver = _Resolver(project, chosen)
    inference = _AsyncRoleInference(project, chosen, resolver)
    inference.infer()
    model = AsyncModel()
    for fn in inference.scoped_fns:
        model.roles[fn] = frozenset(inference.roles.get(fn, set()))
        if _is_coroutine_fn(fn):
            model.coroutines.append(fn)
    for cls in chosen:
        cls_model = ClassThreadModel(info=cls)
        for name, method in cls.methods.items():
            roles = model.roles.get(method, frozenset())
            cls_model.roles[name] = roles
            if name in _CONSTRUCTION_METHODS:
                continue
            cfg = project.cfg(method)
            for op, locks in iter_ops_with_facts(cfg, ThreadLockTracker()):
                for access in _accesses_of_op(op):
                    field_name, kind, rmw, node = access
                    cls_model.accesses.setdefault(field_name, []).append(
                        FieldAccess(
                            field=field_name,
                            kind=kind,
                            rmw=rmw,
                            node=node,
                            method=name,
                            roles=roles,
                            locks=locks,
                        )
                    )
        model.classes[cls.name] = cls_model
    return model


def _scoped_items(
    rule: ProjectRule, project: ProjectContext
) -> tuple[list[ClassInfo], list[FunctionInfo], _Resolver]:
    classes = [c for c in project.classes if rule.in_scope(c.module)]
    scoped_modules = {id(c.module) for c in classes}
    functions = [
        fn
        for fn in project.iter_functions()
        if id(fn.module) in scoped_modules
    ]
    return classes, functions, _Resolver(project, classes)


def blocking_reasons(
    project: ProjectContext,
    resolver: _Resolver,
    fn: FunctionInfo,
) -> Iterator[tuple[ast.Call, str]]:
    """(call, why) for each way ``fn``, run by the loop, can block it.

    ``fn`` is a coroutine or a protocol callback.

    Shared between OPQ771 and the async-model test suite, so "the event
    loop never blocks" can be asserted as a derived fact.
    """
    summaries = project.summaries()
    direct = _direct_call_ids(fn)
    awaited = _awaited_call_ids(fn)
    for site in fn.calls:
        call = site.node
        if id(call) not in direct or id(call) in awaited:
            continue
        if site.callee in _SLEEP_CALLS:
            yield call, (
                f"{site.callee}() parks the event loop for its full "
                "duration; use await asyncio.sleep()"
            )
            continue
        if site.callee == "open":
            yield call, (
                "synchronous file I/O on the event loop; run it in a "
                "worker via run_in_executor"
            )
            continue
        shape = _blocking_shape(call)
        if shape is not None:
            yield call, shape
            continue
        candidates, precise = resolver.resolve(fn, site.callee)
        if any(_is_coroutine_fn(c) for c in candidates):
            # A coroutine candidate means this un-awaited call is (at
            # least possibly) constructing a coroutine object — OPQ773's
            # department, and constructing one never blocks.
            continue
        hazards = [
            (c, summaries.summary_of(c))
            for c in candidates
            if summaries.summary_of(c).blocking_calls
            or summaries.summary_of(c).acquires_locks
        ]
        if not hazards:
            continue
        if not precise and len(hazards) < len(candidates):
            # Bare-name guess without unanimity: stay silent rather
            # than charge the loop for a callee it may never run.
            continue
        target, summary = hazards[0]
        if summary.blocking_calls:
            detail = (
                "can block without bound "
                f"({sorted(summary.blocking_calls)[0]})"
            )
        else:
            locks = ", ".join(sorted(summary.acquires_locks))
            detail = f"may acquire lock(s) {locks}"
        yield call, (
            f"call into synchronous {target.qualname} {detail}; "
            "offload it (await asyncio.to_thread/run_in_executor) "
            "or keep the loop-side path lock-free"
        )


def _blocking_shape(call: ast.Call) -> str | None:
    """Why a bare ``get``/``wait``/``join``/``acquire`` blocks the loop."""
    if not (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in ("get", "wait", "join", "acquire")
        and not call.args
    ):
        return None
    name = dotted_name(call.func) or call.func.attr
    if any(kw.arg == "timeout" for kw in call.keywords):
        return (
            f"{name}(timeout=...) still parks the event loop until the "
            "timeout; use the asyncio primitive or offload the call"
        )
    return (
        f"{name}() blocks the event loop (and with it every connection) "
        "until the peer acts; use the asyncio primitive or offload"
    )


@register
class BlockingCallInCoroutineRule(ProjectRule):
    """Coroutines must not call into blocking synchronous code."""

    rule_id = "async-blocking-call"
    code = "OPQ771"
    description = (
        "a coroutine or asyncio protocol callback calls blocking "
        "synchronous code (sleep, file I/O, bare blocking primitive, or a "
        "callee whose summary blocks or takes locks) inline; one stalled "
        "task wedges every connection"
    )
    paper_ref = "docs/service.md (the event loop never blocks)"
    scope_prefixes = ("service/",)
    # Summaries absorb effects through project-wide call edges, so any
    # file can change this rule's verdicts.
    deep_dependencies = "project"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        classes, functions, resolver = _scoped_items(self, project)
        entries = [
            ("coroutine", fn) for fn in functions if _is_coroutine_fn(fn)
        ] + [
            ("protocol callback", fn)
            for fn in protocol_callbacks(project, classes)
        ]
        for kind, fn in entries:
            for call, why in blocking_reasons(project, resolver, fn):
                yield Finding(
                    rule_id=self.rule_id,
                    code=self.code,
                    path=str(fn.module.path),
                    line=call.lineno,
                    col=call.col_offset,
                    message=f"in {kind} {fn.qualname}: {why}",
                )


@register
class LockAcrossAwaitRule(ProjectRule):
    """No ``threading.Lock`` may be held across a suspension point."""

    rule_id = "async-lock-across-await"
    code = "OPQ772"
    description = (
        "a threading lock is held across an await/async-for/async-with "
        "suspension; the loop may run arbitrary tasks (or block a real "
        "thread) while the lock is pinned"
    )
    paper_ref = "docs/service.md (no lock spans a suspension)"
    scope_prefixes = ("service/",)
    # Purely per-function: the CFG and the lock facts never leave the
    # file being judged.
    deep_dependencies = "scope"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        classes, functions, _ = _scoped_items(self, project)
        for fn in functions:
            if not _is_coroutine_fn(fn):
                continue
            seen: set[tuple[int, frozenset[str]]] = set()
            cfg = project.cfg(fn)
            for op, held in iter_ops_with_facts(cfg, ThreadLockTracker()):
                if not (op.suspends and held):
                    continue
                line = getattr(op.node, "lineno", fn.node.lineno)
                key = (line, held)
                if key in seen:
                    continue
                seen.add(key)
                locks = ", ".join(sorted(held))
                yield Finding(
                    rule_id=self.rule_id,
                    code=self.code,
                    path=str(fn.module.path),
                    line=line,
                    col=getattr(op.node, "col_offset", 0),
                    message=(
                        f"coroutine {fn.qualname} holds threading "
                        f"lock(s) {locks} across a suspension point; "
                        "release before awaiting, or use asyncio.Lock"
                    ),
                )


@register
class UnawaitedCoroutineRule(ProjectRule):
    """A coroutine call whose result is discarded never runs."""

    rule_id = "async-unawaited-coroutine"
    code = "OPQ773"
    description = (
        "a call that resolves only to coroutine functions is used as a "
        "bare statement; the coroutine object is discarded unawaited "
        "and its body never executes"
    )
    paper_ref = "asyncio contract (coroutines run only when awaited)"
    scope_prefixes = ("service/",)
    # Resolution is restricted to scoped classes/functions, and the
    # coroutine kind of a scoped function is a fact of its own file.
    deep_dependencies = "scope"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        classes, functions, resolver = _scoped_items(self, project)
        for fn in functions:
            direct = _direct_call_ids(fn)
            for node in ast.walk(fn.node):
                if not (
                    isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)
                    and id(node.value) in direct
                ):
                    continue
                callee = dotted_name(node.value.func)
                if callee is None:
                    continue
                candidates, _ = resolver.resolve(fn, callee)
                if not candidates or not all(
                    _is_coroutine_fn(c) for c in candidates
                ):
                    continue
                yield Finding(
                    rule_id=self.rule_id,
                    code=self.code,
                    path=str(fn.module.path),
                    line=node.value.lineno,
                    col=node.value.col_offset,
                    message=(
                        f"{callee}() is a coroutine but the call is "
                        "neither awaited nor scheduled; the coroutine "
                        "object is discarded — await it or wrap it in "
                        "asyncio.create_task()"
                    ),
                )


@register
class CrossRoleWriteRule(ProjectRule):
    """Loop-side state shared with threads needs a loop-safe handoff."""

    rule_id = "async-cross-role-write"
    code = "OPQ774"
    description = (
        "a field is written by event-loop-role code and by thread-role "
        "code without a common lock or thread-safe container; the loop "
        "reads torn state unless writes cross via call_soon_threadsafe "
        "or a shared guard"
    )
    paper_ref = "docs/service.md (loop-confined vs offloaded state)"
    scope_prefixes = ("service/",)
    # Role seeds flow through offload summaries, which are project-wide.
    deep_dependencies = "project"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        classes = [c for c in project.classes if self.in_scope(c.module)]
        model = build_async_model(project, classes)
        for cls_model in model.classes.values():
            yield from self._check_class(cls_model)

    def _check_class(self, cls_model: ClassThreadModel) -> Iterator[Finding]:
        cls = cls_model.info
        for field_name in sorted(cls_model.accesses):
            if cls_model.field_is_thread_safe(field_name):
                continue
            writes = cls_model.writes(field_name)
            loop_writes = [w for w in writes if ROLE_EVENT_LOOP in w.roles]
            thread_writes = [w for w in writes if ROLE_THREAD in w.roles]
            # Demand two distinct writing methods: a single method seen
            # from both roles (a thread hosting its own event loop) is
            # one execution context, not a race.
            if not loop_writes or not thread_writes:
                continue
            if not (
                {w.method for w in loop_writes}
                - {w.method for w in thread_writes}
            ) and not (
                {w.method for w in thread_writes}
                - {w.method for w in loop_writes}
            ):
                continue
            guard = cls_model.guard_of(field_name)
            for access in writes:
                if guard is not None and guard in access.locks:
                    continue
                if guard is None:
                    detail = "and no common lock guards it"
                else:
                    detail = (
                        f"without holding {guard}, which guards it "
                        "elsewhere"
                    )
                yield Finding(
                    rule_id=self.rule_id,
                    code=self.code,
                    path=str(cls.module.path),
                    line=getattr(access.node, "lineno", cls.node.lineno),
                    col=getattr(access.node, "col_offset", 0),
                    message=(
                        f"{cls.name}.{field_name} is written from both "
                        "the event-loop and thread roles; this write in "
                        f"{access.method}() lands {detail} — hand it "
                        "across with loop.call_soon_threadsafe or guard "
                        "both sides"
                    ),
                )
