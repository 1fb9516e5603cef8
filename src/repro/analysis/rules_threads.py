"""Rule family 7 (OPQ7xx): lock discipline across thread roles.

The serving subsystem's concurrency story rests on three invariants that
``docs/service.md`` states in prose: each shard worker thread *sole-owns*
its ``IncrementalOPAQ``, the served snapshot reference is swapped only
under the swap lock, and readers are lock-free because every shared slot
is either sole-owned or published by a locked writer.  PR 1's OPQ602
could only pattern-match "assignment to an attribute literally named
``_snapshot`` outside a ``with``"; this family *derives* the invariants:

1. **Thread roles.**  ``threading.Thread(target=self._loop)`` makes
   ``_loop`` (and everything it reaches through the project call graph) a
   worker role.  The binary server's roles come from the asyncio
   family's inference (:func:`~repro.analysis.rules_async.serving_roles`):
   coroutines, protocol callbacks and the code they call inline run in
   the ``event-loop`` role, and callables handed to
   ``run_in_executor``/``to_thread`` — directly or through an offloading
   callee like ``AsyncServiceServer._blocking`` — run in the ``thread``
   role, which races with itself: the executor runs many requests at
   once (``self.service.ingest`` crosses modules to get it).  Public
   methods carry the ambient ``main`` role of whatever thread embeds the
   library, except the loop's own entry points.
2. **Guard inference.**  A must-dataflow over each function's CFG tracks
   which lock names are held at every op, so the family learns which
   ``with self._lock:`` blocks dominate which ``self._*`` accesses — no
   attribute-name allowlist.
3. **Judgement.**  A field written from two or more roles must have every
   write dominated by the inferred guard (OPQ701).  A read-modify-write
   from a concurrent role needs a lock even when it is the only writer,
   because the role races with itself (OPQ702).  Reads stay lock-free —
   that is the documented design, sound for CPython reference reads when
   the writes are disciplined.

:func:`build_thread_model` exposes the derived facts (roles per method,
accesses per field, inferred guards); ``tests/analysis`` asserts the
documented ``repro.service`` invariants *as those facts*.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.cfg import Op
from repro.analysis.dataflow import LockTracker, iter_ops_with_facts
from repro.analysis.framework import Finding, ProjectRule, dotted_name
from repro.analysis.project import ClassInfo, FunctionInfo, ProjectContext
from repro.analysis.registry import register

__all__ = [
    "FieldAccess",
    "ClassThreadModel",
    "ThreadModel",
    "build_thread_model",
    "UnguardedSharedWriteRule",
    "ConcurrentReadModifyWriteRule",
    "ROLE_MAIN",
    "ROLE_EVENT_LOOP",
    "ROLE_THREAD",
]

#: The ambient role: whatever thread the embedding application calls
#: public methods from.
ROLE_MAIN = "main"
#: Code an asyncio event loop runs: coroutines, protocol callbacks and
#: the sync code they call inline.
ROLE_EVENT_LOOP = "event-loop"
#: Code a worker thread runs for the loop: callables offloaded through
#: ``run_in_executor``/``to_thread`` (and, in the asyncio family,
#: ``Thread`` targets) — concurrent with itself in the thread family.
ROLE_THREAD = "thread"

#: Constructors whose instances synchronise internally; method calls on
#: such fields are not races.
_THREAD_SAFE_CTORS = {
    "Queue",
    "LifoQueue",
    "PriorityQueue",
    "SimpleQueue",
    "JoinableQueue",
    "Lock",
    "RLock",
    "Event",
    "Condition",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "Thread",
    "local",
    "deque",
}

#: Method names that mutate their receiver in place; calling one on a
#: shared non-thread-safe field is a write to that field's object.
_MUTATING_METHODS = {
    "append",
    "appendleft",
    "extend",
    "extendleft",
    "insert",
    "add",
    "discard",
    "remove",
    "pop",
    "popitem",
    "popleft",
    "clear",
    "update",
    "setdefault",
    "sort",
    "reverse",
    "write",
}

#: Methods whose ``self.<field>`` writes are construction, not sharing.
_CONSTRUCTION_METHODS = {"__init__", "__new__", "__post_init__"}


@dataclass(frozen=True)
class FieldAccess:
    """One access of ``self.<field>`` with the facts holding there."""

    field: str
    kind: str  # "write" | "mutate" | "read"
    rmw: bool  # read-modify-write (augmented assignment)
    node: ast.AST
    method: str
    roles: frozenset[str]
    locks: frozenset[str]

    @property
    def is_write(self) -> bool:
        return self.kind in ("write", "mutate")


@dataclass(eq=False)
class ClassThreadModel:
    """Derived concurrency facts of one class."""

    info: ClassInfo
    #: method name -> roles that may execute it.
    roles: dict[str, frozenset[str]] = field(default_factory=dict)
    #: roles that run on more than one thread at once.
    concurrent_roles: set[str] = field(default_factory=set)
    #: field -> accesses outside construction methods.
    accesses: dict[str, list[FieldAccess]] = field(default_factory=dict)

    def writes(self, field_name: str) -> list[FieldAccess]:
        return [a for a in self.accesses.get(field_name, []) if a.is_write]

    def writing_roles(self, field_name: str) -> frozenset[str]:
        roles: set[str] = set()
        for access in self.writes(field_name):
            roles |= access.roles
        return frozenset(roles)

    def guard_of(self, field_name: str) -> str | None:
        """The lock most often held across this field's accesses, if any."""
        counts: Counter[str] = Counter()
        for access in self.accesses.get(field_name, []):
            counts.update(access.locks)
        if not counts:
            return None
        best = max(counts.items(), key=lambda item: (item[1], item[0]))
        return best[0]

    def field_is_thread_safe(self, field_name: str) -> bool:
        ctor = self.info.field_types.get(field_name)
        return (
            ctor is not None
            and ctor.rsplit(".", 1)[-1] in _THREAD_SAFE_CTORS
        )


@dataclass(eq=False)
class ThreadModel:
    """The project's derived thread/lock model, class by class."""

    classes: dict[str, ClassThreadModel] = field(default_factory=dict)

    def for_class(self, name: str) -> ClassThreadModel | None:
        return self.classes.get(name)


def _thread_target(call: ast.Call) -> ast.expr | None:
    """The ``target=`` expression of a ``threading.Thread(...)`` call."""
    callee = dotted_name(call.func)
    if callee is None or callee.rsplit(".", 1)[-1] != "Thread":
        return None
    for keyword in call.keywords:
        if keyword.arg == "target":
            return keyword.value
    return None


def _call_inside_loop(fn: FunctionInfo, call: ast.Call) -> bool:
    """True when ``call`` sits inside a loop body of ``fn``."""
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            if any(sub is call for sub in ast.walk(node)):
                return True
    return False


class _RoleInference:
    """Seeds and propagates thread roles across the project call graph."""

    def __init__(self, project: ProjectContext, classes: list[ClassInfo]) -> None:
        self.project = project
        self.classes = classes
        self.scoped_methods: dict[str, list[FunctionInfo]] = {}
        self.scoped_functions: dict[str, list[FunctionInfo]] = {}
        self.by_class: dict[str, ClassInfo] = {c.name: c for c in classes}
        scoped_modules = {id(c.module) for c in classes}
        for cls in classes:
            for name, method in cls.methods.items():
                self.scoped_methods.setdefault(name, []).append(method)
        for fn in project.functions:
            if id(fn.module) in scoped_modules:
                self.scoped_functions.setdefault(fn.name, []).append(fn)
        self.roles: dict[FunctionInfo, set[str]] = {}
        self.concurrent: set[str] = set()

    def infer(self) -> None:
        # Imported here: the asyncio family builds on this module's model.
        from repro.analysis.rules_async import serving_roles

        worklist: list[tuple[FunctionInfo, str]] = []

        def seed(fn: FunctionInfo, role: str) -> None:
            if role not in self.roles.setdefault(fn, set()):
                self.roles[fn].add(role)
                worklist.append((fn, role))

        # Worker roles: Thread(target=...) constructions.
        for cls in self.classes:
            for method in cls.methods.values():
                for site in method.calls:
                    target = _thread_target(site.node)
                    if target is None:
                        continue
                    role = None
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr in cls.methods
                    ):
                        role = f"worker:{cls.name}.{target.attr}"
                        seed(cls.methods[target.attr], role)
                    elif isinstance(target, ast.Name):
                        for fn in self.scoped_functions.get(target.id, []):
                            role = f"worker:{target.id}"
                            seed(fn, role)
                    if role is not None and _call_inside_loop(method, site.node):
                        # A thread spawned per loop iteration runs many
                        # instances of the same role at once.
                        self.concurrent.add(role)

        # The binary server's roles: its event loop, and the executor
        # threads its requests offload to, many at once.  They arrive
        # closed under the asyncio family's call edges, which resolve
        # typed receivers precisely; spreading them again by bare name
        # would charge the loop for every ``close`` in scope.
        self.concurrent.add(ROLE_THREAD)
        serving, loop_entries = serving_roles(self.project, self.classes)
        for fn, roles in serving.items():
            self.roles.setdefault(fn, set()).update(roles)

        # Ambient role: public entry points run on the embedder's thread,
        # except the loop's own (coroutines, protocol callbacks).
        for cls in self.classes:
            for method in cls.methods.values():
                if method.name in _CONSTRUCTION_METHODS or method in loop_entries:
                    continue
                if not method.name.startswith("_") or (
                    method.name.startswith("__") and method.name.endswith("__")
                ):
                    seed(method, ROLE_MAIN)
        for fns in self.scoped_functions.values():
            for fn in fns:
                if not fn.name.startswith("_") and fn not in loop_entries:
                    seed(fn, ROLE_MAIN)

        # Propagate every role along call edges to a fixpoint.  Calling
        # a coroutine function runs none of its body: the loop runs it.
        while worklist:
            fn, role = worklist.pop()
            for site in fn.calls:
                for callee in self._resolve(fn, site.callee):
                    if callee.name in _CONSTRUCTION_METHODS or isinstance(
                        callee.node, ast.AsyncFunctionDef
                    ):
                        continue
                    seed(callee, role)

        # Anything still roleless is reachable only through paths the
        # index cannot see (dict dispatch, getattr); assume the ambient
        # role rather than exempting it.
        for cls in self.classes:
            for method in cls.methods.values():
                if method.name in _CONSTRUCTION_METHODS:
                    continue
                if not self.roles.get(method):
                    self.roles.setdefault(method, set()).add(ROLE_MAIN)

    def _resolve(self, caller: FunctionInfo, callee: str) -> list[FunctionInfo]:
        """Candidate targets of one call edge, conservatively by name."""
        parts = callee.split(".")
        if len(parts) == 1:
            return list(self.scoped_functions.get(parts[0], []))
        attr = parts[-1]
        if parts[0] == "self" and len(parts) == 2 and caller.class_name:
            cls = self.by_class.get(caller.class_name)
            if cls is not None and attr in cls.methods:
                return [cls.methods[attr]]
            return []
        # obj.method(...) / a.b.method(...): any scoped class method with
        # this bare name may be the target.
        return list(self.scoped_methods.get(attr, []))


def _self_field_of(node: ast.expr) -> str | None:
    """The field name when ``node`` is exactly ``self.<field>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _collect_accesses(
    project: ProjectContext,
    model: ClassThreadModel,
    method: FunctionInfo,
    roles: frozenset[str],
) -> None:
    """Record every ``self.<field>`` access of one method with its facts."""
    cfg = project.cfg(method)
    for op, locks in iter_ops_with_facts(cfg, LockTracker()):
        for access in _accesses_of_op(op):
            field_name, kind, rmw, node = access
            model.accesses.setdefault(field_name, []).append(
                FieldAccess(
                    field=field_name,
                    kind=kind,
                    rmw=rmw,
                    node=node,
                    method=method.name,
                    roles=roles,
                    locks=locks,
                )
            )


def _accesses_of_op(op: Op) -> Iterator[tuple[str, str, bool, ast.AST]]:
    """``(field, kind, rmw, node)`` for each self-field access in one op."""
    node = op.node
    if op.kind not in ("stmt", "branch", "for-iter", "with-enter"):
        return
    written: set[int] = set()
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        rmw = isinstance(node, ast.AugAssign)
        for target in targets:
            field_name = _self_field_of(target)
            if field_name is not None:
                written.add(id(target))
                yield field_name, "write", rmw, node
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                inner = _self_field_of(target.value)
                if inner is not None:
                    written.add(id(target.value))
                    yield inner, "mutate", rmw, node
    elif isinstance(node, ast.Delete):
        for target in node.targets:
            field_name = _self_field_of(target)
            if field_name is not None:
                written.add(id(target))
                yield field_name, "write", False, node
    # Mutating method calls and plain reads in the expressions this op
    # evaluates.  Compound ops (branch/for-iter/with-enter) carry the
    # whole statement as their node but only evaluate the test/iterable/
    # context expressions — body accesses belong to the body ops, with
    # the facts holding *there* (e.g. inside the just-entered ``with``).
    for root in op.expr_roots():
        for sub in ast.walk(root):
            if isinstance(sub, ast.Call) and isinstance(
                sub.func, ast.Attribute
            ):
                receiver = _self_field_of(sub.func.value)
                if receiver is not None and sub.func.attr in _MUTATING_METHODS:
                    written.add(id(sub.func.value))
                    yield receiver, "mutate", False, sub
            field_name = (
                _self_field_of(sub) if isinstance(sub, ast.expr) else None
            )
            if field_name is not None and id(sub) not in written:
                yield field_name, "read", False, sub


def build_thread_model(
    project: ProjectContext, classes: list[ClassInfo] | None = None
) -> ThreadModel:
    """Derive roles, field accesses and guards for ``classes``.

    With ``classes=None`` every indexed class is analysed; the rules pass
    the subset whose modules are in scope.
    """
    chosen = list(project.classes) if classes is None else classes
    inference = _RoleInference(project, chosen)
    inference.infer()
    model = ThreadModel()
    for cls in chosen:
        cls_model = ClassThreadModel(info=cls)
        cls_model.concurrent_roles = set(inference.concurrent)
        for name, method in cls.methods.items():
            roles = frozenset(inference.roles.get(method, {ROLE_MAIN}))
            cls_model.roles[name] = roles
            if name in _CONSTRUCTION_METHODS:
                continue  # construction precedes sharing
            _collect_accesses(project, cls_model, method, roles)
        model.classes[cls.name] = cls_model
    return model


@register
class UnguardedSharedWriteRule(ProjectRule):
    """Cross-role writes must be dominated by the field's guard lock."""

    rule_id = "thread-unguarded-write"
    code = "OPQ701"
    description = (
        "a field written from two or more inferred thread roles has a "
        "write not dominated by its guarding lock; lock-free readers "
        "require every writer to publish under the guard"
    )
    paper_ref = "docs/service.md (locked writers, lock-free readers)"
    scope_prefixes = ("service/",)
    # The executor role's seeds flow through offload summaries, which
    # are project-wide (as for OPQ774).
    deep_dependencies = "project"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        classes = [c for c in project.classes if self.in_scope(c.module)]
        model = build_thread_model(project, classes)
        for cls_model in model.classes.values():
            yield from self._check_class(cls_model)

    def _check_class(self, cls_model: ClassThreadModel) -> Iterator[Finding]:
        cls = cls_model.info
        for field_name in sorted(cls_model.accesses):
            if cls_model.field_is_thread_safe(field_name):
                continue
            writes = cls_model.writes(field_name)
            roles = cls_model.writing_roles(field_name)
            if len(roles) < 2:
                continue
            guard = cls_model.guard_of(field_name)
            for access in writes:
                if guard is not None and guard in access.locks:
                    continue
                role_list = ", ".join(sorted(access.roles))
                if guard is None:
                    detail = "and no lock guards any access to it"
                else:
                    detail = f"without holding {guard}, which guards it elsewhere"
                yield Finding(
                    rule_id=self.rule_id,
                    code=self.code,
                    path=str(cls.module.path),
                    line=getattr(access.node, "lineno", cls.node.lineno),
                    col=getattr(access.node, "col_offset", 0),
                    message=(
                        f"{cls.name}.{field_name} is written from roles "
                        f"{{{', '.join(sorted(roles))}}}; this write in "
                        f"{access.method}() runs as {{{role_list}}} {detail}"
                    ),
                )


@register
class ConcurrentReadModifyWriteRule(ProjectRule):
    """Read-modify-writes from a concurrent role need a lock."""

    rule_id = "thread-concurrent-rmw"
    code = "OPQ702"
    description = (
        "an augmented assignment to a shared field from a concurrent "
        "role (executor threads, per-iteration workers) without a lock; "
        "the role races with itself even as sole writer"
    )
    paper_ref = "docs/service.md (ingest counters under the state lock)"
    scope_prefixes = ("service/",)
    # Project-wide for the same reason as OPQ701.
    deep_dependencies = "project"

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        classes = [c for c in project.classes if self.in_scope(c.module)]
        model = build_thread_model(project, classes)
        for cls_model in model.classes.values():
            cls = cls_model.info
            for field_name in sorted(cls_model.accesses):
                if cls_model.field_is_thread_safe(field_name):
                    continue
                for access in cls_model.writes(field_name):
                    if not access.rmw or access.locks:
                        continue
                    concurrent = access.roles & cls_model.concurrent_roles
                    if not concurrent:
                        continue
                    yield Finding(
                        rule_id=self.rule_id,
                        code=self.code,
                        path=str(cls.module.path),
                        line=getattr(access.node, "lineno", cls.node.lineno),
                        col=getattr(access.node, "col_offset", 0),
                        message=(
                            f"{cls.name}.{field_name} is updated in place "
                            f"in {access.method}() from the concurrent role "
                            f"{{{', '.join(sorted(concurrent))}}} with no "
                            "lock held; the read-modify-write races with "
                            "itself"
                        ),
                    )
