"""The project index: what deep rules know before they run.

Module rules judge one AST at a time; the flow- and thread-aware families
need to answer questions that span files — "which methods does a
callable offloaded to the executor reach?", "does the function this
stream is passed to consume its parameter?".  :func:`build_project` walks every
parsed module once, before any rule executes, and indexes:

- the **import graph** (module → imported module names, plus per-module
  alias tables so ``from repro.service.shard import ShardWorker`` resolves,
  and the top-level names the project's own modules import under, so an
  alias of a module outside the project — ``os``, ``numpy`` — is known),
- **class tables**: bases, methods, the fields assigned in ``__init__``
  and the constructor type each field was initialised from,
- **call edges**: every call site inside every function, with the callee's
  dotted name exactly as written (``self._fold``, ``worker.submit``) —
  resolution to candidate targets is name-based and deliberately
  conservative, which is the right bias for a checker that must not miss
  a cross-thread write because the receiver's type was unknowable.

Per-function CFGs (:mod:`repro.analysis.cfg`) are built lazily and
memoised on the context, so the OPQ7xx and OPQ8xx families share one
graph per function instead of re-lowering it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.analysis.cfg import CFG, FunctionNode, build_cfg
from repro.analysis.framework import ModuleContext, dotted_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.analysis.summaries import SummaryIndex

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ProjectContext",
    "annotation_type",
    "build_project",
]


def annotation_type(node: ast.expr | None) -> str | None:
    """The dotted class name a simple annotation declares, if any.

    Unwraps the optional spellings (``T | None``, ``Optional[T]``) and
    string annotations; generics and genuine unions stay opaque —
    a half-certain type is worse than none for call resolution.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str) and node.value:
            try:
                return annotation_type(
                    ast.parse(node.value, mode="eval").body
                )
            except SyntaxError:
                return None
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        arms = [annotation_type(node.left), annotation_type(node.right)]
        named = [a for a in arms if a is not None]
        if len(named) == 1:
            return named[0]
        return None
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value)
        if base is not None and base.rsplit(".", 1)[-1] == "Optional":
            return annotation_type(node.slice)
        return None
    return dotted_name(node)


@dataclass(frozen=True)
class CallSite:
    """One call expression and its callee's dotted name as written."""

    node: ast.Call
    callee: str


@dataclass(eq=False)
class FunctionInfo:
    """One function or method definition plus its outgoing call edges.

    Identity-hashed (``eq=False``): the role-propagation worklists key on
    *this definition*, not on structural equality of two parses.
    """

    name: str
    qualname: str
    node: FunctionNode
    module: ModuleContext
    class_name: str | None = None
    calls: list[CallSite] = field(default_factory=list)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass(eq=False)
class ClassInfo:
    """One class definition: bases, methods, constructor-known fields."""

    name: str
    node: ast.ClassDef
    module: ModuleContext
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<field>`` names assigned anywhere in ``__init__``.
    init_fields: set[str] = field(default_factory=set)
    #: field -> dotted type name, learned from ``__init__`` three ways:
    #: ``self.f = Ctor(...)`` records the constructor, ``self.f = param``
    #: records the parameter's annotation, and ``self.f: T = ...``
    #: records the declared annotation (``T | None`` unwraps to ``T``).
    #: This is how the thread rules learn a field holds a ``queue.Queue``
    #: and how call resolution pins ``self.service.stats`` to the class
    #: the constructor signature names.
    field_types: dict[str, str] = field(default_factory=dict)


class ProjectContext:
    """Cross-module tables exposed to :class:`~repro.analysis.framework.ProjectRule`."""

    def __init__(self, modules: list[ModuleContext]) -> None:
        self.modules = modules
        self.classes: list[ClassInfo] = []
        self.functions: list[FunctionInfo] = []
        #: module path (str) -> imported module dotted names.
        self.imports: dict[str, set[str]] = {}
        #: module path (str) -> local alias -> imported dotted name.
        self.aliases: dict[str, dict[str, str]] = {}
        #: Top-level names the project's modules import under
        #: (``repro`` for the package, a standalone file's own stem).
        self.import_roots: set[str] = set()
        self._methods_by_name: dict[str, list[FunctionInfo]] = {}
        self._functions_by_name: dict[str, list[FunctionInfo]] = {}
        self._cfgs: dict[int, CFG] = {}
        self._summaries: "SummaryIndex | None" = None
        for module in modules:
            self._index_module(module)

    # -- construction --------------------------------------------------

    def _index_module(self, module: ModuleContext) -> None:
        key = str(module.path)
        imported: set[str] = set()
        aliases: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported.add(alias.name)
                    aliases[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                for alias in node.names:
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        self.imports[key] = imported
        self.aliases[key] = aliases
        self.import_roots.add(_import_root(module))

        for stmt in module.tree.body:
            if isinstance(stmt, ast.ClassDef):
                self._index_class(module, stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._function_info(module, stmt, class_name=None)
                self.functions.append(info)
                self._functions_by_name.setdefault(stmt.name, []).append(info)

    def _index_class(self, module: ModuleContext, node: ast.ClassDef) -> None:
        info = ClassInfo(
            name=node.name,
            node=node,
            module=module,
            bases=[
                name
                for base in node.bases
                if (name := dotted_name(base)) is not None
            ],
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = self._function_info(module, stmt, class_name=node.name)
                info.methods[stmt.name] = method
                self._methods_by_name.setdefault(stmt.name, []).append(method)
        init = info.methods.get("__init__")
        if init is not None:
            args = init.node.args
            param_types = {
                arg.arg: ann
                for arg in args.posonlyargs + args.args + args.kwonlyargs
                if (ann := annotation_type(arg.annotation)) is not None
            }
            for sub in ast.walk(init.node):
                targets: list[ast.expr] = []
                if isinstance(sub, ast.Assign):
                    targets = list(sub.targets)
                elif isinstance(sub, (ast.AnnAssign, ast.AugAssign)):
                    targets = [sub.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        info.init_fields.add(target.attr)
                        value = getattr(sub, "value", None)
                        if isinstance(value, ast.Call):
                            ctor = dotted_name(value.func)
                            if ctor is not None:
                                info.field_types.setdefault(target.attr, ctor)
                        elif (
                            isinstance(value, ast.Name)
                            and value.id in param_types
                        ):
                            info.field_types.setdefault(
                                target.attr, param_types[value.id]
                            )
                        if isinstance(sub, ast.AnnAssign):
                            declared = annotation_type(sub.annotation)
                            if declared is not None:
                                info.field_types.setdefault(
                                    target.attr, declared
                                )
        self.classes.append(info)

    def _function_info(
        self,
        module: ModuleContext,
        node: FunctionNode,
        class_name: str | None,
    ) -> FunctionInfo:
        qual = node.name if class_name is None else f"{class_name}.{node.name}"
        calls = [
            CallSite(node=sub, callee=callee)
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call)
            and (callee := dotted_name(sub.func)) is not None
        ]
        return FunctionInfo(
            name=node.name,
            qualname=f"{module.path.name}:{qual}",
            node=node,
            module=module,
            class_name=class_name,
            calls=calls,
        )

    # -- queries -------------------------------------------------------

    def cfg(self, fn: FunctionInfo) -> CFG:
        """The (memoised) control-flow graph of one indexed function."""
        key = id(fn.node)
        if key not in self._cfgs:
            self._cfgs[key] = build_cfg(fn.node)
        return self._cfgs[key]

    def summaries(self) -> "SummaryIndex":
        """The (memoised) interprocedural function-summary index.

        Built on first use so shallow runs never pay for it; every deep
        rule family shares one fixpoint instead of recomputing it.
        """
        if self._summaries is None:
            from repro.analysis.summaries import SummaryIndex

            self._summaries = SummaryIndex(self)
        return self._summaries

    def external_alias(self, fn: FunctionInfo, name: str) -> bool:
        """Whether ``name`` in ``fn`` is an import alias of something
        outside the project (``os`` after ``import os``).

        A name ``fn`` binds itself (a parameter or an assignment
        anywhere in its body) shadows the import and is not an alias.
        """
        target = self.aliases.get(str(fn.module.path), {}).get(name)
        if target is None or target.split(".")[0] in self.import_roots:
            return False
        args = fn.node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        if args.vararg is not None:
            params.append(args.vararg)
        if args.kwarg is not None:
            params.append(args.kwarg)
        if any(arg.arg == name for arg in params):
            return False
        return not any(
            isinstance(sub, ast.Name)
            and sub.id == name
            and isinstance(sub.ctx, ast.Store)
            for sub in ast.walk(fn.node)
        )

    def methods_named(self, name: str) -> list[FunctionInfo]:
        """Every class method with this bare name, project-wide."""
        return self._methods_by_name.get(name, [])

    def functions_named(self, name: str) -> list[FunctionInfo]:
        """Every module-level function with this bare name, project-wide."""
        return self._functions_by_name.get(name, [])

    def class_named(self, name: str) -> Iterator[ClassInfo]:
        for info in self.classes:
            if info.name == name:
                yield info

    def iter_functions(self) -> Iterator[FunctionInfo]:
        """Every indexed function and method."""
        yield from self.functions
        for cls in self.classes:
            yield from cls.methods.values()


def _import_root(module: ModuleContext) -> str:
    """The top-level name ``module`` is imported under: its outermost
    enclosing package, or its own stem outside any package."""
    if module.package_rel is not None:
        return "repro"
    root = module.path.stem
    parent = module.path.parent
    while (parent / "__init__.py").exists():
        root = parent.name
        parent = parent.parent
    return root


def build_project(modules: list[ModuleContext]) -> ProjectContext:
    """Index ``modules`` into one :class:`ProjectContext`."""
    return ProjectContext(modules)
