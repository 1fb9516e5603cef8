"""The opaqlint framework: findings, module contexts, suppressions, rules.

OPAQ's guarantees are *disciplines*, not data structures: one pass over the
disk-resident input (Lemma 1 only holds if every run is read exactly once),
at most a run plus the sample lists in memory (the ``r*s + m <= M``
constraint), bit-reproducible execution (the simulated SP-2 experiments are
meaningless otherwise), and matched SPMD communication (the machine model
deadlocks are silent — clocks just stop meaning anything).  This package
checks those disciplines *statically*, over the AST, so a violation fails CI
before it silently rots a guarantee.

A rule inspects one module at a time through a :class:`ModuleContext` and
yields :class:`Finding` objects.  Findings can be silenced at the offending
line with the suppression comment::

    np.sort(window)  # opaq: ignore[one-pass-sort] bounded by Lemma 3

``# opaq: ignore`` with no bracket silences every rule on that line; the
bracket form takes a comma-separated list of rule ids or codes.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.analysis.project import ProjectContext

__all__ = [
    "Finding",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "Suppressions",
    "SyntheticRule",
    "dotted_name",
]


def dotted_name(node: ast.AST) -> str | None:
    """Render an ``ast.Name``/``ast.Attribute`` chain as ``a.b.c``.

    Returns ``None`` for anything that is not a plain dotted chain
    (subscripts, calls, literals, ...) — rules treat those as opaque.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None

#: Matches the suppression directive, bare or with an ``[id, id2]`` list.
#: (Spelled without the literal text here: this comment is itself a
#: token the scanner reads.)
_SUPPRESS_RE = re.compile(
    r"#\s*opaq:\s*ignore(?:\[(?P<ids>[^\]]*)\])?", re.IGNORECASE
)

#: Sentinel meaning "every rule is suppressed on this line".
_ALL = "*"


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source location."""

    rule_id: str
    code: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable form (the ``--format json`` reporter)."""
        return {
            "rule": self.rule_id,
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        """The one-line text form: ``path:line:col: code message``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code}[{self.rule_id}] {self.message}"
        )


class Suppressions:
    """Per-line ``# opaq: ignore[...]`` directives of one module.

    Directives are read from real ``COMMENT`` tokens, not raw lines, so a
    directive *quoted inside a docstring* (the framework documents its own
    syntax) is not a live suppression.  Every :meth:`silences` hit is
    recorded; :meth:`unused_lines` reports directives that silenced
    nothing, which the runner turns into OPQ902 findings — a suppression
    whose finding has been fixed is stale noise that would hide a future
    regression on that line.
    """

    def __init__(self, source: str) -> None:
        self._by_line: dict[int, set[str]] = {}
        self._used: set[int] = set()
        for lineno, text in _comment_lines(source):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            raw = match.group("ids")
            if raw is None:
                self._by_line[lineno] = {_ALL}
            else:
                ids = {part.strip() for part in raw.split(",") if part.strip()}
                self._by_line.setdefault(lineno, set()).update(ids)

    def to_table(self) -> dict[str, list[str]]:
        """JSON-serialisable directive table (the cache's view).

        Usage marks are deliberately not serialised: a warm run re-earns
        them by replaying the cached raw findings through
        :meth:`silences`, so OPQ902 judges the *current* run.
        """
        return {
            str(line): sorted(ids) for line, ids in self._by_line.items()
        }

    @classmethod
    def from_table(cls, table: dict[str, list[str]]) -> "Suppressions":
        """Rebuild a directive table without the source text."""
        obj = cls.__new__(cls)
        obj._by_line = {int(line): set(ids) for line, ids in table.items()}
        obj._used = set()
        return obj

    def silences(self, finding: Finding) -> bool:
        """True when the finding's line carries a matching directive."""
        ids = self._by_line.get(finding.line)
        if not ids:
            return False
        if _ALL in ids or finding.rule_id in ids or finding.code in ids:
            self._used.add(finding.line)
            return True
        return False

    @property
    def directive_count(self) -> int:
        """Number of lines carrying a suppression (for reporting)."""
        return len(self._by_line)

    def unused_lines(self) -> list[tuple[int, set[str]]]:
        """``(line, ids)`` of directives that silenced no finding."""
        return sorted(
            (line, ids)
            for line, ids in self._by_line.items()
            if line not in self._used
        )


def _comment_lines(source: str) -> Iterator[tuple[int, str]]:
    """``(lineno, comment_text)`` for each comment token in ``source``.

    Falls back to a raw line scan when tokenisation fails (the runner
    still lints what it can of a file it cannot fully tokenise).
    """
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, SyntaxError, IndentationError):
        for lineno, text in enumerate(source.splitlines(), start=1):
            if "#" in text:
                yield lineno, text


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one module.

    ``package_rel`` is the module's path relative to the ``repro`` package
    root (e.g. ``core/sample_phase.py``) when the file lives inside the
    package, else ``None``.  Rules scope themselves with it; standalone
    files — lint fixtures, scratch scripts — have no package location and
    are **in scope for every rule**, which is what makes the rule fixtures
    in the test suite exercise each rule without faking a package layout.
    """

    path: Path
    source: str
    tree: ast.Module
    package_rel: str | None = None
    suppressions: Suppressions = field(init=False)

    def __post_init__(self) -> None:
        self.suppressions = Suppressions(self.source)

    @classmethod
    def from_path(cls, path: Path) -> "ModuleContext":
        return cls.from_source(path, path.read_text(encoding="utf-8"))

    @classmethod
    def from_source(cls, path: Path, source: str) -> "ModuleContext":
        """Build from already-read text (the cache hashes bytes first)."""
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            source=source,
            tree=tree,
            package_rel=_package_relative(path),
        )

    def finding(
        self, rule: "Rule", node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule_id=rule.rule_id,
            code=rule.code,
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _package_relative(path: Path) -> str | None:
    """Path relative to the innermost ``repro`` package root, if any."""
    resolved = path.resolve()
    parts = resolved.parts
    for i in range(len(parts) - 1, 0, -1):
        if parts[i - 1] == "repro":
            candidate = Path(*parts[: i - 1], "repro", "__init__.py")
            if candidate.exists():
                return Path(*parts[i:]).as_posix()
    return None


class Rule:
    """Base class for one static check.

    Subclasses set the class attributes and implement :meth:`check`.
    ``scope_prefixes`` restricts the rule to package-relative path prefixes
    (``()`` means the whole package); modules outside the package — fixture
    files — are always in scope, see :class:`ModuleContext`.
    """

    #: Stable kebab-case identifier, used in suppressions and reports.
    rule_id: str = "abstract"
    #: Short numeric code (``OPQ###``); the hundreds digit is the family.
    code: str = "OPQ000"
    #: One-line description for ``opaq lint --list-rules`` and the docs.
    description: str = ""
    #: What part of the paper the rule protects (section/lemma reference).
    paper_ref: str = ""
    #: Package-relative path prefixes the rule applies to.
    scope_prefixes: tuple[str, ...] = ()
    #: True for rules that run once over the whole project (deep mode).
    requires_project: bool = False
    #: True for runner-emitted rules with no check() of their own.
    synthetic: bool = False
    #: What a :class:`ProjectRule`'s findings depend on, for the
    #: incremental cache: ``"project"`` (any file change invalidates —
    #: the sound default, since summaries flow through arbitrary call
    #: edges) or ``"scope"`` (only files under ``scope_prefixes``; valid
    #: ONLY for rules whose resolution provably never leaves their
    #: scope, like OPQ772's per-function lock facts).
    deep_dependencies: str = "project"

    def in_scope(self, ctx: ModuleContext) -> bool:
        if ctx.package_rel is None:
            return True
        if not self.scope_prefixes:
            return True
        return ctx.package_rel.startswith(self.scope_prefixes)

    def check(
        self, ctx: ModuleContext
    ) -> Iterator[Finding]:  # pragma: no cover - interface
        """Yield :class:`Finding` objects for violations in ``ctx``."""
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that needs the whole-project view (``opaq lint --deep``).

    Module rules see one file at a time; project rules run once per lint
    invocation against a :class:`~repro.analysis.project.ProjectContext`
    — the cross-module import graph, class/method tables and call edges —
    and use :meth:`Rule.in_scope` per *module* to decide which classes
    and functions they judge.  They only run in deep mode: building the
    index and the per-function CFGs costs real time, and the properties
    they check (thread roles, interprocedural stream consumption) only
    change when the flow structure does.
    """

    #: The runner only executes these when ``deep=True``.
    requires_project = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Project rules contribute nothing at module granularity."""
        return iter(())

    def check_project(
        self, project: "ProjectContext"
    ) -> Iterator[Finding]:  # pragma: no cover - interface
        """Yield findings judged over the whole project."""
        raise NotImplementedError


class SyntheticRule(Rule):
    """A rule whose findings are produced by the runner itself.

    Parse failures, unused suppressions and stale baseline entries are
    facts about the *lint run*, not about any AST the rule could walk, so
    the runner emits these findings directly.  Registering them keeps the
    ids listable, selectable and suppressible like any other rule.
    """

    synthetic = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())
