"""Walk files, apply every in-scope rule, filter suppressions.

The runner is the only place findings are *about the run* rather than
about code: parse failures (OPQ901) no longer abort the walk — one
unreadable file becomes one finding and the other files still get
checked — unused suppressions (OPQ902) are judged once every enabled
rule has had its chance to use them, and baseline bookkeeping (OPQ903)
happens last, against the post-suppression findings.

Deep mode (``opaq lint --deep``) additionally builds the project index
over every module that parsed and runs the
:class:`~repro.analysis.framework.ProjectRule` families (OPQ7xx/OPQ8xx).
Their findings still honour per-line suppressions in the module they
point into.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from repro.analysis.baseline import apply_baseline, load_baseline
from repro.analysis.cache import (
    AnalysisCache,
    CachedModule,
    CacheStats,
    cache_fingerprint,
    hash_bytes,
)
from repro.analysis.framework import Finding, ModuleContext, ProjectRule
from repro.analysis.project import ProjectContext, build_project
from repro.analysis.registry import all_rules, get_rule, resolve_rule_ids
from repro.errors import ConfigError

__all__ = ["LintResult", "lint_paths", "iter_python_files", "parse_module"]

#: What the suppression/OPQ902 pipeline needs per file: a real parsed
#: context, or a cache-hit replay stub.
_CtxLike = Union[ModuleContext, CachedModule]

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


class LintResult:
    """Findings plus the bookkeeping reporters need."""

    def __init__(
        self,
        findings: list[Finding],
        files_checked: int,
        suppressed: int,
        suppressed_by_rule: dict[str, int] | None = None,
        baselined: int = 0,
        cache_stats: CacheStats | None = None,
    ) -> None:
        self.findings = findings
        self.files_checked = files_checked
        self.suppressed = suppressed
        #: rule_id -> how many of its findings inline directives silenced.
        self.suppressed_by_rule = suppressed_by_rule or {}
        #: Findings covered by the baseline file (not in ``findings``).
        self.baselined = baselined
        #: Reuse counters when ``cache=`` was given, else ``None``.
        #: Deliberately absent from every reporter: cached and cold runs
        #: must render byte-identically.
        self.cache_stats = cache_stats

    @property
    def clean(self) -> bool:
        return not self.findings


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Expand files/directories into the .py files to lint, in order."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*.py")
                if not any(part in _SKIP_DIRS for part in p.parts)
            )
        elif path.is_file():
            if path.suffix != ".py":
                raise ConfigError(f"{path} is not a Python file")
            yield path
        else:
            raise ConfigError(f"no such file or directory: {path}")


def lint_paths(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    deep: bool = False,
    baseline: Path | None = None,
    cache: str | Path | None = None,
) -> LintResult:
    """Run every registered rule over ``paths``.

    Parameters
    ----------
    paths:
        Files and/or directories; directories are walked recursively.
    select:
        Rule ids/codes to run exclusively (default: all).
    ignore:
        Rule ids/codes to skip.
    deep:
        Also build the project index and run the flow/thread families
        (:class:`~repro.analysis.framework.ProjectRule`).
    baseline:
        Baseline file to subtract adopted findings against; its stale
        entries become OPQ903 findings.
    cache:
        Path of an incremental cache file (see
        :mod:`repro.analysis.cache`).  Unchanged files replay their
        cached raw findings; project rules whose dependency digest is
        unchanged replay theirs.  Output is byte-identical to a cold
        run; the file is created/updated at the end of the run.

    Returns
    -------
    LintResult
        Findings sorted by location, with suppression counts.
    """
    selected = resolve_rule_ids(list(select) if select else None)
    ignored = resolve_rule_ids(list(ignore) if ignore else None) or set()

    def enabled(rule_id: str) -> bool:
        return (
            selected is None or rule_id in selected
        ) and rule_id not in ignored

    module_rules = [
        rule
        for rule in all_rules()
        if not rule.synthetic
        and not rule.requires_project
        and enabled(rule.rule_id)
    ]
    project_rules = [
        rule
        for rule in all_rules()
        if isinstance(rule, ProjectRule) and enabled(rule.rule_id)
    ]

    analysis_cache: AnalysisCache | None = None
    stats: CacheStats | None = None
    if cache is not None:
        analysis_cache = AnalysisCache(
            Path(cache),
            cache_fingerprint(selected, ignored, deep, all_rules()),
        )
        stats = CacheStats()

    findings: list[Finding] = []
    contexts: dict[str, _CtxLike] = {}
    #: Fully parsed contexts only (the project index's input).
    parsed: dict[str, ModuleContext] = {}
    file_hashes: dict[str, str] = {}
    files_checked = 0
    suppressed = 0
    suppressed_by_rule: dict[str, int] = {}

    def admit(ctx: _CtxLike | None, finding: Finding) -> None:
        nonlocal suppressed
        if ctx is not None and ctx.suppressions.silences(finding):
            suppressed += 1
            suppressed_by_rule[finding.rule_id] = (
                suppressed_by_rule.get(finding.rule_id, 0) + 1
            )
        else:
            findings.append(finding)

    def parse_failure(path: Path, exc: Exception) -> None:
        # One unreadable file is one finding, not a dead run.
        # (ValueError covers null bytes, UnicodeDecodeError bad
        # encodings; neither carries a location.)
        if enabled("parse-error"):
            rule = get_rule("parse-error")
            message, line, col = _failure_facts(exc)
            findings.append(
                Finding(
                    rule_id=rule.rule_id,
                    code=rule.code,
                    path=str(path),
                    line=line,
                    col=col,
                    message=f"cannot parse file: {message}",
                )
            )

    for path in iter_python_files(paths):
        files_checked += 1
        key = str(path)
        if analysis_cache is not None and stats is not None:
            stats.files_total += 1
            try:
                data = path.read_bytes()
            except OSError as exc:
                parse_failure(path, exc)
                continue
            digest = hash_bytes(data)
            file_hashes[key] = digest
            hit = analysis_cache.lookup_file(key, digest)
            if hit is not None:
                stats.files_reused += 1
                contexts[key] = hit
                for finding in hit.findings:
                    admit(hit, finding)
                continue
            try:
                ctx = ModuleContext.from_source(path, data.decode("utf-8"))
            except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
                parse_failure(path, exc)
                continue  # never cached: must re-judge until it parses
        else:
            try:
                ctx = ModuleContext.from_path(path)
            except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
                parse_failure(path, exc)
                continue
        contexts[key] = ctx
        parsed[key] = ctx
        raw = []
        for rule in module_rules:
            if not rule.in_scope(ctx):
                continue
            raw.extend(rule.check(ctx))
        for finding in raw:
            admit(ctx, finding)
        if analysis_cache is not None:
            analysis_cache.store_file(key, file_hashes[key], ctx, raw)

    if deep and project_rules and contexts:
        package_rels = {
            key: ctx.package_rel for key, ctx in contexts.items()
        }
        deep_plan: list[
            tuple[ProjectRule, str | None, list[Finding] | None]
        ] = []
        any_miss = False
        for rule in project_rules:
            dep: str | None = None
            replay: list[Finding] | None = None
            if analysis_cache is not None and stats is not None:
                stats.deep_rules_total += 1
                dep = analysis_cache.dep_digest(
                    rule, file_hashes, package_rels
                )
                replay = analysis_cache.lookup_deep(rule.rule_id, dep)
                if replay is not None:
                    stats.deep_rules_reused += 1
            if replay is None:
                any_miss = True
            deep_plan.append((rule, dep, replay))

        project: ProjectContext | None = None
        if any_miss:
            # A deep miss needs the whole project index; re-parse the
            # cache-hit files (they hashed identical to a prior clean
            # parse) in walk order so the index — and therefore every
            # tie in the final stable sort — matches a cold run's.
            for key, ctx_like in contexts.items():
                if key not in parsed and isinstance(ctx_like, CachedModule):
                    parsed[key] = ModuleContext.from_path(ctx_like.path)
            project = build_project(
                [parsed[key] for key in contexts if key in parsed]
            )

        for rule, dep, replay in deep_plan:
            if replay is None:
                assert project is not None  # any_miss built it above
                replay = list(rule.check_project(project))
                if analysis_cache is not None and dep is not None:
                    analysis_cache.store_deep(rule.rule_id, dep, replay)
            for finding in replay:
                admit(contexts.get(finding.path), finding)

    # Unused suppressions are only a fact on full runs: under --select a
    # directive for an unselected rule never had the chance to be used.
    # Likewise on shallow runs the ProjectRule families never execute, so
    # a directive naming one (its rule_id or code) is not judged — else
    # every deep-finding suppression would fail the shallow CI pass.
    if selected is None and enabled("unused-suppression"):
        rule = get_rule("unused-suppression")
        deep_only: set[str] = set()
        if not deep:
            for project_rule in all_rules():
                if project_rule.requires_project:
                    deep_only.add(project_rule.rule_id)
                    deep_only.add(project_rule.code)
        for ctx in contexts.values():
            for line, ids in ctx.suppressions.unused_lines():
                judged = ids - deep_only
                if not judged:
                    continue
                listed = ", ".join(sorted(judged))
                # Deliberately bypasses admit(): the directive would
                # silence its own staleness report.
                findings.append(
                    Finding(
                        rule_id=rule.rule_id,
                        code=rule.code,
                        path=str(ctx.path),
                        line=line,
                        col=0,
                        message=(
                            f"suppression [{listed}] silenced nothing; "
                            "remove the stale directive"
                        ),
                    )
                )

    baselined = 0
    if baseline is not None:
        entries = load_baseline(baseline)
        findings, baselined, stale = apply_baseline(findings, entries)
        if stale and enabled("baseline-stale"):
            rule = get_rule("baseline-stale")
            for entry in stale:
                findings.append(
                    Finding(
                        rule_id=rule.rule_id,
                        code=rule.code,
                        path=str(baseline),
                        line=1,
                        col=0,
                        message=(
                            f"stale baseline entry: no {entry.rule_id} "
                            f"finding in {entry.path} matches "
                            f"{entry.message!r}; regenerate with "
                            "--write-baseline"
                        ),
                    )
                )

    if analysis_cache is not None:
        analysis_cache.drop_stale_files(set(file_hashes))
        analysis_cache.save()

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return LintResult(
        findings,
        files_checked,
        suppressed,
        suppressed_by_rule=suppressed_by_rule,
        baselined=baselined,
        cache_stats=stats,
    )


def parse_module(source: str, name: str = "<fixture>") -> ModuleContext:
    """Build a context from a source string (test/fixture convenience)."""
    return ModuleContext(
        path=Path(name),
        source=source,
        tree=ast.parse(source, filename=name),
        package_rel=None,
    )


def _failure_facts(exc: Exception) -> tuple[str, int, int]:
    """(message, line, col) of one parse/read failure."""
    return (
        getattr(exc, "msg", None) or str(exc),
        getattr(exc, "lineno", None) or 1,
        (getattr(exc, "offset", None) or 1) - 1,
    )
