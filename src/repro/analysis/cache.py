"""Incremental analysis cache: content-hash keyed, byte-identical replay.

``opaq lint --deep`` re-parses and re-judges every file on every run;
fine at 100 files, but the cost grows with the repo while CI budgets do
not.  This cache makes warm runs cheap **without changing a single byte
of output**, which is the invariant everything here serves:

- **Per-file layer.**  For each parsed file the cache stores its content
  hash, package-relative path, suppression-directive table, and the
  *raw, pre-suppression* findings of every module rule.  A warm run with
  a matching hash replays those raw findings through the very same
  ``admit()`` pipeline a cold run uses — suppression marks, OPQ902
  staleness, baseline subtraction and the final sort are all recomputed
  live, so the output cannot drift from a cold run's.
- **Deep layer.**  Each :class:`~repro.analysis.framework.ProjectRule`'s
  findings are keyed by a digest over the content hashes of every file
  the rule can observe — all of them by default
  (``deep_dependencies = "project"``: summaries flow through arbitrary
  call edges), or only the rule's scoped files when the rule declares
  ``deep_dependencies = "scope"`` and its resolution provably never
  leaves that scope (OPQ772 and OPQ773).  Editing one service file
  therefore re-runs the service-scoped families and every project-wide
  family, but nothing else.

The cache **never** stores post-suppression results, never caches files
that failed to parse, and invalidates wholesale when the rule universe,
the select/ignore set, or the library version changes (the
:func:`cache_fingerprint`).  Corrupt or alien cache files are treated as
empty, never as errors — a cache must only ever be able to make a run
faster, not wrong.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import repro
from repro.analysis.framework import (
    Finding,
    ModuleContext,
    Rule,
    Suppressions,
)

__all__ = [
    "CACHE_VERSION",
    "AnalysisCache",
    "CacheStats",
    "CachedModule",
    "cache_fingerprint",
    "hash_bytes",
]

#: Bump when the cache layout or replay semantics change, and when a
#: rule starts judging code it did not judge before: the fingerprint
#: names rules only by code, so a cache from before would replay the
#: old findings for every unchanged file.  2: OPQ771/OPQ774 judge
#: asyncio protocol callbacks.  3: OPQ701/OPQ702 take the binary
#: server's event-loop and executor roles.
CACHE_VERSION = 3


def hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cache_fingerprint(
    selected: set[str] | None,
    ignored: set[str],
    deep: bool,
    rules: Iterable[Rule],
) -> str:
    """Digest of everything that changes findings besides file content."""
    payload = json.dumps(
        {
            "version": repro.__version__,
            "cache_version": CACHE_VERSION,
            "rules": sorted(f"{rule.code}:{rule.rule_id}" for rule in rules),
            "selected": sorted(selected) if selected is not None else None,
            "ignored": sorted(ignored),
            "deep": deep,
        },
        sort_keys=True,
    )
    return hash_bytes(payload.encode("utf-8"))


@dataclass
class CacheStats:
    """What the cache did for one run (never rendered into reports)."""

    files_total: int = 0
    files_reused: int = 0
    deep_rules_total: int = 0
    deep_rules_reused: int = 0


@dataclass
class CachedModule:
    """A cache-hit file: enough to replay admits without re-parsing.

    Duck-typed against :class:`~repro.analysis.framework.ModuleContext`
    for the runner's suppression pipeline (``.path``, ``.package_rel``,
    ``.suppressions``); it has no AST — a deep-phase miss upgrades it to
    a real context by re-parsing.
    """

    path: Path
    package_rel: str | None
    suppressions: Suppressions
    findings: list[Finding] = field(default_factory=list)


def _finding_to_dict(finding: Finding) -> dict[str, object]:
    return {
        "rule_id": finding.rule_id,
        "code": finding.code,
        "path": finding.path,
        "line": finding.line,
        "col": finding.col,
        "message": finding.message,
    }


def _finding_from_dict(data: Mapping[str, object]) -> Finding:
    return Finding(
        rule_id=str(data["rule_id"]),
        code=str(data["code"]),
        path=str(data["path"]),
        line=int(data["line"]),  # type: ignore[arg-type]
        col=int(data["col"]),  # type: ignore[arg-type]
        message=str(data["message"]),
    )


class AnalysisCache:
    """One on-disk cache file, loaded eagerly, saved explicitly."""

    def __init__(self, path: Path, fingerprint: str) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self._files: dict[str, dict[str, object]] = {}
        self._deep: dict[str, dict[str, object]] = {}
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return  # absent or corrupt: start cold
        if not isinstance(data, dict):
            return
        if data.get("fingerprint") != self.fingerprint:
            return  # different rules/options/version: everything stale
        files = data.get("files")
        deep = data.get("deep")
        if isinstance(files, dict):
            self._files = files
        if isinstance(deep, dict):
            self._deep = deep

    def save(self) -> None:
        payload = {
            "fingerprint": self.fingerprint,
            "files": self._files,
            "deep": self._deep,
        }
        self.path.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    # -- per-file layer -------------------------------------------------

    def lookup_file(self, key: str, digest: str) -> CachedModule | None:
        entry = self._files.get(key)
        if not isinstance(entry, dict) or entry.get("hash") != digest:
            return None
        try:
            raw = entry["findings"]
            table = entry["suppressions"]
            package_rel = entry["package_rel"]
            findings = [_finding_from_dict(f) for f in raw]  # type: ignore[union-attr]
            suppressions = Suppressions.from_table(table)  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            return None  # malformed entry: treat as a miss
        return CachedModule(
            path=Path(key),
            package_rel=package_rel if isinstance(package_rel, str) else None,
            suppressions=suppressions,
            findings=findings,
        )

    def store_file(
        self,
        key: str,
        digest: str,
        ctx: ModuleContext,
        findings: list[Finding],
    ) -> None:
        self._files[key] = {
            "hash": digest,
            "package_rel": ctx.package_rel,
            "suppressions": ctx.suppressions.to_table(),
            "findings": [_finding_to_dict(f) for f in findings],
        }

    def drop_stale_files(self, live_keys: set[str]) -> None:
        """Forget entries for files no longer walked (deleted/moved)."""
        for key in list(self._files):
            if key not in live_keys:
                del self._files[key]

    # -- deep layer -----------------------------------------------------

    @staticmethod
    def dep_digest(
        rule: Rule,
        file_hashes: Mapping[str, str],
        package_rels: Mapping[str, str | None],
    ) -> str:
        """Digest of every file that can influence ``rule``'s findings.

        A file missing from ``package_rels`` (it failed to parse, so it
        never joined the project index) still contributes its hash: when
        it starts parsing, the rules must re-run.
        """
        parts = []
        for key in sorted(file_hashes):
            if rule.deep_dependencies == "scope" and key in package_rels:
                rel = package_rels[key]
                if (
                    rel is not None
                    and rule.scope_prefixes
                    and not rel.startswith(rule.scope_prefixes)
                ):
                    continue
            parts.append(f"{key}:{file_hashes[key]}")
        return hash_bytes("\n".join(parts).encode("utf-8"))

    def lookup_deep(self, rule_id: str, dep: str) -> list[Finding] | None:
        entry = self._deep.get(rule_id)
        if not isinstance(entry, dict) or entry.get("dep") != dep:
            return None
        try:
            return [_finding_from_dict(f) for f in entry["findings"]]  # type: ignore[union-attr]
        except (KeyError, TypeError, ValueError):
            return None

    def store_deep(
        self, rule_id: str, dep: str, findings: list[Finding]
    ) -> None:
        self._deep[rule_id] = {
            "dep": dep,
            "findings": [_finding_to_dict(f) for f in findings],
        }
