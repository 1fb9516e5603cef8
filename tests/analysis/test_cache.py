"""The incremental cache's one invariant: a warm run is *byte-identical*
to a cold run — across every reporter — while re-analyzing only what a
change can actually influence."""

import json
from pathlib import Path

from repro.analysis import lint_paths, render_json, render_text
from repro.analysis.sarif import render_sarif

GOOD = '''\
import threading


class Holder:
    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self):
        with self._lock:
            self._count += 1
'''

BAD = '''\
def leak(path):
    handle = open(path, "rb")
    return handle.read()
'''


def make_tree(root: Path) -> Path:
    """A miniature repro package: one service module, one core module."""
    pkg = root / "repro"
    (pkg / "service").mkdir(parents=True)
    (pkg / "core").mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "service" / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "core" / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "service" / "holder.py").write_text(GOOD, encoding="utf-8")
    (pkg / "core" / "leaky.py").write_text(BAD, encoding="utf-8")
    return pkg


def renders(result):
    return (render_text(result), render_json(result), render_sarif(result))


class TestByteIdenticalReplay:
    def test_warm_run_matches_cold_and_uncached(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache.json"
        uncached = lint_paths([pkg], deep=True)
        cold = lint_paths([pkg], deep=True, cache=cache)
        warm = lint_paths([pkg], deep=True, cache=cache)
        assert renders(uncached) == renders(cold) == renders(warm)
        assert uncached.cache_stats is None
        assert cold.cache_stats.files_reused == 0
        assert warm.cache_stats.files_reused == warm.cache_stats.files_total
        assert (
            warm.cache_stats.deep_rules_reused
            == warm.cache_stats.deep_rules_total
            > 0
        )

    def test_suppression_accounting_survives_replay(self, tmp_path):
        pkg = make_tree(tmp_path)
        target = pkg / "core" / "noisy.py"
        target.write_text(
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time()  "
            "# opaq: ignore[determinism-wall-clock] log only\n",
            encoding="utf-8",
        )
        cache = tmp_path / "cache.json"
        cold = lint_paths([pkg], deep=True, cache=cache)
        warm = lint_paths([pkg], deep=True, cache=cache)
        assert warm.suppressed == cold.suppressed > 0
        assert warm.suppressed_by_rule == cold.suppressed_by_rule
        assert renders(cold) == renders(warm)

    def test_corrupt_cache_is_a_cold_start_not_an_error(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache.json"
        cache.write_text("{not json", encoding="utf-8")
        result = lint_paths([pkg], deep=True, cache=cache)
        assert result.cache_stats.files_reused == 0
        assert renders(result) == renders(lint_paths([pkg], deep=True))
        # ... and the run rewrote it into a usable cache.
        assert json.loads(cache.read_text(encoding="utf-8"))["files"]


class TestInvalidation:
    def test_editing_one_file_reanalyzes_only_it(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache.json"
        lint_paths([pkg], deep=True, cache=cache)
        leaky = pkg / "core" / "leaky.py"
        leaky.write_text(BAD + "\n\nX = 1\n", encoding="utf-8")
        warm = lint_paths([pkg], deep=True, cache=cache)
        assert (
            warm.cache_stats.files_reused
            == warm.cache_stats.files_total - 1
        )
        assert renders(warm) == renders(lint_paths([pkg], deep=True))

    def test_scope_rules_survive_out_of_scope_edits(self, tmp_path):
        """OPQ772 and OPQ773 declare ``deep_dependencies = "scope"``
        (service/ only): editing a core module must replay them from
        cache while the project-wide families re-run."""
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache.json"
        lint_paths([pkg], deep=True, cache=cache)
        (pkg / "core" / "leaky.py").write_text(
            BAD + "\n\nX = 1\n", encoding="utf-8"
        )
        warm = lint_paths([pkg], deep=True, cache=cache)
        stats = warm.cache_stats
        # OPQ772 + OPQ773 replay; every "project"-dependency rule
        # reruns, the thread family (OPQ701, OPQ702) included: its
        # executor role flows through project-wide offload summaries.
        assert stats.deep_rules_reused == 2
        assert stats.deep_rules_total > stats.deep_rules_reused

    def test_in_scope_edit_invalidates_the_scope_rules_too(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache.json"
        lint_paths([pkg], deep=True, cache=cache)
        (pkg / "service" / "holder.py").write_text(
            GOOD + "\n\nX = 1\n", encoding="utf-8"
        )
        warm = lint_paths([pkg], deep=True, cache=cache)
        assert warm.cache_stats.deep_rules_reused == 0

    def test_deleted_file_entry_is_dropped(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache.json"
        lint_paths([pkg], deep=True, cache=cache)
        (pkg / "core" / "leaky.py").unlink()
        warm = lint_paths([pkg], deep=True, cache=cache)
        assert renders(warm) == renders(lint_paths([pkg], deep=True))
        files = json.loads(cache.read_text(encoding="utf-8"))["files"]
        assert not any(key.endswith("leaky.py") for key in files)

    def test_changed_options_invalidate_wholesale(self, tmp_path):
        pkg = make_tree(tmp_path)
        cache = tmp_path / "cache.json"
        lint_paths([pkg], deep=True, cache=cache)
        rerun = lint_paths(
            [pkg], deep=True, cache=cache, ignore=["one-pass-sort"]
        )
        assert rerun.cache_stats.files_reused == 0

    def test_parse_failures_are_never_cached(self, tmp_path):
        pkg = make_tree(tmp_path)
        broken = pkg / "core" / "broken.py"
        broken.write_text("def oops(:\n", encoding="utf-8")
        cache = tmp_path / "cache.json"
        cold = lint_paths([pkg], deep=True, cache=cache)
        warm = lint_paths([pkg], deep=True, cache=cache)
        assert [f.rule_id for f in cold.findings].count("parse-error") == 1
        assert renders(cold) == renders(warm)
        files = json.loads(cache.read_text(encoding="utf-8"))["files"]
        assert not any(key.endswith("broken.py") for key in files)
