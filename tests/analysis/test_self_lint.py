"""Tier-1 gate: the library must satisfy its own static discipline.

Any new full sort, second pass, wall-clock read, unseeded RNG, unmatched
SPMD send or foreign raise in ``src/repro`` fails this test — which is
the point: the paper's guarantees are properties of the *source*, and CI
enforces them mechanically from here on.
"""

from pathlib import Path

import pytest

import repro
from repro.analysis import lint_paths, render_text

SRC = Path(repro.__file__).parent


@pytest.fixture(scope="module")
def shallow():
    """One shallow lint of the package, shared by the tests below."""
    return lint_paths([SRC])


def test_repro_package_is_lint_clean(shallow):
    assert shallow.findings == [], "\n" + render_text(shallow)


def test_self_lint_covers_the_whole_package(shallow):
    # The package has dozens of modules; a collapse of this number means
    # the walker broke, not that the code shrank.
    assert shallow.files_checked >= 60


def test_suppressions_are_rare_and_justified(shallow):
    # Every suppression in the tree is a reviewed escape hatch: bounded
    # base-case sorts in the selection routines, the sanctioned
    # broad-except guard of the shard worker loop, the
    # execution backends' worker isolation boundaries — the one place a
    # catch MUST be total, because every worker failure has to become a
    # typed ParallelError rather than a hang or a bare traceback — the
    # shared-memory cleanup guards in ``_pack``/``_unpack``, whose
    # ``except BaseException: release; raise`` is exactly the shape
    # OPQ251 demands (a narrower catch would strand a named segment on
    # KeyboardInterrupt) — the binary server's startup isolation boundary
    # (``service/aio.py``: a bind failure on the server thread must be
    # carried back to ``start()`` on the caller's thread, whatever it is)
    # — the sample-merge argsort, which sorts already-selected
    # samples, not the run — and the multiselect kernel's dense-rank
    # sort, which sorts ONE in-memory run during the sample phase (the
    # measured-faster alternative to multi-pivot introselect), never the
    # dataset.  This ceiling forces a conversation before anyone
    # sprinkles new ones.
    assert shallow.suppressed <= 19


def test_repro_package_is_deep_lint_clean(deep_lint):
    """The flow/thread families hold project-wide: no unguarded
    cross-role writes, no double-consumed streams, no stale suppressions
    anywhere in ``src/repro``."""
    assert deep_lint.findings == [], "\n" + render_text(deep_lint)
