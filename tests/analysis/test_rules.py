"""Fixture-based tests: every rule family fires on its known-bad snippet
and stays silent on the corresponding known-good one."""

from pathlib import Path

import pytest

from repro.analysis import lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

#: (fixture file, rule that must fire there, expected finding count)
BAD = [
    ("bad_one_pass_sort.py", "one-pass-sort", 3),
    ("bad_one_pass_reread.py", "one-pass-reread", 1),
    ("bad_memory_materialize.py", "memory-materialize", 3),
    ("bad_wall_clock_report.py", "determinism-wall-clock", 2),
    ("bad_unseeded_rng.py", "determinism-unseeded-rng", 3),
    ("bad_float_equality.py", "determinism-float-equality", 2),
    ("bad_spmd_self_message.py", "spmd-self-message", 2),
    ("bad_spmd_unmatched_send.py", "spmd-unmatched-send", 2),
    ("bad_spmd_reordered_send.py", "spmd-reordered-send", 1),
    ("bad_backend_unbounded_wait.py", "spmd-unbounded-blocking", 5),
    ("bad_exceptions.py", "exception-foreign-raise", 2),
    ("bad_exceptions.py", "exception-bare-except", 1),
    ("bad_service_queue.py", "service-unbounded-queue", 4),
    ("bad_service_snapshot.py", "service-snapshot-lock", 2),
    ("bad_broad_except.py", "exception-broad-except", 2),
]

#: (fixture file, rule that must fire under --deep, expected finding count)
DEEP_BAD = [
    ("bad_thread_roles.py", "thread-unguarded-write", 2),
    ("bad_thread_roles.py", "thread-concurrent-rmw", 1),
    ("bad_double_consume.py", "one-pass-double-consume", 2),
    ("bad_consumed_reentry.py", "one-pass-consumed-reentry", 2),
    # The pre-fix shm pack/unpack shape (kept as a regression of the
    # real bug the OPQ25x family found in the process backend).
    ("bad_resource_shm.py", "resource-leak-exception-path", 2),
    ("bad_resource_shm.py", "resource-escape-undocumented", 1),
    ("bad_resource_release.py", "resource-release-not-postdominating", 2),
    ("bad_resource_escape.py", "resource-escape-undocumented", 2),
    ("bad_lock_order.py", "lock-order-cycle", 1),
    # A real cycle through a project close() on an untyped receiver.
    ("bad_lock_order_project_close.py", "lock-order-cycle", 1),
    ("bad_blocking_lock.py", "blocking-while-holding-lock", 2),
    # The pre-fix shape of the real OPQ771 finding in service/aio.py
    # (STATS answered inline on the loop through a lock-taking callee).
    ("bad_async_stats_on_loop.py", "async-blocking-call", 3),
    ("bad_async_lock_across_await.py", "async-lock-across-await", 2),
    ("bad_async_unawaited.py", "async-unawaited-coroutine", 2),
    ("bad_async_cross_role.py", "async-cross-role-write", 2),
    # Protocol callbacks are the loop's code, like coroutines.
    ("bad_async_protocol_callback.py", "async-blocking-call", 3),
    ("bad_async_protocol_callback.py", "async-cross-role-write", 2),
]

#: fixtures that must be fully clean under the whole deep rule set
DEEP_GOOD = [
    "good_thread_roles.py",
    "good_double_consume.py",
    "good_service.py",
    "good_broad_except.py",
    "good_resource_shm.py",
    "good_lock_order.py",
    # os.close under a lock is not a call of the project's close().
    "good_lock_order_module_call.py",
    "good_blocking_lock.py",
    "good_async_service.py",
    "good_async_protocol.py",
]

#: (fixture file, rule that must stay silent there)
GOOD = [
    ("good_one_pass_sort.py", "one-pass-sort"),
    ("good_one_pass_reread.py", "one-pass-reread"),
    ("good_memory_materialize.py", "memory-materialize"),
    ("good_determinism.py", "determinism-wall-clock"),
    ("good_determinism.py", "determinism-unseeded-rng"),
    ("good_determinism.py", "determinism-float-equality"),
    ("good_spmd.py", "spmd-self-message"),
    ("good_spmd.py", "spmd-unmatched-send"),
    ("good_spmd.py", "spmd-reordered-send"),
    ("good_backend_bounded_wait.py", "spmd-unbounded-blocking"),
    ("good_exceptions.py", "exception-foreign-raise"),
    ("good_exceptions.py", "exception-bare-except"),
    ("good_service.py", "service-unbounded-queue"),
    ("good_service.py", "service-snapshot-lock"),
    ("good_broad_except.py", "exception-broad-except"),
]


@pytest.mark.parametrize("fixture,rule,count", BAD)
def test_rule_fires_on_known_bad(fixture, rule, count):
    result = lint_paths([FIXTURES / fixture], select=[rule])
    assert len(result.findings) == count
    assert all(f.rule_id == rule for f in result.findings)
    assert all(f.line > 0 and f.path.endswith(fixture) for f in result.findings)


@pytest.mark.parametrize("fixture,rule", GOOD)
def test_rule_silent_on_known_good(fixture, rule):
    result = lint_paths([FIXTURES / fixture], select=[rule])
    assert result.findings == []


def test_good_fixtures_are_fully_clean():
    """Good fixtures pass the *entire* rule set, not just their family."""
    for fixture, _ in GOOD:
        result = lint_paths([FIXTURES / fixture])
        assert result.findings == [], f"{fixture}: {result.findings}"


@pytest.mark.parametrize("fixture,rule,count", DEEP_BAD)
def test_deep_rule_fires_on_known_bad(fixture, rule, count):
    result = lint_paths([FIXTURES / fixture], select=[rule], deep=True)
    assert len(result.findings) == count, result.findings
    assert all(f.rule_id == rule for f in result.findings)
    assert all(f.line > 0 and f.path.endswith(fixture) for f in result.findings)


def test_deep_rules_need_deep_mode():
    # Without --deep the project families never run: the bad threading
    # fixture sails through a shallow pass.
    result = lint_paths(
        [FIXTURES / "bad_thread_roles.py"], select=["thread-unguarded-write"]
    )
    assert result.findings == []


@pytest.mark.parametrize("fixture", DEEP_GOOD)
def test_deep_good_fixtures_are_fully_clean(fixture):
    """Good fixtures pass the entire rule set *including* deep families."""
    result = lint_paths([FIXTURES / fixture], deep=True)
    assert result.findings == [], f"{fixture}: {result.findings}"


def test_suppression_is_counted():
    result = lint_paths([FIXTURES / "good_one_pass_sort.py"])
    assert result.clean
    assert result.suppressed == 1


def test_unmatched_send_names_the_missing_mirror():
    result = lint_paths(
        [FIXTURES / "bad_spmd_unmatched_send.py"], select=["spmd-unmatched-send"]
    )
    assert any("no mirrored" in f.message for f in result.findings)


def test_codes_and_ids_are_interchangeable():
    by_id = lint_paths([FIXTURES / "bad_exceptions.py"], select=["exception-foreign-raise"])
    by_code = lint_paths([FIXTURES / "bad_exceptions.py"], select=["OPQ501"])
    assert [f.line for f in by_id.findings] == [f.line for f in by_code.findings]


def test_ignore_excludes_a_family():
    result = lint_paths(
        [FIXTURES / "bad_exceptions.py"],
        ignore=["exception-foreign-raise", "exception-bare-except"],
    )
    assert result.findings == []
