"""The paired-run summary of ``tools/paired_bench.py``.

The tool's runs are too slow for tier-1; its summarising function is
pure, so the verdict it prints is held to its contract here.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from paired_bench import directions, quartiles, summarise  # noqa: E402


def _runs(name, values):
    return [{name: v} for v in values]


def test_quartiles_match_the_repeat_summary():
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)


def test_higher_is_better_counts_wins_and_beats_the_iqr():
    base = _runs("throughput_el_s", [70.0, 72.0, 74.0, 76.0])
    change = _runs("throughput_el_s", [90.0, 71.0, 95.0, 96.0])
    row = summarise(base, change, {"throughput_el_s": "higher"})["throughput_el_s"]
    assert row["wins"] == 3 and row["pairs"] == 4
    assert row["base"] == {"median": 73.0, "q1": 70.5, "q3": 75.5}
    assert row["beats_iqr"] is True


def test_lower_is_better_flips_the_direction():
    base = _runs("query_p50_ms", [20.0, 21.0, 22.0])
    change = _runs("query_p50_ms", [19.0, 22.0, 21.5])
    row = summarise(base, change, {"query_p50_ms": "lower"})["query_p50_ms"]
    assert row["wins"] == 2
    # A 0.5 ms better median is inside the base's 2 ms spread.
    assert row["beats_iqr"] is False


def test_ties_are_not_wins_and_a_gain_within_the_iqr_does_not_count():
    base = _runs("m", [10.0, 10.0, 30.0, 30.0])
    change = _runs("m", [10.0, 10.0, 31.0, 31.0])
    row = summarise(base, change, {"m": "higher"})["m"]
    assert row["wins"] == 2
    assert row["beats_iqr"] is False


def test_undeclared_metric_gets_no_verdict():
    row = summarise(_runs("x", [1.0]), _runs("x", [2.0]), {})["x"]
    assert row["wins"] is None and row["beats_iqr"] is None
    assert row["change"]["median"] == 2.0


def test_repo_benchmark_declares_every_end_to_end_direction():
    better = directions(REPO_ROOT)
    assert better["throughput_el_s"] == "higher"
    assert better["query_p50_ms"] == "lower"
    assert set(better.values()) == {"higher", "lower"}
