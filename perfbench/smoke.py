"""Tiny-scale smoke run of the benchmark: every workload once, one traced.

Run from the root of a checkout::

    python3 perfbench/smoke.py

Each run uses the ``tiny`` input sizes and one second of timed work.  It
asserts that the result line names every metric of ``BENCHMARK.json``
with its unit, that the run is correct and that no operation failed.
Exits 0 when every run passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
RUNS = [("scan", 0), ("stream", 0), ("keyed", 0), ("keyed", 1)]


def check(workload: str, trace: int, spec: dict) -> list[str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expected = spec["per_layer" if trace else "end_to_end"]
    problems = [
        f"{m['name']}: printed {result['metrics'].get(m['name'])}, want unit {m['unit']!r}"
        for m in expected
        if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]
    ]
    extra = set(result["metrics"]) - {m["name"] for m in expected}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    if not any(line.startswith("# failed_frac=0 ") for line in lines):
        problems.append("no '# failed_frac=0' line")
    return problems


def main() -> int:
    spec = json.loads(SPEC.read_text())
    failures = 0
    for workload, trace in RUNS:
        problems = check(workload, trace, spec)
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
