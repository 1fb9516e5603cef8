"""The repository's benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload keyed --seed 1 --seconds 8 --trace 1
    python3 perfbench/run.py --workload stream --repeat 5 --seconds 8

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer ledger and
the tracing overhead.  Human-readable lines start with ``#``; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--repeat N`` runs the
workload N times in fresh processes (seeds ``seed .. seed+N-1``) and
prints each metric's median, quartiles and relative IQR.

Exit status: 0 on a completed run (even one whose answers failed the
oracle: ``correct`` reports that), 2 when no trustworthy run was
possible (missing program source, a child that would not start).
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BenchError, WorkDir, print_header, require_source  # noqa: E402

WORKLOAD_NAMES = ("scan", "stream", "keyed")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run N times in fresh processes and summarise")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes (tiny: the smoke run's)")
    return parser.parse_args(argv)


def _result_line(outcome, trace: bool) -> str:
    metrics = outcome.layers if trace else outcome.metrics
    return json.dumps(
        {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )


def run_once(args: argparse.Namespace) -> int:
    require_source()
    from workloads import SCALES, WORKLOADS

    with WorkDir(args.workload) as work:
        print_header(args.workload, args.seed, args.seconds,
                     {"work (dataset, snapshots, spill)": work.path})
        outcome = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), work, SCALES[args.scale]
        )
    for note in outcome.notes:
        print(f"# {note}")
    print(f"# failed_frac={outcome.failed / max(1, outcome.attempted):.6g} "
          f"({outcome.failed} of {outcome.attempted} operations)")
    print(_result_line(outcome, bool(args.trace)), flush=True)
    return 0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_repeat(args: argparse.Namespace) -> int:
    """N fresh runs; per metric the median, quartiles and relative IQR."""
    runs = []
    for i in range(args.repeat):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(done.stdout + done.stderr, file=sys.stderr)
            raise BenchError(f"run {i} (seed {args.seed + i}) exited {done.returncode}")
        result = json.loads(lines[-1])
        runs.append(result)
        print(f"# run {i} seed {args.seed + i}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = _quartiles(values)
        summary[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "rel_iqr": (q3 - q1) / median if median else None,
        }
        rel = summary[name]["rel_iqr"]
        print(f"# {name:28s} median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"rel_iqr={'n/a' if rel is None else f'{rel:.4f}'} {first['unit']}")
    print(json.dumps({"workload": args.workload, "runs": len(runs),
                      "all_correct": all(r["correct"] for r in runs), "metrics": summary}))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)

    def _terminate(signum, frame):
        raise SystemExit(128 + signum)  # unwinds through every cleanup

    signal.signal(signal.SIGTERM, _terminate)
    try:
        return run_repeat(args) if args.repeat else run_once(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
