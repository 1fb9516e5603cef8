#!/usr/bin/env python3
"""Paired benchmark runs: the checkout against a base revision.

Runs ``--pairs`` pairs of ``perfbench/run.py --workload W --seconds S``:
one run of the base revision and one of the checkout per pair, both with
the pair's seed (``--seed``, ``--seed + 1``, ...).  The order inside a
pair alternates (base first, then checkout first) so a drifting host
penalises neither side.  The base is exported with ``git archive`` into
a temporary directory, and both trees are byte-compiled with
``compileall`` before the first run, so no timed run pays for
compilation.

Per end-to-end metric it prints both sides' median and quartiles, how
many pairs the checkout won (strictly better in the direction
``BENCHMARK.json`` declares), and whether the checkout's median beats
the base's by more than the base's interquartile range — the rule a
claimed gain has to pass.  Host speed drifts between runs, so only
paired runs are compared.

Run from the root of a checkout::

    python3 tools/paired_bench.py --workload keyed --pairs 10 --seconds 15
    python3 tools/paired_bench.py --workload stream --pairs 4 --base HEAD~1

Exit status: 0 when every run completed, 2 when a run or the export
failed.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, the way ``perfbench/run.py --repeat`` does."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(
    base: list[dict[str, float]],
    change: list[dict[str, float]],
    better: dict[str, str],
) -> dict[str, dict[str, object]]:
    """Per metric: both sides' quartiles, the change's pair wins, and
    whether its median beats the base's by more than the base's IQR.

    ``base[i]`` and ``change[i]`` are the metric values of pair ``i``;
    ``better`` maps a metric to ``"higher"`` or ``"lower"``.  A metric
    with no declared direction gets ``wins`` and ``beats_iqr`` of
    ``None``; a tie never counts as a win.
    """
    out: dict[str, dict[str, object]] = {}
    for name in base[0]:
        pairs = [(b[name], c[name]) for b, c in zip(base, change)]
        b_q1, b_median, b_q3 = quartiles([b for b, _ in pairs])
        c_q1, c_median, c_q3 = quartiles([c for _, c in pairs])
        sign = {"higher": 1.0, "lower": -1.0}.get(better.get(name, ""))
        wins = beats_iqr = None
        if sign is not None:
            wins = sum(sign * (c - b) > 0 for b, c in pairs)
            beats_iqr = sign * (c_median - b_median) > b_q3 - b_q1
        out[name] = {
            "base": {"median": b_median, "q1": b_q1, "q3": b_q3},
            "change": {"median": c_median, "q1": c_q1, "q3": c_q3},
            "pairs": len(pairs),
            "wins": wins,
            "beats_iqr": beats_iqr,
        }
    return out


def directions(root: Path) -> dict[str, str]:
    """Metric name -> ``"higher"``/``"lower"`` from ``BENCHMARK.json``."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        m["name"]: m["better"]
        for m in spec.get("end_to_end", []) + spec.get("per_layer", [])
    }


def export(revision: str, into: Path) -> Path:
    """``git archive`` of ``revision``, unpacked into ``into``."""
    archive = subprocess.run(
        ["git", "-C", str(REPO_ROOT), "archive", "--format=tar", revision],
        capture_output=True,
        check=True,
    )
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def compile_tree(root: Path) -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q",
         str(root / "src"), str(root / "perfbench")],
        check=True,
        stdout=subprocess.DEVNULL,
    )


def run_bench(root: Path, args: argparse.Namespace, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``; its final JSON line."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise RuntimeError(f"{root}: seed {seed} exited {done.returncode}")
    return json.loads(lines[-1])


def _values(result: dict) -> dict[str, float]:
    return {k: float(v["value"]) for k, v in result["metrics"].items()}


def report(summary: dict[str, dict[str, object]]) -> None:
    print(f"{'metric':22s} {'base median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s}  wins  beats base IQR")
    for name, row in summary.items():
        b, c = row["base"], row["change"]
        wins = "-" if row["wins"] is None else f"{row['wins']}/{row['pairs']}"
        print(f"{name:22s} "
              f"{b['median']:>12.6g} [{b['q1']:.6g}, {b['q3']:.6g}] "
              f"{c['median']:>12.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"{wins:>4s}  {row['beats_iqr']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "stream", "keyed"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--base", default="HEAD",
                        help="git revision to compare against (default HEAD)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="paired-bench-") as tmp:
        try:
            base_root = export(args.base, Path(tmp))
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive {args.base}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        for root in (base_root, REPO_ROOT):
            compile_tree(root)
        base_runs, change_runs = [], []
        for i in range(args.pairs):
            seed = args.seed + i
            order = [("base", base_root), ("change", REPO_ROOT)]
            if i % 2:
                order.reverse()
            results = {}
            try:
                for side, root in order:
                    results[side] = run_bench(root, args, seed)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            for side, result in results.items():
                print(f"# pair {i} seed {seed} {side}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} " + " ".join(
                          f"{k}={v:.6g}" for k, v in _values(result).items()),
                      flush=True)
            base_runs.append(_values(results["base"]))
            change_runs.append(_values(results["change"]))
    report(summarise(base_runs, change_runs, directions(REPO_ROOT)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
