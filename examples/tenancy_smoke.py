"""Smoke the multi-tenant registry over the real binary wire.

Boots ``opaq serve`` as a child process with a deliberately tight
``--tenancy-budget`` and a spill directory, streams batches for dozens
of ``(tenant, metric)`` keys through the keyed opcodes
(``INGEST_KEYED`` / ``QUANTILES_KEYED``), and checks, per key, that the
served bounds enclose the true quantiles and that the per-key error
contract ``(g - 1) <= epsilon * count`` held even though the budget
forced cold keys to spill to disk.  Rollup queries (``tenant="*"``)
must answer from the aggregation tree with the exact global count.
Two keys test the one ingest policy over the wire: one holds ``±inf``
(ordered values, kept), one both signs of zero (stored as ``+0.0``, so
no answer's bytes may hold a negative zero), and a frame holding NaN
must get a ``DataError`` reply on a connection that keeps serving.
Then SIGTERMs the server — it must exit 0 — and warm-restarts a second
server on the same spill directory: every key must answer
**byte-identically** from its restored summary without re-ingesting.

Run:  python examples/tenancy_smoke.py
"""

import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.errors import DataError
from repro.service import ServiceClient

TENANTS = 8
METRICS = 6
PER_KEY = 2_000
EPSILON = 0.02
BUDGET = 40_000  # sample slots: far below TENANTS*METRICS resident demand
PHIS = [0.25, 0.5, 0.9]


def start_server(spill_dir: str) -> tuple[subprocess.Popen, str]:
    """Launch `opaq serve` with a tight tenancy budget; return (proc, url)."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--shards", "2",
            "--run-size", "20000",
            "--sample-size", "500",
            "--tenancy-budget", str(BUDGET),
            "--tenancy-epsilon", str(EPSILON),
            "--tenancy-spill-dir", spill_dir,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    while True:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("server exited before announcing its port")
        print(f"  [server] {line.rstrip()}")
        if line.startswith("serving on "):
            return proc, line.split()[2]


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM the server; it must exit 0."""
    proc.send_signal(signal.SIGTERM)
    output, _ = proc.communicate(timeout=60)
    for line in output.splitlines():
        print(f"  [server] {line}")
    assert proc.returncode == 0, f"server exited {proc.returncode}"


def check(label: str, ok: bool) -> None:
    print(f"  {label}: {'yes' if ok else 'NO!'}")
    assert ok, label


def keyed_data() -> dict[tuple[str, str], np.ndarray]:
    rng = np.random.default_rng(1997)  # the paper is VLDB'97
    batches = {
        (f"tenant{t:02d}", f"metric{m}"): rng.lognormal(
            mean=0.1 * t, sigma=1.0 + 0.05 * m, size=PER_KEY
        )
        for t in range(TENANTS)
        for m in range(METRICS)
    }
    # The ingest policy's edge values: both infinities, ordered and
    # kept, and both signs of zero, stored as +0.0.
    infinite = rng.normal(size=PER_KEY)
    infinite[::40] = -np.inf
    infinite[7::40] = np.inf
    batches[("edge", "infinite")] = infinite
    batches[("edge", "zeros")] = rng.choice([-0.0, 0.0, -1.0, 1.0], size=PER_KEY)
    return batches


def negative_zeros(answers) -> int:
    return sum(
        int(np.count_nonzero((bound == 0) & np.signbit(bound)))
        for a in answers
        for bound in (a.lower, a.upper)
    )


def fingerprints(client, pairs):
    """Raw served bytes per key — the bit-identity currency."""
    answers = client.quantiles_keyed(pairs, PHIS)
    return {
        (a.tenant, a.metric): (
            a.count, a.guarantee,
            a.lower.tobytes(), a.upper.tobytes(), a.psi.tobytes(),
        )
        for a in answers
    }


def main() -> None:
    batches = keyed_data()
    pairs = sorted(batches)
    total = PER_KEY * len(pairs)

    with tempfile.TemporaryDirectory() as spill_dir:
        print(
            f"first life ({len(pairs)} keys x {PER_KEY:,} elements, "
            f"budget {BUDGET:,} slots):"
        )
        proc, url = start_server(spill_dir)
        try:
            client = ServiceClient(url)
            receipt = client.ingest_keyed(batches)
            check(
                f"keyed ingest accepted {total:,} elements over {len(pairs)} keys",
                receipt == {"elements": total, "keys": len(pairs)},
            )

            tenancy = client.stats()["tenancy"]
            print(
                f"  resident={tenancy['resident_keys']} "
                f"spilled={tenancy['spilled_keys']} "
                f"used={tenancy['used_slots']:,}/{tenancy['budget_slots']:,} slots"
            )
            check("budget forced spills", tenancy["spills"] > 0)
            check(
                "resident slots within budget",
                tenancy["used_slots"] <= tenancy["budget_slots"],
            )

            answers = client.quantiles_keyed(pairs, PHIS)
            worst = 0.0
            for answer, pair in zip(answers, pairs):
                sorted_data = np.sort(batches[pair])
                for i in range(len(PHIS)):
                    true_value = sorted_data[answer.psi[i] - 1]
                    assert answer.lower[i] <= true_value <= answer.upper[i], pair
                worst = max(worst, answer.epsilon_bound)
            check(
                f"all {len(pairs)} keys enclose their true quantiles, "
                "the ±inf and ±0.0 keys included",
                True,
            )
            check("no answer holds a negative zero", negative_zeros(answers) == 0)
            check(
                f"worst served per-key epsilon {worst:.4f} <= {EPSILON}",
                worst <= EPSILON,
            )

            [rollup] = client.quantiles_keyed([("*", "*")], PHIS)
            check(
                f"global rollup counts all {total:,} elements",
                rollup.source == "rollup:global" and rollup.count == total,
            )
            first = fingerprints(client, pairs)

            sock = client._transport._sock
            try:
                client.ingest_keyed({("edge", "nan"): np.array([1.0, np.nan])})
                refused = False
            except DataError as exc:
                refused = "NaN" in str(exc)
            check("a frame holding NaN gets a DataError reply", refused)
            check(
                "the same connection keeps serving",
                fingerprints(client, pairs) == first
                and client._transport._sock is sock,
            )
            client.close()
        finally:
            stop_server(proc)

        print("second life (warm restart over the same spill dir):")
        proc, url = start_server(spill_dir)
        try:
            client = ServiceClient(url)
            second = fingerprints(client, pairs)
            check(
                "every key answers byte-identically after the restart",
                first == second,
            )
            client.close()
        finally:
            stop_server(proc)
    print("tenancy smoke: all checks passed")


if __name__ == "__main__":
    main()
