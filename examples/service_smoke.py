"""Smoke the sharded quantile service over its real wire protocol.

Boots ``opaq serve`` as a child process on a free port speaking
**binary protocol v3**, streams 100k elements at it in numpy batches
through the asyncio server, snapshots, and checks the served quantile
vector against ground truth computed in this process: each true quantile
must lie inside the returned ``[e_l, e_u]`` with at most
``2 x guarantee`` elements between the bounds (the paper's Lemma 3,
recomputed for the merged shard layout).  Then SIGTERMs the server —
which must exit 0 after flushing a final snapshot — boots a second
server on the same snapshot directory, and verifies the warm restart
serves a byte-identical quantile vector without re-ingesting anything.

Run:  python examples/service_smoke.py
"""

import os
import signal
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

import repro
from repro.service import ServiceClient

N = 100_000
BATCH = 5_000
PHIS = [0.25, 0.5, 0.75]


def start_server(snapshot_dir: str) -> tuple[subprocess.Popen, str]:
    """Launch `opaq serve` on a free port; return (process, address)."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--shards",
            "2",
            "--run-size",
            "20000",
            "--sample-size",
            "500",
            "--snapshot-dir",
            snapshot_dir,
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


def stop_server(proc: subprocess.Popen) -> str:
    """SIGTERM the server and return its remaining output (must exit 0)."""
    proc.send_signal(signal.SIGTERM)
    output, _ = proc.communicate(timeout=60)
    for line in output.splitlines():
        print(f"  [server] {line}")
    assert proc.returncode == 0, f"server exited {proc.returncode}"
    return output


def check(label: str, ok: bool) -> None:
    print(f"  {label}: {'yes' if ok else 'NO!'}")
    assert ok, label


def main() -> None:
    rng = np.random.default_rng(2026)
    data = rng.lognormal(mean=0.0, sigma=1.5, size=N)
    sorted_data = np.sort(data)

    with tempfile.TemporaryDirectory() as snapshot_dir:
        print(f"first life (ingest {N:,} elements over binary protocol v3):")
        proc, url = start_server(snapshot_dir)
        try:
            check("server speaks opaq://", url.startswith("opaq://"))
            client = ServiceClient(url)
            for start in range(0, N, BATCH):
                # Batched array ingest: numpy in, framed bytes on the wire.
                client.ingest(data[start : start + BATCH])
            epoch = client.snapshot()
            check(f"epoch 1 covers all {N:,} elements", epoch["count"] == N)

            # One round-trip answers the whole fraction vector.
            vec = client.quantiles(PHIS)
            print(
                f"  served epoch {vec.epoch}: n={vec.count:,}, "
                f"guarantee n/s ~= {vec.guarantee}"
            )
            for i, phi in enumerate(PHIS):
                lower, upper = vec.lower[i], vec.upper[i]
                true_value = sorted_data[vec.ranks[i] - 1]
                enclosed = lower <= true_value <= upper
                between = int(
                    np.searchsorted(sorted_data, upper, side="left")
                    - np.searchsorted(sorted_data, lower, side="right")
                )
                print(
                    f"  phi={phi:.2f}: [{lower:.5f}, {upper:.5f}] "
                    f"true={true_value:.5f}, {between} elements between "
                    f"(budget {2 * vec.guarantee})"
                )
                check(
                    f"phi={phi:.2f} enclosed within deterministic window",
                    enclosed and between <= 2 * vec.guarantee,
                )
            first_vec = vec
        finally:
            output = stop_server(proc)
        check("SIGTERM shut the server down cleanly", "cleanly" in output)

        print("second life (warm restart from the snapshot directory):")
        proc, url = start_server(snapshot_dir)
        try:
            restarted = ServiceClient(url).quantiles(PHIS)
            check(
                "warm restart serves the identical epoch",
                restarted.epoch == first_vec.epoch
                and restarted.count == first_vec.count,
            )
            # Every field of the vector, as raw IEEE-754 / int64 bytes.
            check(
                "warm restart serves a bit-identical quantile vector",
                all(
                    np.asarray(getattr(restarted, f.name)).tobytes()
                    == np.asarray(getattr(first_vec, f.name)).tobytes()
                    for f in fields(restarted)
                ),
            )
        finally:
            stop_server(proc)

    print("service smoke passed.")


if __name__ == "__main__":
    main()
