"""The ``scan`` workload's system process: OPAQ passes over a disk file.

Usage: ``python perfbench/scan_child.py DATASET OUT.json SECONDS RUN_SIZE
[--trace] [--setup-only]``

Prints ``ready`` once ``repro`` is imported and the dataset is open (the
set-up the parent times), then runs whole one-pass summaries with
``OPAQ.bounds`` calls on a 99-fraction vector after each, for SECONDS of
timed work after one warm-up pass.  Writes its timings, the warm-up
pass's answer on a dense fraction grid and its own peak RSS to OUT.json
for the parent to check against the exact oracle.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

#: OPAQ.bounds calls after each pass (query latency samples).
BOUNDS_CALLS = 3
SAMPLE_SIZE = 1000


def main() -> int:
    dataset_path, out_path, seconds, run_size = sys.argv[1:5]
    flags = set(sys.argv[5:])
    seconds, run_size = float(seconds), int(run_size)

    import numpy as np

    from repro.core import OPAQ, OPAQConfig
    from repro.storage import DiskDataset, RunReader

    dataset = DiskDataset.open(dataset_path)
    print("ready", flush=True)
    if "--setup-only" in flags:
        return 0

    from common import DENSE_PHIS, peak_rss_mb
    from ledger import Ledger, install_scan

    ledger = Ledger()
    if "--trace" in flags:
        install_scan(ledger)
    estimator = OPAQ(OPAQConfig(run_size=run_size, sample_size=SAMPLE_SIZE))
    phis = np.arange(1, 100) / 100.0

    def one_pass():
        return estimator.summarize(RunReader(dataset, run_size=run_size))

    summary = one_pass()
    first = estimator.bounds(summary, phis)
    dense = estimator.bounds(summary, DENSE_PHIS)  # the accuracy check's answer
    guarantee = int(summary.guaranteed_rank_error())
    ledger.reset()  # the ledger covers the timed passes only
    gc.collect()
    gc.freeze()

    latencies_ms: list[float] = []
    passes = mismatches = 0
    clock = time.perf_counter
    start = clock()
    while True:
        summary = one_pass()
        for _ in range(BOUNDS_CALLS):
            t0 = clock()
            answer = estimator.bounds(summary, phis)
            latencies_ms.append((clock() - t0) * 1e3)
            mismatches += answer != first
        passes += 1
        elapsed = clock() - start
        if elapsed >= seconds:
            break

    result = {
        "passes": passes,
        "elements": passes * dataset.count,
        "elapsed_s": elapsed,
        "bounds_calls": passes * BOUNDS_CALLS,
        "mismatches": int(mismatches),
        "latencies_ms": latencies_ms,
        "count": int(summary.count),
        "guarantee": guarantee,
        "psi": [b.rank for b in dense],
        "lower": [b.lower for b in dense],
        "upper": [b.upper for b in dense],
        "peak_rss_mb": peak_rss_mb(),
        "ledger": ledger.to_dict(),
    }
    Path(out_path).write_text(json.dumps(result))
    print("done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
