"""Command-line interface: the OPAQ toolchain end to end.

::

    opaq generate --dist zipf --n 1000000 --out keys.opaq
    opaq info keys.opaq
    opaq summarize keys.opaq --sample-size 1000 --out keys.summary.npz
    opaq query keys.summary.npz --dectiles
    opaq query keys.summary.npz --phi 0.5 --phi 0.99
    opaq rank keys.summary.npz 123456.0
    opaq exact keys.opaq --phi 0.5 --sample-size 1000
    opaq run keys.opaq --dectiles --trace --metrics-out metrics.json
    opaq run keys.opaq --phi 0.5 --procs 8 --merge bitonic
    opaq run keys.opaq --phi 0.5 --procs 4 --backend process
    opaq run keys.opaq --dectiles --engine kll        # portfolio engines
    opaq run keys.opaq --dectiles --engine smallest-memory   # policy alias
    opaq experiment table11 --metrics-out t11.json
    opaq sort keys.opaq sorted.opaq --memory 2000000
    opaq report            # regenerate EXPERIMENTS.md content on stdout
    opaq lint src/repro    # enforce the paper's disciplines statically
    opaq serve --shards 4 --snapshot-dir snaps/   # binary protocol v3 server
    opaq serve --tenant-engine acme=mergeable-sketch   # per-tenant engines
    opaq query --server opaq://127.0.0.1:8629 --dectiles

Every subcommand is also reachable as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro import __version__
from repro.apps import external_sort
from repro.core import (
    OPAQ,
    OPAQConfig,
    OPAQSummary,
    estimate_rank,
    exact_quantiles,
)
from repro.errors import ConfigError, ReproError
from repro.metrics import dectile_fractions
from repro.storage import DiskDataset, MemoryModel, RunReader
from repro.workloads import GENERATOR_NAMES, make_generator, write_dataset

__all__ = ["main", "build_parser"]


def _config_for(n: int, args: argparse.Namespace) -> OPAQConfig:
    """Build an OPAQConfig from common CLI flags."""
    sample_size = args.sample_size
    if args.run_size:
        run_size = args.run_size
    elif args.memory:
        run_size = MemoryModel(args.memory).suggest(n, sample_size)
    else:
        run_size = max(sample_size, min(n, int(np.sqrt(float(n) * sample_size))))
    return OPAQConfig(
        run_size=run_size,
        sample_size=min(sample_size, run_size),
        memory=args.memory,
        strategy=args.strategy,
    )


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sample-size", type=int, default=1000, help="s: samples per run"
    )
    parser.add_argument(
        "--run-size", type=int, default=None, help="m: keys per run"
    )
    parser.add_argument(
        "--memory",
        type=int,
        default=None,
        help="M: memory budget in keys (derives m, enforces r*s + m <= M)",
    )
    parser.add_argument(
        "--strategy",
        default="numpy",
        help="selection strategy: numpy|sort|median_of_medians|floyd_rivest",
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the collected trace (spans + counters) after the run",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write aggregated metrics (repro.obs/v1 JSON) to FILE",
    )


def _run_traced(args: argparse.Namespace, work):
    """Run ``work()`` under a tracer when the obs flags ask for one.

    Returns ``work()``'s result.  With ``--trace`` the span/counter
    aggregate is printed to stderr (stdout stays parseable); with
    ``--metrics-out`` the aggregate is written as JSON.
    """
    from repro.obs import MemorySink, aggregate, tracing, write_metrics

    if not (args.trace or args.metrics_out):
        return work()
    sink = MemorySink()
    with tracing(sink):
        result = work()
    if args.metrics_out:
        write_metrics(args.metrics_out, sink.events)
        print(
            f"metrics ({len(sink)} events) written to {args.metrics_out}",
            file=sys.stderr,
        )
    if args.trace:
        agg = aggregate(sink.events)
        print("trace:", file=sys.stderr)
        for name, span in sorted(agg["spans"].items()):
            print(
                f"  span     {name:<24} x{span['count']:<5} "
                f"{span['seconds']:.6f}s",
                file=sys.stderr,
            )
        for name, total in sorted(agg["counters"].items()):
            print(f"  counter  {name:<24} {total:g}", file=sys.stderr)
    return result


def _cmd_generate(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.zipf_parameter is not None:
        kwargs["parameter"] = args.zipf_parameter
    if args.duplicate_fraction is not None:
        kwargs["duplicate_fraction"] = args.duplicate_fraction
    generator = make_generator(args.dist, **kwargs)
    ds = write_dataset(args.out, generator, args.n, seed=args.seed)
    print(f"wrote {ds.count:,} {args.dist} keys to {ds.path} ({ds.nbytes:,} bytes)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    if str(args.data).endswith(".npz"):
        summary = OPAQSummary.load(args.data)
        print(f"summary:    {args.data}")
        print(f"describes:  {summary.count:,} keys in {summary.num_runs} runs")
        print(f"samples:    {summary.num_samples:,} "
              f"({summary.memory_footprint:,} keys of memory)")
        print(f"range:      [{summary.minimum:.6g}, {summary.maximum:.6g}]")
        print(f"guarantee:  each bound within "
              f"{summary.guaranteed_rank_error():,} ranks "
              f"({summary.guaranteed_rank_error() / summary.count:.4%} of n)")
        return 0
    ds = DiskDataset.open(args.data)
    print(f"path:     {ds.path}")
    print(f"keys:     {ds.count:,}")
    print(f"dtype:    {ds.dtype}")
    print(f"payload:  {ds.nbytes:,} bytes")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    summary = OPAQSummary.load(args.summary)
    before = summary.guaranteed_rank_error()
    compacted = summary.compact_to(args.max_samples)
    compacted.save(args.out)
    print(
        f"{summary.num_samples:,} samples -> {compacted.num_samples:,}; "
        f"guarantee {before:,} -> {compacted.guaranteed_rank_error():,} ranks"
    )
    print(f"compacted summary saved to {args.out}")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    ds = DiskDataset.open(args.data)
    config = _config_for(ds.count, args)
    reader = RunReader(ds, run_size=config.run_size)
    summary = OPAQ(config).summarize(reader)
    summary.save(args.out)
    print(
        f"one pass over {ds.count:,} keys: r={summary.num_runs} runs of "
        f"m={config.run_size:,}, s={config.sample_size} -> "
        f"{summary.num_samples:,} samples retained"
    )
    print(
        f"guarantee: each quantile bound within "
        f"{summary.guaranteed_rank_error():,} ranks of the truth"
    )
    print(f"summary saved to {args.out}")
    return 0


def _phis_from(args: argparse.Namespace) -> list[float]:
    if args.dectiles or not args.phi:
        return [float(p) for p in dectile_fractions()]
    return args.phi


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.core import quantile_bounds

    if args.server:
        from repro.service import ServiceClient

        answer = ServiceClient(args.server).quantiles(_phis_from(args)).to_dict()
        print(
            f"epoch {answer['epoch']}: {answer['count']:,} keys served, "
            f"guarantee {answer['guarantee']:,} ranks per bound, "
            f"staleness {answer['staleness']:,}"
        )
        print(f"{'phi':>6}  {'lower':>18}  {'upper':>18}  {'max between':>12}")
        for row in answer["results"]:
            print(
                f"{row['phi']:>6.3f}  {row['lower']:>18.6f}  "
                f"{row['upper']:>18.6f}  {row['max_between']:>12,}"
            )
        return 0
    if args.summary is None:
        raise ConfigError("pass a summary file or --server URL")
    summary = OPAQSummary.load(args.summary)
    print(f"{'phi':>6}  {'lower':>18}  {'upper':>18}  {'max between':>12}")
    for phi in _phis_from(args):
        b = quantile_bounds(summary, phi)
        print(
            f"{phi:>6.3f}  {b.lower:>18.6f}  {b.upper:>18.6f}  "
            f"{b.max_between:>12,}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service import (
        QuantileService,
        ServiceConfig,
        ThreadedBinaryServer,
    )
    from repro.service.tenancy import RegistryConfig

    tenant_engines = {}
    for spec in args.tenant_engine:
        tenant, sep, engine = spec.partition("=")
        if not sep or not tenant or not engine:
            raise ConfigError(
                f"--tenant-engine {spec!r} must look like TENANT=ENGINE"
            )
        tenant_engines[tenant] = engine
    config = ServiceConfig(
        num_shards=args.shards,
        run_size=args.run_size or 100_000,
        sample_size=args.sample_size,
        queue_capacity=args.queue_capacity,
        max_shard_samples=args.max_shard_samples,
        max_merged_samples=args.max_merged_samples,
        snapshot_every=args.snapshot_every,
        snapshot_dir=args.snapshot_dir,
        tenancy=RegistryConfig(
            memory_budget=args.tenancy_budget,
            num_shards=args.tenancy_shards,
            per_key_epsilon=args.tenancy_epsilon,
            spill_dir=args.tenancy_spill_dir,
            engine=args.tenancy_engine,
            tenant_engines=tenant_engines,
        ),
    )
    service = QuantileService(config)
    if service.restored_epoch is not None:
        restored = service.restored_epoch
        print(
            f"warm restart: epoch {restored.epoch} "
            f"({restored.count:,} keys) restored from {args.snapshot_dir}",
            flush=True,
        )

    def _terminate(signum, frame):  # pragma: no cover - signal path
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _terminate)
    server = ThreadedBinaryServer(service, host=args.host, port=args.port)
    server.start()
    print(
        f"serving on {server.url} (binary protocol v3, "
        f"shards={config.num_shards}, s={config.sample_size})",
        flush=True,
    )
    try:
        signal.pause()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        service.close(final_snapshot=True)
        print("shut down cleanly (final snapshot flushed)", flush=True)
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    summary = OPAQSummary.load(args.summary)
    band = estimate_rank(summary, args.value)
    print(
        f"rank({args.value}) in [{band.low:,}, {band.high:,}] of "
        f"{band.n:,}  (phi in [{band.phi_low:.4f}, {band.phi_high:.4f}])"
    )
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    ds = DiskDataset.open(args.data)
    config = _config_for(ds.count, args)
    phis = _phis_from(args)
    values, bounds, _ = exact_quantiles(ds, phis, config)
    print(f"{'phi':>6}  {'exact value':>18}  {'one-pass bounds':>40}")
    for phi, value, b in zip(phis, values, bounds):
        print(
            f"{phi:>6.3f}  {value:>18.6f}  "
            f"[{b.lower:>18.6f}, {b.upper:>18.6f}]"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.portfolio import ENGINES, resolve_engine

    ds = DiskDataset.open(args.data)
    config = _config_for(ds.count, args)
    phis = _phis_from(args)
    engine_name = resolve_engine(args.engine)

    if engine_name != "opaq":
        if args.procs > 1 or args.backend != "simulated":
            raise ConfigError(
                f"--engine {engine_name} runs single-process; the parallel "
                "machine (--procs/--backend) is OPAQ-only"
            )
        # Equal-memory hand-off: the alternative engine gets exactly the
        # slots the OPAQ configuration would retain (3 per sample across
        # every run), so `opaq run --engine X` answers "same memory,
        # different algorithm" by construction.
        budget = 3 * config.sample_size * config.num_runs(ds.count)
        spec = ENGINES[engine_name]
        engine = spec.for_budget(budget, n_hint=ds.count)

        def sketch_work():
            summary = engine.summarize(ds)
            return engine.bounds(summary, phis), summary

        bounds, summary = _run_traced(args, sketch_work)
        print(f"{'phi':>6}  {'lower':>18}  {'upper':>18}  {'max between':>12}")
        for phi, b in zip(phis, bounds):
            print(
                f"{phi:>6.3f}  {b.lower:>18.6f}  {b.upper:>18.6f}  "
                f"{b.max_between:>12,}"
            )
        print(
            f"engine {engine_name} ({spec.guarantee} guarantee): "
            f"{summary.memory_footprint:,} of {budget:,} equal-memory "
            f"slots, rank guarantee {summary.guaranteed_rank_error():,}"
        )
        return 0

    def work():
        if args.procs > 1 or args.backend != "simulated":
            from repro.parallel import ParallelOPAQ

            par = ParallelOPAQ(
                max(1, args.procs),
                config,
                merge_method=args.merge,
                backend=args.backend,
            )
            res = par.run(ds, phis=phis)
            return res.bounds(phis), res
        est = OPAQ(config)
        return est.bounds(est.summarize(ds), phis), None

    bounds, parallel = _run_traced(args, work)
    print(f"{'phi':>6}  {'lower':>18}  {'upper':>18}  {'max between':>12}")
    for phi, b in zip(phis, bounds):
        print(
            f"{phi:>6.3f}  {b.lower:>18.6f}  {b.upper:>18.6f}  "
            f"{b.max_between:>12,}"
        )
    if parallel is not None:
        print(
            f"modelled: p={parallel.num_procs} ({parallel.merge_method} "
            f"merge), {parallel.total_time:.4f}s simulated wall-clock"
        )
        measured = parallel.measured_elapsed()
        if measured is not None:
            print(
                f"measured: {parallel.backend} backend, "
                f"{measured:.4f}s wall-clock across phases"
            )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.experiments import EXPERIMENTS

    try:
        fn = EXPERIMENTS[args.name]
    except KeyError:
        raise ConfigError(
            f"unknown experiment {args.name!r}; choose from "
            f"{tuple(EXPERIMENTS)}"
        ) from None
    result = _run_traced(args, fn)
    print(result.render())
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    ds = DiskDataset.open(args.data)
    report = external_sort(ds, args.out, memory=args.memory)
    print(
        f"sorted {ds.count:,} keys into {args.out} with "
        f"{report.passes_over_input} reads of the input"
    )
    print(
        f"buckets: {report.num_buckets} "
        f"(largest {report.max_bucket:,} <= guaranteed "
        f"{report.guaranteed_max_bucket:,} <= memory {args.memory:,})"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.apps import TableStatistics
    from repro.storage import TableDataset

    table = TableDataset.open(args.table)
    config = _config_for(table.row_count, args)
    stats = TableStatistics.collect(table, config)
    stats.save(args.out)
    print(
        f"analyzed {len(stats.columns)} columns x {table.row_count:,} rows "
        f"(one OPAQ pass per column); catalog saved to {args.out}"
    )
    return 0


def _parse_predicates(raw: list[str]) -> list:
    """Parse ``column:lo:hi`` strings into predicates."""
    from repro.apps import Predicate
    from repro.errors import ConfigError

    predicates = []
    for spec in raw:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"predicate {spec!r} must look like column:lo:hi"
            )
        predicates.append(Predicate(parts[0], float(parts[1]), float(parts[2])))
    return predicates


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.apps import TableStatistics

    stats = TableStatistics.load(args.stats)
    predicates = _parse_predicates(args.predicate)
    est = stats.conjunction(predicates)
    rows = stats.row_count
    print("predicates:")
    for p, band in zip(predicates, est.per_column):
        print(
            f"  {p.column} in [{p.lo:g}, {p.hi:g}]: selectivity "
            f"~{band.estimate:.4f} (guaranteed [{band.lower:.4f}, {band.upper:.4f}])"
        )
    print(
        f"conjunction: ~{est.independence * rows:,.0f} rows "
        f"(independence), guaranteed in "
        f"[{est.lower * rows:,.0f}, {est.upper * rows:,.0f}]"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import main as report_main

    report_main(sys.stdout)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        lint_paths,
        render_json,
        render_rule_list,
        render_sarif,
        render_text,
        write_baseline,
    )

    if args.list_rules:
        print(render_rule_list())
        return 0
    baseline = Path(args.baseline) if args.baseline else None
    if args.write_baseline:
        target = baseline or Path(".opaqlint-baseline.json")
        result = lint_paths(
            args.paths or ["src/repro"],
            select=args.select,
            ignore=args.ignore,
            deep=args.deep,
            cache=args.cache,
        )
        count = write_baseline(target, result.findings)
        print(f"wrote {count} baseline entr{'y' if count == 1 else 'ies'} to {target}")
        return 0
    result = lint_paths(
        args.paths or ["src/repro"],
        select=args.select,
        ignore=args.ignore,
        deep=args.deep,
        baseline=baseline,
        cache=args.cache,
    )
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result))
    return 0 if result.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opaq",
        description="OPAQ: one-pass quantile estimation for disk-resident data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--dist", choices=GENERATOR_NAMES, default="uniform")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--zipf-parameter", type=float, default=None)
    p.add_argument("--duplicate-fraction", type=float, default=None)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("info", help="describe a dataset or summary file")
    p.add_argument("data")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser(
        "compact", help="shrink a summary to a memory bound (looser bounds)"
    )
    p.add_argument("summary")
    p.add_argument("--max-samples", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_compact)

    p = sub.add_parser("summarize", help="one OPAQ pass -> summary file")
    p.add_argument("data")
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_summarize)

    p = sub.add_parser(
        "query", help="quantile bounds from a summary file or a running server"
    )
    p.add_argument("summary", nargs="?", default=None)
    p.add_argument("--phi", type=float, action="append", default=[])
    p.add_argument("--dectiles", action="store_true")
    p.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="query a running `opaq serve` at opaq://host:port instead "
        "of a file",
    )
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser(
        "serve",
        help="run the sharded quantile-serving subsystem (binary wire v3)",
        description=(
            "Start a QuantileService: routed ingest across N shard "
            "workers (bounded queues, backpressure), epoch-based snapshot "
            "merging, and the framed binary protocol v3 on "
            "opaq://host:port.  With --snapshot-dir the server persists "
            "every epoch and warm-restarts from the newest one; "
            "SIGTERM/Ctrl-C flushes a final snapshot.  See docs/service.md."
        ),
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8629,
        help="TCP port (0 picks a free one and prints it)",
    )
    p.add_argument("--shards", type=int, default=4, help="ingest shards")
    p.add_argument(
        "--sample-size", type=int, default=1000, help="s: samples per run"
    )
    p.add_argument(
        "--run-size", type=int, default=None, help="m: keys folded per run"
    )
    p.add_argument(
        "--queue-capacity", type=int, default=64,
        help="bounded ingest queue depth per shard, in batches",
    )
    p.add_argument(
        "--max-shard-samples", type=int, default=100_000,
        help="compaction bound of each shard's sample list",
    )
    p.add_argument(
        "--max-merged-samples", type=int, default=None,
        help="compaction bound of the merged epoch snapshot",
    )
    p.add_argument(
        "--snapshot-every", type=int, default=None, metavar="N",
        help="auto-advance the epoch every N ingested elements",
    )
    p.add_argument(
        "--snapshot-dir", default=None,
        help="persist epochs here and warm-restart from the newest",
    )
    p.add_argument(
        "--tenancy-budget", type=int, default=8_000_000, metavar="SLOTS",
        help="global memory budget of the multi-tenant registry, in "
        "float64 slots shared by every (tenant, metric) key",
    )
    p.add_argument(
        "--tenancy-shards", type=int, default=8,
        help="lock shards of the multi-tenant registry",
    )
    p.add_argument(
        "--tenancy-epsilon", type=float, default=0.01, metavar="EPS",
        help="per-key rank-error budget: every keyed answer serves "
        "(guarantee - 1) <= EPS * count for its own key",
    )
    p.add_argument(
        "--tenancy-spill-dir", default=None, metavar="DIR",
        help="spill cold keys here under budget pressure and "
        "warm-restart keyed answers from it (without it, keyed ingest "
        "over budget reports backpressure instead of spilling)",
    )
    p.add_argument(
        "--tenancy-engine", default="opaq", metavar="NAME",
        help="default portfolio engine for keyed summaries: opaq, kll, "
        "gk, as95, or a policy alias (deterministic-guarantee, "
        "mergeable-sketch, smallest-memory); see docs/portfolio.md",
    )
    p.add_argument(
        "--tenant-engine", action="append", default=[],
        metavar="TENANT=ENGINE",
        help="pin one tenant's keys to a specific engine (repeatable); "
        "tenants not listed use --tenancy-engine",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("rank", help="rank band of a value from a summary")
    p.add_argument("summary")
    p.add_argument("value", type=float)
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("exact", help="two-pass exact quantiles")
    p.add_argument("data")
    p.add_argument("--phi", type=float, action="append", default=[])
    p.add_argument("--dectiles", action="store_true")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser(
        "run",
        help="one-shot estimation with optional tracing/metrics",
        description=(
            "Run OPAQ end to end over a dataset (optionally on the "
            "simulated parallel machine) and print quantile bounds.  "
            "--trace/--metrics-out expose the per-phase spans and the "
            "cost-model counters (I/O, comparisons, SPMD messages)."
        ),
    )
    p.add_argument("data")
    p.add_argument("--phi", type=float, action="append", default=[])
    p.add_argument("--dectiles", action="store_true")
    p.add_argument(
        "--procs",
        type=int,
        default=1,
        help="run parallel OPAQ on this many processors (default 1)",
    )
    p.add_argument(
        "--merge",
        choices=("sample", "bitonic"),
        default="sample",
        help="global merge method for --procs > 1",
    )
    p.add_argument(
        "--backend",
        choices=("simulated", "serial", "thread", "process"),
        default="simulated",
        help="execution substrate for the parallel run: the SP-2 cost "
        "model (simulated, default) or real workers (see docs/parallel.md)",
    )
    p.add_argument(
        "--engine",
        default="opaq",
        metavar="NAME",
        help="estimation engine: opaq (default), kll, gk, as95, or a "
        "policy alias (deterministic-guarantee, mergeable-sketch, "
        "smallest-memory); non-opaq engines run at OPAQ's memory budget "
        "(see docs/portfolio.md)",
    )
    _add_config_flags(p)
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "experiment",
        help="run one reproduced table/figure by name",
    )
    p.add_argument("name", help="e.g. table11 (see repro.experiments)")
    _add_obs_flags(p)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("sort", help="external sort via OPAQ splitters")
    p.add_argument("data")
    p.add_argument("out")
    p.add_argument("--memory", type=int, required=True)
    p.set_defaults(fn=_cmd_sort)

    p = sub.add_parser(
        "analyze", help="per-column OPAQ statistics over a columnar table"
    )
    p.add_argument("table")
    p.add_argument("--out", required=True, help="catalog directory")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser(
        "explain", help="cardinality estimate from a saved catalog"
    )
    p.add_argument("stats", help="catalog directory from `opaq analyze`")
    p.add_argument(
        "--predicate",
        action="append",
        required=True,
        help="range predicate as column:lo:hi (repeatable)",
    )
    p.set_defaults(fn=_cmd_explain)

    p = sub.add_parser(
        "report", help="regenerate the EXPERIMENTS.md content on stdout"
    )
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "lint",
        help="statically check the one-pass/determinism/SPMD disciplines",
        description=(
            "opaqlint: AST-based enforcement of the paper's invariants "
            "(one-pass, memory, determinism, SPMD safety, exception "
            "hygiene).  Exits 1 when findings remain, 0 when clean."
        ),
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (sarif: SARIF 2.1.0 for CI annotation)",
    )
    p.add_argument(
        "--select", action="append", metavar="RULE",
        help="run only this rule id/code (repeatable)",
    )
    p.add_argument(
        "--ignore", action="append", metavar="RULE",
        help="skip this rule id/code (repeatable)",
    )
    p.add_argument(
        "--deep", action="store_true",
        help="also run the project-wide flow/thread families "
        "(OPQ7xx/OPQ8xx): builds the cross-module index and per-function "
        "control-flow graphs",
    )
    p.add_argument(
        "--baseline", metavar="FILE",
        help="subtract adopted findings recorded in this baseline file; "
        "stale entries fail the run (OPQ903)",
    )
    p.add_argument(
        "--write-baseline", action="store_true",
        help="record the current findings as the new baseline "
        "(to --baseline, default .opaqlint-baseline.json) and exit 0",
    )
    p.add_argument(
        "--cache", metavar="FILE", nargs="?",
        const=".opaqlint-cache.json", default=None,
        help="reuse results for unchanged files from this incremental "
        "cache file (default name when given bare: .opaqlint-cache.json); "
        "output is byte-identical to an uncached run",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    p.set_defaults(fn=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; silence the default
        # traceback and let the flush-on-exit see a dead descriptor too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
