"""Command-line interface for running reproduction experiments.

Usage (installed as ``repro-bench``, or ``python -m repro.cli``)::

    repro-bench run --workload ysb --scheduler Klink --queries 60
    repro-bench sweep --workload lrb --queries 20 40 60 --schedulers Default Klink
    repro-bench sweep --workload ysb --jobs 4 --no-cache
    repro-bench report --workload ysb --scheduler Klink --queries 8 --duration 30
    repro-bench report --trace trace.jsonl --format json
    repro-bench report --trace trace.jsonl --chrome flame.json
    repro-bench report --trace trace.jsonl --out report.json
    repro-bench compare report.json fresh_trace.jsonl
    repro-bench estimate --delay zipf --confidence 95
    repro-bench check-plan --workload ysb --queries 4
    repro-bench lint src/repro
    repro-bench lint --state src/repro
    repro-bench list

Every command prints a human-readable table; ``--csv PATH`` additionally
writes machine-readable rows.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import List, Optional

from repro.bench.runner import (
    ExperimentConfig,
    SCHEDULER_NAMES,
    WORKLOAD_MEMORY_GB,
    configure_cache,
    run_cached,
    run_experiment,
    sweep,
    trace_from_result,
)
from repro.spe.streams import DEFAULT_BATCH_SIZE
from repro.workloads import (
    WorkloadParams,
    build_queries,
    make_delay_model,
    workload_names,
)

_SUMMARY_FIELDS = [
    "workload",
    "scheduler",
    "n_queries",
    "mean_latency_ms",
    "p90_latency_ms",
    "p99_latency_ms",
    "throughput_eps",
    "mean_memory_gb",
    "mean_cpu_pct",
    "overhead_pct",
]


def _write_csv(path: str, rows: List[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SUMMARY_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in _SUMMARY_FIELDS})


def _summary_row(res) -> dict:
    row = dict(res.summary)
    row["workload"] = res.config.workload
    row["scheduler"] = res.config.scheduler
    row["n_queries"] = res.config.n_queries
    row.pop("mean_slowdown", None)
    return row


def _report_monitors(results: List) -> int:
    """Print invariant reports for monitored runs; 1 if any violated."""
    exit_code = 0
    for res in results:
        if res.monitor is None:
            continue
        label = f"{res.config.scheduler}/n={res.config.n_queries}"
        print(f"[invariants {label}] {res.monitor.report()}")
        if not res.monitor.ok:
            exit_code = 1
    return exit_code


def _print_rows(rows: List[dict]) -> None:
    print(
        f"{'workload':9s} {'scheduler':16s} {'n':>4s} {'mean':>8s} "
        f"{'p90':>8s} {'p99':>8s} {'thr(ev/s)':>12s} {'mem(GB)':>8s} {'cpu%':>6s}"
    )
    for r in rows:
        print(
            f"{r['workload']:9s} {r['scheduler']:16s} {r['n_queries']:4d} "
            f"{r['mean_latency_ms'] / 1000:7.2f}s "
            f"{r['p90_latency_ms'] / 1000:7.2f}s "
            f"{r['p99_latency_ms'] / 1000:7.2f}s "
            f"{r['throughput_eps']:12,.0f} "
            f"{r['mean_memory_gb']:8.3f} "
            f"{r['mean_cpu_pct']:6.1f}"
        )


def _fault_seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"fault seed must be non-negative: {value}"
        )
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="ysb", choices=workload_names())
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulated seconds (default 120)")
    parser.add_argument("--cores", type=int, default=24)
    parser.add_argument("--cycle", type=float, default=120.0,
                        help="scheduling cycle r in ms (default 120)")
    parser.add_argument("--delay", default="uniform", choices=["uniform", "zipf"])
    parser.add_argument("--memory-gb", type=float, default=None,
                        help="memory capacity (default: per-workload)")
    parser.add_argument("--rate-scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--csv", default=None, help="write results as CSV")
    parser.add_argument(
        "--faults", type=_fault_seed, default=None, metavar="SEED",
        help="inject a randomized (but reproducible) fault schedule "
             "generated from SEED: source stalls, watermark stragglers "
             "and drops, operator slowdowns, memory spikes",
    )
    parser.add_argument(
        "--check-invariants", action="store_true",
        help="attach an InvariantMonitor asserting conservation, "
             "watermark-monotonicity, window-firing, and CPU-budget "
             "invariants every cycle; non-zero exit on any violation",
    )
    parser.add_argument(
        "--no-validate", action="store_true",
        help="skip static query-plan validation at engine submission",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="attach a virtual-clock telemetry sampler (queue depth, "
             "watermark lag, slack, SWM-delay moments, memory-mode "
             "occupancy, latency series, deadline misses)",
    )
    parser.add_argument(
        "--telemetry-period", type=float, default=200.0, metavar="MS",
        help="telemetry sample period in virtual ms (default 200)",
    )
    parser.add_argument(
        "--slo-ms", type=float, default=1000.0, metavar="MS",
        help="end-to-end latency SLO; latencies above it count as "
             "deadline misses (default 1000)",
    )
    parser.add_argument(
        "--checkpoint-period", type=float, default=None, metavar="MS",
        help="take a deterministic engine checkpoint every MS of virtual "
             "time (repro.resilience); enables restart/standby recovery "
             "and the checkpoint metrics in the trace summary",
    )
    parser.add_argument(
        "--recover", default=None, choices=["restart", "standby", "none"],
        help="recovery strategy for injected node failures: 'restart' "
             "rolls back to the last checkpoint when the node returns, "
             "'standby' promotes a hot standby at detection, 'none' "
             "models a crash that loses the node's volatile state "
             "(default: legacy lossless pause). restart/standby imply "
             "--checkpoint-period 5000 unless one is given",
    )
    parser.add_argument(
        "--batch-size", type=int, default=DEFAULT_BATCH_SIZE, metavar="N",
        help="payload rows per channel queue entry (default "
             f"{DEFAULT_BATCH_SIZE}; 1 = one row per entry). Execution is "
             "byte-identical for every value — summaries and traces do "
             "not change with it — so this only trades memory for "
             "simulation wall-clock",
    )
    parser.add_argument(
        "--lineage-sample-rate", type=float, default=0.0, metavar="RATE",
        help="trace a deterministic hash-sampled fraction of records "
             "end-to-end (network/queue/execute/window/emit latency "
             "waterfall + SWM-forecast audit); a pure observer — any "
             "rate leaves summaries and checkpoints byte-identical to "
             "an untraced run (default 0 = off)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent result-cache directory (default: "
             "$REPRO_BENCH_CACHE or .bench_cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent result cache: every point simulates "
             "and nothing is written to the cache directory",
    )


def _configure_cli_cache(args: argparse.Namespace) -> None:
    """Apply the run/sweep caching flags to the module-default cache."""
    configure_cache(args.cache_dir, enabled=not args.no_cache)


def _telemetry_fields(args: argparse.Namespace) -> dict:
    """ExperimentConfig kwargs shared by run/sweep telemetry flags."""
    return {
        "telemetry": args.telemetry,
        "telemetry_period_ms": args.telemetry_period,
        "deadline_slo_ms": args.slo_ms,
    }


def cmd_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        workload=args.workload,
        scheduler=args.scheduler,
        n_queries=args.queries,
        duration_ms=args.duration * 1000.0,
        cores=args.cores,
        cycle_ms=args.cycle,
        delay=args.delay,
        rate_scale=args.rate_scale,
        seed=args.seed,
        memory_gb=args.memory_gb,
        fault_seed=args.faults,
        check_invariants=args.check_invariants,
        validate=not args.no_validate,
        trace_path=args.trace,
        checkpoint_period_ms=args.checkpoint_period,
        recover=args.recover,
        batch_size=args.batch_size,
        lineage_sample_rate=args.lineage_sample_rate,
        **_telemetry_fields(args),
    )
    _configure_cli_cache(args)
    res = run_cached(cfg)
    if args.trace:
        print(f"[trace] wrote {args.trace}")
    rows = [_summary_row(res)]
    _print_rows(rows)
    if args.csv:
        _write_csv(args.csv, rows)
    return _report_monitors([res])


def cmd_sweep(args: argparse.Namespace) -> int:
    base = ExperimentConfig(
        workload=args.workload,
        duration_ms=args.duration * 1000.0,
        cores=args.cores,
        cycle_ms=args.cycle,
        delay=args.delay,
        rate_scale=args.rate_scale,
        seed=args.seed,
        memory_gb=args.memory_gb,
        fault_seed=args.faults,
        check_invariants=args.check_invariants,
        validate=not args.no_validate,
        checkpoint_period_ms=args.checkpoint_period,
        recover=args.recover,
        batch_size=args.batch_size,
        lineage_sample_rate=args.lineage_sample_rate,
        **_telemetry_fields(args),
    )
    _configure_cli_cache(args)
    grid = sweep(base, args.schedulers, args.queries, jobs=args.jobs)
    rows = []
    results = []
    for scheduler in args.schedulers:
        for n in args.queries:
            res = grid[(scheduler, n)]
            results.append(res)
            rows.append(_summary_row(res))
    _print_rows(rows)
    if args.csv:
        _write_csv(args.csv, rows)
    return _report_monitors(results)


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import build_report, read_trace, render_text
    from repro.obs.report import render_waterfall
    from repro.obs.schema import SchemaError, validate_report, validate_trace

    if args.trace is not None:
        try:
            trace = read_trace(args.trace)
        except (OSError, ValueError) as exc:
            print(f"[report] ERROR: cannot read trace: {exc}", file=sys.stderr)
            return 1
        if not trace.meta:
            print(
                f"[report] ERROR: {args.trace}: missing meta record "
                "(not a run trace?)",
                file=sys.stderr,
            )
            return 1
        if not trace.summary:
            # A finalized trace always ends with its summary record; a
            # missing one means the run died mid-write (truncated file).
            print(
                f"[report] ERROR: {args.trace}: truncated trace "
                "(no summary record)",
                file=sys.stderr,
            )
            return 1
    else:
        cfg = ExperimentConfig(
            workload=args.workload,
            scheduler=args.scheduler,
            n_queries=args.queries,
            duration_ms=args.duration * 1000.0,
            cores=args.cores,
            cycle_ms=args.cycle,
            delay=args.delay,
            rate_scale=args.rate_scale,
            seed=args.seed,
            memory_gb=args.memory_gb,
            audit=True,
            profile=True,
            telemetry=True,
            trace_path=args.save_trace,
            lineage_sample_rate=args.lineage_sample_rate,
        )
        res = run_experiment(cfg)
        trace = trace_from_result(res)
    report = build_report(trace, top_k=args.top_k)
    payload = json.loads(report.to_json())
    if args.check_schema:
        try:
            validate_report(payload)
            validate_trace(trace)
        except SchemaError as exc:
            print(f"[schema] FAIL: {exc}", file=sys.stderr)
            return 1
        print(
            f"[schema] OK: report + {len(trace.cycles)} cycle, "
            f"{len(trace.operators)} operator, {len(trace.series)} series, "
            f"and {len(trace.lineage)} lineage records",
            file=sys.stderr,
        )
    if args.chrome:
        from repro.obs.flame import write_chrome_trace

        try:
            write_chrome_trace(args.chrome, trace)
        except SchemaError as exc:
            print(f"[chrome] FAIL: {exc}", file=sys.stderr)
            return 1
        print(f"[chrome] wrote {args.chrome}", file=sys.stderr)
    if args.waterfall:
        print(render_waterfall(report))
    elif args.format == "json":
        print(report.to_json())
    else:
        print(render_text(report))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.obs import dumps_line
    from repro.obs.report import compare_reports, load_report, render_comparison

    try:
        baseline = load_report(args.baseline)
        current = load_report(args.current)
    except (OSError, ValueError) as exc:
        print(f"[compare] ERROR: {exc}", file=sys.stderr)
        return 2
    result = compare_reports(baseline, current)
    if args.format == "json":
        print(dumps_line(result.to_dict()))
    else:
        print(render_comparison(result))
    return 0 if result.ok else 1


def cmd_estimate(args: argparse.Namespace) -> int:
    from repro.bench.estimation import estimator_accuracy
    from repro.core.estimator import SwmIngestionEstimator
    from repro.core.lr import LinearRegressionEstimator

    if args.estimator == "lr":
        estimator = LinearRegressionEstimator()
        label = "LR (gradient descent)"
    else:
        estimator = SwmIngestionEstimator(confidence=args.confidence)
        label = f"Klink (f={args.confidence:g})"
    accs = []
    for seed in range(args.repetitions):
        model = make_delay_model(args.delay, seed)
        r = estimator_accuracy(estimator, model, n_epochs=args.epochs, seed=seed)
        accs.append(r.accuracy)
    mean_acc = 100.0 * sum(accs) / len(accs)
    print(f"{label} under {args.delay}: accuracy {mean_acc:.1f}% "
          f"({args.repetitions} seeds x {args.epochs} epochs)")
    return 0


def cmd_check_plan(args: argparse.Namespace) -> int:
    from repro.analysis.plan_check import PlanValidationError, validate_queries

    params = WorkloadParams(delay=args.delay, seed=args.seed)
    try:
        queries = build_queries(args.workload, args.queries, params)
        report = validate_queries(queries, raise_on_error=False)
    except PlanValidationError as exc:
        # Structural errors surface while the Query objects are built.
        print(exc.report.render_text())
        return 1
    if args.format == "json":
        print(report.to_json())
    else:
        text = report.render_text()
        if text:
            print(text)
        print(
            f"{args.workload}/{args.queries} queries: "
            f"{len(report.errors)} error(s), {len(report.warnings)} warning(s)"
        )
    return 1 if report.errors else 0


def cmd_list(args: argparse.Namespace) -> int:
    print("workloads  :", ", ".join(workload_names()))
    print("schedulers :", ", ".join(SCHEDULER_NAMES))
    print("memory/GiB :", ", ".join(
        f"{k}={v}" for k, v in WORKLOAD_MEMORY_GB.items()
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Klink reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a single experiment")
    _add_common(run_p)
    run_p.add_argument("--scheduler", default="Klink", choices=SCHEDULER_NAMES)
    run_p.add_argument("--queries", type=int, default=60)
    run_p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="stream a full run trace (scheduler decisions, operator "
             "profiles, telemetry series, summary) to PATH as JSONL, "
             "for repro-bench report / compare",
    )
    run_p.set_defaults(func=cmd_run)

    report_p = sub.add_parser(
        "report",
        help="render a run report (decision timeline, per-operator "
             "profile, latency CDF) from a saved trace or a fresh run",
    )
    report_p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="read a trace written by 'run --trace' instead of running",
    )
    report_p.add_argument("--workload", default="ysb", choices=workload_names())
    report_p.add_argument("--scheduler", default="Klink",
                          choices=SCHEDULER_NAMES)
    report_p.add_argument("--queries", type=int, default=8)
    report_p.add_argument("--duration", type=float, default=30.0,
                          help="simulated seconds (default 30)")
    report_p.add_argument("--cores", type=int, default=24)
    report_p.add_argument("--cycle", type=float, default=120.0)
    report_p.add_argument("--delay", default="uniform",
                          choices=["uniform", "zipf"])
    report_p.add_argument("--rate-scale", type=float, default=1.0)
    report_p.add_argument("--seed", type=int, default=1)
    report_p.add_argument("--memory-gb", type=float, default=None)
    report_p.add_argument("--save-trace", default=None, metavar="PATH",
                          help="also stream the run's trace to PATH")
    report_p.add_argument("--top-k", type=int, default=10,
                          help="hottest operators to list (default 10)")
    report_p.add_argument("--format", default="text",
                          choices=["text", "json"])
    report_p.add_argument("--out", default=None, metavar="PATH",
                          help="also write the JSON report to PATH")
    report_p.add_argument(
        "--check-schema", action="store_true",
        help="validate the report and trace records against the "
             "documented schemas; non-zero exit on mismatch",
    )
    report_p.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="also export a Chrome trace-event (chrome://tracing / "
             "Perfetto) flame chart of the run to PATH",
    )
    report_p.add_argument(
        "--lineage-sample-rate", type=float, default=0.0, metavar="RATE",
        help="for fresh runs: trace a deterministic hash-sampled "
             "fraction of records for the latency waterfall and "
             "SWM-forecast audit (default 0 = off)",
    )
    report_p.add_argument(
        "--waterfall", action="store_true",
        help="print only the lineage sections: latency waterfall, "
             "SWM-forecast accuracy, and tracing overhead",
    )
    report_p.set_defaults(func=cmd_report)

    compare_p = sub.add_parser(
        "compare",
        help="diff two run reports; nonzero exit when CURRENT regresses "
             "BASELINE",
    )
    for name in ("baseline", "current"):
        compare_p.add_argument(
            name, metavar=name.upper(),
            help="a run trace (.jsonl) or a report JSON from "
                 "'report --out'",
        )
    compare_p.add_argument("--format", default="text",
                           choices=["text", "json"])
    compare_p.set_defaults(func=cmd_compare)

    sweep_p = sub.add_parser("sweep", help="sweep query counts x schedulers")
    _add_common(sweep_p)
    sweep_p.add_argument("--schedulers", nargs="+", default=["Default", "Klink"],
                         choices=SCHEDULER_NAMES)
    sweep_p.add_argument("--queries", nargs="+", type=int,
                         default=[20, 40, 60, 80])
    sweep_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan cache-miss points over N worker processes (results "
             "are byte-identical to a serial run; default 1)",
    )
    sweep_p.set_defaults(func=cmd_sweep)

    est_p = sub.add_parser("estimate", help="SWM estimator accuracy")
    est_p.add_argument("--estimator", default="klink", choices=["klink", "lr"])
    est_p.add_argument("--confidence", type=float, default=95.0)
    est_p.add_argument("--delay", default="uniform", choices=["uniform", "zipf"])
    est_p.add_argument("--epochs", type=int, default=400)
    est_p.add_argument("--repetitions", type=int, default=3)
    est_p.set_defaults(func=cmd_estimate)

    from repro.analysis.lint import add_arguments

    add_arguments(sub.add_parser(
        "lint",
        help="run the source analyzer over source trees (KL rules; "
        "--state adds the KS2xx/KW3xx rules)",
    ))

    check_p = sub.add_parser(
        "check-plan",
        help="statically validate a workload's query plans (KP rules)",
    )
    check_p.add_argument("--workload", default="ysb", choices=workload_names())
    check_p.add_argument("--queries", type=int, default=4)
    check_p.add_argument("--delay", default="uniform",
                         choices=["uniform", "zipf"])
    check_p.add_argument("--seed", type=int, default=1)
    check_p.add_argument("--format", default="text", choices=["text", "json"])
    check_p.set_defaults(func=cmd_check_plan)

    list_p = sub.add_parser("list", help="list workloads and schedulers")
    list_p.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
