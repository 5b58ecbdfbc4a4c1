"""Host-cost benchmark of the Klink simulator: five workloads from the
paper's experiments, end-to-end timings from untraced runs, and per-layer
times from a separate traced run.

    python3 perfbench/run.py [--seed 11] [--repeats 15] [--out FILE] [--spans DIR]
    python3 perfbench/run.py --workload ysb-klink --seed 11 --seconds 20 --trace 0
    python3 perfbench/run.py --compare A.json B.json

Without ``--workload`` it runs a full set: ``--repeats`` untraced runs per
workload, round-robin across workloads, then one traced run each. With
``--workload`` it runs that workload for about ``--seconds`` and prints, as
its last line, one JSON object with the end-to-end metrics (``--trace 0``)
or the per-layer metrics (``--trace 1``). Every run is a fresh child
process (child.py), one at a time. The command exits 1 when a run fails
its correctness checks and 2 when the benchmark cannot run at all, in
which case it prints no result. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from hooks import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: (name, unit) of the end-to-end metrics, measured on untraced runs.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("cycle_ms_p50", "ms"),
    ("cycle_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
)
#: Time of hooks.reference_work on an idle baseline host. Other tenants of
#: a shared host change its speed by 10-20% over minutes, so timings are
#: reported at this reference speed: measured time x REFERENCE_MS / the
#: median reference time measured during the same runs.
REFERENCE_MS = 4.0
#: whole-run metrics of a traced run, beside the layers of hooks.py
RUN_METRICS = (("run.sim_speed_x", "x"), ("run.ns_per_row", "ns"), ("trace.overhead_pct", "%"))
PER_LAYER = tuple((name, unit) for name, unit, _ in LAYER_METRICS) + RUN_METRICS

#: Untraced runs per estimate. A per-cycle floor over more runs reads
#: lower, so every estimate takes its floors over exactly this many runs,
#: and an untraced invocation runs whole groups (at least one).
GROUP = 3
CHILD_TIMEOUT_S = 150.0


class HarnessError(RuntimeError):
    """The benchmark could not run (as opposed to a run failing its checks)."""


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile."""
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- running -----------------------------------------------------------------


def run_child(name: str, seed: int, traced: bool, spans: Optional[str] = None) -> Dict[str, Any]:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", name, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    if spans is not None:
        cmd += ["--spans", spans]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{name} seed {seed}: run exceeded {CHILD_TIMEOUT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(
            f"{name} seed {seed}: run exited {proc.returncode}\n{proc.stderr.strip()}"
        )
    result = json.loads(lines[-1])
    for warning in result["warnings"]:
        print(f"warning: {name}: {warning}", file=sys.stderr)
    return result


def measure(name: str, seed: int, seconds: float, traced: bool, spans: Optional[str]) -> List[Dict[str, Any]]:
    """Runs of one workload for about ``seconds``: untraced runs in whole
    groups of :data:`GROUP` while the next group is expected to fit. A
    traced invocation starts with its traced run and then needs untraced
    runs only for the tracing overhead, so it adds them one at a time."""
    start = time.monotonic()
    runs = [run_child(name, seed, True, spans)] if traced else []
    step = 1 if traced else GROUP
    durations: List[float] = []
    while not durations or (
        time.monotonic() - start + step * statistics.fmean(durations) <= seconds
    ):
        for _ in range(step):
            t0 = time.monotonic()
            runs.append(run_child(name, seed, False))
            durations.append(time.monotonic() - t0)
    return runs


# -- checking and summarising --------------------------------------------------


def check_runs(name: str, runs: Sequence[Dict[str, Any]]) -> List[List[str]]:
    """Each run's failed checks (an empty list for a passing run).

    All runs of one workload and seed must give the same summary digest —
    repeats are deterministic and tracing only observes — so a run whose
    digest differs from the most common one fails.
    """
    reference = Counter(r["digest"] for r in runs).most_common(1)[0][0]
    expects_recovery = WORKLOADS[name].expects_recovery
    failures = []
    for r in runs:
        sim, reasons = r["simulated"], []
        if r["digest"] != reference:
            reasons.append("summary digest differs from the other runs")
        for key in ("mean_latency_ms", "p99_latency_ms", "throughput_eps"):
            if math.isnan(sim[key]):
                reasons.append(f"{key} is NaN")
        if r["monitor_ok"] is False or (r["traced"] and r["monitor_ok"] is None):
            reasons.append("invariant monitor not ok")
        if expects_recovery and not (
            sim["recoveries"] >= 1 and sim["checkpoints_taken"] >= 1 and sim["events_lost"] == 0
        ):
            reasons.append(
                "expected >=1 recovery, >=1 checkpoint and 0 events lost, got "
                f"{sim['recoveries']}, {sim['checkpoints_taken']}, {sim['events_lost']}"
            )
        failures.append(reasons)
    return failures


def group_metrics(group: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """The end-to-end metrics of one group of untraced runs of one
    workload and seed.

    Timings are scaled by ``REFERENCE_MS`` over the group's median
    reference time. Runs of one seed replay the same cycles, so each
    cycle's least time over the group (its floor) is its cost with the
    least interference from other tenants of the host. ``run_s`` sums the
    floors and adds the median time ``Engine.run`` spends outside cycles.
    """
    scale = REFERENCE_MS / statistics.median(x for r in group for x in r["reference_ms"])
    floors = [min(times) for times in zip(*(r["cycle_ms"] for r in group))]
    outside_s = statistics.median(r["run_wall_s"] - sum(r["cycle_ms"]) / 1000.0 for r in group)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in group) * scale,
        "run_s": (sum(floors) / 1000.0 + outside_s) * scale,
        "cycle_ms_p50": percentile([c for r in group for c in r["cycle_ms"]], 50) * scale,
        "cycle_ms_p95": percentile(floors, 95) * scale,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in group),
    }


def summarize(name: str, runs: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Checks and metrics of all runs of one workload and seed. Each
    end-to-end metric is the median over groups of :data:`GROUP`
    consecutive untraced runs (one group of all, when there are fewer)."""
    failures = check_runs(name, runs)
    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    groups = [untraced[i : i + GROUP] for i in range(0, len(untraced) - GROUP + 1, GROUP)]
    estimates = [group_metrics(g) for g in groups or [untraced]]
    raw_wall_s = statistics.median(r["run_wall_s"] for r in untraced)
    summary: Dict[str, Any] = {
        "attempted": len(runs),
        "failed": sum(1 for reasons in failures if reasons),
        "failures": [reasons for reasons in failures if reasons],
        "digest": runs[0]["digest"],
        "simulated": runs[0]["simulated"],
        "untraced_runs": len(untraced),
        "reference_ms": statistics.median(x for r in untraced for x in r["reference_ms"]),
        "raw": {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "run_wall_s": raw_wall_s,
        },
        "end_to_end": {
            m: {"value": statistics.median(e[m] for e in estimates), "unit": u}
            for m, u in END_TO_END
        },
        # one value per group, for --compare
        "samples": {m: [e[m] for e in estimates] for m, _ in END_TO_END},
        "per_layer": None,
    }
    if traced:
        t = traced[0]
        layers = dict(t["layers"])
        rows = layers["deliver.rows"]
        layers["run.sim_speed_x"] = t["sim_s"] / raw_wall_s
        layers["run.ns_per_row"] = raw_wall_s * 1e9 / rows if rows else None
        layers["trace.overhead_pct"] = 100.0 * (t["run_wall_s"] - raw_wall_s) / raw_wall_s
        summary["per_layer"] = {m: {"value": layers[m], "unit": u} for m, u in PER_LAYER}
    return summary


def print_summary(name: str, seed: int, s: Dict[str, Any]) -> None:
    sim = s["simulated"]
    print(
        f"== {name} (seed {seed}): {s['attempted']} runs, {s['failed']} failed, "
        f"summary sha256 {s['digest'][:16]}"
    )
    for reasons in s["failures"]:
        print(f"   FAILED: {'; '.join(reasons)}")
    print(
        f"   simulated: mean latency {sim['mean_latency_ms']:.1f} ms, p99 "
        f"{sim['p99_latency_ms']:.1f} ms, throughput {sim['throughput_eps']:.0f} ev/s, "
        f"backpressure cycles {sim['backpressure_cycles']}, checkpoints "
        f"{sim['checkpoints_taken']}, recoveries {sim['recoveries']}, "
        f"events lost {sim['events_lost']}"
    )
    print(
        f"   end to end ({s['untraced_runs']} untraced runs, {len(s['samples']['run_s'])} "
        f"groups; reference work took {s['reference_ms']:.3f} ms, timings scaled to "
        f"{REFERENCE_MS} ms; unscaled "
        f"medians: setup {s['raw']['setup_s']:.4f} s, Engine.run {s['raw']['run_wall_s']:.4f} s):"
    )
    for metric, m in s["end_to_end"].items():
        print(f"     {metric:<16} {m['value']:12.4f} {m['unit']}")
    if s["per_layer"] is not None:
        print("   per layer (traced run):")
        for metric, m in s["per_layer"].items():
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"     {metric:<30} {value:>14} {m['unit']}")


def host_info() -> Dict[str, Any]:
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), "numpy": numpy}


# -- comparing -----------------------------------------------------------------


def verdict(base: Sequence[float], new: Sequence[float], bound: float, better: str) -> str:
    """better / same / worse / unresolved for ``new`` against ``base``.

    Unresolved: either side's spread (Q3 - Q1 over its median) is wider
    than the bound, unless every new value reads better than every base
    value.
    """
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(base), quartiles(new)
    spread = max((q3 - q1) / med for q1, med, q3 in (qa, qb))
    if spread > bound:
        if max(sign * x for x in new) < min(sign * x for x in base):
            return "better"
        return "unresolved"
    change = sign * (qb[1] - qa[1]) / qa[1]  # > 0 is worse
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(path_a: str, path_b: str) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sets = [json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b)]
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<20} {'metric':<14} {'A median [Q1, Q3]':>30} {'B median [Q1, Q3]':>30} {'bound':>6}  verdict")
    for name in (n for n in sets[0] if n in sets[1]):
        for metric in declared:
            a, b = (s[name]["samples"][metric["name"]] for s in sets)
            v = verdict(a, b, metric["bound"], metric["better"])
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{name:<20} {metric['name']:<14} {cells[0]:>30} {cells[1]:>30} {metric['bound']:>6.0%}  {v}")


# -- entry point -----------------------------------------------------------------


def result_line(s: Dict[str, Any], traced: bool) -> Dict[str, Any]:
    """The last stdout line of a --workload invocation."""
    metrics = s["per_layer"] if traced else s["end_to_end"]
    return {
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": metrics,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None, help="with --workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="with --workload")
    parser.add_argument("--repeats", type=int, default=15, help="untraced runs per workload in a full set")
    parser.add_argument("--out", help="write the full set's results as JSON")
    parser.add_argument("--spans", help="dump traced runs' spans as Chrome trace JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    # A terminated benchmark raises SystemExit, on which subprocess.run
    # kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.compare:
        compare(*args.compare)
        return 0
    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise HarnessError(f"no simulator source at {ROOT / 'src' / 'repro'}")
        if args.workload is not None:
            seconds = args.seconds
            if seconds is None:
                seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
            runs = measure(args.workload, args.seed, seconds, bool(args.trace), args.spans)
            s = summarize(args.workload, runs)
            print_summary(args.workload, args.seed, s)
            print(json.dumps(result_line(s, bool(args.trace))))
            return 0 if s["failed"] == 0 else 1
        if args.repeats < 1:
            parser.error("--repeats must be >= 1")
        runs = {name: [] for name in WORKLOADS}
        # Round-robin, so bursts of host noise spread over all workloads.
        for _ in range(args.repeats):
            for name in WORKLOADS:
                runs[name].append(run_child(name, args.seed, False))
        for name in WORKLOADS:
            runs[name].append(run_child(name, args.seed, True, args.spans))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report = {
        "seed": args.seed,
        "repeats": args.repeats,
        "host": host_info(),
        "workloads": {name: summarize(name, r) for name, r in runs.items()},
    }
    for name, s in report["workloads"].items():
        print_summary(name, args.seed, s)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    attempted = sum(s["attempted"] for s in report["workloads"].values())
    failed = sum(s["failed"] for s in report["workloads"].values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
