"""One benchmark run in a fresh process: build a workload, run it, and print
one JSON line with its timings, summary digest and checks.

    python3 perfbench/child.py --workload ysb-klink --seed 11 --trace 0

run.py starts one of these per run; it can also be run by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Optional

from hooks import Recorder
from workloads import DIST_MEMORY_GB, DIST_RPC_LATENCY_MS, DIST_SEGMENTS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent


def _run_experiment(w: Workload, seed: int, rec: Recorder) -> Any:
    from repro.bench import runner

    config = runner.ExperimentConfig(
        workload=w.workload,
        scheduler=w.scheduler,
        n_queries=w.n_queries,
        duration_ms=w.duration_ms,
        rate_scale=w.rate_scale,
        seed=seed,
        **dict(w.options),
    )
    if rec.traced:
        config = replace(config, check_invariants=True)
    real_engine = runner.Engine

    def build_engine(*args: Any, **kwargs: Any) -> Any:
        engine = rec.call("setup.engine_init", real_engine, *args, **kwargs)
        rec.attach_engine(engine)
        return engine

    # run_experiment constructs its engine through this module attribute;
    # the stand-in hands every engine to the recorder before it runs.
    rec.patch(runner, "Engine", build_engine)
    if rec.traced:
        rec.wrap(runner, "build_queries", "setup.build_queries")
    result = runner.run_experiment(config)
    return result.metrics, result.monitor


def _run_distributed(w: Workload, seed: int, rec: Recorder) -> Any:
    from repro.distributed import DistributedEngine, PhysicalPlan
    from repro.faults import InvariantMonitor
    from repro.spe.memory import GIB, MemoryConfig
    from repro.workloads import WorkloadParams, build_queries

    params = WorkloadParams(seed=seed, rate_scale=w.rate_scale)
    queries = rec.call("setup.build_queries", build_queries, w.workload, w.n_queries, params)
    plan = PhysicalPlan.split(queries, w.nodes, segments=DIST_SEGMENTS)
    monitor = InvariantMonitor() if rec.traced else None
    engine = rec.call(
        "setup.engine_init",
        DistributedEngine.with_klink,
        queries,
        plan,
        memory=MemoryConfig(capacity_bytes=DIST_MEMORY_GB * GIB),
        rpc_latency_ms=DIST_RPC_LATENCY_MS,
        seed=seed,
        invariants=monitor,
    )
    rec.attach_engine(engine)
    return engine.run(w.duration_ms), monitor


def run_workload(
    w: Workload,
    seed: int,
    traced: bool,
    *,
    started: Optional[float] = None,
    spans_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run ``w`` once and return its result record. ``started`` is the
    ``time.monotonic()`` at which the process was spawned (default: now);
    set-up time runs from it to the first ``Engine.run`` entry."""
    if started is None:
        started = time.monotonic()
    t0 = time.perf_counter()
    import repro.bench.runner  # noqa: F401  (the import cost users pay)
    import repro.distributed  # noqa: F401

    import_s = time.perf_counter() - t0
    rec = Recorder(traced, keep_spans=spans_dir is not None)
    try:
        if traced:
            from repro.analysis import plan_check

            rec.wrap(plan_check, "validate_queries", "setup.validate")
        run = _run_distributed if w.nodes else _run_experiment
        metrics, monitor = run(w, seed, rec)
    finally:
        rec.restore()
    summary = metrics.summary()
    result: Dict[str, Any] = {
        "workload": w.name,
        "seed": seed,
        "traced": traced,
        "sim_s": w.duration_ms / 1000.0,
        "setup_s": rec.run_started - started,
        "run_wall_s": rec.run_wall_s,
        "cycle_ms": [1000.0 * s for s in rec.cycle_s],
        "reference_ms": [1000.0 * s for s in rec.reference_s],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "digest": hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest(),
        "simulated": {
            "mean_latency_ms": summary["mean_latency_ms"],
            "p99_latency_ms": summary["p99_latency_ms"],
            "throughput_eps": summary["throughput_eps"],
            "backpressure_cycles": metrics.backpressure_cycles,
            "checkpoints_taken": metrics.checkpoints_taken,
            "recoveries": metrics.recoveries,
            "events_lost": metrics.events_lost_to_failures,
        },
        "monitor_ok": None if monitor is None else monitor.ok,
        "layers": None,
        "warnings": rec.warnings,
    }
    if traced:
        result["layers"] = rec.layer_metrics(
            {
                "import_s": import_s,
                "backpressure_cycles": metrics.backpressure_cycles,
                "checkpoints_taken": metrics.checkpoints_taken,
                "checkpoint_bytes": metrics.checkpoint_bytes_last,
                "recoveries": metrics.recoveries,
            }
        )
    if spans_dir is not None:
        out = Path(spans_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"{w.name}-seed{seed}.json", "w") as f:
            json.dump(rec.chrome_trace(), f)
    return result


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    # The simulator is measured from this checkout's src/, never from an
    # installed copy.
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("repro")
    expected = (src / "repro" / "__init__.py").resolve()
    if spec is None or spec.origin is None or Path(spec.origin).resolve() != expected:
        print(f"perfbench: cannot import repro from {src}", file=sys.stderr)
        return 2
    result = run_workload(
        WORKLOADS[args.workload],
        args.seed,
        bool(args.trace),
        started=args.spawned_at,
        spans_dir=args.spans,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
