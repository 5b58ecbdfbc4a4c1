"""Golden digests of pinned runs: summaries, checkpoint bytes, lineage rows
and a trace, checked in under ``tests/fixtures/golden_digests.json``.

Every snapshot is serialized the moment the store receives it, and the
snapshots still held at the end of the run are serialized again: the
second set proves a stored snapshot never changes after it was taken.

The pinned runs exercise the paths whose cost the resilience and tracing
layers keep low: a YSB standby failover at lineage sample rate 1.0 (every
row goes through the drains' lineage hook, and a lineage sidecar is
restored), a two-node ``DistributedEngine.with_klink`` failover, a
four-node split deployment in which most nodes host no operator of a given
query (so they rank it on forwarded information alone) and a standby
failover moves operators between nodes, and a traced run with checkpoints.

The ``kernel-*`` runs pin the cycle kernel (source generation, network
delay draws, the calendar-queue network and its delivery order) on small
runs: a summary matrix over every scheduler, a fully observed trace, a
lineage-sampled run, fault-injected runs, restart failovers, the snapshot
bytes of a run whose delay models hold prefetched draws, a run that
defers payload for consecutive backpressured cycles, and bursty sources.
``cli-lrb-faults-checkpoints`` is the trace of the fault-injected,
checkpointed LRB run that ``repro-bench run --workload lrb --scheduler
Klink --queries 4 --duration 20 --cores 8 --seed 5 --faults 3
--checkpoint-period 5000 --trace T`` writes. The ``nyt-*`` runs pin the
workload with fused stateless chains and sliding windows (summaries under
backpressure, a trace with every cycle observer across a node failure,
snapshot bytes), and ``dist-default-share-traced`` pins a distributed
processor-sharing deployment whose nodes fail one after the other. Runs
marked ``chaos`` run outside tier-1 (``pytest -m ""``).

Regenerate the fixture only for a deliberate output change::

    PYTHONPATH=src python -m tests.test_golden_digests --record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
from functools import lru_cache, partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.bench.runner import (
    SCHEDULER_NAMES,
    ExperimentConfig,
    make_scheduler,
    run_experiment,
    trace_summary,
)
from repro.core.baselines import DefaultScheduler
from repro.core.klink import KlinkScheduler
from repro.distributed import DistributedEngine, PhysicalPlan
from repro.faults import FaultPlan, InvariantMonitor
from repro.faults.plan import NodeFailure
from repro.obs import AuditLog, OperatorProfiler, TelemetrySampler, TraceWriter
from repro.obs.lineage import LineageTracker
from repro.resilience import (
    CheckpointCoordinator,
    RecoveryConfig,
    RecoveryManager,
)
from repro.resilience.checkpoint import (
    _encoded_size,
    _materialize,
    capture,
    serialize,
)
from repro.spe.engine import Engine
from repro.spe.memory import GIB, MemoryConfig
from repro.workloads import WorkloadParams, build_queries
from tests.helpers import make_simple_query

GOLDEN = Path(__file__).parent / "fixtures" / "golden_digests.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json_sha(value: Any) -> str:
    # lineage sidecars hold ledger views: encode them as the lists they name
    return _sha(json.dumps(value, sort_keys=True, default=_materialize))


def _record_store(coordinator: CheckpointCoordinator) -> List[Tuple[str, str]]:
    """Digest every (snapshot, lineage sidecar) pair as the store takes it."""
    taken: List[Tuple[str, str]] = []
    add = coordinator.store.add

    def recording_add(snapshot: Dict[str, Any], lineage: Any = None) -> None:
        taken.append((_sha(serialize(snapshot)), _json_sha(lineage)))
        add(snapshot, lineage)

    coordinator.store.add = recording_add  # type: ignore[method-assign]
    return taken


def _digests(
    engine: Engine, metrics: Any, taken: List[Tuple[str, str]]
) -> Dict[str, Any]:
    coordinator = engine.checkpoints
    return {
        "summary": _json_sha(metrics.summary()),
        "checkpoints_taken": metrics.checkpoints_taken,
        "recoveries": metrics.recoveries,
        "checkpoint_bytes_last": metrics.checkpoint_bytes_last,
        "snapshots": [snapshot for snapshot, _ in taken],
        "lineage_sidecars": [sidecar for _, sidecar in taken],
        "snapshots_at_end": [
            _sha(serialize(s)) for s in coordinator.store._snapshots
        ],
    }


@lru_cache(maxsize=None)
def ysb_standby_lineage() -> Tuple[Engine, Dict[str, Any]]:
    """YSB, Klink, contended cores, one standby failover, every record
    sampled by the lineage tracker."""
    queries = build_queries("ysb", 10, WorkloadParams(seed=5))
    scheduler = KlinkScheduler()
    tracker = LineageTracker(1.0, seed=5)
    scheduler.forecast_audit = tracker.forecast
    coordinator = CheckpointCoordinator(2_000.0)
    taken = _record_store(coordinator)
    engine = Engine(
        queries,
        scheduler,
        cores=2,
        cycle_ms=120.0,
        memory=MemoryConfig(capacity_bytes=0.25 * GIB),
        seed=5,
        faults=FaultPlan([NodeFailure(9_000.0, 11_000.0, node=0)]),
        invariants=InvariantMonitor(),
        checkpoints=coordinator,
        recovery=RecoveryManager(RecoveryConfig("standby"), coordinator),
        lineage=tracker,
        batch_size=64,
    )
    metrics = engine.run(20_000.0)
    digests = _digests(engine, metrics, taken)
    digests["lineage_rows"] = _json_sha(tracker.lineage_rows())
    digests["lineage_row_count"] = len(tracker.lineage_rows())
    digests["swm_forecast_rows"] = _json_sha(tracker.swm_forecast_rows())
    return engine, digests


@lru_cache(maxsize=None)
def dist_klink_standby() -> Tuple[Engine, Dict[str, Any]]:
    """Fig. 6e's split deployment on two nodes; node 1 fails once."""
    queries = build_queries("ysb", 8, WorkloadParams(seed=7))
    plan = PhysicalPlan.split(queries, 2, segments=2)
    coordinator = CheckpointCoordinator(2_000.0)
    taken = _record_store(coordinator)
    engine = DistributedEngine.with_klink(
        queries,
        plan,
        cores_per_node=4,
        memory=MemoryConfig(capacity_bytes=0.5 * GIB),
        rpc_latency_ms=100.0,
        seed=7,
        faults=FaultPlan([NodeFailure(6_000.0, 8_000.0, node=1)]),
        invariants=InvariantMonitor(),
        checkpoints=coordinator,
        recovery=RecoveryManager(RecoveryConfig("standby"), coordinator),
    )
    metrics = engine.run(14_000.0)
    return engine, _digests(engine, metrics, taken)


@lru_cache(maxsize=None)
def dist4_klink_traced_standby() -> Tuple[Engine, Dict[str, Any]]:
    """Fig. 6e's split deployment on four nodes: every query spans two
    nodes, so the other two rank it from forwarded delay and cost alone.
    Node 1 fails once and its standby moves its operators to a survivor.
    Audit and telemetry stream into one JSONL trace."""
    queries = build_queries("ysb", 16, WorkloadParams(seed=11, rate_scale=1.25))
    plan = PhysicalPlan.split(queries, 4, segments=2)
    coordinator = CheckpointCoordinator(2_000.0)
    taken = _record_store(coordinator)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        writer = TraceWriter(str(path), meta={"run": "dist4-klink"})
        sampler = TelemetrySampler()
        engine = DistributedEngine.with_klink(
            queries,
            plan,
            cores_per_node=1,
            memory=MemoryConfig(capacity_bytes=0.5 * GIB),
            rpc_latency_ms=100.0,
            seed=11,
            audit=AuditLog(stream=writer),
            telemetry=sampler,
            faults=FaultPlan([NodeFailure(6_000.0, 9_000.0, node=1)]),
            invariants=InvariantMonitor(),
            checkpoints=coordinator,
            recovery=RecoveryManager(RecoveryConfig("standby"), coordinator),
        )
        metrics = engine.run(14_000.0)
        writer.finalize(
            series=sampler.series_rows(),
            summary=trace_summary(metrics),
        )
        trace = path.read_text()
    digests = _digests(engine, metrics, taken)
    digests["trace"] = _sha(trace)
    digests["last_slacks"] = _json_sha(
        [s.last_slacks for s in engine.node_schedulers]
    )
    return engine, digests


@lru_cache(maxsize=None)
def ysb_traced_checkpoints() -> Dict[str, Any]:
    """A full JSONL trace (audit, telemetry, lineage) of a run that
    checkpoints but never fails."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        result = run_experiment(
            ExperimentConfig(
                workload="ysb",
                scheduler="Klink",
                n_queries=6,
                duration_ms=12_000.0,
                cores=2,
                seed=3,
                checkpoint_period_ms=2_000.0,
                lineage_sample_rate=0.2,
                trace_path=str(path),
            )
        )
        trace = path.read_text()
    return {
        "summary": _json_sha(result.metrics.summary()),
        "checkpoints_taken": result.metrics.checkpoints_taken,
        "checkpoint_bytes_last": result.metrics.checkpoint_bytes_last,
        "trace": _sha(trace),
    }


# -- the cycle-kernel matrix ----------------------------------------------------

KERNEL_DURATION_MS = 30_000.0
KERNEL_QUERIES = 3
KERNEL_SEED = 7
#: workloads and the tier-1 scheduler slice of the kernel summary matrix
KERNEL_WORKLOADS = ("ysb", "lrb")
KERNEL_SLICE = ("Klink", "Default")
#: restart-failover matrix: (workload, scheduler, failure time); the
#: first entry runs in tier-1
KERNEL_FAILOVERS = [("ysb", "Klink", 8_000.0)] + [
    (workload, scheduler, fail_at)
    for workload in KERNEL_WORKLOADS
    for scheduler in KERNEL_SLICE
    for fail_at in (5_000.0, 12_000.0)
]


def _kernel_config(workload: str, scheduler: str, **fields: Any) -> ExperimentConfig:
    return ExperimentConfig(
        workload=workload,
        scheduler=scheduler,
        duration_ms=KERNEL_DURATION_MS,
        n_queries=KERNEL_QUERIES,
        seed=KERNEL_SEED,
        **fields,
    )


@lru_cache(maxsize=None)
def kernel_summary(workload: str, scheduler: str) -> Dict[str, Any]:
    result = run_experiment(_kernel_config(workload, scheduler))
    return {"summary": _json_sha(result.summary)}


@lru_cache(maxsize=None)
def kernel_trace() -> Dict[str, Any]:
    """Trace, audit and telemetry: every record the trace writer emits."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        result = run_experiment(
            _kernel_config(
                "ysb", "Klink", audit=True, telemetry=True, trace_path=str(path)
            )
        )
        trace = path.read_text()
    return {"summary": _json_sha(result.summary), "trace": _sha(trace)}


@lru_cache(maxsize=None)
def kernel_lineage() -> Dict[str, Any]:
    result = run_experiment(
        _kernel_config("ysb", "Klink", lineage_sample_rate=0.05)
    )
    return {"summary": _json_sha(result.summary)}


@lru_cache(maxsize=None)
def kernel_faults(workload: str, fault_seed: int) -> Dict[str, Any]:
    """Seed 3 delays watermarks; seed 5 also stalls a source and drops
    watermarks."""
    result = run_experiment(
        _kernel_config(
            workload, "Klink", fault_seed=fault_seed, check_invariants=True
        )
    )
    return {
        "summary": _json_sha(result.summary),
        "watermarks_dropped": result.metrics.watermarks_dropped_by_faults,
        "invariants_ok": result.monitor.ok,
    }


@lru_cache(maxsize=None)
def kernel_restart(workload: str, scheduler: str, fail_at: float) -> Dict[str, Any]:
    """Checkpoint, fail mid-flight, roll back when the node returns."""
    queries = build_queries(
        workload, KERNEL_QUERIES, WorkloadParams(seed=KERNEL_SEED)
    )
    monitor = InvariantMonitor()
    coordinator = CheckpointCoordinator(2_000.0)
    engine = Engine(
        queries,
        make_scheduler(scheduler),
        cores=8,
        cycle_ms=100.0,
        seed=KERNEL_SEED,
        faults=FaultPlan([NodeFailure(fail_at, fail_at + 3_000.0, node=0)]),
        invariants=monitor,
        checkpoints=coordinator,
        recovery=RecoveryManager(RecoveryConfig("restart"), coordinator),
    )
    metrics = engine.run(20_000.0)
    return {
        "summary": _json_sha(metrics.summary()),
        "checkpoints_taken": metrics.checkpoints_taken,
        "recoveries": metrics.recoveries,
        "invariants_ok": monitor.ok,
    }


@lru_cache(maxsize=None)
def kernel_snapshot() -> Tuple[Engine, Dict[str, Any]]:
    """Snapshot bytes mid-run. The run is long enough that every staggered
    source has deployed and draws delays."""
    queries = build_queries("ysb", KERNEL_QUERIES, WorkloadParams(seed=KERNEL_SEED))
    engine = Engine(
        queries, make_scheduler("Klink"), cores=8, cycle_ms=100.0, seed=KERNEL_SEED
    )
    engine.run(25_000.0)
    snapshot = serialize(capture(engine))
    return engine, {"snapshot": _sha(snapshot), "snapshot_bytes": len(snapshot)}


@lru_cache(maxsize=None)
def kernel_backpressure() -> Dict[str, Any]:
    """A memory budget small enough that payload is deferred for
    consecutive cycles: each deferral re-files the record under a fresh
    (ingest_time, seq) key, so an ordering drift would compound."""
    result = run_experiment(
        ExperimentConfig(
            workload="ysb",
            scheduler="Default",
            duration_ms=30_000.0,
            n_queries=KERNEL_QUERIES,
            seed=KERNEL_SEED,
            cores=1,
            rate_scale=8.0,
            memory_gb=0.0001,
        )
    )
    return {
        "summary": _json_sha(result.summary),
        "backpressure_cycles": result.metrics.backpressure_cycles,
    }


@lru_cache(maxsize=None)
def kernel_bursty(seed: int) -> Dict[str, Any]:
    """The burst state machine consumes ``binding.rng`` in interval order."""
    queries = [
        make_simple_query("bursty-q0", rate_eps=5_000.0, burst_factor=3.0, seed=seed)
    ]
    engine = Engine(
        queries, make_scheduler("Default"), cores=2, cycle_ms=100.0, seed=seed
    )
    return {"summary": _json_sha(engine.run(10_000.0).summary())}


@lru_cache(maxsize=None)
def cli_lrb_faults_checkpoints() -> Dict[str, Any]:
    """The run behind ``repro-bench run --workload lrb --scheduler Klink
    --queries 4 --duration 20 --cores 8 --seed 5 --faults 3
    --checkpoint-period 5000 --trace T``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        result = run_experiment(
            ExperimentConfig(
                workload="lrb",
                scheduler="Klink",
                n_queries=4,
                duration_ms=20_000.0,
                cores=8,
                seed=5,
                fault_seed=3,
                checkpoint_period_ms=5_000.0,
                trace_path=str(path),
            )
        )
        trace = path.read_text()
    return {
        "summary": _json_sha(result.summary),
        "checkpoints_taken": result.metrics.checkpoints_taken,
        "trace": _sha(trace),
    }


# -- NYT and the distributed share mode ----------------------------------------

#: NYT overloaded on one core with a small heap: stateless chains and
#: sliding windows under backpressure, shedding and late-event drops
NYT_PARAMS = dict(n_queries=6, cores=1, rate_scale=8.0, memory_gb=0.25, seed=9)


@lru_cache(maxsize=None)
def nyt_summary(scheduler: str) -> Dict[str, Any]:
    result = run_experiment(
        ExperimentConfig(
            workload="nyt", scheduler=scheduler, duration_ms=30_000.0, **NYT_PARAMS
        )
    )
    return {
        "summary": _json_sha(result.summary),
        "backpressure_cycles": result.metrics.backpressure_cycles,
        "events_shed": result.metrics.events_shed,
    }


def _nyt_engine(scheduler: Any, **observers: Any) -> Engine:
    params = WorkloadParams(seed=NYT_PARAMS["seed"], rate_scale=NYT_PARAMS["rate_scale"])
    return Engine(
        build_queries("nyt", NYT_PARAMS["n_queries"], params),
        scheduler,
        cores=NYT_PARAMS["cores"],
        memory=MemoryConfig(capacity_bytes=NYT_PARAMS["memory_gb"] * GIB),
        seed=NYT_PARAMS["seed"],
        **observers,
    )


@lru_cache(maxsize=None)
def nyt_traced_failure() -> Tuple[Engine, Dict[str, Any]]:
    """Klink on NYT with every cycle observer attached; the node is down
    from 10 s to 12 s with no recovery, so those cycles skip delivery and
    trace an empty plan."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        writer = TraceWriter(str(path), meta={"run": "nyt-traced-failure"})
        sampler = TelemetrySampler()
        profiler = OperatorProfiler()
        engine = _nyt_engine(
            KlinkScheduler(),
            audit=AuditLog(stream=writer),
            profiler=profiler,
            telemetry=sampler,
            invariants=InvariantMonitor(),
            faults=FaultPlan([NodeFailure(10_000.0, 12_000.0, node=0)]),
        )
        metrics = engine.run(20_000.0)
        writer.finalize(
            operators=[p.to_dict() for p in metrics.operator_profiles],
            series=sampler.series_rows(),
            summary=trace_summary(metrics),
        )
        trace = path.read_text()
    return engine, {
        "summary": _json_sha(metrics.summary()),
        "trace": _sha(trace),
    }


@lru_cache(maxsize=None)
def nyt_snapshot() -> Dict[str, Any]:
    """Snapshot bytes of an overloaded NYT run: fused chains and sliding
    windows hold partial rows and open panes."""
    engine = _nyt_engine(make_scheduler("Default"))
    engine.run(25_000.0)
    snapshot = serialize(capture(engine))
    return {"snapshot": _sha(snapshot), "snapshot_bytes": len(snapshot)}


@lru_cache(maxsize=None)
def dist_default_share_traced() -> Tuple[Engine, Dict[str, Any]]:
    """Default (processor sharing) on two nodes, every cycle observer
    attached. Node 0 is down from 4 s to 6 s and node 1 from 5 s to 7 s,
    with no recovery: blocked queries are deferred, and while both nodes
    are down no node plans and the audit records nothing."""
    queries = build_queries("ysb", 8, WorkloadParams(seed=13))
    plan = PhysicalPlan.split(queries, 2, segments=2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        writer = TraceWriter(str(path), meta={"run": "dist-default-share"})
        sampler = TelemetrySampler()
        engine = DistributedEngine.with_policy(
            queries,
            plan,
            DefaultScheduler,
            cores_per_node=2,
            memory=MemoryConfig(capacity_bytes=0.5 * GIB),
            rpc_latency_ms=100.0,
            seed=13,
            audit=AuditLog(stream=writer),
            profiler=OperatorProfiler(),
            telemetry=sampler,
            invariants=InvariantMonitor(),
            faults=FaultPlan(
                [
                    NodeFailure(4_000.0, 6_000.0, node=0),
                    NodeFailure(5_000.0, 7_000.0, node=1),
                ]
            ),
        )
        metrics = engine.run(12_000.0)
        writer.finalize(
            series=sampler.series_rows(),
            summary=trace_summary(metrics),
        )
        trace = path.read_text()
    return engine, {
        "summary": _json_sha(metrics.summary()),
        "trace": _sha(trace),
    }


#: every pinned run, by fixture key
CASES: Dict[str, Callable[[], Dict[str, Any]]] = {
    "ysb-standby-lineage": lambda: ysb_standby_lineage()[1],
    "dist-klink-standby": lambda: dist_klink_standby()[1],
    "dist4-klink-traced-standby": lambda: dist4_klink_traced_standby()[1],
    "ysb-traced-checkpoints": ysb_traced_checkpoints,
    "kernel-trace-ysb-Klink": kernel_trace,
    "kernel-lineage-ysb-Klink": kernel_lineage,
    "kernel-faults-ysb": partial(kernel_faults, "ysb", 3),
    "kernel-faults-lrb": partial(kernel_faults, "lrb", 3),
    "kernel-faults-seed5-ysb": partial(kernel_faults, "ysb", 5),
    "kernel-faults-seed5-lrb": partial(kernel_faults, "lrb", 5),
    "kernel-snapshot-ysb-Klink": lambda: kernel_snapshot()[1],
    "kernel-backpressure-ysb-Default": kernel_backpressure,
    "kernel-bursty-seed5": partial(kernel_bursty, 5),
    "kernel-bursty-seed6": partial(kernel_bursty, 6),
    "cli-lrb-faults-checkpoints": cli_lrb_faults_checkpoints,
    "nyt-summary-Default": partial(nyt_summary, "Default"),
    "nyt-summary-Klink": partial(nyt_summary, "Klink"),
    "nyt-traced-failure-Klink": lambda: nyt_traced_failure()[1],
    "nyt-snapshot-Default": nyt_snapshot,
    "dist-default-share-traced": lambda: dist_default_share_traced()[1],
}
#: runs outside tier-1
CHAOS = set()
for _workload in KERNEL_WORKLOADS:
    for _scheduler in SCHEDULER_NAMES:
        _name = f"kernel-summary-{_workload}-{_scheduler}"
        CASES[_name] = partial(kernel_summary, _workload, _scheduler)
        if _scheduler not in KERNEL_SLICE:
            CHAOS.add(_name)
for _i, (_workload, _scheduler, _fail_at) in enumerate(KERNEL_FAILOVERS):
    _name = f"kernel-restart-{_workload}-{_scheduler}-{int(_fail_at)}"
    CASES[_name] = partial(kernel_restart, _workload, _scheduler, _fail_at)
    if _i:
        CHAOS.add(_name)


def current_digests() -> Dict[str, Dict[str, Any]]:
    return {run: digests() for run, digests in CASES.items()}


def _golden() -> Dict[str, Dict[str, Any]]:
    return json.loads(GOLDEN.read_text())


def test_pinned_runs_exercise_failover_and_lineage():
    _, ysb = ysb_standby_lineage()
    _, dist = dist_klink_standby()
    dist4_engine, dist4 = dist4_klink_traced_standby()
    for digests in (ysb, dist, dist4):
        assert digests["recoveries"] == 1
        assert digests["checkpoints_taken"] >= 5
    assert ysb["lineage_row_count"] > 1000
    # The standby moved every operator off the failed node.
    assert 1 not in dist4_engine.plan.node_of.values()


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(run, marks=pytest.mark.chaos) if run in CHAOS else run
        for run in CASES
    ],
)
def test_matches_golden_digests(run):
    assert CASES[run]() == _golden()[run]


def test_kernel_runs_exercise_what_they_pin():
    for workload in KERNEL_WORKLOADS:
        assert kernel_faults(workload, 3)["invariants_ok"]
        seed5 = kernel_faults(workload, 5)
        assert seed5["invariants_ok"] and seed5["watermarks_dropped"] > 0
    restart = kernel_restart(*KERNEL_FAILOVERS[0])
    assert restart["invariants_ok"]
    assert restart["checkpoints_taken"] >= 1 and restart["recoveries"] >= 1
    assert kernel_backpressure()["backpressure_cycles"] >= 2
    # The seed drives the burst walk.
    assert kernel_bursty(5) != kernel_bursty(6)
    # The snapshot is taken while some delay model holds prefetched
    # draws, so the codec's logical-state reconstruction is exercised.
    engine, _ = kernel_snapshot()
    assert any(
        b.spec.delay_model._draw_pos < len(b.spec.delay_model._draw_buf)
        for q in engine.queries
        for b in q.bindings
    )


def test_nyt_and_share_runs_exercise_what_they_pin():
    for scheduler in ("Default", "Klink"):
        pinned = nyt_summary(scheduler)
        assert pinned["backpressure_cycles"] > 0 and pinned["events_shed"] > 0
    engine, _ = nyt_traced_failure()
    assert engine.invariants.ok
    # down cycles still audit (an empty plan) on the single engine
    assert len(engine.audit) == engine.metrics.cycles
    assert any(row.head() is None for row in engine.audit.rows)
    dist, _ = dist_default_share_traced()
    assert dist.invariants.ok
    assert {type(s) for s in dist.node_schedulers} == {DefaultScheduler}
    # cycles with both nodes down plan nothing and audit nothing
    audited = {row.cycle for row in dist.audit.rows}
    assert 0 < len(audited) < dist.metrics.cycles
    assert {row.mode for row in dist.audit.rows} == {"share"}


def test_stored_snapshots_never_change_after_capture():
    for engine, digests in (
        ysb_standby_lineage(),
        dist_klink_standby(),
        dist4_klink_traced_standby(),
    ):
        kept = len(engine.checkpoints.store)
        assert digests["snapshots_at_end"] == digests["snapshots"][-kept:]


def test_checkpoint_bytes_last_is_the_latest_snapshot_size():
    """Taken once per run, the byte count still equals the size of the
    newest snapshot — across a rollback, on both engines. The count sums
    sub-tree encodings without building the text, so it is also checked
    against the canonical text of every snapshot the recovery runs keep."""
    for engine, _ in (ysb_standby_lineage(), dist_klink_standby()):
        latest = engine.checkpoints.store.latest()
        assert engine.metrics.recoveries == 1
        assert engine.metrics.checkpoint_bytes_last == len(serialize(latest))
    for engine, _ in (
        ysb_standby_lineage(),
        dist_klink_standby(),
        dist4_klink_traced_standby(),
    ):
        for snapshot in engine.checkpoints.store._snapshots:
            assert _encoded_size(snapshot) == len(serialize(snapshot))


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite {GOLDEN.name} from this checkout")
    args = parser.parse_args()
    digests = current_digests()
    if args.record:
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
        return 0
    golden = _golden()
    for run, values in digests.items():
        print(run, "ok" if values == golden.get(run) else "DIFFERS")
    return 0 if digests == golden else 1


if __name__ == "__main__":
    raise SystemExit(_main())
