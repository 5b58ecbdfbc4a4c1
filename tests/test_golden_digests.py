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
Regenerate the fixture only for a deliberate output change::

    PYTHONPATH=src python -m tests.test_golden_digests --record
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Tuple

import pytest

import repro.spe.events as events_mod
from repro.bench.runner import ExperimentConfig, run_experiment, trace_summary
from repro.core.klink import KlinkScheduler
from repro.distributed import DistributedEngine, PhysicalPlan
from repro.faults import FaultPlan, InvariantMonitor
from repro.faults.plan import NodeFailure
from repro.obs import AuditLog, TelemetrySampler, TraceWriter
from repro.obs.lineage import LineageTracker
from repro.resilience import (
    CheckpointCoordinator,
    RecoveryConfig,
    RecoveryManager,
)
from repro.resilience.checkpoint import serialize
from repro.spe.engine import Engine
from repro.spe.memory import GIB, MemoryConfig
from repro.spe.tracing import CycleTracer
from repro.workloads import WorkloadParams, build_queries

GOLDEN = Path(__file__).parent / "fixtures" / "golden_digests.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json_sha(value: Any) -> str:
    return _sha(json.dumps(value, sort_keys=True))


def _fresh_marker_ids() -> None:
    """LatencyMarker ids are process-global and land in snapshot bytes;
    number every pinned run's markers from zero, as a fresh process does."""
    events_mod._marker_ids = itertools.count()


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
    _fresh_marker_ids()
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
    _fresh_marker_ids()
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
    Audit, telemetry and the cycle tracer stream into one JSONL trace."""
    _fresh_marker_ids()
    queries = build_queries("ysb", 16, WorkloadParams(seed=11, rate_scale=1.25))
    plan = PhysicalPlan.split(queries, 4, segments=2)
    coordinator = CheckpointCoordinator(2_000.0)
    taken = _record_store(coordinator)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        writer = TraceWriter(str(path), meta={"run": "dist4-klink"})
        sampler = TelemetrySampler()
        tracer = CycleTracer()
        engine = DistributedEngine.with_klink(
            queries,
            plan,
            cores_per_node=1,
            memory=MemoryConfig(capacity_bytes=0.5 * GIB),
            rpc_latency_ms=100.0,
            seed=11,
            tracer=tracer,
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
            alerts=sampler.alert_rows(),
            summary=trace_summary(metrics),
        )
        trace = path.read_text()
    digests = _digests(engine, metrics, taken)
    digests["trace"] = _sha(trace)
    digests["cycle_tracer"] = _json_sha(
        [dataclasses.asdict(record) for record in tracer.rows]
    )
    digests["last_slacks"] = _json_sha(
        [s.last_slacks for s in engine.node_schedulers]
    )
    return engine, digests


@lru_cache(maxsize=None)
def ysb_traced_checkpoints() -> Dict[str, Any]:
    """A full JSONL trace (audit, telemetry, lineage) of a run that
    checkpoints but never fails."""
    _fresh_marker_ids()
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


def current_digests() -> Dict[str, Dict[str, Any]]:
    return {
        "ysb-standby-lineage": ysb_standby_lineage()[1],
        "dist-klink-standby": dist_klink_standby()[1],
        "dist4-klink-traced-standby": dist4_klink_traced_standby()[1],
        "ysb-traced-checkpoints": ysb_traced_checkpoints(),
    }


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
        "ysb-standby-lineage",
        "dist-klink-standby",
        "dist4-klink-traced-standby",
        "ysb-traced-checkpoints",
    ],
)
def test_matches_golden_digests(run):
    assert current_digests()[run] == _golden()[run]


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
    newest snapshot — across a rollback, on both engines."""
    for engine, _ in (ysb_standby_lineage(), dist_klink_standby()):
        latest = engine.checkpoints.store.latest()
        assert engine.metrics.recoveries == 1
        assert engine.metrics.checkpoint_bytes_last == len(serialize(latest))


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
