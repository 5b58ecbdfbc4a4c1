"""Row-cap equivalence gates (ISSUE 8 tentpole).

Every channel stores payload as columnar ``RecordBatch`` rows, and
``batch_size`` only caps how many rows share one queue entry. The cap is
a pure wall-clock knob: for ANY batch size the engine must produce
byte-identical ``RunMetrics.summary()`` output and byte-identical JSONL
traces to ``batch_size=1``, one row per entry. These tests are the
equality gate that pins that contract:

* a tier-1 smoke slice (ysb/lrb x Klink/Default, batch sizes 7 and 64);
* the full matrix — batch sizes {7, 64, 1024} against 1 across all
  schedulers on both workloads — marked ``chaos`` like the other
  expensive matrices (run it with ``pytest -m chaos``);
* trace byte-equality for a traced, audited, telemetry-sampling run;
* checkpoint/restore with RecordBatches in flight: a run that fails,
  restores from a checkpoint whose channels held coalesced batches, and
  resumes must still be byte-identical to the one-row-per-entry run of
  the same scenario (tier-1 smoke + chaos matrix);
* a distributed run whose cross-node channels hold rows in flight: one
  row per entry on every channel gives the same summary as the default
  cap;
* a hypothesis property over small configs (workload, scheduler, query
  count, load, seed) and any cap in 1..1024: summary and audit trail
  equal the one-row-per-entry run's.
"""

import functools
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import (
    SCHEDULER_NAMES,
    ExperimentConfig,
    make_scheduler,
    run_experiment,
)
from repro.distributed import DistributedEngine, PhysicalPlan
from repro.faults import FaultPlan, InvariantMonitor, NodeFailure
from repro.resilience import CheckpointCoordinator, RecoveryConfig, RecoveryManager
from repro.spe.engine import Engine
from repro.workloads import WorkloadParams, build_queries

DURATION_MS = 6_000.0
N_QUERIES = 3
SEED = 7

BATCH_SIZES = (7, 64, 1024)


@functools.lru_cache(maxsize=None)
def summary_fingerprint(workload: str, scheduler: str, batch_size: int) -> str:
    cfg = ExperimentConfig(
        workload=workload,
        scheduler=scheduler,
        duration_ms=DURATION_MS,
        n_queries=N_QUERIES,
        seed=SEED,
        batch_size=batch_size,
    )
    result = run_experiment(cfg)
    return json.dumps(result.summary, sort_keys=True)


class TestSummaryEquivalence:
    @pytest.mark.parametrize("batch_size", [7, 64])
    @pytest.mark.parametrize("scheduler", ["Klink", "Default"])
    @pytest.mark.parametrize("workload", ["ysb", "lrb"])
    def test_smoke_slice(self, workload, scheduler, batch_size):
        reference = summary_fingerprint(workload, scheduler, 1)
        assert summary_fingerprint(workload, scheduler, batch_size) == reference

    @pytest.mark.chaos
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    @pytest.mark.parametrize("workload", ["ysb", "lrb"])
    def test_full_matrix(self, workload, scheduler, batch_size):
        reference = summary_fingerprint(workload, scheduler, 1)
        assert summary_fingerprint(workload, scheduler, batch_size) == reference


def _run_bytes(config: ExperimentConfig) -> tuple:
    result = run_experiment(config)
    return (
        json.dumps(result.summary, sort_keys=True),
        result.audit.to_jsonl_str(),
    )


class TestRowCapProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        workload=st.sampled_from(["ysb", "lrb", "nyt"]),
        scheduler=st.sampled_from(SCHEDULER_NAMES),
        n_queries=st.integers(1, 4),
        rate_scale=st.sampled_from([1.0, 10.0, 50.0]),
        seed=st.integers(0, 2**16),
        batch_size=st.integers(1, 1024),
    )
    def test_any_row_cap_matches_one_row_per_entry(
        self, workload, scheduler, n_queries, rate_scale, seed, batch_size
    ):
        # one core and scaled-up rates: budgets run out mid-row
        config = ExperimentConfig(
            workload=workload,
            scheduler=scheduler,
            duration_ms=DURATION_MS,
            n_queries=n_queries,
            cores=1,
            rate_scale=rate_scale,
            seed=seed,
            audit=True,
            batch_size=1,
        )
        reference = _run_bytes(config)
        assert _run_bytes(replace(config, batch_size=batch_size)) == reference


class TestTraceEquivalence:
    def test_jsonl_trace_bytes_identical(self, tmp_path):
        # A fully-observed run (trace + audit + telemetry): every record
        # the exporter writes — cycle decisions, series samples,
        # summary — must be byte-identical across batch sizes.
        def trace_bytes(batch_size: int) -> bytes:
            path = tmp_path / f"trace_b{batch_size}.jsonl"
            cfg = ExperimentConfig(
                workload="ysb",
                scheduler="Klink",
                duration_ms=DURATION_MS,
                n_queries=N_QUERIES,
                seed=SEED,
                audit=True,
                telemetry=True,
                trace_path=str(path),
                batch_size=batch_size,
            )
            run_experiment(cfg)
            return path.read_bytes()

        reference = trace_bytes(1)
        assert len(reference) > 0
        assert trace_bytes(64) == reference


def _failover_fingerprint(
    workload: str, scheduler: str, batch_size: int, fail_at: float
) -> str:
    """Summary of a run that checkpoints, fails mid-flight, and recovers.

    The checkpoint period and failure time are chosen so the restored
    snapshot's channels hold coalesced in-flight RecordBatches (any
    cycle mid-run has queued payload on this workload), exercising the
    v2 "rb" channel codec end to end.
    """
    queries = build_queries(workload, N_QUERIES, WorkloadParams(seed=SEED))
    monitor = InvariantMonitor()
    coordinator = CheckpointCoordinator(2_000.0)
    recovery = RecoveryManager(RecoveryConfig("restart"), coordinator)
    engine = Engine(
        queries,
        make_scheduler(scheduler),
        cores=8,
        cycle_ms=100.0,
        seed=SEED,
        faults=FaultPlan([NodeFailure(fail_at, fail_at + 3_000.0, node=0)]),
        invariants=monitor,
        checkpoints=coordinator,
        recovery=recovery,
        batch_size=batch_size,
    )
    metrics = engine.run(20_000.0)
    assert monitor.ok, str(monitor)
    assert metrics.checkpoints_taken >= 1
    assert metrics.recoveries >= 1
    return json.dumps(metrics.summary(), sort_keys=True)


class TestCheckpointedBatchEquivalence:
    def test_restore_of_in_flight_batches_resumes_byte_identically(self):
        reference = _failover_fingerprint("ysb", "Klink", 1, 8_000.0)
        assert _failover_fingerprint("ysb", "Klink", 64, 8_000.0) == reference

    @pytest.mark.chaos
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("fail_at", [5_000.0, 12_000.0])
    @pytest.mark.parametrize("scheduler", ["Klink", "Default"])
    @pytest.mark.parametrize("workload", ["ysb", "lrb"])
    def test_failover_matrix(self, workload, scheduler, fail_at, batch_size):
        reference = _failover_fingerprint(workload, scheduler, 1, fail_at)
        assert (
            _failover_fingerprint(workload, scheduler, batch_size, fail_at)
            == reference
        )


def _distributed_fingerprint(row_cap: int) -> str:
    """Summary of a two-node split run with 100 ms cross-node channels and
    one node failure; ``row_cap`` is set on every channel after wiring
    (``DistributedEngine`` runs at the engine's default cap)."""
    queries = build_queries("ysb", N_QUERIES, WorkloadParams(seed=SEED))
    plan = PhysicalPlan.split(queries, 2, segments=2)
    monitor = InvariantMonitor()
    coordinator = CheckpointCoordinator(2_000.0)
    engine = DistributedEngine.with_klink(
        queries,
        plan,
        cores_per_node=2,
        rpc_latency_ms=100.0,
        seed=SEED,
        faults=FaultPlan([NodeFailure(5_000.0, 7_000.0, node=1)]),
        invariants=monitor,
        checkpoints=coordinator,
        recovery=RecoveryManager(RecoveryConfig("standby"), coordinator),
    )
    assert engine._delayed_channels
    for query in engine.queries:
        for op in query.operators:
            for channel in op.inputs:
                channel.batch_size = row_cap
    metrics = engine.run(DURATION_MS * 2)
    assert monitor.ok, str(monitor)
    assert metrics.recoveries == 1
    return json.dumps(metrics.summary(), sort_keys=True)


class TestDistributedRowCap:
    def test_latency_channel_rows_are_cap_independent(self):
        reference = _distributed_fingerprint(1)
        assert _distributed_fingerprint(64) == reference
