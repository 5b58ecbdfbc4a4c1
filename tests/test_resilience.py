"""Checkpoint/restore unit and property tests (repro.resilience).

The property at the core of the resilience story: a checkpoint is a
*complete* description of engine state. Captured at any virtual-clock
point, serialized, and restored into a fresh engine, it must reproduce
the original byte-for-byte — and a resumed run must be indistinguishable
from one that never stopped, for every scheduling policy.
"""

import dataclasses
import json
from array import array
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import SCHEDULER_NAMES, make_scheduler
from repro.core.klink import KlinkScheduler
from repro.core.baselines import DefaultScheduler, RoundRobinScheduler
from repro.distributed import DistributedEngine, PhysicalPlan
from repro.faults import InvariantMonitor
from repro.obs.audit import AuditLog
from repro.obs.lineage import CompletionLog, LineageTracker
from repro.resilience import (
    SCHEMA_VERSION,
    CheckpointCoordinator,
    CheckpointError,
    CheckpointStore,
    RecoveryConfig,
    RecoveryManager,
    capture,
    capture_lineage,
    deserialize,
    restore,
    restore_lineage,
    serialize,
)
from repro.resilience.checkpoint import LedgerView, _encoded_size
from repro.spe.engine import Engine
from repro.spe.memory import MemoryConfig
from repro.spe.metrics import SAMPLE_COLUMNS, ColumnLedger, UtilizationSample
from repro.workloads import WorkloadParams, build_queries

from tests.helpers import make_join_query, make_simple_query

MB = 1024 * 1024


def _queries(seed: int) -> list:
    q0 = make_simple_query(
        "q0", rate_eps=4000.0, delay_ms=40.0, burst_factor=3.0, seed=seed
    )
    q1 = make_join_query("q1", delays_ms=(10.0, 60.0))
    return [q0, q1]


def build_engine(
    scheduler_name: str = "Klink", *, seed: int = 0, audit: bool = False,
    lineage: bool = False,
) -> Engine:
    """Two heterogeneous queries (bursty tumbling + two-input join) so a
    checkpoint must cover burst RNG state, join watermark vectors, and
    per-query progress trackers."""
    return Engine(
        _queries(seed),
        make_scheduler(scheduler_name),
        cores=4,
        cycle_ms=100.0,
        memory=MemoryConfig(capacity_bytes=256 * MB),
        seed=seed,
        audit=AuditLog() if audit else None,
        lineage=LineageTracker(0.3, seed=seed) if lineage else None,
    )


def build_distributed(
    scheduler_name: str = "Klink", *, seed: int = 0, audit: bool = False
) -> DistributedEngine:
    """The same queries split over two nodes of two cores; Klink runs as
    the forwarding distributed instance."""
    queries = _queries(seed)
    options = dict(
        cores_per_node=2,
        cycle_ms=100.0,
        memory=MemoryConfig(capacity_bytes=256 * MB),
        seed=seed,
        audit=AuditLog() if audit else None,
    )
    plan = PhysicalPlan.split(queries, 2)
    if scheduler_name.startswith("Klink"):
        return DistributedEngine.with_klink(
            queries, plan,
            enable_memory_management=scheduler_name == "Klink", **options,
        )
    return DistributedEngine.with_policy(
        queries, plan, lambda: make_scheduler(scheduler_name), **options
    )


class TestCheckpointRoundTrip:
    @settings(max_examples=10, deadline=None)
    @given(
        cycles=st.integers(min_value=1, max_value=40),
        scheduler=st.sampled_from(["Klink", "Default", "RR"]),
    )
    def test_capture_serialize_restore_is_byte_identical(self, cycles, scheduler):
        engine = build_engine(scheduler)
        engine.run(cycles * engine.cycle_ms)
        text = serialize(capture(engine))
        fresh = build_engine(scheduler)
        restore(fresh, deserialize(text), mode="resume")
        assert serialize(capture(fresh)) == text

    def test_serialization_is_canonical_and_json(self):
        engine = build_engine()
        engine.run(500.0)
        snapshot = capture(engine)
        text = serialize(snapshot)
        # -inf watermarks and NaN metrics must survive the round trip
        assert deserialize(text) == json.loads(text)
        assert serialize(deserialize(text)) == text

    def test_restore_restores_clock_and_metrics(self):
        engine = build_engine()
        engine.run(2000.0)
        snapshot = capture(engine)
        fresh = build_engine()
        restore(fresh, snapshot, mode="resume")
        assert fresh.clock.now == engine.clock.now
        assert fresh.metrics.cycles == engine.metrics.cycles
        assert fresh.metrics.swm_latencies == engine.metrics.swm_latencies

    def test_rollback_keeps_processing_time_accounting(self):
        engine = build_engine()
        engine.run(1000.0)
        snapshot = capture(engine)
        engine.run(1000.0)
        cycles_before = engine.metrics.cycles
        clock_before = engine.clock.now
        restore(engine, snapshot, mode="rollback")
        assert engine.clock.now == clock_before  # clock does not rewind
        assert engine.metrics.cycles == cycles_before
        # ...but the event ledger does
        assert engine.metrics.total_events_ingested == pytest.approx(
            snapshot["metrics"]["scalars"]["total_events_ingested"]
        )


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_resumed_run_equals_uninterrupted_run(scheduler):
    """Split + resume == one uninterrupted run, per policy, on both
    engines; the audit rows before and after the split add up to the
    uninterrupted run's. On ``Engine`` a lineage tracker restored from
    the stored sidecar traces the records exactly as one run does."""
    for build in (build_engine, build_distributed):
        # the distributed engine takes no lineage tracker
        traced = {"lineage": True} if build is build_engine else {}
        full = build(scheduler, audit=True, **traced)
        full.run(6000.0)

        first = build(scheduler, audit=True, **traced)
        first.run(2500.0)
        snapshot = deserialize(serialize(capture(first)))
        resumed = build(scheduler, audit=True, **traced)
        restore(resumed, snapshot, mode="resume")
        if first.lineage is not None:
            store = CheckpointStore()
            store.add(snapshot, lineage=capture_lineage(first.lineage))
            restore_lineage(resumed.lineage, deserialize(serialize(store.latest_lineage())))
        resumed.run(6000.0 - resumed.clock.now)

        full_summary = json.dumps(full.metrics.summary(), sort_keys=True)
        resumed_summary = json.dumps(resumed.metrics.summary(), sort_keys=True)
        assert resumed_summary == full_summary, build.__name__
        assert resumed.metrics.swm_latencies == full.metrics.swm_latencies
        assert resumed.metrics.marker_latencies == full.metrics.marker_latencies
        audit = first.audit.to_jsonl_str() + resumed.audit.to_jsonl_str()
        assert audit == full.audit.to_jsonl_str(), build.__name__
        if full.lineage is not None:
            rows = full.lineage.lineage_rows()
            assert rows and resumed.lineage.lineage_rows() == rows


def _marker_ids(snapshot):
    """Every latency-marker id a snapshot holds, in flight or queued."""
    records = [record for *_, record in snapshot["network"]]
    for q_state in snapshot["queries"]:
        for op_state in q_state["operators"]:
            for channel in op_state["inputs"]:
                records.extend(rec for rec, _ in channel["entries"])
                records.extend(rec for rec, _ in channel["pending"])
    return [rec["id"] for rec in records if rec["t"] == "m"]


class TestLatencyMarkerIds:
    @staticmethod
    def ysb_engine() -> Engine:
        """Network delays up to 500 ms keep markers in flight across
        cycles, so snapshots hold some."""
        queries = build_queries("ysb", 3, WorkloadParams(seed=7))
        return Engine(
            queries, make_scheduler("Klink"), cores=8, cycle_ms=100.0, seed=7
        )

    def test_identical_engines_in_one_process_snapshot_identically(self):
        first = self.ysb_engine()
        first.run(20_000.0)
        second = self.ysb_engine()
        second.run(20_000.0)
        assert _marker_ids(capture(first))
        assert serialize(capture(second)) == serialize(capture(first))

    def test_resumed_engine_never_reissues_a_restored_id(self):
        first = self.ysb_engine()
        first.run(20_000.0)
        snapshot = deserialize(serialize(capture(first)))
        restored = _marker_ids(snapshot)
        resumed = self.ysb_engine()
        restore(resumed, snapshot, mode="resume")
        resumed.run(1_000.0)
        fresh = set(_marker_ids(capture(resumed))) - set(restored)
        assert restored and fresh
        assert min(fresh) > max(restored)


class TestRestoreValidation:
    def test_schema_mismatch_rejected(self):
        engine = build_engine()
        engine.run(300.0)
        snapshot = capture(engine)
        snapshot["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(CheckpointError, match="schema"):
            restore(build_engine(), snapshot)

    def test_topology_mismatch_rejected(self):
        engine = build_engine()
        engine.run(300.0)
        snapshot = capture(engine)
        other = Engine(
            [make_simple_query("q0")],
            DefaultScheduler(),
            cores=4,
            cycle_ms=100.0,
            memory=MemoryConfig(capacity_bytes=256 * MB),
        )
        with pytest.raises(CheckpointError, match="queries"):
            restore(other, snapshot)

    def test_resume_backwards_rejected(self):
        engine = build_engine()
        engine.run(500.0)
        snapshot = capture(engine)
        engine.run(500.0)  # engine is now past the snapshot
        with pytest.raises(CheckpointError, match="resume backwards"):
            restore(engine, snapshot, mode="resume")

    def test_unknown_mode_rejected(self):
        engine = build_engine()
        with pytest.raises(CheckpointError, match="mode"):
            restore(engine, capture(engine), mode="sideways")


class TestCheckpointCoordinator:
    def test_periodic_checkpoints(self):
        engine = build_engine()
        engine.checkpoints = CheckpointCoordinator(500.0, keep=3)
        engine.run(2000.0)  # 20 cycles of 100ms
        # baseline at t=0 plus the periodic ones at t=500,1000,1500,2000
        assert engine.metrics.checkpoints_taken == 5
        assert engine.metrics.checkpoint_bytes_last > 0
        assert len(engine.checkpoints.store) == 3  # ring kept the last 3
        assert engine.checkpoints.store.times() == [1000.0, 1500.0, 2000.0]

    def test_skips_while_node_down_then_retries(self):
        engine = build_engine()
        coordinator = CheckpointCoordinator(500.0)
        assert not coordinator.maybe_checkpoint(engine, 400.0)
        assert not coordinator.maybe_checkpoint(
            engine, 500.0, down_nodes=frozenset((0,))
        )  # due but unaligned: a node is down
        assert not coordinator.maybe_checkpoint(
            engine, 600.0, down_nodes=frozenset((0,))
        )  # same period: still skipped
        assert coordinator.maybe_checkpoint(engine, 1000.0)  # next boundary
        assert coordinator.store.times() == [0.0]  # captured engine at t=0

    def test_baseline_taken_once(self):
        engine = build_engine()
        coordinator = CheckpointCoordinator(10_000.0)
        coordinator.ensure_baseline(engine)
        coordinator.ensure_baseline(engine)
        assert len(coordinator.store) == 1
        assert engine.metrics.checkpoints_taken == 1

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            CheckpointCoordinator(0.0)
        with pytest.raises(ValueError):
            CheckpointStore(keep=0)


class TestSchedulerSnapshots:
    def test_base_scheduler_state_is_empty(self):
        scheduler = DefaultScheduler()
        assert scheduler.snapshot_state() == {}
        scheduler.restore_state({})  # no-op by contract

    def test_round_robin_cursor_round_trips(self):
        scheduler = RoundRobinScheduler()
        scheduler._cursor = 7
        state = scheduler.snapshot_state()
        other = RoundRobinScheduler()
        other.restore_state(state)
        assert other._cursor == 7

    def test_klink_mm_state_round_trips(self):
        scheduler = KlinkScheduler()
        scheduler._mm_active = True
        scheduler._mm_entry_util = 0.93
        scheduler._mm_entry_time = 1234.0
        scheduler.last_slacks = {"q0": -5.0}
        scheduler.mm_episodes = 2
        scheduler._last_overhead_ms = 0.25
        state = json.loads(json.dumps(scheduler.snapshot_state()))
        other = KlinkScheduler()
        other.restore_state(state)
        assert other._mm_active is True
        assert other._mm_entry_util == 0.93
        assert other._mm_entry_time == 1234.0
        assert other.last_slacks == {"q0": -5.0}
        assert other.mm_episodes == 2
        assert other._last_overhead_ms == 0.25


class TestRecoveryConfig:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            RecoveryConfig("reboot")

    def test_restart_requires_coordinator(self):
        with pytest.raises(ValueError, match="Coordinator"):
            RecoveryManager(RecoveryConfig("restart"), None)

    def test_none_strategy_needs_no_coordinator(self):
        manager = RecoveryManager(RecoveryConfig("none"), None)
        assert manager.coordinator is None


def test_resilience_summary_not_in_headline_summary():
    """Resilience counters stay out of summary() so checkpointed
    no-failure runs compare byte-identical to baselines."""
    engine = build_engine()
    engine.checkpoints = CheckpointCoordinator(500.0)
    engine.run(1000.0)
    assert "checkpoints_taken" not in engine.metrics.summary()
    resilience = engine.metrics.resilience_summary()
    assert resilience["checkpoints_taken"] == 3  # baseline + t=500 + t=1000
    assert resilience["recoveries"] == 0
    assert math.isnan(resilience["mean_recovery_time_ms"])


# -- error paths: the contract must fail loudly, with actionable text --------


class TestDeserializeCorruption:
    def test_truncated_json_raises_checkpoint_error(self):
        engine = build_engine()
        text = serialize(capture(engine))
        with pytest.raises(CheckpointError) as exc_info:
            deserialize(text[: len(text) // 2])
        message = str(exc_info.value)
        assert "corrupt snapshot" in message
        # the message localizes the damage and tells the caller what to do
        assert "line" in message and "column" in message
        assert "earlier checkpoint" in message

    def test_garbage_bytes_rejected(self):
        with pytest.raises(CheckpointError, match="corrupt snapshot"):
            deserialize("not json at all {")

    def test_non_object_payload_rejected(self):
        with pytest.raises(CheckpointError, match="expected a snapshot object"):
            deserialize("[1, 2, 3]")

    def test_error_chains_the_json_cause(self):
        try:
            deserialize("{broken")
        except CheckpointError as exc:
            assert isinstance(exc.__cause__, json.JSONDecodeError)
        else:
            pytest.fail("CheckpointError not raised")


class TestTopologyValidation:
    def test_operator_rename_rejected(self):
        engine = build_engine()
        engine.run(300.0)
        snapshot = capture(engine)
        snapshot["queries"][0]["operator_names"][-1] = "renamed.sink"
        with pytest.raises(CheckpointError, match="operator topology"):
            restore(build_engine(), snapshot)

    def test_query_id_mismatch_rejected(self):
        engine = build_engine()
        engine.run(300.0)
        snapshot = capture(engine)
        snapshot["queries"][0]["query_id"] = "somebody-else"
        with pytest.raises(CheckpointError, match="query id mismatch"):
            restore(build_engine(), snapshot)


# -- operators gaining checkpoint support must round-trip --------------------


def build_reorder_engine(seed: int = 0) -> Engine:
    """source -> reorder buffer -> filter -> window -> sink, with enough
    network jitter that the buffer holds in-flight batches mid-run."""
    from repro.net.delays import UniformDelay
    from repro.spe.operators import FilterOperator, SinkOperator, WindowedAggregate
    from repro.spe.query import Query, SourceBinding, SourceSpec
    from repro.spe.reorder import ReorderBuffer
    from repro.spe.windows import TumblingEventTimeWindows

    model = UniformDelay(0.0, 200.0, seed=5)
    spec = SourceSpec(
        name="src", rate_eps=1000.0, watermark_period_ms=500.0,
        lateness_ms=model.bound, delay_model=model,
    )
    reorder = ReorderBuffer("rb", state_bytes_per_event=16)
    filt = FilterOperator("f", 0.01, selectivity=0.5)
    window = WindowedAggregate(
        "w", TumblingEventTimeWindows(1000.0), 0.01,
        output_events_per_pane=10, key_by="key",
    )
    sink = SinkOperator("snk")
    operators = [reorder, filt, window, sink]
    for up, down in zip(operators, operators[1:]):
        up.connect(down)
    query = Query("q", [SourceBinding(spec, reorder, seed=seed)], operators, sink)
    return Engine(
        [query], DefaultScheduler(), cores=4, cycle_ms=100.0,
        memory=MemoryConfig(capacity_bytes=256 * MB), seed=seed,
    )


class TestReorderBufferCheckpoint:
    def test_buffered_batches_are_captured(self):
        engine = build_reorder_engine()
        engine.run(2500.0)
        snapshot = capture(engine)
        op_states = snapshot["queries"][0]["operators"]
        reorder_states = [s for s in op_states if "reorder" in s]
        assert len(reorder_states) == 1

    def test_roundtrip_is_byte_identical(self):
        engine = build_reorder_engine()
        engine.run(2500.0)
        text = serialize(capture(engine))
        fresh = build_reorder_engine()
        restore(fresh, deserialize(text), mode="resume")
        assert serialize(capture(fresh)) == text

    def test_resumed_run_equals_uninterrupted(self):
        full = build_reorder_engine()
        full.run(5000.0)

        first = build_reorder_engine()
        first.run(2500.0)
        snapshot = deserialize(serialize(capture(first)))
        resumed = build_reorder_engine()
        restore(resumed, snapshot, mode="resume")
        resumed.run(5000.0 - resumed.clock.now)

        assert json.dumps(resumed.metrics.summary(), sort_keys=True) == json.dumps(
            full.metrics.summary(), sort_keys=True
        )


# -- ledger views: snapshots reference append-only ledgers by prefix ---------


def _recording(coordinator: CheckpointCoordinator):
    """Every (snapshot, serialized text) pair, taken as the store gets it."""
    taken = []
    add = coordinator.store.add

    def recording_add(snapshot, lineage=None):
        taken.append((snapshot, serialize(snapshot)))
        add(snapshot, lineage)

    coordinator.store.add = recording_add
    return taken


class TestLedgerViews:
    def test_view_names_a_frozen_prefix(self):
        items = [1.0, 2.0]
        view = LedgerView(items)
        items.append(3.0)
        assert len(view) == 2 and list(view) == [1.0, 2.0]
        assert view == [1.0, 2.0] and view == LedgerView([1.0, 2.0])
        assert view != [1.0, 2.0, 3.0]
        assert serialize({"v": view}) == '{"v":[1.0,2.0]}'
        samples = ColumnLedger(SAMPLE_COLUMNS, row=UtilizationSample)
        samples.append(0.0, 1.0, 0.5, 2.0)
        assert list(LedgerView(samples)) == [(0.0, 1.0, 0.5, 2.0)]
        assert list(samples) == [UtilizationSample(0.0, 1.0, 0.5, 2.0)]
        with pytest.raises(dataclasses.FrozenInstanceError):
            next(iter(samples)).time = 1.0  # type: ignore[misc]
        with pytest.raises(TypeError):
            serialize({"s": {1, 2}})  # other non-JSON values are still refused

    def test_view_equals_arrays_and_column_ledgers_by_value(self):
        floats = array("d", [1.0, 2.0])
        assert LedgerView([1.0, 2.0]) == floats and floats == LedgerView([1.0, 2.0])
        assert LedgerView(floats) == [1.0, 2.0]
        assert LedgerView([1.0, 2.0]) != array("d", [1.0])
        ledger = ColumnLedger(("at", "latency"), [(1.0, 0.5)])
        assert LedgerView([(1.0, 0.5)]) == ledger and LedgerView(ledger) == [(1.0, 0.5)]
        ledger.append(2.0, 0.25)
        assert LedgerView([(1.0, 0.5)]) != ledger
        assert LedgerView([1.0]) != (x for x in [1.0])  # not sized: never equal

    def test_snapshot_ledgers_are_views_and_round_trip_to_lists(self):
        engine = build_engine()
        engine.run(3_000.0)
        snapshot = capture(engine)
        metrics = snapshot["metrics"]
        assert isinstance(metrics["swm_latencies"], LedgerView)
        assert isinstance(metrics["samples"], LedgerView)
        assert len(metrics["swm_latencies"]) > 0
        plain = deserialize(serialize(snapshot))["metrics"]
        assert type(plain["swm_latencies"]) is list
        assert plain["swm_latencies"] == metrics["swm_latencies"]

    def test_stored_snapshots_keep_capture_bytes_across_rollback(self):
        engine = build_engine()
        engine.checkpoints = coordinator = CheckpointCoordinator(500.0, keep=4)
        taken = _recording(coordinator)
        engine.run(2_200.0)
        restore(engine, coordinator.store._snapshots[0], mode="rollback")
        engine.run(1_000.0)
        restore(engine, coordinator.store.latest(), mode="rollback")
        engine.run(1_500.0)
        assert len(taken) == 10 and len(coordinator.store) == 4
        assert len(taken[-1][0]["metrics"]["swm_latencies"]) > 0
        for snapshot, text in taken:
            assert serialize(snapshot) == text

    @pytest.mark.parametrize("mode", ["resume", "rollback"])
    def test_view_restore_equals_round_tripped_restore(self, mode):
        digests = []
        for round_trip in (False, True):
            engine = build_engine()
            engine.run(1_500.0)
            snapshot = capture(engine)
            engine.run(1_000.0)  # the live ledgers grow past the views
            if round_trip:
                snapshot = deserialize(serialize(snapshot))
            target = engine if mode == "rollback" else build_engine()
            restore(target, snapshot, mode=mode)
            target.run(2_000.0)
            summary = json.dumps(target.metrics.summary(), sort_keys=True)
            digests.append((serialize(capture(target)), summary))
        assert digests[0] == digests[1]


class TestEncodedSize:
    """The end-of-run byte count sums sub-tree encodings; it must equal
    the length of the whole canonical text exactly."""

    @pytest.mark.parametrize(
        "snapshot",
        [
            {},
            {"a": [], "b": {}, "c": [[]], "d": [{}], "e": LedgerView([])},
            {"x": {1: 2.0, 3: [4]}, "y": {"n": {0.5: "z", 2: None}}, "z": {True: 1}},
            {
                "queries": [{"query_id": "ysb-é-✓", "v": [math.inf, -math.inf, math.nan]}],
                "ü": {"ünïcode": "☃ \"quoted\"\n"},
            },
            {"deep": [[1, [2, {"k": [True, False, None]}]]], "n": -0.0},
            {
                "rows": LedgerView([float(i) / 7 for i in range(10_000)]),
                "per": {"é": LedgerView([(1.0, math.nan)] * 4_097)},
                "exact": LedgerView([0.5] * 4_096),
            },
        ],
    )
    def test_crafted_snapshots(self, snapshot):
        assert _encoded_size(snapshot) == len(serialize(snapshot))


def test_capture_retains_no_ledger_history():
    """Memory guard: a capture's retained bytes follow live state, not
    elapsed time. The ledgers triple between cycle 300 and cycle 900; a
    snapshot that copied them would grow with them."""
    queries = build_queries("ysb", 10, WorkloadParams(seed=11))
    coordinator = CheckpointCoordinator(10_000.0)
    engine = Engine(
        queries,
        KlinkScheduler(),
        cores=6,
        cycle_ms=120.0,
        memory=MemoryConfig(capacity_bytes=1024 * MB),
        seed=11,
        audit=AuditLog(),
        invariants=InvariantMonitor(),
        checkpoints=coordinator,
        recovery=RecoveryManager(RecoveryConfig("standby"), coordinator),
    )

    def retained() -> int:
        tracemalloc.start()
        try:
            snapshot = capture(engine)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert snapshot["metrics"]["marker_latencies"]
        return size

    engine.run(300 * 120.0)
    markers_300, at_300 = len(engine.metrics.marker_latencies), retained()
    engine.run(600 * 120.0)
    markers_900, at_900 = len(engine.metrics.marker_latencies), retained()
    assert engine.metrics.cycles == 900
    assert markers_900 > 2.5 * markers_300
    assert at_900 <= 1.25 * at_300, (at_300, at_900)


@pytest.mark.chaos
def test_long_run_checkpoint_smoke(monkeypatch):
    """The ysb-klink-recovery benchmark config at four times the
    benchmark's length (480 s simulated): snapshots keep naming prefixes
    of ever longer ledgers, the end-of-run byte count, summed without
    building the text, still equals the canonical text's length, and
    after the failover every history is still held as columns."""
    from repro.bench import runner

    engines = []
    real_engine = runner.Engine

    def build_engine(*args, **kwargs):
        engines.append(real_engine(*args, **kwargs))
        return engines[-1]

    monkeypatch.setattr(runner, "Engine", build_engine)
    result = runner.run_experiment(runner.ExperimentConfig(
        workload="ysb", scheduler="Klink", n_queries=40, duration_ms=480_000.0,
        seed=11, fault_seed=3, recover="standby", audit=True,
        check_invariants=True, lineage_sample_rate=0.01,
    ))
    metrics, store = result.metrics, engines[0].checkpoints.store
    assert result.monitor is not None and result.monitor.ok, result.monitor
    assert metrics.recoveries >= 1, metrics.recoveries
    assert metrics.checkpoint_bytes_last == len(serialize(store.latest()))
    # after the failover the float ledgers are still columns, and the
    # drained RunMetrics ledgers hold exactly one value per sink row
    sinks = [query.sink for query in engines[0].queries]
    assert all(isinstance(ledger, ColumnLedger) for sink in sinks
               for ledger in (sink.swm_latencies, sink.marker_latencies))
    assert isinstance(metrics.samples, ColumnLedger)
    assert len(metrics.samples) == metrics.cycles
    floats = [metrics.swm_latencies, metrics.marker_latencies, metrics.slowdowns,
              *metrics.per_query_swm_latencies.values()]
    assert all(isinstance(v, array) and v.typecode == "d" for v in floats)
    markers = sum(len(sink.marker_latencies) for sink in sinks)
    swms = sum(len(sink.swm_latencies) for sink in sinks)
    assert len(metrics.marker_latencies) == markers, markers
    assert len(metrics.swm_latencies) == swms, swms
    assert sum(map(len, metrics.per_query_swm_latencies.values())) == swms
    # the lineage history is columns, and the latest sidecar (views of
    # it) survives a text round trip into a fresh tracker byte for byte
    tracker = engines[0].lineage
    forecast = tracker.forecast
    assert isinstance(tracker._completed, CompletionLog)
    assert forecast._errors and all(
        isinstance(v, array) and v.typecode == "d"
        for ledgers in (forecast._errors, forecast._naive_errors)
        for v in ledgers.values())
    assert all(isinstance(v, ColumnLedger) for v in forecast._deadline_errors.values())
    sidecar = serialize(store.latest_lineage())
    fresh = LineageTracker(tracker.sample_rate, seed=tracker.seed)
    restore_lineage(fresh, deserialize(sidecar))
    assert serialize(capture_lineage(fresh)) == sidecar
