"""Event-lineage tracing and SWM-forecast audit (ISSUE 9 tentpole).

The contract under test:

* sampling is keyed-hash-deterministic (same seed -> same records,
  across reruns), monotone in the rate, and off by default;
* for every completed record the five waterfall components sum to the
  end-to-end latency *exactly* (shared span boundaries, closed
  virtual-clock arithmetic);
* tracing is a pure observer: summaries, audit trails, and checkpoint
  bytes are byte-identical with tracing on and off;
* in-flight lineage state survives the checkpoint codec and a real
  failover (restart recovery) run;
* Klink's SWM-arrival estimate is better calibrated than the naive
  last-period predictor on YSB;
* v1/v2 traces (checked-in fixtures) still read; a corrupt lineage
  record fails loudly with file:line context.
"""

import inspect
import json
import os
import tracemalloc
from array import array
from collections import Counter, deque
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.bench.runner import (
    ExperimentConfig,
    run_experiment,
    trace_from_result,
)
from repro.cli import main
from repro.core.klink import KlinkScheduler
from repro.faults import FaultPlan, NodeFailure
from repro.obs import (
    RECORD_STATUSES,
    SPAN_KINDS,
    LineageTracker,
    SwmForecastAudit,
    build_report,
    read_trace,
    render_text,
    render_waterfall,
    validate_lineage,
    validate_lineage_summary,
    validate_report,
    validate_swm_forecast,
    waterfall,
)
from repro.obs.audit import AuditLog
from repro.obs.lineage import CompletionLog, _Record
from repro.resilience import (
    CheckpointCoordinator,
    RecoveryConfig,
    RecoveryManager,
    capture_lineage,
    deserialize,
    restore_lineage,
    serialize,
)
from repro.spe.engine import Engine
from repro.spe.events import RecordBatch
from repro.spe.metrics import ColumnLedger
from repro.workloads import WorkloadParams, build_queries

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

BASE = ExperimentConfig(
    workload="ysb",
    scheduler="Klink",
    n_queries=3,
    duration_ms=8_000.0,
    seed=3,
)


def traced(rate=1.0, **kw):
    return run_experiment(replace(BASE, lineage_sample_rate=rate, **kw))


class TestSampling:
    def test_off_by_default(self):
        res = run_experiment(BASE)
        assert res.config.lineage_sample_rate == 0.0
        assert res.lineage is None

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            LineageTracker(-0.1)
        with pytest.raises(ValueError):
            LineageTracker(1.5)

    def test_decisions_deterministic_across_instances(self):
        a = LineageTracker(0.25, seed=9)
        b = LineageTracker(0.25, seed=9)
        points = [("q0", 0, float(t)) for t in range(0, 5000, 10)]
        assert [a.sampled(*p) for p in points] == [b.sampled(*p) for p in points]
        hits = sum(a.sampled(*p) for p in points)
        assert 0 < hits < len(points)

    def test_seed_changes_the_sample(self):
        a = LineageTracker(0.25, seed=1)
        b = LineageTracker(0.25, seed=2)
        points = [("q0", 0, float(t)) for t in range(0, 5000, 10)]
        assert [a.sampled(*p) for p in points] != [b.sampled(*p) for p in points]

    def test_rate_monotone_and_extremes(self):
        lo = LineageTracker(0.05, seed=4)
        hi = LineageTracker(0.5, seed=4)
        none = LineageTracker(0.0, seed=4)
        everything = LineageTracker(1.0, seed=4)
        for t in range(0, 3000, 7):
            p = ("q1", 2, float(t))
            if lo.sampled(*p):
                assert hi.sampled(*p)  # threshold scheme nests samples
            assert not none.sampled(*p)
            assert everything.sampled(*p)


class TestWaterfallExactness:
    @pytest.fixture(scope="class")
    def rows(self):
        return traced(rate=1.0).lineage.lineage_rows()

    def test_every_record_closes(self, rows):
        assert rows, "rate 1.0 must sample records"
        for row in rows:
            assert row["status"] in RECORD_STATUSES
            validate_lineage(json.loads(json.dumps(row)))

    def test_components_sum_exactly(self, rows):
        for row in rows:
            assert sum(row["components"].values()) == row["end_to_end_ms"]
            assert set(row["components"]) == set(SPAN_KINDS)

    def test_span_chain_is_contiguous(self, rows):
        for row in rows:
            spans = row["spans"]
            assert spans[0]["kind"] == "network"
            assert spans[0]["start"] == row["t_end"]
            assert spans[-1]["end"] == row["completed_at"]
            for prev, nxt in zip(spans, spans[1:]):
                assert prev["end"] == nxt["start"]

    def test_delivered_records_exist_and_aggregate(self, rows):
        agg = waterfall(rows)
        assert agg["sampled"] == len(rows)
        assert agg["delivered"] > 0
        shares = agg["overall"]["shares_pct"]
        assert abs(sum(shares.values()) - 100.0) < 1e-9
        assert {r["query_id"] for r in agg["by_query"]} <= {
            f"ysb-{i}" for i in range(BASE.n_queries)
        }


class TestPureObserver:
    """Tracing must not perturb the simulation in any observable way."""

    @pytest.fixture(scope="class")
    def pair(self):
        kw = dict(audit=True, telemetry=True, checkpoint_period_ms=3_000.0)
        plain = run_experiment(replace(BASE, **kw))
        sampled = run_experiment(
            replace(BASE, lineage_sample_rate=0.5, **kw)
        )
        return plain, sampled

    def test_summary_byte_identical(self, pair):
        plain, sampled = pair
        assert json.dumps(plain.summary, sort_keys=True) == json.dumps(
            sampled.summary, sort_keys=True
        )

    def test_audit_trail_byte_identical(self, pair):
        plain, sampled = pair
        assert plain.audit.to_jsonl_str() == sampled.audit.to_jsonl_str()

    def test_checkpoint_bytes_identical(self, pair):
        plain, sampled = pair
        assert plain.metrics.checkpoints_taken > 0
        assert (
            plain.metrics.checkpoints_taken
            == sampled.metrics.checkpoints_taken
        )
        assert (
            plain.metrics.checkpoint_bytes_last
            == sampled.metrics.checkpoint_bytes_last
        )

    def test_rerun_reproduces_lineage(self):
        a = traced(rate=0.3)
        b = traced(rate=0.3)
        assert a.lineage.lineage_rows() == b.lineage.lineage_rows()
        assert a.lineage.swm_forecast_rows() == b.lineage.swm_forecast_rows()
        sa, sb = a.lineage.summary_row(), b.lineage.summary_row()
        assert sa == sb
        assert sa["rows_sampled"] == len(a.lineage.lineage_rows())


class TestCheckpointCodec:
    def _populated_tracker(self):
        tracker = LineageTracker(0.5, seed=2)
        rec = _Record("q0:0:100.0", "q0", 0, 100.0)
        rec.spans.append(("network", None, 100.0, 130.0))
        tracker._inflight = {("q0", "agg", 100.0): deque([[rec]])}
        parked = _Record("q0:0:200.0", "q0", 0, 200.0)
        parked.absorbed_at = 230.0
        parked.spans.append(("network", None, 200.0, 230.0))
        tracker._window_wait = {("q0", "agg", 1000.0): [parked]}
        tracker.rows_sampled = 2
        tracker.spans_recorded = 0
        tracker.forecast.on_prediction(
            "q0",
            0,
            1_000.0,
            940.0,
            SimpleNamespace(progress=None, spec=None),
            500.0,
        )
        return tracker

    def test_capture_restore_round_trip(self):
        tracker = self._populated_tracker()
        state = capture_lineage(tracker)
        # serialize is the sidecar's canonical form: it writes views as lists
        state = deserialize(serialize(state))
        fresh = LineageTracker(0.5, seed=2)
        restore_lineage(fresh, state)
        assert capture_lineage(fresh) == capture_lineage(tracker)
        assert fresh.rows_sampled == 2
        assert list(fresh._inflight) == [("q0", "agg", 100.0)]
        restored = fresh._inflight[("q0", "agg", 100.0)][0][0]
        assert restored.spans == [("network", None, 100.0, 130.0)]
        assert fresh._window_wait[("q0", "agg", 1000.0)][0].absorbed_at == 230.0
        assert fresh.forecast.evaluations == 1

    def test_end_of_run_tracker_round_trips(self):
        res = traced(rate=1.0, duration_ms=5_000.0)
        tracker = res.lineage
        fresh = LineageTracker(tracker.sample_rate, seed=tracker.seed)
        restore_lineage(fresh, capture_lineage(tracker))
        # the records still in flight close at the end of the run, which
        # the engine marks on whichever tracker it runs with
        fresh.finalize(res.metrics.duration_ms)
        assert fresh.lineage_rows() == tracker.lineage_rows()
        assert fresh.rows_sampled == tracker.rows_sampled
        assert fresh.spans_recorded == tracker.spans_recorded
        assert fresh.forecast.evaluations == tracker.forecast.evaluations

    def test_rows_are_fresh_copies(self):
        """Editing every returned row, down to its components and spans,
        changes neither the log nor any stored sidecar's bytes."""
        tracker = LineageTracker(0.05, seed=3)
        coordinator = CheckpointCoordinator(5_000.0)
        engine = Engine(
            build_queries("ysb", 10, WorkloadParams(seed=3)), KlinkScheduler(),
            cores=4, seed=3, lineage=tracker, checkpoints=coordinator,
        )
        engine.run(30_000.0)
        sidecars = coordinator.store._lineage
        assert len(sidecars) == 4 and sidecars[-1]["completed"]
        stored = [serialize(sidecar) for sidecar in sidecars]
        expected = json.dumps(tracker.lineage_rows(), sort_keys=True)
        for row in tracker.lineage_rows():
            row["status"], row["t_end"] = "edited", -1.0
            for kind in row["components"]:
                row["components"][kind] = -1.0
            for span in row["spans"]:
                span["op"], span["start"] = "edited", -1.0
            row["spans"].append(dict(row["spans"][0]))
        assert json.dumps(tracker.lineage_rows(), sort_keys=True) == expected
        assert [serialize(sidecar) for sidecar in sidecars] == stored

    def test_mid_run_sidecar_keeps_its_bytes(self):
        """One sidecar serializes to the same bytes at capture, 300 cycles
        later, after a restart-mode rollback to it (and 100 cycles past
        that), and once restored from its text into a fresh tracker."""
        tracker = LineageTracker(0.2, seed=3)
        scheduler = KlinkScheduler()
        scheduler.forecast_audit = tracker.forecast
        coordinator = CheckpointCoordinator(10_000.0)
        engine = Engine(
            build_queries("ysb", 6, WorkloadParams(seed=3)), scheduler,
            cores=2, cycle_ms=20.0, seed=3, batch_size=64,
            faults=FaultPlan([NodeFailure(16_000.0, 17_500.0, node=0)]),
            checkpoints=coordinator,
            recovery=RecoveryManager(RecoveryConfig("restart"), coordinator),
            lineage=tracker,
        )
        while engine.metrics.checkpoints_taken < 2:  # baseline, then 10 s
            engine.step_cycle()
        sidecar = coordinator.store.latest_lineage()
        assert sidecar["completed"] and sidecar["inflight"]
        assert sidecar["forecast"]["errors"] and sidecar["forecast"]["pending"]
        text = serialize(sidecar)
        log = tracker._completed
        _step(engine, 300)
        assert len(tracker._completed) > len(sidecar["completed"])
        assert serialize(sidecar) == text
        for _ in range(200):
            if engine.metrics.recoveries:
                break
            engine.step_cycle()
        assert engine.metrics.recoveries == 1
        assert coordinator.store.latest_lineage() is sidecar
        assert tracker._completed is not log  # rebound, not rewritten
        _step(engine, 100)
        assert serialize(sidecar) == text
        fresh = LineageTracker(tracker.sample_rate, seed=tracker.seed)
        restore_lineage(fresh, deserialize(text))
        assert serialize(capture_lineage(fresh)) == text

    def test_logs_are_columns(self):
        res = traced(rate=1.0, duration_ms=20_000.0)
        tracker = res.lineage
        assert isinstance(tracker._completed, CompletionLog)
        closed = [row for row in tracker.lineage_rows()
                  if row["status"] != "in-flight"]
        assert list(tracker._completed) == closed
        forecast = tracker.forecast
        assert forecast._errors
        for ledgers in (forecast._errors, forecast._naive_errors):
            assert all(isinstance(v, array) and v.typecode == "d"
                       for v in ledgers.values())
        assert all(isinstance(v, ColumnLedger) and v.names == ("deadline", "error")
                   for v in forecast._deadline_errors.values())


class TestLineageMemory:
    """Memory guards: the lineage history costs its floats, and a sidecar
    references it instead of copying it."""

    @staticmethod
    def _engine(rate, n_queries, **kw):
        tracker = LineageTracker(rate, seed=11)
        scheduler = KlinkScheduler()
        scheduler.forecast_audit = tracker.forecast
        engine = Engine(
            build_queries("ysb", n_queries, WorkloadParams(seed=11)), scheduler,
            cores=6, cycle_ms=120.0, seed=11, lineage=tracker, **kw,
        )
        return engine, tracker

    def test_forecast_audit_retains_at_most_20_bytes_per_evaluation(self):
        """Counts what the audit allocated outside ``on_prediction``: the
        unresolved predictions (and the tuples CPython keeps on its free
        list once they resolve) are bounded by one watermark period."""
        engine, tracker = self._engine(0.0, 6)
        tracemalloc.start()
        try:
            engine.run(60_000.0)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        lines, first = inspect.getsourcelines(SwmForecastAudit.on_prediction)
        audit_py = snapshot.filter_traces(
            [tracemalloc.Filter(True, inspect.getsourcefile(SwmForecastAudit))]
        )
        retained = sum(
            stat.size for stat in audit_py.statistics("lineno")
            if not first <= stat.traceback[0].lineno < first + len(lines)
        )
        resolved = sum(map(len, tracker.forecast._errors.values()))
        assert resolved > 2_000
        assert retained <= 20 * resolved, (retained, resolved)

    def test_capture_retains_no_lineage_history(self):
        """The bytes one capture_lineage retains follow in-flight state,
        not elapsed time (mirrors the engine snapshot's guard)."""
        engine, tracker = self._engine(
            0.05, 10, audit=AuditLog(), checkpoints=CheckpointCoordinator(10_000.0)
        )

        def retained() -> int:
            # the history part alone: records still in flight are copied,
            # and how many there are at either point is not elapsed time
            open_records = tracker._inflight, tracker._window_wait
            tracker._inflight, tracker._window_wait = {}, {}
            tracemalloc.start()
            try:
                sidecar = capture_lineage(tracker)
                size = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
                tracker._inflight, tracker._window_wait = open_records
            assert sidecar["completed"] and sidecar["forecast"]["errors"]
            return size

        engine.run(300 * 120.0)
        history_300, at_300 = tracker.forecast.evaluations, retained()
        engine.run(600 * 120.0)
        history_900, at_900 = tracker.forecast.evaluations, retained()
        assert engine.metrics.cycles == 900
        assert history_900 > 2.5 * history_300
        assert at_900 <= 1.25 * at_300, (at_300, at_900)


def _traced_engine(rate=1.0):
    # one core for six queries: rows queue up behind each other
    queries = build_queries("ysb", 6, WorkloadParams(seed=3))
    tracker = LineageTracker(rate, seed=3)
    engine = Engine(
        queries, KlinkScheduler(), cores=1, seed=3, lineage=tracker,
        batch_size=64,
    )
    return engine, tracker


def _step(engine, cycles):
    for _ in range(cycles):
        engine.step_cycle()


def _index_keys(tracker):
    return {
        (query_id, name, t_end)
        for (query_id, name), watch in tracker._inflight_index.items()
        for t_end in watch
    }


def _queued_t_ends(op):
    return {
        t_end
        for channel in op.inputs
        for queue in (channel._entries, channel._pending)
        for entry in queue
        if type(entry.record) is RecordBatch
        for t_end in entry.record.t_ends[entry.record.head:]
    }


class TestDrainsWithTracker:
    """Tracing runs the same drain as an untraced run; the tracker's
    per-operator index decides which rows it hears about."""

    def test_traced_drain_reports_each_watched_row_once(self):
        """Every row a drain consumes whole while its key is watched is
        reported to ``on_consumed`` exactly once: no report repeats, and
        after every cycle each watched key still names a queued row (a
        consumed row that went unreported would leave its key behind)."""
        engine, tracker = _traced_engine()
        reports = Counter()
        on_consumed = tracker.on_consumed

        def counted(op, t_start, t_end, enqueued_at, channel, now):
            reports[(op.name, t_start, t_end, enqueued_at)] += 1
            return on_consumed(op, t_start, t_end, enqueued_at, channel, now)

        tracker.on_consumed = counted
        kinds = {op.name: type(op).__name__
                 for query in engine.queries for op in query.operators}
        for _ in range(120):
            _step(engine, 1)
            for query in engine.queries:
                for op in query.operators:
                    watch = tracker._inflight_index.get((query.query_id, op.name), ())
                    assert set(watch) <= _queued_t_ends(op), op.name
        assert reports and max(reports.values()) == 1
        reported = {kinds[name] for name, *_ in reports}
        assert {"FilterOperator", "WindowedAggregate", "SinkOperator"} <= reported
        statuses = {row["status"] for row in tracker.lineage_rows()}
        assert "delivered" in statuses

    def test_index_tracks_inflight_keys(self):
        engine, tracker = _traced_engine()
        busy_cycles = 0
        for _ in range(80):
            _step(engine, 1)
            busy_cycles += bool(tracker._inflight)
            assert _index_keys(tracker) == set(tracker._inflight)
        assert busy_cycles > 10
        for query in engine.queries:
            for op in query.operators:
                key = (query.query_id, op.name)
                assert op.lineage_watch is tracker._inflight_index[key]

    def test_restore_rebuilds_index_in_place(self):
        engine, tracker = _traced_engine()
        _step(engine, 40)
        state = deserialize(serialize(capture_lineage(tracker)))
        assert state["inflight"]
        _step(engine, 20)
        restore_lineage(tracker, state)
        assert _index_keys(tracker) == set(tracker._inflight)
        # rebuilt in place: every operator still holds its index set
        for query in engine.queries:
            for op in query.operators:
                key = (query.query_id, op.name)
                assert op.lineage_watch is tracker._inflight_index[key]
        fresh = LineageTracker(tracker.sample_rate, seed=tracker.seed)
        restore_lineage(fresh, state)
        assert _index_keys(fresh) == set(fresh._inflight) == set(tracker._inflight)

    def test_finalize_keeps_records_open(self):
        engine, tracker = _traced_engine()
        _step(engine, 40)
        keys = _index_keys(tracker)
        assert tracker._inflight and tracker._window_wait
        n_open = sum(len(group) for groups in tracker._inflight.values()
                     for group in groups)
        n_open += sum(map(len, tracker._window_wait.values()))
        tracker.finalize(engine.clock.now)
        assert _index_keys(tracker) == keys == set(tracker._inflight)
        open_rows = [row for row in tracker.lineage_rows()
                     if row["status"] == "in-flight"]
        assert len(open_rows) == n_open
        assert {row["completed_at"] for row in open_rows} == {engine.clock.now}
        summary = tracker.summary_row()
        assert summary["statuses"]["in-flight"] == n_open
        assert summary["span_records"] == sum(
            len(row["spans"]) for row in tracker.lineage_rows()
        )


class TestSegmentedRuns:
    def test_split_run_lineage_equals_one_run(self):
        """Ending a run() segment closes nothing for good: one 20 s run
        and two 10 s runs read the same lineage rows and summary."""

        def run(segments):
            tracker = LineageTracker(0.2, seed=4)
            scheduler = KlinkScheduler()
            scheduler.forecast_audit = tracker.forecast
            engine = Engine(
                build_queries("ysb", 4, WorkloadParams(seed=4)), scheduler,
                cores=2, cycle_ms=100.0, seed=4, lineage=tracker,
            )
            # 100 ms cycles: each 10 s segment ends on a cycle boundary
            for _ in range(segments):
                metrics = engine.run(20_000.0 / segments)
            return (
                json.dumps(metrics.summary(), sort_keys=True),
                json.dumps(tracker.lineage_rows(), sort_keys=True),
                tracker.summary_row(),
            )

        whole, split = run(1), run(2)
        assert json.loads(whole[1])
        assert whole == split


def _seed_with_node_failure(duration_ms, query_ids):
    for seed in range(80):
        plan = FaultPlan.random(seed, duration_ms, query_ids=query_ids)
        if any(
            isinstance(f, NodeFailure) and f.end_ms <= duration_ms - 1_000.0
            for f in plan
        ):
            return seed
    raise AssertionError("no node-failure seed found in range")


class TestFailoverWithLineage:
    def test_lineage_survives_restart_recovery(self):
        duration = 20_000.0
        ids = [f"ysb-{i}" for i in range(3)]
        seed = _seed_with_node_failure(duration, ids)
        kw = dict(
            duration_ms=duration,
            fault_seed=seed,
            checkpoint_period_ms=3_000.0,
            recover="restart",
        )
        plain = run_experiment(replace(BASE, **kw))
        sampled = run_experiment(replace(BASE, lineage_sample_rate=0.3, **kw))
        assert plain.metrics.recoveries >= 1
        # observer contract holds across rollback + replay
        assert json.dumps(plain.summary, sort_keys=True) == json.dumps(
            sampled.summary, sort_keys=True
        )
        rows = sampled.lineage.lineage_rows()
        assert rows
        for row in rows:
            assert sum(row["components"].values()) == row["end_to_end_ms"]


class TestSwmForecastAudit:
    def _binding(self, last_ingest=None, period=500.0):
        progress = (
            None
            if last_ingest is None
            else SimpleNamespace(last_swm_ingest_time=last_ingest)
        )
        return SimpleNamespace(
            progress=progress,
            spec=SimpleNamespace(watermark_period_ms=period),
        )

    def test_prediction_resolution_and_errors(self):
        audit = SwmForecastAudit()
        audit.register_source("q0", 0, 500.0, {"kind": "constant"})
        audit.on_prediction("q0", 0, 1_000.0, 1_180.0, self._binding(700.0), 900.0)
        audit.on_actual("q0", 0, 1_000.0, 1_150.0)
        (row,) = audit.rows()
        assert row["evaluations"] == 1
        assert row["deadlines_resolved"] == 1
        assert row["mean_error_ms"] == 1_180.0 - 1_150.0  # over-prediction
        assert row["naive_mean_abs_error_ms"] == abs(700.0 + 500.0 - 1_150.0)
        assert row["over_predictions"] == 1
        assert row["watermark_period_ms"] == 500.0

    def test_unswept_deadlines_stay_pending(self):
        audit = SwmForecastAudit()
        audit.on_prediction("q0", 0, 2_000.0, 2_100.0, self._binding(), 900.0)
        audit.on_actual("q0", 0, 1_000.0, 1_100.0)  # SWM below the deadline
        (row,) = audit.rows()
        assert row["evaluations"] == 0
        assert row["deadlines_unresolved"] == 1
        assert row["mean_abs_error_ms"] is None

    def test_episode_runs_count_sign_flips(self):
        audit = SwmForecastAudit()
        # four deadlines resolving to errors +, +, -, +  -> 2 over / 1 under
        for deadline, mean, now in [
            (1_000.0, 1_050.0, 1_010.0),
            (2_000.0, 2_060.0, 2_010.0),
            (3_000.0, 2_980.0, 3_010.0),
            (4_000.0, 4_100.0, 4_010.0),
        ]:
            audit.on_prediction(
                "q0", 0, deadline, mean, self._binding(), now - 100.0
            )
            audit.on_actual("q0", 0, deadline, now)
        (row,) = audit.rows()
        assert row["deadlines_resolved"] == 4
        assert row["over_episodes"] == 2
        assert row["under_episodes"] == 1

    def test_klink_beats_naive_on_ysb(self):
        res = traced(rate=0.02, n_queries=2, duration_ms=30_000.0)
        rows = res.lineage.swm_forecast_rows()
        comparable = [
            r
            for r in rows
            if r["mean_abs_error_ms"] is not None
            and r["naive_mean_abs_error_ms"] is not None
        ]
        assert comparable, "30s YSB run must resolve naive-comparable deadlines"
        for row in comparable:
            assert row["mean_abs_error_ms"] < row["naive_mean_abs_error_ms"]
            validate_swm_forecast(json.loads(json.dumps(row)))


class TestTraceAndReport:
    @pytest.fixture(scope="class")
    def traced_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("lineage") / "trace.jsonl")
        traced(
            rate=0.5,
            audit=True,
            profile=True,
            telemetry=True,
            trace_path=path,
        )
        return path

    def test_round_trip_and_overhead_accounting(self, traced_path):
        trace = read_trace(traced_path)
        assert trace.schema_version == 4
        assert trace.lineage and trace.swm_forecast and trace.lineage_summary
        summary = trace.lineage_summary
        validate_lineage_summary(json.loads(json.dumps(summary)))
        assert summary["rows_sampled"] == len(trace.lineage)
        assert summary["trace_bytes"] > 0
        # trace_bytes is exactly the on-disk footprint of lineage rows
        byte_count = sum(
            len(line.encode("utf-8")) + 1
            for line in (
                json.dumps(
                    {"type": kind, **row}, separators=(",", ":")
                )
                for kind, rows in (
                    ("lineage", trace.lineage),
                    ("swm_forecast", trace.swm_forecast),
                )
                for row in rows
            )
        )
        assert summary["trace_bytes"] == byte_count

    def test_report_sections(self, traced_path):
        report = build_report(read_trace(traced_path))
        validate_report(json.loads(report.to_json()))
        assert report.waterfall is not None
        assert report.swm_forecast
        assert report.lineage_overhead is not None
        text = render_text(report)
        assert "latency waterfall" in text
        assert "SWM-forecast accuracy" in text
        assert "lineage overhead" in text
        focused = render_waterfall(report)
        assert "latency waterfall" in focused
        assert "hottest operators" not in focused

    def test_waterfall_view_without_lineage(self):
        res = run_experiment(replace(BASE, audit=True, profile=True))
        report = build_report(trace_from_result(res))
        assert report.waterfall is None
        assert "--lineage-sample-rate" in render_waterfall(report)


class TestSchemaCompat:
    """Satellite: v1/v2 traces written before the v3 bump still load."""

    @pytest.mark.parametrize("name,version", [
        ("trace_v1.jsonl", 1),
        ("trace_v2.jsonl", 2),
    ])
    def test_old_traces_read_and_report(self, name, version):
        trace = read_trace(os.path.join(FIXTURES, name))
        assert trace.schema_version == version
        assert trace.cycles and trace.summary
        assert trace.lineage == [] and trace.swm_forecast == []
        assert trace.lineage_summary == {}
        report = build_report(trace)
        validate_report(json.loads(report.to_json()))
        assert report.waterfall is None

    @pytest.mark.parametrize("name", ["trace_v1.jsonl", "trace_v2.jsonl"])
    def test_old_traces_pass_check_schema(self, name, capsys):
        rc = main([
            "report", "--trace", os.path.join(FIXTURES, name),
            "--check-schema", "--format", "json",
        ])
        assert rc == 0
        assert "[schema] OK" in capsys.readouterr().err

    def test_corrupt_lineage_record_fails_with_location(self, capsys):
        path = os.path.join(FIXTURES, "trace_v3_corrupt.jsonl")
        with pytest.raises(ValueError) as exc:
            read_trace(path)
        message = str(exc.value)
        assert "corrupt lineage record" in message
        assert "trace_v3_corrupt.jsonl:" in message  # file:line context
        rc = main(["report", "--trace", path])
        assert rc == 1
        assert "cannot read trace" in capsys.readouterr().err


class TestCli:
    def test_run_flag_defaults_off(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["run"])
        assert args.lineage_sample_rate == 0.0

    def test_run_with_sampling(self, capsys):
        rc = main([
            "run", "--workload", "ysb", "--scheduler", "Klink",
            "--queries", "2", "--duration", "6", "--cores", "4",
            "--lineage-sample-rate", "1.0",
        ])
        assert rc == 0
        assert "Klink" in capsys.readouterr().out

    def test_report_waterfall_view(self, capsys):
        rc = main([
            "report", "--workload", "ysb", "--queries", "2",
            "--duration", "8", "--seed", "3",
            "--lineage-sample-rate", "1.0", "--waterfall",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "latency waterfall" in out
        assert "hottest operators" not in out

    def test_report_waterfall_without_lineage_hints(self, capsys):
        rc = main([
            "report", "--workload", "ysb", "--queries", "2",
            "--duration", "6", "--waterfall",
        ])
        assert rc == 0
        assert "--lineage-sample-rate" in capsys.readouterr().out

    def test_check_schema_covers_lineage_records(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        traced(
            rate=0.5,
            n_queries=2,
            duration_ms=6_000.0,
            audit=True,
            profile=True,
            telemetry=True,
            trace_path=path,
        )
        rc = main([
            "report", "--trace", path, "--check-schema", "--format", "json",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[schema] OK" in err and "lineage records" in err
