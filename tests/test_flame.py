"""Tests for the Chrome trace-event (flame chart) exporter
(repro.obs.flame)."""

import json

import pytest

from repro.core.klink import KlinkScheduler
from repro.obs import (
    AuditLog,
    Trace,
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.flame import (
    PID_LINEAGE,
    PID_OPERATORS,
    PID_SCHEDULER,
    PID_TELEMETRY,
)
from repro.obs.schema import SchemaError
from repro.spe.engine import Engine
from tests.helpers import make_simple_query


def sample_trace():
    return Trace(
        meta={"workload": "ysb", "scheduler": "Klink", "cycle_ms": 100.0},
        cycles=[
            {
                "time": 100.0, "cycle": 0, "node": 0, "mode": "priority",
                "backpressured": False, "memory_utilization": 0.1,
                "cpu_used_ms": 50.0, "overhead_ms": 0.5,
                "decisions": [{"query_id": "q0", "reason": "slack-order"}],
            },
            {
                "time": 200.0, "cycle": 1, "node": 1, "mode": "memory",
                "backpressured": True, "memory_utilization": 0.9,
                "cpu_used_ms": 80.0, "overhead_ms": 0.5, "decisions": [],
            },
        ],
        operators=[
            {"query_id": "q0", "name": "q0.filter", "cpu_ms": 30.0,
             "events_in": 100.0, "events_out": 50.0},
            {"query_id": "q0", "name": "q0.window", "cpu_ms": 20.0,
             "events_in": 50.0, "events_out": 10.0},
            {"query_id": "q1", "name": "q1.filter", "cpu_ms": 5.0,
             "events_in": 10.0, "events_out": 5.0},
        ],
        series=[
            {"name": "queue_depth", "labels": {"query": "q0"},
             "kind": "gauge", "period_ms": 200.0,
             "points": [[200.0, 3.0], [400.0, 4.0]], "dropped": 0},
        ],
        summary={"mean_latency_ms": 10.0},
    )


class TestChromeTraceEvents:
    def test_payload_shape(self):
        payload = chrome_trace_events(sample_trace())
        assert set(payload) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["workload"] == "ysb"
        validate_chrome_trace(payload)

    def test_cycle_spans_scaled_to_microseconds(self):
        events = chrome_trace_events(sample_trace())["traceEvents"]
        cycles = [e for e in events if e.get("cat") == "scheduler"]
        assert len(cycles) == 2
        first = cycles[0]
        assert first["ph"] == "X"
        assert first["name"] == "cycle:priority"
        assert first["ts"] == 0.0 and first["dur"] == 100_000.0  # 100ms in µs
        assert first["pid"] == PID_SCHEDULER
        assert first["args"]["head_query"] == "q0"
        # second cycle lands on its node's track
        assert cycles[1]["tid"] == 1 and cycles[1]["name"] == "cycle:memory"

    def test_operator_spans_stack_per_query(self):
        events = chrome_trace_events(sample_trace())["traceEvents"]
        ops = [e for e in events if e.get("cat") == "operator"]
        assert [e["name"] for e in ops] == ["q0.filter", "q0.window", "q1.filter"]
        q0 = [e for e in ops if e["tid"] == 0]
        # back-to-back spans: second starts where the first ends
        assert q0[1]["ts"] == q0[0]["ts"] + q0[0]["dur"]
        assert all(e["pid"] == PID_OPERATORS for e in ops)

    def test_series_counters(self):
        events = chrome_trace_events(sample_trace())["traceEvents"]
        # no failures in the summary, so no instant marks
        assert not [e for e in events if e["ph"] == "i"]
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 2  # one per sampled point
        assert counters[0]["name"] == "queue_depth{query=q0}"
        assert all(e["pid"] == PID_TELEMETRY for e in counters)

    def test_include_series_false_drops_counters(self):
        events = chrome_trace_events(
            sample_trace(), include_series=False
        )["traceEvents"]
        assert not [e for e in events if e["ph"] == "C"]


class TestValidator:
    def test_rejects_non_list_events(self):
        with pytest.raises(SchemaError, match="traceEvents"):
            validate_chrome_trace({"traceEvents": "nope"})

    def test_rejects_missing_name(self):
        bad = {"traceEvents": [{"ph": "X", "ts": 0, "pid": 0, "tid": 0}]}
        with pytest.raises(SchemaError, match=r"\[0\]\.name"):
            validate_chrome_trace(bad)

    def test_rejects_bool_timestamps(self):
        bad = {"traceEvents": [
            {"name": "e", "ph": "i", "ts": True, "pid": 0, "tid": 0}
        ]}
        with pytest.raises(SchemaError, match="ts"):
            validate_chrome_trace(bad)

    def test_rejects_negative_timestamp(self):
        bad = {"traceEvents": [
            {"name": "e", "ph": "i", "ts": -1.0, "pid": 0, "tid": 0}
        ]}
        with pytest.raises(SchemaError, match="negative"):
            validate_chrome_trace(bad)

    def test_complete_spans_need_duration(self):
        bad = {"traceEvents": [
            {"name": "e", "ph": "X", "ts": 0.0, "pid": 0, "tid": 0}
        ]}
        with pytest.raises(SchemaError, match="dur"):
            validate_chrome_trace(bad)


class TestWriteChromeTrace:
    def test_written_file_is_valid_json(self, tmp_path):
        path = tmp_path / "flame.json"
        payload = write_chrome_trace(str(path), sample_trace())
        on_disk = json.loads(path.read_text())
        assert on_disk == json.loads(json.dumps(payload))
        validate_chrome_trace(on_disk)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(str(a), sample_trace())
        write_chrome_trace(str(b), sample_trace())
        assert a.read_bytes() == b.read_bytes()


class TestAuditExport:
    def test_audited_run_exports_one_span_per_cycle(self, tmp_path):
        audit = AuditLog()
        queries = [make_simple_query("q0", rate_eps=500.0)]
        engine = Engine(queries, KlinkScheduler(), cores=2, cycle_ms=100.0,
                        seed=1, audit=audit)
        metrics = engine.run(3_000.0)
        trace = Trace(
            meta={"cycle_ms": 100.0},
            cycles=[record.to_dict() for record in audit.rows],
        )
        path = tmp_path / "flame.json"
        write_chrome_trace(str(path), trace)
        payload = json.loads(path.read_text())
        validate_chrome_trace(payload)
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == metrics.cycles
        assert {e["name"] for e in spans} == {"cycle:priority"}


def lineage_rows():
    return [
        {
            "rid": "q0:0:100.0", "query_id": "q0", "source_id": 0,
            "t_end": 100.0, "status": "delivered", "completed_at": 400.0,
            "end_to_end_ms": 300.0,
            "components": {"network": 50.0, "queue": 100.0, "execute": 0.0,
                           "window": 150.0, "emit": 0.0},
            "spans": [
                {"kind": "network", "op": None, "start": 100.0, "end": 150.0},
                {"kind": "queue", "op": "q0.agg", "start": 150.0, "end": 250.0},
                {"kind": "execute", "op": "q0.agg", "start": 250.0, "end": 250.0},
                {"kind": "window", "op": "q0.agg", "start": 250.0, "end": 400.0},
            ],
        },
    ]


class TestLineageWaterfalls:
    def test_lineage_spans_export_and_validate(self):
        trace = sample_trace()
        trace.lineage = lineage_rows()
        payload = chrome_trace_events(trace)
        validate_chrome_trace(payload)
        spans = [e for e in payload["traceEvents"] if e.get("cat") == "lineage"]
        assert [e["name"] for e in spans] == [
            "network", "queue", "execute", "window",
        ]
        assert all(e["pid"] == PID_LINEAGE for e in spans)
        assert all(e["args"]["rid"] == "q0:0:100.0" for e in spans)
        # back-to-back stacking: each span starts where the previous ended
        for prev, nxt in zip(spans, spans[1:]):
            assert prev["ts"] + prev["dur"] == nxt["ts"]
        names = [
            e for e in payload["traceEvents"]
            if e["ph"] == "M" and e["pid"] == PID_LINEAGE
        ]
        assert any(e["args"]["name"] == "lineage waterfalls" for e in names)
        assert any("[delivered]" in str(e["args"].get("name")) for e in names)

    def test_untraced_run_has_no_lineage_process(self):
        payload = chrome_trace_events(sample_trace())
        assert not any(
            e.get("pid") == PID_LINEAGE for e in payload["traceEvents"]
        )

    def test_validator_rejects_wrong_phase(self):
        bad = {"traceEvents": [
            {"name": "queue", "cat": "lineage", "ph": "i", "ts": 0.0,
             "pid": PID_LINEAGE, "tid": 0, "args": {"rid": "r"}}
        ]}
        with pytest.raises(SchemaError, match="X spans"):
            validate_chrome_trace(bad)

    def test_validator_rejects_wrong_pid(self):
        bad = {"traceEvents": [
            {"name": "queue", "cat": "lineage", "ph": "X", "ts": 0.0,
             "dur": 1.0, "pid": 0, "tid": 0, "args": {"rid": "r"}}
        ]}
        with pytest.raises(SchemaError, match="pid"):
            validate_chrome_trace(bad)

    def test_validator_rejects_unknown_span_kind(self):
        bad = {"traceEvents": [
            {"name": "gc-pause", "cat": "lineage", "ph": "X", "ts": 0.0,
             "dur": 1.0, "pid": PID_LINEAGE, "tid": 0, "args": {"rid": "r"}}
        ]}
        with pytest.raises(SchemaError, match="span kind"):
            validate_chrome_trace(bad)

    def test_validator_requires_rid_argument(self):
        bad = {"traceEvents": [
            {"name": "queue", "cat": "lineage", "ph": "X", "ts": 0.0,
             "dur": 1.0, "pid": PID_LINEAGE, "tid": 0, "args": {}}
        ]}
        with pytest.raises(SchemaError, match="rid"):
            validate_chrome_trace(bad)
