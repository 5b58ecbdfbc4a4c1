"""Chrome trace-event ("flame chart") export of a run trace.

Converts a :class:`~repro.obs.export.Trace` into the Chrome trace-event
JSON object format, loadable in ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev): drop the emitted ``.json`` file onto either
UI to scrub through a run visually.

Mapping of simulation concepts onto trace-event rows:

* **scheduler cycles** (``pid 0``, one ``tid`` per node) — a complete
  ``X`` span per scheduling cycle, named by plan mode, carrying CPU
  use, overhead, memory utilization, backpressure, and the head
  scheduling decision in ``args``;
* **operator execution** (``pid 1``, one ``tid`` per query) — one
  ``X`` span per operator, laid out sequentially within its query so
  the pipeline reads as a flame chart of simulated CPU-ms;
* **telemetry series** (``pid 2``) — ``C`` counter events per sampled
  point, which Perfetto renders as stairstep tracks.

Virtual-clock milliseconds are scaled to the trace-event microsecond
timebase. The output is deterministic (insertion-ordered keys, fixed
separators, non-finite floats mapped to ``null``) like every other
exporter in :mod:`repro.obs`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from repro.obs.export import Trace, dumps_line, jsonify
from repro.obs.lineage import SPAN_KINDS
from repro.obs.schema import SchemaError

#: trace-event process ids (render as named groups in the UI)
PID_SCHEDULER = 0
PID_OPERATORS = 1
PID_TELEMETRY = 2
PID_LINEAGE = 3

#: event phases used by the exporter
_PHASE_COMPLETE = "X"
_PHASE_INSTANT = "i"
_PHASE_COUNTER = "C"
_PHASE_METADATA = "M"


def _us(ms: float) -> float:
    """Virtual-clock ms -> trace-event µs."""
    return float(ms) * 1000.0


def _metadata(name: str, pid: int, tid: int, label: str) -> Dict[str, Any]:
    return {
        "name": name,
        "ph": _PHASE_METADATA,
        "ts": 0,
        "pid": pid,
        "tid": tid,
        "args": {"name": label},
    }


def _cycle_events(
    cycles: Sequence[Mapping[str, Any]], cycle_ms: float
) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    for row in cycles:
        end = float(row.get("time", 0.0))
        duration = cycle_ms if cycle_ms > 0 else float(row.get("cpu_used_ms", 0.0))
        start = max(end - duration, 0.0)
        node = int(row.get("node", 0))
        args: Dict[str, Any] = {
            "cycle": row.get("cycle"),
            "cpu_used_ms": row.get("cpu_used_ms"),
            "overhead_ms": row.get("overhead_ms"),
            "memory_utilization": row.get("memory_utilization"),
            "backpressured": bool(row.get("backpressured")),
        }
        decisions = row.get("decisions") or []
        if decisions:
            head = decisions[0]
            args["head_query"] = head.get("query_id")
            args["head_reason"] = head.get("reason")
        events.append(
            {
                "name": f"cycle:{row.get('mode', 'priority')}",
                "cat": "scheduler",
                "ph": _PHASE_COMPLETE,
                "ts": _us(start),
                "dur": _us(max(end - start, 0.0)),
                "pid": PID_SCHEDULER,
                "tid": node,
                "args": args,
            }
        )
    return events


def _operator_events(
    operators: Sequence[Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    """One span per operator, stacked sequentially per query.

    The trace records end-of-run CPU totals, not per-cycle spans, so the
    flame chart lays each query's operators out back-to-back: the track
    width *is* the pipeline's total simulated CPU-ms and each span's
    share is the operator's share — the classic flame-chart reading.
    """
    query_ids = sorted(
        {str(op.get("query_id", "?")) for op in operators}
    )
    tids = {qid: idx for idx, qid in enumerate(query_ids)}
    offsets = {qid: 0.0 for qid in query_ids}
    events: List[Dict[str, Any]] = []
    for qid in query_ids:
        events.append(
            _metadata("thread_name", PID_OPERATORS, tids[qid], f"query {qid}")
        )
    for op in operators:
        qid = str(op.get("query_id", "?"))
        cpu_ms = float(op.get("cpu_ms", 0.0))
        events.append(
            {
                "name": str(op.get("name", "?")),
                "cat": "operator",
                "ph": _PHASE_COMPLETE,
                "ts": _us(offsets[qid]),
                "dur": _us(max(cpu_ms, 0.0)),
                "pid": PID_OPERATORS,
                "tid": tids[qid],
                "args": {
                    "events_in": op.get("events_in"),
                    "events_out": op.get("events_out"),
                    "queued_events_hwm": op.get("queued_events_hwm"),
                    "state_bytes_hwm": op.get("state_bytes_hwm"),
                },
            }
        )
        offsets[qid] += max(cpu_ms, 0.0)
    return events


def _series_events(series: Sequence[Mapping[str, Any]]) -> List[Dict[str, Any]]:
    events: List[Dict[str, Any]] = []
    for row in series:
        name = str(row.get("name", "?"))
        labels = row.get("labels") or {}
        if labels:
            body = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            name = f"{name}{{{body}}}"
        for point in row.get("points", ()):
            t, value = float(point[0]), point[1]
            events.append(
                {
                    "name": name,
                    "cat": "telemetry",
                    "ph": _PHASE_COUNTER,
                    "ts": _us(t),
                    "pid": PID_TELEMETRY,
                    "tid": 0,
                    "args": {"value": value},
                }
            )
    return events


def _resilience_events(summary: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Recovery spans and checkpoint-restore marks from the summary's
    resilience section (present when a run recovered from, or lost
    events to, node failures)."""
    section = summary.get("resilience")
    if not isinstance(section, Mapping):
        return []
    events: List[Dict[str, Any]] = []
    for row in section.get("events", ()):
        node = int(row.get("node", 0))
        strategy = str(row.get("strategy", "?"))
        failed_at = max(float(row.get("failed_at", 0.0)), 0.0)
        recovered_at = row.get("recovered_at")
        args = {
            "node": node,
            "detected_at": row.get("detected_at"),
            "checkpoint_time": row.get("checkpoint_time"),
            "events_lost": row.get("events_lost"),
        }
        if recovered_at is None:
            # unrecovered failure (strategy "none"): an instant mark
            events.append(
                {
                    "name": f"failure:{strategy}",
                    "cat": "resilience",
                    "ph": _PHASE_INSTANT,
                    "ts": _us(failed_at),
                    "pid": PID_SCHEDULER,
                    "tid": node,
                    "s": "p",
                    "args": args,
                }
            )
            continue
        events.append(
            {
                "name": f"recovery:{strategy}",
                "cat": "resilience",
                "ph": _PHASE_COMPLETE,
                "ts": _us(failed_at),
                "dur": _us(max(float(recovered_at) - failed_at, 0.0)),
                "pid": PID_SCHEDULER,
                "tid": node,
                "args": args,
            }
        )
        checkpoint_time = row.get("checkpoint_time")
        if checkpoint_time is not None:
            events.append(
                {
                    "name": "checkpoint:restore",
                    "cat": "resilience",
                    "ph": _PHASE_INSTANT,
                    "ts": _us(max(float(checkpoint_time), 0.0)),
                    "pid": PID_SCHEDULER,
                    "tid": node,
                    "s": "p",
                    "args": {"node": node, "recovered_at": recovered_at},
                }
            )
    return events


def _lineage_events(
    lineage: Sequence[Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    """Stacked waterfall spans, one track per sampled record.

    Each lineage record gets its own ``tid`` named by its record id; its
    span chain renders as back-to-back ``X`` events on the virtual
    clock, so scrubbing a track reads the record's latency waterfall
    directly (network -> queue -> execute -> window -> emit).
    """
    events: List[Dict[str, Any]] = []
    for tid, row in enumerate(lineage):
        rid = str(row.get("rid", "?"))
        events.append(
            _metadata(
                "thread_name",
                PID_LINEAGE,
                tid,
                f"{rid} [{row.get('status', '?')}]",
            )
        )
        for span in row.get("spans", ()):
            start = max(float(span.get("start", 0.0)), 0.0)
            end = max(float(span.get("end", start)), start)
            events.append(
                {
                    "name": str(span.get("kind", "?")),
                    "cat": "lineage",
                    "ph": _PHASE_COMPLETE,
                    "ts": _us(start),
                    "dur": _us(end - start),
                    "pid": PID_LINEAGE,
                    "tid": tid,
                    "args": {
                        "rid": rid,
                        "op": span.get("op"),
                        "status": row.get("status"),
                        "end_to_end_ms": row.get("end_to_end_ms"),
                    },
                }
            )
    return events


def chrome_trace_events(
    trace: Trace, *, include_series: bool = True
) -> Dict[str, Any]:
    """Build the trace-event JSON object for one run trace.

    ``include_series=False`` drops the per-point counter tracks, which
    dominate file size on long runs.
    """
    cycle_ms = float(trace.meta.get("cycle_ms") or 0.0)
    events: List[Dict[str, Any]] = [
        _metadata("process_name", PID_SCHEDULER, 0, "scheduler cycles"),
        _metadata("process_name", PID_OPERATORS, 0, "operator flame"),
        _metadata("process_name", PID_TELEMETRY, 0, "telemetry series"),
    ]
    if trace.lineage:
        events.append(
            _metadata("process_name", PID_LINEAGE, 0, "lineage waterfalls")
        )
    events += _cycle_events(trace.cycles, cycle_ms)
    events += _operator_events(trace.operators)
    events += _resilience_events(trace.summary or {})
    events += _lineage_events(trace.lineage)
    if include_series:
        events += _series_events(trace.series)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {k: trace.meta.get(k) for k in sorted(trace.meta)},
    }


def validate_chrome_trace(payload: Mapping[str, Any]) -> None:
    """Structural check against the trace-event JSON object format.

    Raises :class:`~repro.obs.schema.SchemaError` on the first
    violation; used by ``repro-bench report --chrome`` before writing
    and by the tests as the acceptance gate.
    """
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise SchemaError("traceEvents: expected a list")
    for idx, event in enumerate(events):
        where = f"traceEvents[{idx}]"
        if not isinstance(event, dict):
            raise SchemaError(f"{where}: expected an object")
        for key, types in (
            ("name", (str,)),
            ("ph", (str,)),
            ("ts", (int, float)),
            ("pid", (int,)),
            ("tid", (int,)),
        ):
            value = event.get(key)
            if not isinstance(value, types) or isinstance(value, bool):
                raise SchemaError(
                    f"{where}.{key}: expected {'/'.join(t.__name__ for t in types)}, "
                    f"got {value!r}"
                )
        if float(event["ts"]) < 0:
            raise SchemaError(f"{where}.ts: negative timestamp {event['ts']!r}")
        if event["ph"] == _PHASE_COMPLETE:
            duration = event.get("dur")
            if (
                not isinstance(duration, (int, float))
                or isinstance(duration, bool)
                or float(duration) < 0
            ):
                raise SchemaError(
                    f"{where}.dur: X events need a non-negative dur, got {duration!r}"
                )
        if event.get("cat") == "lineage":
            if event["ph"] != _PHASE_COMPLETE:
                raise SchemaError(
                    f"{where}: lineage events must be X spans, got "
                    f"ph={event['ph']!r}"
                )
            if event["pid"] != PID_LINEAGE:
                raise SchemaError(
                    f"{where}: lineage events belong to pid {PID_LINEAGE}, "
                    f"got {event['pid']!r}"
                )
            if event["name"] not in SPAN_KINDS:
                raise SchemaError(
                    f"{where}.name: unknown lineage span kind {event['name']!r}"
                )
            args = event.get("args")
            if not isinstance(args, Mapping) or "rid" not in args:
                raise SchemaError(
                    f"{where}.args: lineage events need a 'rid' argument"
                )


def write_chrome_trace(
    path: str, trace: Trace, *, include_series: bool = True
) -> Dict[str, Any]:
    """Validate, then write the trace-event file; returns the payload."""
    payload = chrome_trace_events(trace, include_series=include_series)
    validate_chrome_trace(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_line(jsonify(payload)))
        fh.write("\n")
    return payload

