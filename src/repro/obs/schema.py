"""Documented schemas for the trace and report JSON, with validators.

CI runs ``repro-bench report --format json --check-schema`` against a
short YSB run and fails the build when the emitted JSON drifts from the
schema documented here (and in ``docs/API.md``). The validator is a
small hand-rolled structural checker — no external jsonschema
dependency — that checks required keys and value types, reporting the
JSON path of the first mismatch.

Schema notation: a dict maps required keys to *specs*; a spec is a type
tuple, ``(list, item_spec)`` for homogeneous arrays, or a nested dict.
``NUMBER`` admits ints and floats; every float may be ``null`` in the
emitted JSON (non-finite values are serialized as ``null``).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple, Union

from repro.obs.export import Trace, jsonify

NUMBER: Tuple[type, ...] = (int, float)
OPT_NUMBER: Tuple[type, ...] = (int, float, type(None))

Spec = Union[Tuple[type, ...], Dict[str, Any], "ListSpec"]


class ListSpec:
    """Homogeneous-array spec: every element must match ``item``."""

    def __init__(self, item: Spec, min_items: int = 0) -> None:
        self.item = item
        self.min_items = min_items


class SchemaError(ValueError):
    """Raised when a JSON object does not match the documented schema."""


#: one per-query decision inside a cycle record
DECISION_SCHEMA: Dict[str, Spec] = {
    "query_id": (str,),
    "rank": (int,),
    "reason": (str,),
    "slack_ms": OPT_NUMBER,
    "swm_delay_mean_ms": OPT_NUMBER,
    "swm_delay_std_ms": OPT_NUMBER,
    "score": OPT_NUMBER,
    "memory_bytes": NUMBER,
    "queued_events": NUMBER,
}

#: one planning node's row of a scheduling cycle in the audit trail
#: (trace ``type=cycle`` rows; a distributed cycle writes one per node)
CYCLE_SCHEMA: Dict[str, Spec] = {
    "time": NUMBER,
    "cycle": (int,),
    "node": (int,),
    "policy": (str,),
    "mode": (str,),
    "backpressured": (bool,),
    "throttled": (bool,),
    "memory_utilization": NUMBER,
    "cpu_used_ms": NUMBER,
    "overhead_ms": NUMBER,
    "decisions": ListSpec(DECISION_SCHEMA),
}

#: one operator profile (trace ``type=operator`` rows / report entries)
OPERATOR_SCHEMA: Dict[str, Spec] = {
    "query_id": (str,),
    "name": (str,),
    "kind": (str,),
    "cpu_ms": NUMBER,
    "events_in": NUMBER,
    "events_out": NUMBER,
    "watermarks_seen": (int,),
    "panes_fired": (int,),
    "late_events_dropped": NUMBER,
    "queued_events_hwm": NUMBER,
    "queued_bytes_hwm": NUMBER,
    "state_bytes_hwm": NUMBER,
}

#: one chain (per-query pipeline) aggregate
CHAIN_SCHEMA: Dict[str, Spec] = {
    "query_id": (str,),
    "n_operators": (int,),
    "cpu_ms": NUMBER,
    "events_in": NUMBER,
    "events_delivered": NUMBER,
    "late_events_dropped": NUMBER,
    "queued_events_hwm": NUMBER,
    "memory_bytes_hwm": NUMBER,
    "hottest_operator": (str,),
    "hottest_cpu_ms": NUMBER,
}

#: an episode span in the report
EPISODE_SCHEMA: Dict[str, Spec] = {
    "kind": (str,),
    "start": NUMBER,
    "end": NUMBER,
    "cycles": (int,),
}

#: one telemetry time-series (trace ``type=series`` rows, schema v2+)
SERIES_SCHEMA: Dict[str, Spec] = {
    "name": (str,),
    "labels": (dict,),
    "kind": (str,),
    "period_ms": NUMBER,
    "points": ListSpec(ListSpec(OPT_NUMBER, min_items=2)),
    "dropped": (int,),
}

#: one span of a lineage record's causal chain (schema v3+)
SPAN_SCHEMA: Dict[str, Spec] = {
    "kind": (str,),
    "op": (str, type(None)),
    "start": NUMBER,
    "end": NUMBER,
}

#: one sampled-record lineage trace (trace ``type=lineage`` rows, v3+)
LINEAGE_SCHEMA: Dict[str, Spec] = {
    "rid": (str,),
    "query_id": (str,),
    "source_id": (int,),
    "t_end": NUMBER,
    "status": (str,),
    "completed_at": NUMBER,
    "end_to_end_ms": NUMBER,
    "components": (dict,),
    "spans": ListSpec(SPAN_SCHEMA),
}

#: one per-source SWM-forecast calibration record (``type=swm_forecast``)
SWM_FORECAST_SCHEMA: Dict[str, Spec] = {
    "query_id": (str,),
    "source_id": (int,),
    "evaluations": (int,),
    "deadlines_resolved": (int,),
    "deadlines_unresolved": (int,),
    "mean_error_ms": OPT_NUMBER,
    "mean_abs_error_ms": OPT_NUMBER,
    "p50_abs_error_ms": OPT_NUMBER,
    "p90_abs_error_ms": OPT_NUMBER,
    "p99_abs_error_ms": OPT_NUMBER,
    "over_predictions": (int,),
    "under_predictions": (int,),
    "over_episodes": (int,),
    "under_episodes": (int,),
    "naive_evaluations": (int,),
    "naive_mean_abs_error_ms": OPT_NUMBER,
    "watermark_period_ms": OPT_NUMBER,
    "delay_model": (dict, type(None)),
}

#: lineage self-overhead accounting (``type=lineage_summary``, v3+)
LINEAGE_SUMMARY_SCHEMA: Dict[str, Spec] = {
    "sample_rate": NUMBER,
    "seed": (int,),
    "rows_sampled": (int,),
    "span_records": (int,),
    "statuses": (dict,),
    "forecast_evaluations": (int,),
    "trace_bytes": (int,),
}

#: the latency-waterfall section of the report (null when untraced)
WATERFALL_SCHEMA: Dict[str, Spec] = {
    "sampled": (int,),
    "delivered": (int,),
    "overall": (dict,),
    "by_query": ListSpec((dict,)),
}

#: the telemetry summary section of the report
TELEMETRY_SCHEMA: Dict[str, Spec] = {
    "series": (int,),
    "points": (int,),
    "dropped": (int,),
}

#: the decision-timeline summary section of the report
TIMELINE_SCHEMA: Dict[str, Spec] = {
    "cycles": (int,),
    "time_start": NUMBER,
    "time_end": NUMBER,
    "mode_counts": (dict,),
    "reason_counts": (dict,),
    "head_reason_counts": (dict,),
    "head_query_counts": (dict,),
    "backpressure_cycles": (int,),
    "throttle_cycles": (int,),
    "distinct_head_queries": (int,),
}

#: the full ``repro-bench report --format json`` document
REPORT_SCHEMA: Dict[str, Spec] = {
    "schema_version": (int,),
    "meta": (dict,),
    "summary": (dict,),
    "latency_cdf": ListSpec(ListSpec(OPT_NUMBER, min_items=2)),
    "decision_timeline": TIMELINE_SCHEMA,
    "hottest_operators": ListSpec(OPERATOR_SCHEMA),
    "chains": ListSpec(CHAIN_SCHEMA),
    "episodes": ListSpec(EPISODE_SCHEMA),
    "telemetry": TELEMETRY_SCHEMA,
    # lineage sections (schema v3+): null / empty when tracing was off
    "waterfall": (dict, type(None)),
    "swm_forecast": ListSpec(SWM_FORECAST_SCHEMA),
    "lineage_overhead": (dict, type(None)),
}


def _check(value: Any, spec: Spec, path: str) -> None:
    if isinstance(spec, tuple):
        # bool is an int subclass: only accept it when explicitly listed.
        if isinstance(value, bool) and bool not in spec:
            raise SchemaError(f"{path}: expected {spec}, got bool")
        if not isinstance(value, spec):
            raise SchemaError(
                f"{path}: expected {tuple(t.__name__ for t in spec)}, "
                f"got {type(value).__name__}"
            )
        return
    if isinstance(spec, ListSpec):
        if not isinstance(value, list):
            raise SchemaError(f"{path}: expected list, got {type(value).__name__}")
        if len(value) < spec.min_items:
            raise SchemaError(
                f"{path}: expected >= {spec.min_items} items, got {len(value)}"
            )
        for i, item in enumerate(value):
            _check(item, spec.item, f"{path}[{i}]")
        return
    # nested dict schema
    if not isinstance(value, Mapping):
        raise SchemaError(f"{path}: expected object, got {type(value).__name__}")
    for key, sub in spec.items():
        if key not in value:
            raise SchemaError(f"{path}.{key}: missing required key")
        _check(value[key], sub, f"{path}.{key}")


def validate_report(obj: Any) -> None:
    """Validate a report JSON document; raises :class:`SchemaError`."""
    _check(obj, REPORT_SCHEMA, "$")


def validate_trace(trace: Trace) -> None:
    """Validate a run trace: its meta and summary records are present and
    every record of the other sections matches its schema. The JSON path
    of a mismatch names the section, e.g. ``$operator[3].cpu_ms``."""
    if not trace.meta:
        raise SchemaError("$meta: missing meta record (not a run trace?)")
    if not trace.summary:
        raise SchemaError("$summary: missing summary record (truncated trace?)")
    sections = (
        ("cycle", trace.cycles, CYCLE_SCHEMA),
        ("operator", trace.operators, OPERATOR_SCHEMA),
        ("series", trace.series, SERIES_SCHEMA),
        ("lineage", trace.lineage, LINEAGE_SCHEMA),
        ("swm_forecast", trace.swm_forecast, SWM_FORECAST_SCHEMA),
    )
    for name, rows, spec in sections:
        for i, row in enumerate(rows):
            _check(jsonify(row), spec, f"${name}[{i}]")
    if trace.lineage_summary:
        _check(
            jsonify(trace.lineage_summary), LINEAGE_SUMMARY_SCHEMA,
            "$lineage_summary",
        )


def validate_cycle(obj: Mapping[str, Any]) -> None:
    """Validate one audit-trail cycle record."""
    _check(dict(obj), CYCLE_SCHEMA, "$")


def validate_operator(obj: Mapping[str, Any]) -> None:
    """Validate one operator-profile record."""
    _check(dict(obj), OPERATOR_SCHEMA, "$")


def validate_series(obj: Mapping[str, Any]) -> None:
    """Validate one telemetry time-series record."""
    _check(dict(obj), SERIES_SCHEMA, "$")


def validate_lineage(obj: Mapping[str, Any]) -> None:
    """Validate one sampled-record lineage record."""
    _check(dict(obj), LINEAGE_SCHEMA, "$")


def validate_swm_forecast(obj: Mapping[str, Any]) -> None:
    """Validate one SWM-forecast calibration record."""
    _check(dict(obj), SWM_FORECAST_SCHEMA, "$")


def validate_lineage_summary(obj: Mapping[str, Any]) -> None:
    """Validate the lineage self-overhead record."""
    _check(dict(obj), LINEAGE_SUMMARY_SCHEMA, "$")
