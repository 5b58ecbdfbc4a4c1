"""repro.obs — observability: audit trail, profiling, exporters, reports.

The subsystem that lets a run *prove* its claims:

* :mod:`repro.obs.audit` — per-cycle scheduler-decision audit log with
  machine-readable reasons, from the columns every policy's
  ``Scheduler.explain_plan`` returns at plan time;
* :mod:`repro.obs.profile` — per-operator and per-chain profiling
  (simulated CPU-ms, events in/out, queue/state high-water marks);
* :mod:`repro.obs.export` — the bounded-memory streaming JSONL writer
  and the run-trace container format;
* :mod:`repro.obs.report` — ``repro-bench report``'s builder/renderer,
  and ``repro-bench compare``'s threshold-gated diff of two run reports;
* :mod:`repro.obs.schema` — documented schemas + validators (CI-checked);
* :mod:`repro.obs.timeseries` — in-run telemetry: Counter/Gauge/Histogram
  registry sampled on the virtual clock into bounded ring-buffer series;
* :mod:`repro.obs.flame` — Chrome trace-event (Perfetto) flame-chart
  export of cycles, operator spans, recoveries, counter tracks, and
  lineage waterfalls;
* :mod:`repro.obs.lineage` — deterministic sampled per-record causal
  tracing (latency-waterfall attribution) and the SWM-forecast
  accuracy audit.

Usage::

    from repro.obs import AuditLog, OperatorProfiler

    audit = AuditLog(max_rows=10_000)
    profiler = OperatorProfiler()
    engine = Engine(queries, KlinkScheduler(), audit=audit, profiler=profiler)
    metrics = engine.run(60_000.0)
    audit.to_jsonl("decisions.jsonl")
    for profile in metrics.operator_profiles:
        print(profile.name, profile.cpu_ms)
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.audit import (
        AuditLog,
        DecisionRecord,
        KNOWN_REASONS,
        QueryDecision,
    )
    from repro.obs.export import (
        JsonlWriter,
        SCHEMA_VERSION,
        Trace,
        TraceWriter,
        dumps_line,
        jsonify,
        read_trace,
    )
    from repro.obs.profile import ChainProfile, OperatorProfile, OperatorProfiler
    from repro.obs.report import (
        ComparisonResult,
        Episode,
        RunReport,
        build_report,
        compare_reports,
        load_report,
        render_comparison,
        render_text,
        render_waterfall,
    )
    from repro.obs.schema import (
        REPORT_SCHEMA,
        SchemaError,
        validate_cycle,
        validate_lineage,
        validate_lineage_summary,
        validate_operator,
        validate_report,
        validate_series,
        validate_swm_forecast,
        validate_trace,
    )
    from repro.obs.flame import (
        chrome_trace_events,
        validate_chrome_trace,
        write_chrome_trace,
    )
    from repro.obs.lineage import (
        LineageTracker,
        RECORD_STATUSES,
        SPAN_KINDS,
        SwmForecastAudit,
        waterfall,
    )
    from repro.obs.timeseries import (
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        Series,
        TelemetryConfig,
        TelemetrySampler,
    )

#: public name -> the module that defines it, imported on first use
_EXPORTS = {
    "AuditLog": "repro.obs.audit",
    "DecisionRecord": "repro.obs.audit",
    "QueryDecision": "repro.obs.audit",
    "KNOWN_REASONS": "repro.obs.audit",
    "OperatorProfile": "repro.obs.profile",
    "ChainProfile": "repro.obs.profile",
    "OperatorProfiler": "repro.obs.profile",
    "JsonlWriter": "repro.obs.export",
    "TraceWriter": "repro.obs.export",
    "Trace": "repro.obs.export",
    "read_trace": "repro.obs.export",
    "dumps_line": "repro.obs.export",
    "jsonify": "repro.obs.export",
    "SCHEMA_VERSION": "repro.obs.export",
    "RunReport": "repro.obs.report",
    "Episode": "repro.obs.report",
    "build_report": "repro.obs.report",
    "render_text": "repro.obs.report",
    "render_waterfall": "repro.obs.report",
    "ComparisonResult": "repro.obs.report",
    "compare_reports": "repro.obs.report",
    "load_report": "repro.obs.report",
    "render_comparison": "repro.obs.report",
    "SchemaError": "repro.obs.schema",
    "REPORT_SCHEMA": "repro.obs.schema",
    "validate_report": "repro.obs.schema",
    "validate_cycle": "repro.obs.schema",
    "validate_operator": "repro.obs.schema",
    "validate_series": "repro.obs.schema",
    "validate_lineage": "repro.obs.schema",
    "validate_swm_forecast": "repro.obs.schema",
    "validate_lineage_summary": "repro.obs.schema",
    "validate_trace": "repro.obs.schema",
    "LineageTracker": "repro.obs.lineage",
    "SwmForecastAudit": "repro.obs.lineage",
    "waterfall": "repro.obs.lineage",
    "SPAN_KINDS": "repro.obs.lineage",
    "RECORD_STATUSES": "repro.obs.lineage",
    "Counter": "repro.obs.timeseries",
    "Gauge": "repro.obs.timeseries",
    "Histogram": "repro.obs.timeseries",
    "Series": "repro.obs.timeseries",
    "MetricsRegistry": "repro.obs.timeseries",
    "TelemetryConfig": "repro.obs.timeseries",
    "TelemetrySampler": "repro.obs.timeseries",
    "chrome_trace_events": "repro.obs.flame",
    "validate_chrome_trace": "repro.obs.flame",
    "write_chrome_trace": "repro.obs.flame",
}

__all__ = [
    "AuditLog",
    "DecisionRecord",
    "QueryDecision",
    "KNOWN_REASONS",
    "OperatorProfile",
    "ChainProfile",
    "OperatorProfiler",
    "JsonlWriter",
    "TraceWriter",
    "Trace",
    "read_trace",
    "dumps_line",
    "jsonify",
    "SCHEMA_VERSION",
    "RunReport",
    "Episode",
    "build_report",
    "render_text",
    "render_waterfall",
    "ComparisonResult",
    "compare_reports",
    "load_report",
    "render_comparison",
    "SchemaError",
    "REPORT_SCHEMA",
    "validate_report",
    "validate_cycle",
    "validate_operator",
    "validate_series",
    "validate_lineage",
    "validate_swm_forecast",
    "validate_lineage_summary",
    "validate_trace",
    "LineageTracker",
    "SwmForecastAudit",
    "waterfall",
    "SPAN_KINDS",
    "RECORD_STATUSES",
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "TelemetryConfig",
    "TelemetrySampler",
    "chrome_trace_events",
    "validate_chrome_trace",
    "write_chrome_trace",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
