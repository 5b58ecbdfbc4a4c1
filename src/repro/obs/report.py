"""Run reports: rendering a saved trace into an explanation of a run.

``build_report`` turns a :class:`~repro.obs.export.Trace` (from
``read_trace`` or assembled in memory by the bench runner) into a
:class:`RunReport`:

* **latency CDF points** — the paper's primary figure axis (Fig. 6b);
* **decision timeline** — cycles, per-reason and per-mode decision
  counts, which queries the policy favoured, and the
  backpressure/throttle (memory-mode) episodes with their time spans.
  A distributed run writes one ``cycle`` row per planning node, so rows
  are folded by their ``cycle`` index: cycle counts, the time span and
  the episodes count each cycle once (it throttles, or is in memory
  mode, if any node's plan is), while mode, reason and head counts stay
  per node plan;
* **hottest operators** — top-k by simulated CPU-ms, with queue/state
  high-water marks;
* **chains** — per-query pipeline aggregates.

``render_text`` produces the human-readable report; ``RunReport.to_json``
the machine-readable one (validated by :mod:`repro.obs.schema`).

``compare_reports`` diffs two report documents for ``repro-bench
compare``, the regression gate: *higher is worse* for latency, watermark
lag, deadline misses and per-operator CPU; *lower is worse* for
throughput. A metric that is absent, ``null`` or NaN on either side (NaN
is what an empty input produces, e.g. the mean latency of a run that
completed no windows) diffs as **missing**: it is listed in
:attr:`ComparisonResult.missing` and the rendered table, so it never
passes silently as "no change", and it is never a regression, because
there is no number to regress against.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.obs.export import SCHEMA_VERSION, Trace, dumps_line, read_trace
from repro.obs.lineage import SPAN_KINDS, waterfall as build_waterfall
from repro.obs.schema import SchemaError, validate_report, validate_trace


@dataclass(frozen=True)
class Episode:
    """A contiguous span of cycles sharing a condition."""

    kind: str   # "backpressure" | "throttle" | "memory-mode"
    start: float
    end: float
    cycles: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "cycles": self.cycles,
        }


class _Cycle(NamedTuple):
    """One scheduling cycle, folded over its planning nodes' rows."""

    time: float
    backpressure: bool
    throttle: bool
    memory_mode: bool


def _fold_cycles(rows: Sequence[Dict[str, Any]]) -> List[_Cycle]:
    """One :class:`_Cycle` per run of consecutive rows sharing a ``cycle``
    index: a condition holds for the cycle if it holds on any node."""
    cycles: List[_Cycle] = []
    index: Any = None
    for row in rows:
        cycle = _Cycle(
            float(row.get("time", 0.0)),
            bool(row.get("backpressured")),
            bool(row.get("throttled")),
            _is_memory_mode(row),
        )
        if cycles and index is not None and row.get("cycle") == index:
            last = cycles[-1]
            cycles[-1] = _Cycle(
                last.time,
                last.backpressure or cycle.backpressure,
                last.throttle or cycle.throttle,
                last.memory_mode or cycle.memory_mode,
            )
        else:
            cycles.append(cycle)
        index = row.get("cycle")
    return cycles


def _episodes(cycles: Sequence[_Cycle], kind: str) -> List[Episode]:
    """Contiguous spans of cycles in which condition ``kind`` holds."""
    episodes: List[Episode] = []
    start: Optional[float] = None
    prev_time = 0.0
    count = 0
    field_name = kind.replace("-", "_")
    for cycle in cycles:
        active = getattr(cycle, field_name)
        t = cycle.time
        if active and start is None:
            start, count = t, 1
        elif active:
            count += 1
        elif start is not None:
            episodes.append(Episode(kind, start, prev_time, count))
            start = None
        prev_time = t
    if start is not None:
        episodes.append(Episode(kind, start, prev_time, count))
    return episodes


def _is_memory_mode(row: Dict[str, Any]) -> bool:
    """A node's row counts as memory-mode when any decision reason says so."""
    return any(
        str(d.get("reason", "")).startswith("memory-")
        for d in row.get("decisions", ())
    )


@dataclass
class RunReport:
    """The assembled run report (see module docstring for sections)."""

    meta: Dict[str, Any] = field(default_factory=dict)
    summary: Dict[str, Any] = field(default_factory=dict)
    latency_cdf: List[Tuple[float, Optional[float]]] = field(default_factory=list)
    decision_timeline: Dict[str, Any] = field(default_factory=dict)
    hottest_operators: List[Dict[str, Any]] = field(default_factory=list)
    chains: List[Dict[str, Any]] = field(default_factory=list)
    episodes: List[Episode] = field(default_factory=list)
    telemetry: Dict[str, Any] = field(default_factory=dict)
    #: lineage sections (schema v3+); None / empty when tracing was off
    waterfall: Optional[Dict[str, Any]] = None
    swm_forecast: List[Dict[str, Any]] = field(default_factory=list)
    lineage_overhead: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "meta": self.meta,
            "summary": self.summary,
            "latency_cdf": [list(point) for point in self.latency_cdf],
            "decision_timeline": self.decision_timeline,
            "hottest_operators": self.hottest_operators,
            "chains": self.chains,
            "episodes": [e.to_dict() for e in self.episodes],
            "telemetry": self.telemetry,
            "waterfall": self.waterfall,
            "swm_forecast": self.swm_forecast,
            "lineage_overhead": self.lineage_overhead,
        }

    def to_json(self) -> str:
        return dumps_line(self.to_dict())


def build_report(trace: Trace, top_k: int = 10) -> RunReport:
    """Assemble a :class:`RunReport` from a parsed trace."""
    if top_k < 1:
        raise ValueError(f"top-k must be >= 1: {top_k}")
    reason_counts: Counter[str] = Counter()
    head_reason_counts: Counter[str] = Counter()
    head_query_counts: Counter[str] = Counter()
    mode_counts: Counter[str] = Counter()
    for row in trace.cycles:
        mode_counts[str(row.get("mode", "priority"))] += 1
        decisions = row.get("decisions", ())
        for d in decisions:
            reason_counts[str(d.get("reason", "?"))] += 1
        if decisions:
            head = decisions[0]
            head_reason_counts[str(head.get("reason", "?"))] += 1
            head_query_counts[str(head.get("query_id", "?"))] += 1
    cycles = _fold_cycles(trace.cycles)
    episodes = [
        episode
        for kind in ("backpressure", "throttle", "memory-mode")
        for episode in _episodes(cycles, kind)
    ]
    episodes.sort(key=lambda e: (e.start, e.kind))
    times = [cycle.time for cycle in cycles]
    timeline: Dict[str, Any] = {
        "cycles": len(cycles),
        "time_start": min(times) if times else 0.0,
        "time_end": max(times) if times else 0.0,
        "mode_counts": dict(sorted(mode_counts.items())),
        "reason_counts": dict(sorted(reason_counts.items())),
        "head_reason_counts": dict(sorted(head_reason_counts.items())),
        "head_query_counts": dict(sorted(head_query_counts.items())),
        "backpressure_cycles": sum(c.backpressure for c in cycles),
        "throttle_cycles": sum(c.throttle for c in cycles),
        "distinct_head_queries": len(head_query_counts),
    }
    hottest = sorted(
        trace.operators,
        key=lambda op: (-float(op.get("cpu_ms", 0.0)), str(op.get("name", ""))),
    )[:top_k]
    summary = dict(trace.summary)
    raw_cdf = summary.pop("latency_cdf", [])
    cdf: List[Tuple[float, Optional[float]]] = [
        (float(p), None if v is None else float(v)) for p, v in raw_cdf
    ]
    telemetry: Dict[str, Any] = {
        "series": len(trace.series),
        "points": sum(len(s.get("points", ())) for s in trace.series),
        "dropped": sum(int(s.get("dropped", 0)) for s in trace.series),
    }
    return RunReport(
        meta=dict(trace.meta),
        summary=summary,
        latency_cdf=cdf,
        decision_timeline=timeline,
        hottest_operators=[dict(op) for op in hottest],
        chains=[dict(ch) for ch in trace.chains],
        episodes=episodes,
        telemetry=telemetry,
        waterfall=build_waterfall(trace.lineage) if trace.lineage else None,
        swm_forecast=[dict(row) for row in trace.swm_forecast],
        lineage_overhead=(
            dict(trace.lineage_summary) if trace.lineage_summary else None
        ),
    )


def _fmt_opt_ms(value: Any) -> str:
    return "-" if value is None else f"{float(value):,.1f}"


def _waterfall_line(label: str, agg: Dict[str, Any]) -> str:
    comps = agg.get("components_ms", {})
    shares = agg.get("shares_pct", {})
    body = "  ".join(
        f"{kind}={float(comps.get(kind, 0.0)):,.1f}ms"
        f"({float(shares.get(kind, 0.0)):.1f}%)"
        for kind in SPAN_KINDS
    )
    return f"  {label:14s} {body}"


def _lineage_sections(report: RunReport) -> List[str]:
    """The waterfall / SWM-forecast / overhead lines of the text report."""
    lines: List[str] = []
    if report.waterfall is not None:
        wf = report.waterfall
        overall = wf.get("overall", {})
        lines.append("-- latency waterfall (sampled lineage) --")
        lines.append(
            f"  {wf.get('delivered', 0)} delivered of "
            f"{wf.get('sampled', 0)} sampled; mean end-to-end "
            f"{float(overall.get('mean_end_to_end_ms', 0.0)):,.1f} ms"
        )
        lines.append(_waterfall_line("overall", overall))
        for row in wf.get("by_query", []):
            lines.append(_waterfall_line(str(row.get("query_id", "?")), row))
    if report.swm_forecast:
        lines.append("-- SWM-forecast accuracy (per source) --")
        for row in report.swm_forecast:
            lines.append(
                f"  {row.get('query_id', '?')}/src{row.get('source_id', '?')}: "
                f"{row.get('evaluations', 0)} evals over "
                f"{row.get('deadlines_resolved', 0)} deadlines; "
                f"mean|err|={_fmt_opt_ms(row.get('mean_abs_error_ms'))}ms "
                f"p99|err|={_fmt_opt_ms(row.get('p99_abs_error_ms'))}ms "
                f"naive|err|={_fmt_opt_ms(row.get('naive_mean_abs_error_ms'))}ms "
                f"episodes over/under="
                f"{row.get('over_episodes', 0)}/{row.get('under_episodes', 0)}"
            )
    if report.lineage_overhead is not None:
        ov = report.lineage_overhead
        lines.append(
            f"-- lineage overhead: {ov.get('rows_sampled', 0)} rows sampled "
            f"(rate {ov.get('sample_rate', 0)}), "
            f"{ov.get('span_records', 0)} spans, "
            f"{ov.get('trace_bytes', 0)} trace bytes --"
        )
    return lines


def render_waterfall(report: RunReport) -> str:
    """Only the lineage sections (``repro-bench report --waterfall``)."""
    lines = _lineage_sections(report)
    if not lines:
        return (
            "no lineage records in this trace; run with "
            "--lineage-sample-rate > 0 to trace sampled records"
        )
    return "\n".join(lines)


def _fmt(value: Any, width: int = 10) -> str:
    if value is None:
        return " " * (width - 1) + "-"
    if isinstance(value, float):
        return f"{value:{width},.1f}"
    return f"{value:>{width}}"


def render_text(report: RunReport) -> str:
    """Human-readable multi-section report."""
    lines: List[str] = []
    meta = report.meta
    label = "/".join(
        str(meta[k]) for k in ("workload", "scheduler") if k in meta
    ) or "run"
    lines.append(f"=== run report: {label} ===")
    for key in ("n_queries", "seed", "duration_ms", "cores", "cycle_ms", "delay"):
        if key in meta:
            lines.append(f"  {key:13s} {meta[key]}")
    summary = report.summary
    if summary:
        lines.append("-- summary --")
        for key in sorted(summary):
            value = summary[key]
            shown = f"{value:,.3f}" if isinstance(value, float) else str(value)
            lines.append(f"  {key:22s} {shown}")
    if report.latency_cdf:
        lines.append("-- latency CDF (pct -> ms) --")
        lines.append(
            "  " + "  ".join(
                f"p{pct:g}={'-' if v is None else format(v, ',.0f')}"
                for pct, v in report.latency_cdf
            )
        )
    tl = report.decision_timeline
    lines.append("-- decision timeline --")
    lines.append(
        f"  {tl.get('cycles', 0)} cycles over "
        f"[{tl.get('time_start', 0.0):,.0f}, {tl.get('time_end', 0.0):,.0f}] ms; "
        f"{tl.get('backpressure_cycles', 0)} backpressured, "
        f"{tl.get('throttle_cycles', 0)} throttled"
    )
    for section in ("head_reason_counts", "reason_counts"):
        counts = tl.get(section, {})
        if counts:
            body = ", ".join(f"{k}={v}" for k, v in counts.items())
            lines.append(f"  {section}: {body}")
    heads = tl.get("head_query_counts", {})
    if heads:
        top_heads = sorted(heads.items(), key=lambda kv: (-kv[1], kv[0]))[:8]
        lines.append(
            "  most-favoured queries: "
            + ", ".join(f"{q}({n})" for q, n in top_heads)
        )
    if report.episodes:
        lines.append("-- episodes --")
        for ep in report.episodes:
            lines.append(
                f"  {ep.kind:12s} [{ep.start:,.0f}, {ep.end:,.0f}] ms "
                f"({ep.cycles} cycles)"
            )
    if report.telemetry.get("series"):
        tele = report.telemetry
        lines.append(
            f"-- telemetry: {tele.get('series', 0)} series, "
            f"{tele.get('points', 0)} points"
            + (
                f", {tele['dropped']} dropped --"
                if tele.get("dropped")
                else " --"
            )
        )
    lines.extend(_lineage_sections(report))
    if report.hottest_operators:
        lines.append("-- hottest operators (by simulated CPU-ms) --")
        lines.append(
            f"  {'operator':34s} {'cpu_ms':>10s} {'events_in':>12s} "
            f"{'q_hwm':>10s} {'state_hwm':>12s}"
        )
        for op in report.hottest_operators:
            lines.append(
                f"  {str(op.get('name', '?')):34s} "
                f"{_fmt(float(op.get('cpu_ms', 0.0)))} "
                f"{_fmt(float(op.get('events_in', 0.0)), 12)} "
                f"{_fmt(float(op.get('queued_events_hwm', 0.0)))} "
                f"{_fmt(float(op.get('state_bytes_hwm', 0.0)), 12)}"
            )
    if report.chains:
        lines.append("-- chains (per-query pipelines) --")
        for ch in report.chains:
            lines.append(
                f"  {str(ch.get('query_id', '?')):12s} "
                f"cpu={float(ch.get('cpu_ms', 0.0)):,.1f}ms "
                f"in={float(ch.get('events_in', 0.0)):,.0f} "
                f"out={float(ch.get('events_delivered', 0.0)):,.0f} "
                f"mem_hwm={float(ch.get('memory_bytes_hwm', 0.0)):,.0f}B "
                f"hottest={ch.get('hottest_operator', '?')}"
            )
    return "\n".join(lines)


# -- cross-run comparison (repro-bench compare) -------------------------------

#: allowed growth of latency and watermark lag, in percent
LATENCY_PCT = 10.0
#: allowed throughput drop, in percent
THROUGHPUT_PCT = 10.0
#: allowed CPU growth of a hottest operator both runs share, in percent
OPERATOR_CPU_PCT = 25.0
#: allowed deadline-miss increase (gated absolutely, not in percent)
MAX_NEW_DEADLINE_MISSES = 0
#: latency and watermark-lag deltas at most this large never regress
ABS_FLOOR_MS = 1.0

#: ``meta`` keys that must agree for two runs to be comparable
_IDENTITY_KEYS = ("workload", "scheduler", "n_queries")


def load_report(path: str) -> Dict[str, Any]:
    """Read one ``compare`` input as a report document.

    A whole-file JSON object is a report written by ``repro-bench report
    --out`` and must pass :func:`~repro.obs.schema.validate_report`; a
    JSONL file is a run trace, validated with
    :func:`~repro.obs.schema.validate_trace` and built into a report.
    Raises ``ValueError`` (a :class:`SchemaError` names ``path`` and the
    JSON path of the mismatch).
    """
    try:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except json.JSONDecodeError:  # not one JSON document: a trace
            trace = read_trace(path)
            validate_trace(trace)
            return json.loads(build_report(trace).to_json())
        validate_report(payload)
        return payload
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class Delta:
    """One compared metric."""

    metric: str
    baseline: Optional[float]
    current: Optional[float]
    change_pct: Optional[float]
    limit: str
    regressed: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "change_pct": self.change_pct,
            "limit": self.limit,
            "regressed": self.regressed,
        }


@dataclass
class ComparisonResult:
    """All deltas plus the headline verdict."""

    deltas: List[Delta]
    identity_mismatches: List[str]

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def missing(self) -> List[Delta]:
        """Metrics that could not be compared (absent/null/NaN on a side)."""
        return [d for d in self.deltas if d.limit == "missing"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.identity_mismatches

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "identity_mismatches": list(self.identity_mismatches),
            "regressions": [d.to_dict() for d in self.regressions],
            "missing": [d.metric for d in self.missing],
            "deltas": [d.to_dict() for d in self.deltas],
        }


def _as_number(value: Any) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    number = float(value)
    return number if math.isfinite(number) else None


def _delta(
    metric: str,
    base_v: Any,
    cur_v: Any,
    *,
    limit_pct: float = 0.0,
    higher_is_worse: bool = True,
    abs_floor: float = 0.0,
    max_increase: Optional[int] = None,
) -> Delta:
    base_n, cur_n = _as_number(base_v), _as_number(cur_v)
    if base_n is None or cur_n is None:
        # Absent, null, or NaN on either side (NaN-vs-NaN included).
        return Delta(metric, base_n, cur_n, None, "missing", False)
    if base_n == 0:
        change = None if cur_n == 0 else math.inf
    else:
        change = 100.0 * (cur_n - base_n) / abs(base_n)
    if max_increase is not None:
        limit = f"+{max_increase} absolute"
        regressed = (cur_n - base_n) > max_increase
    else:
        limit = f"{'+' if higher_is_worse else '-'}{limit_pct:g}%"
        regressed = (
            change is not None
            and abs(cur_n - base_n) > abs_floor
            and (change > limit_pct if higher_is_worse else change < -limit_pct)
        )
    return Delta(metric, base_n, cur_n, change, limit, regressed)


def _latencies(report: Mapping[str, Any]) -> Dict[str, Any]:
    """Mean/p50/p90/p99 latency; p50 (and a missing p90/p99) off the CDF."""
    summary = report.get("summary", {})
    cdf = {
        float(point[0]): point[1]
        for point in report.get("latency_cdf", ())
        if len(point) >= 2
    }
    return {
        "mean": summary.get("mean_latency_ms"),
        "p50": cdf.get(50.0),
        "p90": summary.get("p90_latency_ms", cdf.get(90.0)),
        "p99": summary.get("p99_latency_ms", cdf.get(99.0)),
    }


def _operator_cpu(report: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        str(op.get("name")): op.get("cpu_ms")
        for op in report.get("hottest_operators", ())
    }


def compare_reports(
    baseline: Mapping[str, Any], current: Mapping[str, Any]
) -> ComparisonResult:
    """Diff two report documents; see the module docstring for semantics."""
    base_meta = baseline.get("meta", {})
    cur_meta = current.get("meta", {})
    mismatches = [
        f"{key}: {base_meta[key]!r} != {cur_meta[key]!r}"
        for key in _IDENTITY_KEYS
        if key in base_meta and key in cur_meta
        and base_meta[key] != cur_meta[key]
    ]
    base_sum = baseline.get("summary", {})
    cur_sum = current.get("summary", {})
    base_lat, cur_lat = _latencies(baseline), _latencies(current)
    deltas = [
        _delta(f"latency_ms.{pct}", base_lat[pct], cur_lat[pct],
               limit_pct=LATENCY_PCT, abs_floor=ABS_FLOOR_MS)
        for pct in ("mean", "p50", "p90", "p99")
    ]
    deltas.append(_delta(
        "throughput_eps", base_sum.get("throughput_eps"),
        cur_sum.get("throughput_eps"),
        limit_pct=THROUGHPUT_PCT, higher_is_worse=False,
    ))
    deltas.append(_delta(
        "deadline_misses", base_sum.get("deadline_misses"),
        cur_sum.get("deadline_misses"),
        max_increase=MAX_NEW_DEADLINE_MISSES,
    ))
    deltas.append(_delta(
        "watermark_lag_ms.max", base_sum.get("max_watermark_lag_ms"),
        cur_sum.get("max_watermark_lag_ms"),
        limit_pct=LATENCY_PCT, abs_floor=ABS_FLOOR_MS,
    ))
    base_ops, cur_ops = _operator_cpu(baseline), _operator_cpu(current)
    deltas.extend(
        _delta(f"operator_cpu_ms.{name}", base_ops[name], cur_ops[name],
               limit_pct=OPERATOR_CPU_PCT)
        for name in sorted(base_ops.keys() & cur_ops.keys())
    )
    return ComparisonResult(deltas=deltas, identity_mismatches=mismatches)


def render_comparison(result: ComparisonResult) -> str:
    """Human-readable diff table."""
    verdict = "OK" if result.ok else "REGRESSION"
    if result.ok and result.missing:
        verdict = f"OK ({len(result.missing)} metric(s) missing)"
    lines = [f"=== compare: {verdict} ==="]
    for mismatch in result.identity_mismatches:
        lines.append(f"  !! identity mismatch: {mismatch}")
    lines.append(
        f"  {'metric':34s} {'baseline':>14s} {'current':>14s} {'change':>9s}  limit"
    )

    def fmt(value: Optional[float]) -> str:
        return "-" if value is None else f"{value:,.2f}"

    for delta in result.deltas:
        if delta.change_pct is None:
            change = "-"
        elif math.isfinite(delta.change_pct):
            change = f"{delta.change_pct:+.1f}%"
        else:
            change = "new"
        mark = " <-- REGRESSED" if delta.regressed else ""
        if delta.limit == "missing":
            mark = " (missing)"
        lines.append(
            f"  {delta.metric:34s} {fmt(delta.baseline):>14s} "
            f"{fmt(delta.current):>14s} {change:>9s}  {delta.limit}{mark}"
        )
    return "\n".join(lines)
