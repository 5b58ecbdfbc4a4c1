"""Cross-run regression comparison over telemetry snapshots.

A *telemetry snapshot* (``BENCH_<workload>.json``) is the compact,
diff-able summary of one benchmarked run: latency percentiles,
throughput, deadline misses, watermark lag, and the hottest operators. ``repro-bench compare`` emits snapshots from traces
and diffs two of them (either may be given as a raw ``.jsonl`` trace or
an already-emitted snapshot) against configurable thresholds, exiting
nonzero on regression — the CI gate every future performance PR is
judged with.

Comparison semantics: *higher is worse* for latency, deadline misses,
and per-operator CPU; *lower is worse* for throughput. A metric
that is absent, ``null``, or NaN (the value an empty input produces,
e.g. the mean latency of a run that completed no windows) on either
side diffs as **missing**: the delta is emitted with ``limit ==
"missing"`` and surfaced in :attr:`ComparisonResult.missing` and the
rendered table, so it can never silently pass as "no change" — but it
also never counts as a regression, because there is no number to
regress against (NaN compares false with everything; treating it as a
value would make the verdict an artifact of comparison order).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.export import Trace, jsonify, read_trace

#: version of the BENCH_*.json snapshot format (v2 dropped ``alerts``)
SNAPSHOT_VERSION = 2

#: meta keys copied verbatim into the snapshot identity block
_IDENTITY_KEYS = (
    "workload", "scheduler", "n_queries", "seed", "duration_ms", "cores",
    "cycle_ms",
)


def bench_snapshot_name(workload: str) -> str:
    """Conventional snapshot filename for a workload."""
    return f"BENCH_{workload}.json"


def _cdf_value(
    cdf: Sequence[Sequence[Any]], pct: float
) -> Optional[float]:
    for point in cdf:
        if len(point) >= 2 and float(point[0]) == pct:
            value = point[1]
            return None if value is None else float(value)
    return None


def snapshot_from_trace(trace: Trace, *, top_k: int = 5) -> Dict[str, Any]:
    """Build a snapshot dict (fixed key order) from a parsed trace."""
    if top_k < 1:
        raise ValueError(f"top-k must be >= 1: {top_k}")
    summary = trace.summary
    cdf = summary.get("latency_cdf", [])
    hottest = sorted(
        trace.operators,
        key=lambda op: (-float(op.get("cpu_ms", 0.0)), str(op.get("name", ""))),
    )[:top_k]
    snapshot: Dict[str, Any] = {
        "snapshot_version": SNAPSHOT_VERSION,
        "schema_version": trace.meta.get("schema_version", 1),
    }
    for key in _IDENTITY_KEYS:
        if key in trace.meta:
            snapshot[key] = trace.meta[key]
    snapshot.update(
        {
            "latency_ms": {
                "mean": summary.get("mean_latency_ms"),
                "p50": _cdf_value(cdf, 50.0),
                "p90": summary.get("p90_latency_ms", _cdf_value(cdf, 90.0)),
                "p99": summary.get("p99_latency_ms", _cdf_value(cdf, 99.0)),
            },
            "throughput_eps": summary.get("throughput_eps"),
            "deadline_misses": int(summary.get("deadline_misses", 0) or 0),
            "watermark_lag_ms": {
                "mean": summary.get("mean_watermark_lag_ms"),
                "max": summary.get("max_watermark_lag_ms"),
            },
            "series_count": len(trace.series),
            "hottest_operators": [
                {
                    "name": str(op.get("name", "?")),
                    "cpu_ms": float(op.get("cpu_ms", 0.0)),
                }
                for op in hottest
            ],
        }
    )
    return snapshot


def dumps_snapshot(snapshot: Mapping[str, Any]) -> str:
    """Deterministic pretty serialization (insertion-ordered keys)."""
    return json.dumps(jsonify(dict(snapshot)), indent=2, allow_nan=False) + "\n"


def write_snapshot(path: str, snapshot: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_snapshot(snapshot))


def load_snapshot(path: str) -> Dict[str, Any]:
    """Load a snapshot file, rejecting files of the wrong shape."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "snapshot_version" not in payload:
        raise ValueError(f"{path}: not a telemetry snapshot")
    version = payload["snapshot_version"]
    if version != SNAPSHOT_VERSION:
        raise ValueError(
            f"{path}: unsupported snapshot_version {version!r} "
            f"(supported: {SNAPSHOT_VERSION})"
        )
    return payload


def load_input(path: str) -> Dict[str, Any]:
    """Load either input kind ``compare`` accepts.

    A whole-file JSON object carrying ``snapshot_version`` is a
    snapshot; a JSONL file is parsed as a run trace and summarized on
    the fly.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError:
        return snapshot_from_trace(read_trace(path))
    if isinstance(payload, dict) and "snapshot_version" in payload:
        return load_snapshot(path)
    raise ValueError(
        f"{path}: neither a telemetry snapshot nor a run trace"
    )


def _finite_or_none(value: Any) -> bool:
    if value is None:
        return True
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return math.isfinite(float(value))


def _count_ok(value: Any) -> bool:
    return (
        isinstance(value, int) and not isinstance(value, bool) and value >= 0
    )


def check_snapshot(snapshot: Mapping[str, Any]) -> List[str]:
    """Structurally validate a snapshot; returns problems (empty = valid).

    This is the shape contract behind ``repro-bench compare --check``:
    every metric ``compare_snapshots`` reads must be present and of the
    comparable type (numeric values finite or ``null``, counts
    non-negative integers). Extra keys are allowed — emitters may attach
    detail sections.
    """
    problems: List[str] = []
    version = snapshot.get("snapshot_version")
    if version != SNAPSHOT_VERSION:
        problems.append(
            f"snapshot_version: expected {SNAPSHOT_VERSION}, got {version!r}"
        )
    latency = snapshot.get("latency_ms")
    if not isinstance(latency, Mapping):
        problems.append("latency_ms: missing or not an object")
    else:
        for pct in ("mean", "p50", "p90", "p99"):
            if pct not in latency:
                problems.append(f"latency_ms.{pct}: missing")
            elif not _finite_or_none(latency[pct]):
                problems.append(
                    f"latency_ms.{pct}: not a finite number or null: "
                    f"{latency[pct]!r}"
                )
    if "throughput_eps" not in snapshot:
        problems.append("throughput_eps: missing")
    elif not _finite_or_none(snapshot["throughput_eps"]):
        problems.append(
            "throughput_eps: not a finite number or null: "
            f"{snapshot['throughput_eps']!r}"
        )
    if not _count_ok(snapshot.get("deadline_misses")):
        problems.append(
            "deadline_misses: not a non-negative integer: "
            f"{snapshot.get('deadline_misses')!r}"
        )
    lag = snapshot.get("watermark_lag_ms")
    if not isinstance(lag, Mapping):
        problems.append("watermark_lag_ms: missing or not an object")
    else:
        for key in ("mean", "max"):
            if not _finite_or_none(lag.get(key)):
                problems.append(
                    f"watermark_lag_ms.{key}: not a finite number or "
                    f"null: {lag.get(key)!r}"
                )
    if not _count_ok(snapshot.get("series_count")):
        problems.append(
            "series_count: not a non-negative integer: "
            f"{snapshot.get('series_count')!r}"
        )
    operators = snapshot.get("hottest_operators")
    if not isinstance(operators, Sequence) or isinstance(operators, str):
        problems.append("hottest_operators: missing or not an array")
    else:
        for i, op in enumerate(operators):
            if not isinstance(op, Mapping):
                problems.append(f"hottest_operators[{i}]: not an object")
                continue
            if not isinstance(op.get("name"), str):
                problems.append(
                    f"hottest_operators[{i}].name: not a string: "
                    f"{op.get('name')!r}"
                )
            cpu_ms = op.get("cpu_ms")
            if cpu_ms is None or not _finite_or_none(cpu_ms):
                problems.append(
                    f"hottest_operators[{i}].cpu_ms: not a finite "
                    f"number: {cpu_ms!r}"
                )
    return problems


@dataclass(frozen=True)
class CompareThresholds:
    """Regression tolerances (all relative thresholds in percent)."""

    latency_pct: float = 10.0          # allowed latency increase
    throughput_pct: float = 10.0       # allowed throughput decrease
    operator_cpu_pct: float = 25.0     # allowed per-operator CPU growth
    max_new_deadline_misses: int = 0   # allowed deadline-miss increase
    abs_floor_ms: float = 1.0          # ignore latency deltas below this

    def __post_init__(self) -> None:
        for name in ("latency_pct", "throughput_pct", "operator_cpu_pct"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0: {value}")
        if self.abs_floor_ms < 0:
            raise ValueError(f"abs_floor_ms must be >= 0: {self.abs_floor_ms}")


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
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float)):
        number = float(value)
        return number if math.isfinite(number) else None
    return None


def _pct_change(baseline: float, current: float) -> Optional[float]:
    if baseline == 0:
        return None if current == 0 else math.inf
    return 100.0 * (current - baseline) / abs(baseline)


def _nested(snapshot: Mapping[str, Any], *keys: str) -> Any:
    node: Any = snapshot
    for key in keys:
        if not isinstance(node, Mapping):
            return None
        node = node.get(key)
    return node


def compare_snapshots(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    thresholds: Optional[CompareThresholds] = None,
) -> ComparisonResult:
    """Diff two snapshots; see module docstring for semantics."""
    t = thresholds or CompareThresholds()
    deltas: List[Delta] = []
    mismatches = [
        f"{key}: {baseline.get(key)!r} != {current.get(key)!r}"
        for key in ("workload", "scheduler", "n_queries")
        if key in baseline
        and key in current
        and baseline.get(key) != current.get(key)
    ]

    def add(
        metric: str,
        base_v: Any,
        cur_v: Any,
        *,
        limit_pct: Optional[float] = None,
        higher_is_worse: bool = True,
        max_increase: Optional[int] = None,
        abs_floor: float = 0.0,
    ) -> None:
        base_n, cur_n = _as_number(base_v), _as_number(cur_v)
        if base_n is None or cur_n is None:
            # Absent, null, or NaN on either side (NaN-vs-NaN included):
            # the cell diffs as "missing" — visible in the report, never
            # a regression and never a silent "no change".
            deltas.append(Delta(metric, base_n, cur_n, None, "missing", False))
            return
        change = _pct_change(base_n, cur_n)
        regressed = False
        limit = ""
        if max_increase is not None:
            limit = f"+{max_increase} absolute"
            regressed = (cur_n - base_n) > max_increase
        elif limit_pct is not None:
            direction = "+" if higher_is_worse else "-"
            limit = f"{direction}{limit_pct:g}%"
            if change is not None and abs(cur_n - base_n) > abs_floor:
                if higher_is_worse:
                    regressed = change > limit_pct
                else:
                    regressed = change < -limit_pct
        deltas.append(Delta(metric, base_n, cur_n, change, limit, regressed))

    for pct in ("mean", "p50", "p90", "p99"):
        add(
            f"latency_ms.{pct}",
            _nested(baseline, "latency_ms", pct),
            _nested(current, "latency_ms", pct),
            limit_pct=t.latency_pct,
            abs_floor=t.abs_floor_ms,
        )
    add(
        "throughput_eps",
        baseline.get("throughput_eps"),
        current.get("throughput_eps"),
        limit_pct=t.throughput_pct,
        higher_is_worse=False,
    )
    add(
        "deadline_misses",
        baseline.get("deadline_misses"),
        current.get("deadline_misses"),
        max_increase=t.max_new_deadline_misses,
    )
    add(
        "watermark_lag_ms.max",
        _nested(baseline, "watermark_lag_ms", "max"),
        _nested(current, "watermark_lag_ms", "max"),
        limit_pct=t.latency_pct,
        abs_floor=t.abs_floor_ms,
    )
    base_ops = {
        str(op.get("name")): float(op.get("cpu_ms", 0.0))
        for op in baseline.get("hottest_operators", ())
    }
    cur_ops = {
        str(op.get("name")): float(op.get("cpu_ms", 0.0))
        for op in current.get("hottest_operators", ())
    }
    for name in sorted(set(base_ops) & set(cur_ops)):
        add(
            f"operator_cpu_ms.{name}",
            base_ops[name],
            cur_ops[name],
            limit_pct=t.operator_cpu_pct,
        )
    return ComparisonResult(deltas=deltas, identity_mismatches=mismatches)


def render_comparison(result: ComparisonResult) -> str:
    """Human-readable diff table."""
    lines: List[str] = []
    verdict = "OK" if result.ok else "REGRESSION"
    if result.ok and result.missing:
        verdict = f"OK ({len(result.missing)} metric(s) missing)"
    lines.append(f"=== compare: {verdict} ===")
    for mismatch in result.identity_mismatches:
        lines.append(f"  !! identity mismatch: {mismatch}")
    header = f"  {'metric':34s} {'baseline':>14s} {'current':>14s} {'change':>9s}  limit"
    lines.append(header)
    for delta in result.deltas:

        def fmt(value: Optional[float]) -> str:
            return "-" if value is None else f"{value:,.2f}"

        change = (
            "-"
            if delta.change_pct is None
            else f"{delta.change_pct:+.1f}%"
            if math.isfinite(delta.change_pct)
            else "new"
        )
        mark = " <-- REGRESSED" if delta.regressed else ""
        if delta.limit == "missing":
            mark = " (missing)"
        lines.append(
            f"  {delta.metric:34s} {fmt(delta.baseline):>14s} "
            f"{fmt(delta.current):>14s} {change:>9s}  {delta.limit}{mark}"
        )
    return "\n".join(lines)
