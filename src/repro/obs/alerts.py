"""Declarative SLO / alert rules evaluated over in-run telemetry.

Rules are small text expressions over the series a
:class:`~repro.obs.timeseries.MetricsRegistry` records, evaluated on the
**virtual clock** at every telemetry sample. Three rule shapes:

``threshold``
    ``<metric>[{label=value,...}] <op> <value> [for <duration>]`` —
    breach must hold continuously for ``duration`` of virtual time
    before the alert fires (``for 0s`` / omitted fires immediately).
    Example: ``latency_recent_p99_ms > 1000 for 5s``.

``growing``
    ``<metric>[{...}] growing for <N> samples`` — the last ``N``
    consecutive sampled values are strictly increasing. Example:
    ``queue_depth{query=ysb-0} growing for 10 samples``.

``mean``
    ``mean(<metric>[{...}]) <op> <value> over <duration>`` — the mean of
    the samples inside the trailing window breaches the bound; the
    paper-motivated occupancy rule is
    ``mean(memory_mode_active) > 0.2 over 10s``.

A rule without labels matches *every* series of that metric name (one
alert stream per series); labels restrict the match to series carrying
all the given pairs. Durations accept ``ms``, ``s`` and ``m`` suffixes.

Fired alerts become :class:`AlertEvent` spans — opened when the
condition is met, closed when it clears (or at end of run) — serialized
as ``type=alert`` trace rows and summarized into
:class:`~repro.spe.metrics.RunMetrics` (``alerts_fired`` /
``alert_counts``). Evaluation is pure virtual-clock arithmetic over
ring-buffer series, so alert streams are as deterministic as the
simulation: seeded reruns yield byte-identical alert rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.timeseries import MetricsRegistry, Series

Labels = Tuple[Tuple[str, str], ...]

_COMPARATORS = (">=", "<=", ">", "<")

_METRIC_RE = r"(?P<metric>[A-Za-z_][\w.]*)(?:\{(?P<labels>[^}]*)\})?"
_VALUE_RE = r"(?P<value>-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
_DURATION_RE = r"(?P<amount>\d+(?:\.\d+)?)\s*(?P<unit>ms|s|m)"

_THRESHOLD_RE = re.compile(
    rf"^{_METRIC_RE}\s*(?P<op>>=|<=|>|<)\s*{_VALUE_RE}"
    rf"(?:\s+for\s+{_DURATION_RE})?$"
)
_GROWING_RE = re.compile(
    rf"^{_METRIC_RE}\s+growing\s+for\s+(?P<samples>\d+)\s+samples?$"
)
_MEAN_RE = re.compile(
    rf"^mean\(\s*{_METRIC_RE}\s*\)\s*(?P<op>>=|<=|>|<)\s*{_VALUE_RE}"
    rf"\s+over\s+{_DURATION_RE}$"
)

_UNIT_MS = {"ms": 1.0, "s": 1000.0, "m": 60_000.0}


class AlertRuleError(ValueError):
    """Raised for rule text that does not parse."""


def _parse_labels(body: Optional[str]) -> Labels:
    if not body or not body.strip():
        return ()
    pairs: List[Tuple[str, str]] = []
    for chunk in body.split(","):
        if "=" not in chunk:
            raise AlertRuleError(f"bad label pair (want k=v): {chunk!r}")
        key, value = chunk.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise AlertRuleError(f"bad label pair (want k=v): {chunk!r}")
        pairs.append((key, value))
    return tuple(sorted(pairs))


def _parse_duration(amount: Optional[str], unit: Optional[str]) -> float:
    if amount is None or unit is None:
        return 0.0
    return float(amount) * _UNIT_MS[unit]


@dataclass(frozen=True)
class AlertRule:
    """One parsed rule; see the module docstring for the grammar."""

    name: str
    metric: str
    kind: str  # "threshold" | "growing" | "mean"
    labels: Labels = ()
    op: str = ">"
    threshold: float = 0.0
    for_ms: float = 0.0   # sustain duration (threshold) / window (mean)
    samples: int = 0      # consecutive rising samples (growing)

    def __post_init__(self) -> None:
        if self.kind not in ("threshold", "growing", "mean"):
            raise AlertRuleError(f"unknown rule kind: {self.kind!r}")
        if self.kind != "growing" and self.op not in _COMPARATORS:
            raise AlertRuleError(f"unknown comparator: {self.op!r}")
        if self.kind == "growing" and self.samples < 2:
            raise AlertRuleError(
                f"growing rules need >= 2 samples: {self.samples}"
            )
        if self.kind == "mean" and self.for_ms <= 0:
            raise AlertRuleError("mean rules need a positive 'over' window")
        if self.for_ms < 0:
            raise AlertRuleError(f"duration must be >= 0: {self.for_ms}")

    def compare(self, value: float) -> bool:
        if self.op == ">":
            return value > self.threshold
        if self.op == ">=":
            return value >= self.threshold
        if self.op == "<":
            return value < self.threshold
        return value <= self.threshold

    def describe(self) -> str:
        """Canonical text form (used as the default rule name)."""
        label_body = (
            "{" + ",".join(f"{k}={v}" for k, v in self.labels) + "}"
            if self.labels
            else ""
        )
        metric = f"{self.metric}{label_body}"
        if self.kind == "growing":
            return f"{metric} growing for {self.samples} samples"
        if self.kind == "mean":
            return f"mean({metric}) {self.op} {self.threshold:g} over {self.for_ms:g}ms"
        body = f"{metric} {self.op} {self.threshold:g}"
        if self.for_ms > 0:
            body += f" for {self.for_ms:g}ms"
        return body


def parse_rule(text: str, name: Optional[str] = None) -> AlertRule:
    """Parse one rule; ``"name: expr"`` sets an explicit rule name."""
    body = text.strip()
    if name is None and ":" in body:
        head, _, tail = body.partition(":")
        if re.fullmatch(r"[A-Za-z_][\w.-]*", head.strip()):
            name, body = head.strip(), tail.strip()
    match = _GROWING_RE.match(body)
    if match:
        rule = AlertRule(
            name=name or "",
            metric=match.group("metric"),
            kind="growing",
            labels=_parse_labels(match.group("labels")),
            samples=int(match.group("samples")),
        )
        return rule if rule.name else _named(rule)
    match = _MEAN_RE.match(body)
    if match:
        rule = AlertRule(
            name=name or "",
            metric=match.group("metric"),
            kind="mean",
            labels=_parse_labels(match.group("labels")),
            op=match.group("op"),
            threshold=float(match.group("value")),
            for_ms=_parse_duration(match.group("amount"), match.group("unit")),
        )
        return rule if rule.name else _named(rule)
    match = _THRESHOLD_RE.match(body)
    if match:
        rule = AlertRule(
            name=name or "",
            metric=match.group("metric"),
            kind="threshold",
            labels=_parse_labels(match.group("labels")),
            op=match.group("op"),
            threshold=float(match.group("value")),
            for_ms=_parse_duration(match.group("amount"), match.group("unit")),
        )
        return rule if rule.name else _named(rule)
    raise AlertRuleError(f"unparseable alert rule: {text!r}")


def _named(rule: AlertRule) -> AlertRule:
    return replace(rule, name=rule.describe())


def parse_rules(texts: Sequence[str]) -> List[AlertRule]:
    """Parse many rules, rejecting duplicate names."""
    rules: List[AlertRule] = []
    seen: Dict[str, str] = {}
    for text in texts:
        rule = parse_rule(text)
        if rule.name in seen:
            raise AlertRuleError(
                f"duplicate rule name {rule.name!r} "
                f"(from {seen[rule.name]!r} and {text!r})"
            )
        seen[rule.name] = text
        rules.append(rule)
    return rules


#: rules the bench runner attaches when none are given explicitly —
#: the three motivating examples from the issue, phrased over the
#: sampler's standard signal set.
DEFAULT_RULE_TEXTS: Tuple[str, ...] = (
    "slo-latency: latency_recent_p99_ms > 1000 for 5s",
    "queue-growth: queue_depth growing for 10 samples",
    "mm-occupancy: mean(memory_mode_active) > 0.2 over 10s",
)


@dataclass
class AlertEvent:
    """One fired alert: a [start, end] span on a single series."""

    rule: str
    series: str
    kind: str
    start: float
    end: Optional[float] = None
    value: float = 0.0  # worst value observed while active

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "series": self.series,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "value": self.value,
        }


@dataclass
class _PendingState:
    """Per (rule, series) breach bookkeeping between samples."""

    since: float
    worst: float


class AlertEngine:
    """Evaluates a fixed rule set against a registry at sample instants."""

    def __init__(self, rules: Sequence[AlertRule] = ()) -> None:
        self.rules: List[AlertRule] = list(rules)
        self.events: List[AlertEvent] = []
        self._pending: Dict[Tuple[str, str], _PendingState] = {}
        self._active: Dict[Tuple[str, str], AlertEvent] = {}

    def __len__(self) -> int:
        return len(self.events)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, now: float, registry: "MetricsRegistry") -> None:
        """Evaluate every rule at virtual time ``now`` (one sample tick)."""
        for rule in self.rules:
            for series in registry.matching(rule.metric, rule.labels):
                self._evaluate_one(rule, series, now)

    def _evaluate_one(self, rule: AlertRule, series: "Series", now: float) -> None:
        breach, value = self._breach(rule, series, now)
        key = (rule.name, series.key)
        active = self._active.get(key)
        if not breach:
            self._pending.pop(key, None)
            if active is not None:
                active.end = now
                del self._active[key]
            return
        pending = self._pending.get(key)
        if pending is None:
            pending = _PendingState(since=now, worst=value)
            self._pending[key] = pending
        elif _worse(rule, value, pending.worst):
            pending.worst = value
        if active is not None:
            if _worse(rule, value, active.value):
                active.value = value
            return
        sustain = rule.for_ms if rule.kind == "threshold" else 0.0
        if now - pending.since + 1e-9 >= sustain:
            event = AlertEvent(
                rule=rule.name,
                series=series.key,
                kind=rule.kind,
                start=pending.since,
                value=pending.worst,
            )
            self._active[key] = event
            self.events.append(event)

    @staticmethod
    def _breach(
        rule: AlertRule, series: "Series", now: float
    ) -> Tuple[bool, float]:
        """(condition holds at ``now``, observed value) for one series."""
        if rule.kind == "growing":
            points = list(series.points)[-(rule.samples + 1):]
            if len(points) < rule.samples + 1:
                return False, 0.0
            values = [v for _, v in points]
            rising = all(b > a for a, b in zip(values, values[1:]))
            return rising, values[-1]
        if rule.kind == "mean":
            window = series.window(now - rule.for_ms)
            if not window:
                return False, 0.0
            mean = sum(window) / len(window)
            return rule.compare(mean), mean
        latest = series.latest()
        if latest is None:
            return False, 0.0
        return rule.compare(latest[1]), latest[1]

    # -- finalization / serialization ----------------------------------------

    def finalize(self, end_time: float) -> None:
        """End of a run segment: alerts still active end at ``end_time``
        unless a later sample clears them or a later segment ends. They
        stay active, so an alert spanning a segment boundary is one
        alert."""
        for event in self._active.values():
            event.end = end_time

    def counts(self) -> Dict[str, int]:
        """``{rule name: events fired}``, sorted by rule name."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.rule] = out.get(event.rule, 0) + 1
        return dict(sorted(out.items()))

    def to_rows(self) -> List[Dict[str, Any]]:
        """``type=alert`` trace rows, sorted (start, rule, series)."""
        ordered = sorted(
            self.events, key=lambda e: (e.start, e.rule, e.series)
        )
        return [e.to_dict() for e in ordered]


def _worse(rule: AlertRule, candidate: float, incumbent: float) -> bool:
    """Is ``candidate`` a worse (more-alerting) value than ``incumbent``?"""
    if rule.kind == "growing" or rule.op in (">", ">="):
        return candidate > incumbent
    return candidate < incumbent
