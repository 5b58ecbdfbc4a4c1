"""In-run telemetry: a virtual-clock time-series metrics registry.

Where the audit log records *decisions* and the profiler records
*end-of-run totals*, the telemetry layer records *evolution*: how the
signals Klink schedules on — queue depth, watermark lag, slack, SWM
delay moments, memory occupancy, end-to-end latency — change over the
course of a run. Every sample is taken on the **virtual clock** at a
configurable period, so telemetry is exactly as deterministic as the
simulation itself: two seeded reruns produce byte-identical series.

Three metric primitives (Prometheus-style, but simulation-local):

* :class:`Counter` — a monotonically non-decreasing total;
* :class:`Gauge` — a point-in-time value, overwritten between samples;
* :class:`Histogram` — bucketed observations with interpolated
  quantiles, sampled as derived ``_count`` / ``_p50`` / ``_p99`` series.

Samples land in bounded ring-buffer :class:`Series` (``deque(maxlen)``,
the AuditLog approach), so memory stays O(#series x max_samples)
regardless of run length; overflow is counted, never silent.

The engine-facing :class:`TelemetrySampler` is attached via
``Engine(..., telemetry=TelemetrySampler())``; it samples the standard
signal set every ``period_ms`` of virtual time and publishes
deadline-miss and watermark-lag aggregates through
:class:`~repro.spe.metrics.RunMetrics` at the end of the run.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

Labels = Tuple[Tuple[str, str], ...]

#: default histogram bucket upper bounds (ms), roughly geometric
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 20_000.0, 50_000.0, 100_000.0,
)


def labels_key(labels: Optional[Mapping[str, str]]) -> Labels:
    """Canonical (sorted, stringified) form of a label mapping."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def series_key(name: str, labels: Labels) -> str:
    """Stable display/sort key: ``name{k=v,...}`` with sorted labels."""
    if not labels:
        return name
    body = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{body}}}"


class Counter:
    """A monotonically non-decreasing total."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0: {amount}")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Overwrite with a cumulative total read off an external stat;
        must never move backwards."""
        if value < self.value - 1e-9:
            raise ValueError(
                f"counter cannot decrease: {value} < {self.value}"
            )
        self.value = float(value)

    def read(self) -> Optional[float]:
        return self.value


class Gauge:
    """A point-in-time value; unsampled until first set."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def read(self) -> Optional[float]:
        return self.value


class Histogram:
    """Bucketed observations with interpolated quantiles.

    Memory is O(#buckets); quantiles are linearly interpolated inside
    the containing bucket (the overflow bucket interpolates toward the
    maximum observed value).
    """

    kind = "histogram"
    __slots__ = ("bounds", "counts", "count", "total", "_max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS) -> None:
        if not bounds or list(bounds) != sorted(set(float(b) for b in bounds)):
            raise ValueError(f"bucket bounds must be sorted and unique: {bounds}")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._max = -math.inf

    def observe(self, value: float) -> None:
        idx = 0
        while idx < len(self.bounds) and value > self.bounds[idx]:
            idx += 1
        self.counts[idx] += 1
        self.count += 1
        self.total += value
        if value > self._max:
            self._max = value

    def quantile(self, pct: float) -> float:
        """Interpolated percentile in [0, 100]; NaN while empty."""
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile out of range: {pct}")
        if self.count == 0:
            return math.nan
        target = pct / 100.0 * self.count
        cumulative = 0
        for idx, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            lower = 0.0 if idx == 0 else self.bounds[idx - 1]
            upper = self._max if idx == len(self.bounds) else self.bounds[idx]
            upper = max(upper, lower)
            if cumulative + bucket_count >= target:
                fraction = (target - cumulative) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += bucket_count
        return self._max

    def read(self) -> Optional[float]:  # sampled via derived series
        return float(self.count)


@dataclass
class Series:
    """One bounded time-series: (virtual time, value) points."""

    name: str
    labels: Labels
    kind: str
    points: Deque[Tuple[float, float]]
    dropped: int = 0

    @property
    def key(self) -> str:
        return series_key(self.name, self.labels)

    def append(self, time: float, value: float) -> None:
        if self.points.maxlen is not None and len(self.points) == self.points.maxlen:
            self.dropped += 1
        self.points.append((time, value))

    def latest(self) -> Optional[Tuple[float, float]]:
        return self.points[-1] if self.points else None

    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def window(self, start: float) -> List[float]:
        """Values of points with ``time >= start``."""
        return [v for t, v in self.points if t >= start]

    def to_dict(self, period_ms: float) -> Dict[str, Any]:
        """Fixed-key-order dict for the ``type=series`` trace rows."""
        return {
            "name": self.name,
            "labels": {k: v for k, v in self.labels},
            "kind": self.kind,
            "period_ms": period_ms,
            "points": [[t, v] for t, v in self.points],
            "dropped": self.dropped,
        }


class MetricsRegistry:
    """Registry of metrics and their ring-buffered series.

    Metrics are keyed by ``(name, sorted labels)``; re-registering
    returns the existing instance. :meth:`sample` appends the current
    value of every metric to its series at one virtual-clock instant;
    histograms expand into derived ``_count``/``_p50``/``_p99`` series.
    Serialization is sorted by series key, so the emitted rows are
    independent of registration (and node iteration) order.
    """

    def __init__(self, period_ms: float = 200.0, max_samples: int = 4096) -> None:
        if period_ms <= 0:
            raise ValueError(f"sample period must be positive: {period_ms}")
        if max_samples < 1:
            raise ValueError(f"need at least one sample slot: {max_samples}")
        self.period_ms = float(period_ms)
        self.max_samples = max_samples
        self._metrics: Dict[Tuple[str, Labels], Any] = {}
        self._series: Dict[Tuple[str, Labels], Series] = {}
        self.samples_taken = 0

    # -- registration --------------------------------------------------------

    def _get_or_create(
        self, name: str, labels: Optional[Mapping[str, str]], factory: Any
    ) -> Any:
        key = (name, labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Counter:
        metric = self._get_or_create(name, labels, Counter)
        if not isinstance(metric, Counter):
            raise TypeError(f"{name}: registered as {metric.kind}, not counter")
        return metric

    def gauge(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Gauge:
        metric = self._get_or_create(name, labels, Gauge)
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name}: registered as {metric.kind}, not gauge")
        return metric

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS,
    ) -> Histogram:
        metric = self._get_or_create(name, labels, lambda: Histogram(bounds))
        if not isinstance(metric, Histogram):
            raise TypeError(f"{name}: registered as {metric.kind}, not histogram")
        return metric

    # -- sampling ------------------------------------------------------------

    def _series_for(self, name: str, labels: Labels, kind: str) -> Series:
        key = (name, labels)
        series = self._series.get(key)
        if series is None:
            series = Series(
                name=name,
                labels=labels,
                kind=kind,
                points=deque(maxlen=self.max_samples),
            )
            self._series[key] = series
        return series

    def sample(self, now: float) -> None:
        """Append every metric's current value at virtual time ``now``."""
        self.samples_taken += 1
        for (name, labels), metric in self._metrics.items():
            if isinstance(metric, Histogram):
                if metric.count == 0:
                    continue
                self._series_for(f"{name}_count", labels, "histogram").append(
                    now, float(metric.count)
                )
                self._series_for(f"{name}_p50", labels, "histogram").append(
                    now, metric.quantile(50)
                )
                self._series_for(f"{name}_p99", labels, "histogram").append(
                    now, metric.quantile(99)
                )
                continue
            value = metric.read()
            if value is None:
                continue
            self._series_for(name, labels, metric.kind).append(now, value)

    # -- consumption ---------------------------------------------------------

    def series(self) -> List[Series]:
        """All series, sorted by key (deterministic output order)."""
        return sorted(self._series.values(), key=lambda s: s.key)

    def get_series(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Optional[Series]:
        return self._series.get((name, labels_key(labels)))

    def matching(self, name: str, label_filter: Labels = ()) -> List[Series]:
        """Series named ``name`` whose labels contain every filter pair."""
        wanted = dict(label_filter)
        out = [
            s
            for (n, labels), s in self._series.items()
            if n == name
            and all(dict(labels).get(k) == v for k, v in wanted.items())
        ]
        out.sort(key=lambda s: s.key)
        return out

    def to_rows(self) -> List[Dict[str, Any]]:
        """``type=series`` trace rows, sorted by series key."""
        return [s.to_dict(self.period_ms) for s in self.series()]


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs of the engine-facing sampler.

    Attributes:
        period_ms: Virtual-clock sampling period (the paper samples its
            utilization series every 200 ms; same default here).
        max_samples: Ring-buffer bound per series.
        deadline_slo_ms: End-to-end (SWM) latency above which a sink
            delivery counts as a *deadline miss*.
        latency_window: Number of recent latencies backing the windowed
            ``latency_recent_p99_ms`` gauge.
        per_operator: Record per-operator queue-depth/CPU series (the
            widest part of the schema; disable for very large plans).
    """

    period_ms: float = 200.0
    max_samples: int = 4096
    deadline_slo_ms: float = 1000.0
    latency_window: int = 512
    per_operator: bool = True

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise ValueError(f"sample period must be positive: {self.period_ms}")
        if self.max_samples < 1:
            raise ValueError(f"need at least one sample slot: {self.max_samples}")
        if self.deadline_slo_ms <= 0:
            raise ValueError(f"deadline SLO must be positive: {self.deadline_slo_ms}")
        if self.latency_window < 1:
            raise ValueError(f"latency window must be >= 1: {self.latency_window}")


class TelemetrySampler:
    """Samples the standard Klink signal set from a running engine.

    Attach via ``Engine(..., telemetry=TelemetrySampler())`` (the bench
    runner does this for ``ExperimentConfig(telemetry=True)`` and for
    every traced run). Once per scheduling cycle the engine calls
    :meth:`on_cycle`; the sampler drains fresh sink latencies every
    cycle and takes a full registry sample whenever the virtual clock
    crosses the next ``period_ms`` boundary (drift-free integer step
    count, never wall time).
    """

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.registry = MetricsRegistry(
            period_ms=self.config.period_ms, max_samples=self.config.max_samples
        )
        self.deadline_misses = 0
        self.samples_taken = 0
        self._sample_step = 0  # integer tick count on the virtual clock
        self._latencies_seen = 0
        self._recent_latencies: Deque[float] = deque(
            maxlen=self.config.latency_window
        )
        self._lag_sum = 0.0
        self._lag_count = 0
        self._lag_max = -math.inf
        #: (name, labels) -> amount added to a cumulative stat before it
        #: is written to its counter; grows only at a rollback
        self._total_offsets: Dict[Tuple[str, Labels], float] = {}

    # -- engine-facing hook --------------------------------------------------

    def on_cycle(self, event: Any) -> None:
        """Per-cycle hook: drain latencies, sample when a period elapses.

        On a :class:`~repro.distributed.cluster.DistributedEngine` each
        planning node's CPU also feeds a ``node_cpu_ms`` counter labelled
        ``node=<i>``, so the per-node series merge into one registry.
        """
        engine = event.engine
        self._drain_latencies(engine)
        if _decentralized(engine):
            for record in event.nodes:
                self.registry.counter(
                    "node_cpu_ms", {"node": str(record.node)}
                ).inc(record.used + record.overhead)
        now = event.now
        if not self._sample_due(now):
            return
        self._collect(engine, now, event.used, event.overhead)
        self.registry.sample(now)
        self.samples_taken += 1

    def on_rollback(self, engine: Any) -> None:
        """Re-base after a checkpoint rollback rewound the engine's stats.

        A counter read off a stat the rollback rewound (events processed,
        per-operator CPU) would decrease. Its offset grows by the gap, so
        it continues from its last sampled total and counts the replayed
        work as it runs again. The latency cursor moves to the end of the
        shortened ``swm_latencies`` ledger, so the replayed deliveries
        that follow are observed rather than skipped.
        """
        metrics = self.registry._metrics
        offsets = self._total_offsets
        for name, labels, value in self._cumulative_stats(engine):
            key = (name, labels_key(labels))
            counter = metrics.get(key)
            if counter is None:
                continue
            offset = offsets.get(key, 0.0)
            gap = counter.value - (value + offset)
            if gap > 0.0:
                offsets[key] = offset + gap
        self._latencies_seen = len(engine.metrics.swm_latencies)

    def _sample_due(self, now: float) -> bool:
        period = self.config.period_ms
        if now + 1e-9 < (self._sample_step + 1) * period:
            return False
        # Catch up past skipped periods (cycle longer than the period)
        # while keeping the tick count integral (drift-free, KL005).
        self._sample_step = int(math.floor(now / period + 1e-9))
        return True

    # -- signal collection ---------------------------------------------------

    def _drain_latencies(self, engine: Any) -> None:
        latencies: Sequence[float] = engine.metrics.swm_latencies
        fresh = latencies[self._latencies_seen :]
        if not fresh:
            return
        self._latencies_seen = len(latencies)
        histogram = self.registry.histogram("latency_ms")
        misses = self.registry.counter("deadline_misses")
        for value in fresh:
            histogram.observe(value)
            self._recent_latencies.append(value)
            if value > self.config.deadline_slo_ms:
                self.deadline_misses += 1
                misses.inc()

    @staticmethod
    def _schedulers(engine: Any) -> List[Tuple[Optional[str], Any]]:
        """(node label, scheduler) pairs; one pair per node when
        decentralized, a single unlabelled pair otherwise."""
        if _decentralized(engine):
            return [(str(i), s) for i, s in enumerate(engine.node_schedulers)]
        return [(None, engine.scheduler)]

    def _collect(
        self, engine: Any, now: float, cpu_used_ms: float, overhead_ms: float
    ) -> None:
        registry = self.registry
        queries = engine.queries
        registry.gauge("memory_utilization").set(
            engine.memory.utilization(queries)
        )
        registry.gauge("memory_bytes").set(engine.memory.used_bytes(queries))
        offsets = self._total_offsets
        for name, labels, value in self._cumulative_stats(engine):
            offset = offsets.get((name, labels_key(labels)))
            registry.counter(name, labels).set_total(
                value if offset is None else value + offset
            )
        schedulers = self._schedulers(engine)
        mm_active = any(
            bool(getattr(s, "_mm_active", False)) for _, s in schedulers
        )
        registry.gauge("memory_mode_active").set(1.0 if mm_active else 0.0)
        if self._recent_latencies:
            registry.gauge("latency_recent_p99_ms").set(
                _percentile(self._recent_latencies, 99.0)
            )
        estimator = getattr(engine.scheduler, "estimator", None)
        for query in queries:
            qid = query.query_id
            q_labels = {"query": qid}
            registry.gauge("queue_depth", q_labels).set(query.queued_events)
            registry.gauge("query_memory_bytes", q_labels).set(query.memory_bytes)
            wm_ts = max(
                (
                    b.progress.last_watermark_ts
                    for b in query.bindings
                    if b.progress is not None
                ),
                default=-math.inf,
            )
            if math.isfinite(wm_ts):
                lag = now - wm_ts
                registry.gauge("watermark_lag_ms", q_labels).set(lag)
                self._lag_sum += lag
                self._lag_count += 1
                if lag > self._lag_max:
                    self._lag_max = lag
            if estimator is not None and query.bindings:
                progress = query.bindings[0].progress
                if progress is not None:
                    mu, _ = estimator.delay_moments(progress)
                    registry.gauge("swm_delay_mean_ms", q_labels).set(mu)
                    registry.gauge("swm_delay_std_ms", q_labels).set(
                        estimator.delay_std(progress)
                    )
            for node_label, scheduler in schedulers:
                slacks = getattr(scheduler, "last_slacks", None)
                if not slacks:
                    continue
                slack = slacks.get(qid)
                if slack is None or not math.isfinite(slack):
                    continue
                labels = dict(q_labels)
                if node_label is not None:
                    labels["node"] = node_label
                registry.gauge("slack_ms", labels).set(slack)
            if self.config.per_operator:
                for op in query.operators:
                    op_labels = {"query": qid, "operator": op.name}
                    registry.gauge("op_queue_depth", op_labels).set(
                        op.queued_events
                    )

    def _cumulative_stats(
        self, engine: Any
    ) -> List[Tuple[str, Optional[Dict[str, str]], float]]:
        """(counter name, labels, value) of every counter that mirrors a
        cumulative engine stat, in registration order."""
        metrics = engine.metrics
        stats: List[Tuple[str, Optional[Dict[str, str]], float]] = [
            ("events_processed", None, metrics.total_events_processed),
            ("cpu_ms", None, metrics.busy_cpu_ms + metrics.scheduler_overhead_ms),
        ]
        if self.config.per_operator:
            for query in engine.queries:
                for op in query.operators:
                    stats.append((
                        "op_cpu_ms",
                        {"query": query.query_id, "operator": op.name},
                        op.stats.busy_ms,
                    ))
        return stats

    # -- finalization --------------------------------------------------------

    def finalize(self, engine: Any) -> None:
        """End of a ``run()`` segment: publish the aggregates so far into
        the run's ``RunMetrics``, so a run split into segments reports
        like one unbroken run."""
        metrics = engine.metrics
        metrics.deadline_misses = self.deadline_misses
        if self._lag_count > 0:
            metrics.watermark_lag_mean_ms = self._lag_sum / self._lag_count
            metrics.watermark_lag_max_ms = self._lag_max

    # -- trace serialization -------------------------------------------------

    def series_rows(self) -> List[Dict[str, Any]]:
        """``type=series`` rows (sorted by key; byte-deterministic)."""
        return self.registry.to_rows()


def _decentralized(engine: Any) -> bool:
    """Does ``engine`` run one scheduler per node (series get ``node``
    labels)?"""
    return bool(getattr(engine, "node_schedulers", None))


def _percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile without the numpy dependency tax
    on a hot per-sample path (inputs are small bounded windows)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction
