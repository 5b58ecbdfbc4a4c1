"""Metrics collection: latency, throughput, slowdown, utilization.

Mirrors Sec. 6.1.2 of the paper:

* **Output latency** — the propagation delay of SWMs: SWM event-time
  subtracted from the engine clock at the moment the sink processes it.
* **Latency markers** — probes injected every 200 ms at each source to
  sample event propagation delay with negligible overhead.
* **Throughput** — aggregate events processed per second over all
  operators.
* **Slowdown** — SWM propagation delay divided by the ideal end-to-end
  cost of processing a single event through the pipeline.
* **Utilization time series** — memory bytes and CPU busy fraction sampled
  every cycle (the paper samples every 200 ms).
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import starmap
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from repro.spe.state import LEDGER, RAW, ledgers, resume_only

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import OperatorProfile


def percentile(values: Sequence[float], pct: float) -> float:
    """Percentile with linear interpolation; NaN for empty input.

    Accepts any array-like (list, tuple, numpy array, generator-backed
    sequence); emptiness is tested by length, not truthiness, because
    ``if not array`` is ambiguous for numpy arrays with more than one
    element.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan
    return float(np.percentile(arr, pct))


def cdf_points(values: Sequence[float], pcts: Iterable[float]) -> List[Tuple[float, float]]:
    """(percentile, latency) pairs for CDF figures (Figs. 6b, 7c, 7d).

    All requested percentiles are computed in one vectorized
    ``np.percentile`` call (which handles ordering internally), instead
    of re-sorting and re-scanning the data once per point.
    """
    pct_list = [float(p) for p in pcts]
    arr = np.asarray(values, dtype=float)
    if arr.size == 0 or not pct_list:
        return [(p, math.nan) for p in pct_list]
    qs = np.percentile(arr, pct_list)
    return [(p, float(v)) for p, v in zip(pct_list, qs)]


class ColumnLedger:
    """A float ledger stored as one ``array('d')`` per named column.

    ``append(*row)`` adds one value to each column and iteration yields
    the rows as tuples (or as ``row(*values)`` with a ``row`` type), so
    the ledger reads like a list of rows at 8 bytes per value. A reader
    that wants one field from a cursor on slices its column
    (``ledger.latency[seen:]``). With ``maxlen`` the oldest row drops on
    overflow, as in ``deque(maxlen=...)``.
    """

    def __init__(
        self,
        names: Sequence[str],
        rows: Iterable[Sequence[float]] = (),
        maxlen: Optional[int] = None,
        row: Optional[Callable[..., Any]] = None,
    ) -> None:
        self.names, self.maxlen, self.row = tuple(names), maxlen, row
        self._columns = tuple(array("d") for _ in self.names)
        vars(self).update(zip(self.names, self._columns))
        kept = list(rows) if maxlen is None else deque(rows, maxlen=maxlen)
        if kept:  # strict: every row has one value per column
            by_column = zip(*kept, strict=True)
            for column, values in zip(self._columns, by_column, strict=True):
                column.extend(values)

    def append(self, *row: float) -> None:
        columns = self._columns
        if len(row) != len(columns):
            raise ValueError(f"row {row!r} does not match columns {self.names}")
        for column, value in zip(columns, row):
            column.append(value)
        if self.maxlen is not None and len(columns[0]) > self.maxlen:
            for column in columns:
                del column[0]

    def copy(self) -> "ColumnLedger":
        """A ledger with the same rows and shape and its own columns."""
        ledger = self.with_rows(())
        for column, values in zip(ledger._columns, self._columns):
            column.extend(values)
        return ledger

    def with_rows(self, rows: Iterable[Sequence[float]]) -> "ColumnLedger":
        """A new ledger of this shape holding ``rows``."""
        return ColumnLedger(self.names, rows, self.maxlen, self.row)

    def tuples(self) -> Iterator[Tuple[float, ...]]:
        """The rows as plain tuples, whatever the row type."""
        return zip(*self._columns)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnLedger):
            return NotImplemented
        return self.names == other.names and self._columns == other._columns

    def __repr__(self) -> str:
        return f"ColumnLedger({self.names!r}, {list(self.tuples())!r})"

    def __iter__(self) -> Iterator[Any]:
        rows = zip(*self._columns)
        return rows if self.row is None else starmap(self.row, rows)


@dataclass(frozen=True)
class UtilizationSample:
    """One per-cycle utilization snapshot."""

    time: float
    memory_bytes: float
    cpu_fraction: float
    events_processed: float


#: columns of the per-cycle utilization ledger, one per sample field
SAMPLE_COLUMNS = ("time", "memory_bytes", "cpu_fraction", "events_processed")

#: processing-time accounting: restored on resume, kept on rollback
_CLOCKED = resume_only(RAW)


@dataclass
class RunMetrics:
    """Aggregated results of one engine run.

    Checkpoint state: the event ledger (what stream records exist) rolls
    back with a restore; the processing-time accounting (how long the
    engine has been running) is restored only on resume. The resilience
    counters are never captured.
    """

    CHECKPOINT = (
        ("scalars.duration_ms", "duration_ms", _CLOCKED),
        ("scalars.total_events_processed", "total_events_processed", RAW),
        ("scalars.total_events_ingested", "total_events_ingested", RAW),
        ("scalars.events_shed", "events_shed", RAW),
        ("scalars.late_events_dropped", "late_events_dropped", _CLOCKED),
        ("scalars.scheduler_overhead_ms", "scheduler_overhead_ms", _CLOCKED),
        ("scalars.busy_cpu_ms", "busy_cpu_ms", _CLOCKED),
        ("scalars.backpressure_cycles", "backpressure_cycles", _CLOCKED),
        ("scalars.cycles", "cycles", _CLOCKED),
        ("scalars.fault_cycles", "fault_cycles", _CLOCKED),
        ("scalars.watermarks_dropped_by_faults", "watermarks_dropped_by_faults", RAW),
        ("scalars.invariant_violations", "invariant_violations", _CLOCKED),
        ("scalars.deadline_misses", "deadline_misses", _CLOCKED),
        ("scalars.watermark_lag_max_ms", "watermark_lag_max_ms", _CLOCKED),
        ("scalars.watermark_lag_mean_ms", "watermark_lag_mean_ms", _CLOCKED),
        ("swm_latencies", "swm_latencies", LEDGER),
        ("marker_latencies", "marker_latencies", LEDGER),
        ("slowdowns", "slowdowns", LEDGER),
        ("per_query_swm_latencies", "per_query_swm_latencies", ledgers(partial(array, "d"))),
        ("samples", "samples", resume_only(LEDGER)),
    )

    duration_ms: float = 0.0
    swm_latencies: array = field(default_factory=partial(array, "d"))
    marker_latencies: array = field(default_factory=partial(array, "d"))
    slowdowns: array = field(default_factory=partial(array, "d"))
    per_query_swm_latencies: Dict[str, array] = field(default_factory=dict)
    samples: ColumnLedger = field(
        default_factory=partial(ColumnLedger, SAMPLE_COLUMNS, row=UtilizationSample)
    )
    total_events_processed: float = 0.0
    total_events_ingested: float = 0.0
    events_shed: float = 0.0
    late_events_dropped: float = 0.0
    scheduler_overhead_ms: float = 0.0
    busy_cpu_ms: float = 0.0  # CPU-ms spent processing events (all cores)
    backpressure_cycles: int = 0
    cycles: int = 0
    # fault-injection / invariant-checking accounting
    fault_cycles: int = 0  # cycles with >= 1 active fault episode
    watermarks_dropped_by_faults: int = 0
    invariant_violations: int = 0
    # telemetry aggregates, populated by a TelemetrySampler attached to
    # the engine (repro.obs.timeseries); NaN/0 when telemetry is off
    deadline_misses: int = 0  # sink latencies above the deadline SLO
    watermark_lag_max_ms: float = math.nan
    watermark_lag_mean_ms: float = math.nan
    #: per-operator profiles, populated at the end of a run when an
    #: OperatorProfiler is attached to the engine (repro.obs.profile).
    operator_profiles: List["OperatorProfile"] = field(default_factory=list)  # klink: transient[end-of-run observability artifact, not run state]
    # resilience accounting, populated by repro.resilience when a
    # CheckpointCoordinator / RecoveryManager is attached; these are
    # processing-time counters and are never rolled back by a restore
    checkpoints_taken: int = 0  # klink: transient[processing-time resilience accounting; never rolls back]
    checkpoint_bytes_last: int = 0  # klink: transient[processing-time resilience accounting; never rolls back]
    recoveries: int = 0  # klink: transient[processing-time resilience accounting; never rolls back]
    recovery_time_ms: List[float] = field(default_factory=list)  # klink: transient[processing-time resilience accounting; never rolls back]
    replay_span_ms: List[float] = field(default_factory=list)  # klink: transient[processing-time resilience accounting; never rolls back]
    recovery_events: List[Dict[str, object]] = field(default_factory=list)  # klink: transient[processing-time resilience accounting; never rolls back]
    events_lost_to_failures: float = 0.0  # klink: transient[processing-time resilience accounting; never rolls back]
    post_failure_latency_inflation: float = math.nan  # klink: transient[processing-time resilience accounting; never rolls back]

    # -- latency ------------------------------------------------------------

    @property
    def mean_latency_ms(self) -> float:
        if not self.swm_latencies:
            return math.nan
        return float(np.mean(self.swm_latencies))

    def latency_percentile(self, pct: float) -> float:
        return percentile(self.swm_latencies, pct)

    def latency_cdf(self, pcts: Iterable[float] = (40, 50, 60, 70, 80, 90, 95, 99)):
        return cdf_points(self.swm_latencies, pcts)

    # -- throughput / slowdown ----------------------------------------------

    @property
    def throughput_eps(self) -> float:
        """Aggregate events processed per second across all operators."""
        if self.duration_ms <= 0:
            return 0.0
        return self.total_events_processed / (self.duration_ms / 1000.0)

    @property
    def mean_slowdown(self) -> float:
        if not self.slowdowns:
            return math.nan
        return float(np.mean(self.slowdowns))

    # -- utilization ----------------------------------------------------------

    @property
    def mean_memory_bytes(self) -> float:
        if not self.samples:
            return 0.0
        return float(np.mean(self.samples.memory_bytes))

    def memory_percentile(self, pct: float) -> float:
        return percentile(self.samples.memory_bytes, pct)

    @property
    def mean_cpu_fraction(self) -> float:
        if not self.samples:
            return 0.0
        return float(np.mean(self.samples.cpu_fraction))

    def cpu_percentile(self, pct: float) -> float:
        return percentile(self.samples.cpu_fraction, pct)

    @property
    def overhead_fraction(self) -> float:
        """Scheduler overhead as a fraction of total CPU time delivered
        (the paper reports it as % of throughput, Fig. 9d): the share of
        busy CPU-milliseconds the SPE spent running the scheduling
        algorithm instead of processing events."""
        denom = self.busy_cpu_ms + self.scheduler_overhead_ms
        return self.scheduler_overhead_ms / denom if denom > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        """Compact dictionary of headline numbers (used by benches)."""
        return {
            "mean_latency_ms": self.mean_latency_ms,
            "p90_latency_ms": self.latency_percentile(90),
            "p99_latency_ms": self.latency_percentile(99),
            "throughput_eps": self.throughput_eps,
            "mean_slowdown": self.mean_slowdown,
            "mean_memory_gb": self.mean_memory_bytes / (1024 ** 3),
            "mean_cpu_pct": 100.0 * self.mean_cpu_fraction,
            "overhead_pct": 100.0 * self.overhead_fraction,
            "fault_cycles": float(self.fault_cycles),
            "invariant_violations": float(self.invariant_violations),
            "deadline_misses": float(self.deadline_misses),
            "max_watermark_lag_ms": self.watermark_lag_max_ms,
            "mean_watermark_lag_ms": self.watermark_lag_mean_ms,
        }

    def resilience_summary(self) -> Dict[str, object]:
        """Checkpoint/recovery headline numbers; kept out of
        :meth:`summary` so non-failure runs stay byte-identical with and
        without checkpointing enabled."""
        mean_recovery = (
            float(np.mean(self.recovery_time_ms))
            if self.recovery_time_ms
            else math.nan
        )
        return {
            "checkpoints_taken": self.checkpoints_taken,
            "checkpoint_bytes_last": self.checkpoint_bytes_last,
            "recoveries": self.recoveries,
            "recovery_time_ms": list(self.recovery_time_ms),
            "mean_recovery_time_ms": mean_recovery,
            "replay_span_ms": list(self.replay_span_ms),
            "events_lost_to_failures": self.events_lost_to_failures,
            "post_failure_latency_inflation": self.post_failure_latency_inflation,
            "events": [dict(event) for event in self.recovery_events],
        }


def mean_with_ci(values: Sequence[float], confidence: float = 0.95) -> Tuple[float, float]:
    """(mean, half-width of the confidence interval) across repetitions.

    The paper reports 95% confidence intervals over >= 10 runs. The
    half-width uses the Student-t critical value with ``n - 1`` degrees
    of freedom (``sem * t.ppf((1 + confidence) / 2, n - 1)``), which is
    exact for normally distributed repetitions at any ``n`` and matters
    at the small repetition counts the harness defaults to — the normal
    approximation would understate the interval there (e.g. 12% narrower
    at n = 10, 27% at n = 5). Degenerate inputs: an empty sequence yields
    ``(nan, nan)``; a single value yields ``(value, 0.0)``.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return math.nan, math.nan
    if arr.size == 1:
        return float(arr[0]), 0.0
    from scipy import stats

    mean = float(arr.mean())
    sem = float(stats.sem(arr))
    half = sem * float(stats.t.ppf((1 + confidence) / 2.0, arr.size - 1))
    return mean, half
