"""Queries: operator pipelines plus the runtime bookkeeping Klink consumes.

A :class:`Query` is a DAG of operators ending in a single
:class:`~repro.spe.operators.SinkOperator`. Multiple source streams are
supported (windowed joins); each source is described by a
:class:`SourceSpec` and bound to an input channel of its first operator.

Each source binding carries a :class:`StreamProgress` tracker — the
per-stream slice of the paper's *runtime data acquisition* module. It
observes network delays of ingested batches, detects SWM ingestions (a
watermark whose timestamp covers the next un-swept window deadline of the
stream's downstream window operator), demarcates epochs, and accumulates
the per-epoch delay statistics (mu_n, chi_n of Eqs. 3-4) that Klink's
estimator consumes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.report import Report

from repro.net.delays import DelayModel
from repro.spe.operators import (
    Operator,
    SinkOperator,
    WindowedJoin,
    _WindowedOperatorBase,
)
from repro.spe.windows import WindowAssigner


@dataclass
class SourceSpec:
    """Static description of one input stream.

    Attributes:
        name: Human-readable stream name.
        rate_eps: Event generation rate (events per second).
        watermark_period_ms: Watermark injection period p_q (Sec. 2.2:
            watermarks are injected periodically, independent of data rate).
        lateness_ms: Watermark allowance — a watermark emitted at
            generation time g carries timestamp ``g - lateness_ms``.
            Choosing the delay model's bound makes every event on-time.
        delay_model: Network delay distribution applied between generation
            and ingestion.
        bytes_per_event: Serialized event size for the memory model.
        gen_batch_ms: Generation granularity — one EventBatch per interval.
        marker_period_ms: Latency-marker injection period (paper: 200 ms).
        burst_factor: Rate multiplier while the source is bursting. Real
            streams carry "fluctuating or unpredictable load spikes"
            (Sec. 1); sources alternate between a burst state at
            ``burst_factor`` x the base rate and a quiet state scaled so
            the long-run mean remains ``rate_eps``. Set to 1.0 for a
            perfectly steady source.
        burst_duty: Long-run fraction of time spent bursting.
        burst_on_mean_ms: Mean burst duration (exponentially distributed).
        burst_off_mean_ms: Mean quiet duration; left ``None`` it is derived
            from the duty cycle (``on * (1 - duty) / duty``) so the
            long-run mean rate stays exactly ``rate_eps``.
    """

    name: str
    rate_eps: float
    watermark_period_ms: float
    lateness_ms: float
    delay_model: DelayModel
    bytes_per_event: int = 100
    gen_batch_ms: float = 50.0
    marker_period_ms: float = 200.0
    burst_factor: float = 1.0
    burst_duty: float = 0.3
    burst_on_mean_ms: float = 3_000.0
    burst_off_mean_ms: Optional[float] = None
    #: disable to generate watermarks mid-pipeline instead (Sec. 2.2 case
    #: (ii), via repro.spe.watermarks.WatermarkGeneratorOperator)
    emit_watermarks: bool = True

    def __post_init__(self) -> None:
        if self.rate_eps < 0:
            raise ValueError(f"negative rate: {self.rate_eps}")
        if self.watermark_period_ms <= 0:
            raise ValueError(f"watermark period must be positive: {self.watermark_period_ms}")
        if self.gen_batch_ms <= 0:
            raise ValueError(f"generation interval must be positive: {self.gen_batch_ms}")
        if self.burst_factor < 1.0:
            raise ValueError(f"burst factor must be >= 1: {self.burst_factor}")
        if not 0 < self.burst_duty < 1:
            raise ValueError(f"burst duty must be in (0, 1): {self.burst_duty}")
        if self.burst_factor * self.burst_duty >= 1.0:
            raise ValueError(
                "burst_factor * burst_duty must stay below 1 so the quiet "
                f"rate remains positive: {self.burst_factor} * {self.burst_duty}"
            )
        if self.burst_off_mean_ms is None:
            self.burst_off_mean_ms = (
                self.burst_on_mean_ms * (1.0 - self.burst_duty) / self.burst_duty
            )

    @property
    def quiet_factor(self) -> float:
        """Rate multiplier in the quiet state (keeps the long-run mean)."""
        return (1.0 - self.burst_factor * self.burst_duty) / (1.0 - self.burst_duty)


@dataclass
class EpochStats:
    """Finalized delay statistics for one epoch (inputs to Eqs. 3-6)."""

    mu: float    # mean network delay over the epoch's events
    chi: float   # mean squared network delay
    swm_ingest_time: float  # engine time the epoch's closing SWM arrived
    swm_timestamp: float    # event-time the closing SWM carried


class StreamProgress:
    """Per-input-stream progress tracking (epochs, delays, SWM ingestions).

    Epoch ``n+1`` starts after the ingestion of the ``n``-th SWM (Sec. 3).
    Whether an arriving watermark is sweeping is decided against the next
    un-swept deadline of the stream's downstream window operator, known
    from its window assigner — applications never mark SWMs themselves.
    """

    def __init__(
        self,
        assigner: Optional[WindowAssigner],
        watermark_period_ms: float,
        history: int = 400,
        start_time: float = 0.0,
    ) -> None:
        self.assigner = assigner
        self.watermark_period_ms = watermark_period_ms
        self.history_limit = history
        self.epoch_index = 0
        self.epochs: Deque[EpochStats] = deque(maxlen=history)
        # accumulators for the in-flight epoch
        self._delay_sum = 0.0
        self._delay_sq_sum = 0.0
        self._delay_weight = 0.0
        # Version counter + single-slot memo for the estimator's delay
        # moments: the estimator reads (mu, chi) several times per cycle
        # (plan, audit, slack), but the underlying accumulators mutate
        # only on ingestion. The memo caches the last fresh computation,
        # keyed by (version, history window); any mutation bumps the
        # version, so a hit returns exactly the value a recomputation
        # over the unchanged history would produce.
        self._version = 0  # klink: transient[cache-key counter for the moments memo below]
        self._moments_memo: Optional[Tuple[int, int, float, float]] = None  # klink: transient[memoized (version, history, mu, chi); recomputed on demand]
        # Epoch-keyed memos: the finalized-epoch history only changes when
        # an epoch closes, while delay observations arrive every cycle —
        # caching the history-side sums turns the estimator's per-cycle
        # moment computation into O(1). Keys use ``epoch_index`` (total
        # epochs finalized), which the deque's maxlen eviction preserves.
        self._hist_sums_memo: Optional[Tuple[int, int, int, float, float]] = None  # klink: transient[memoized (epoch_index, history, n, mu_sum, chi_sum)]
        self._epoch_mean_memo: Optional[Tuple[int, float, float]] = None  # klink: transient[memoized (epoch_index, mu, chi) for the idle-epoch fallback]
        self.last_watermark_ts = -math.inf
        self.last_swm_ingest_time: Optional[float] = None
        self.next_deadline: Optional[float] = (
            assigner.next_deadline(max(start_time, 0.0))
            if assigner is not None
            else None
        )

    # -- observations ------------------------------------------------------

    def observe_delay(self, delay: float, weight: float = 1.0) -> None:
        """Record the network delay of ``weight`` ingested events."""
        self._delay_sum += delay * weight
        self._delay_sq_sum += delay * delay * weight
        self._delay_weight += weight
        self._version += 1  # klink: transient[cache-key counter for the moments memo]

    def observe_watermark(self, timestamp: float, now: float) -> bool:
        """Record a watermark ingestion; returns True if it was an SWM."""
        if timestamp <= self.last_watermark_ts:
            return False  # late watermark, dropped by the SPE
        self.last_watermark_ts = timestamp
        if self.assigner is None or self.next_deadline is None:
            return False
        if timestamp < self.next_deadline:
            return False
        self._finalize_epoch(now, timestamp)
        self.next_deadline = self.assigner.next_deadline(timestamp)
        return True

    def _finalize_epoch(self, now: float, wm_ts: float) -> None:
        if self._delay_weight > 0:
            mu = self._delay_sum / self._delay_weight
            chi = self._delay_sq_sum / self._delay_weight
        elif self.epochs:
            # No events this epoch (idle stream): carry the last profile.
            mu, chi = self.epochs[-1].mu, self.epochs[-1].chi
        else:
            mu, chi = 0.0, 0.0
        self.epochs.append(EpochStats(mu, chi, now, wm_ts))
        self.epoch_index += 1
        self.last_swm_ingest_time = now
        self._delay_sum = 0.0
        self._delay_sq_sum = 0.0
        self._delay_weight = 0.0
        self._version += 1  # klink: transient[cache-key counter for the moments memo]

    def _invalidate_moments_memo(self) -> None:
        """Drop the estimator's delay-moments memo (e.g. after a restore
        rebuilt the accumulators in place); the next read recomputes from
        the current history."""
        self._moments_memo = None  # klink: transient[memo over the captured accumulators]
        self._hist_sums_memo = None  # klink: transient[memo over the captured epoch history]
        self._epoch_mean_memo = None  # klink: transient[memo over the captured epoch history]

    # -- estimator inputs ----------------------------------------------------

    @property
    def has_observations(self) -> bool:
        """True once at least one delay observation or finalized epoch
        exists. While False, the estimator is in *cold start* and must not
        trust the zeroed accumulators (see
        ``SwmIngestionEstimator.delay_moments``)."""
        return self._delay_weight > 0 or bool(self.epochs)

    def current_epoch_mean(self) -> Tuple[float, float]:
        """(mu, chi) for the in-flight epoch: observed data if any, else
        the average over the history (the two cases of Eqs. 3-4)."""
        if self._delay_weight > 0:
            return (
                self._delay_sum / self._delay_weight,
                self._delay_sq_sum / self._delay_weight,
            )
        if self.epochs:
            # The history-average fallback is fixed until the next epoch
            # closes; memoize it per epoch_index (same sums, same order).
            memo = self._epoch_mean_memo
            if memo is not None and memo[0] == self.epoch_index:
                return memo[1], memo[2]
            n = len(self.epochs)
            mu = sum(e.mu for e in self.epochs) / n
            chi = sum(e.chi for e in self.epochs) / n
            self._epoch_mean_memo = (self.epoch_index, mu, chi)
            return mu, chi
        return 0.0, 0.0

    def mu_history(self) -> List[float]:
        return [e.mu for e in self.epochs]

    def chi_history(self) -> List[float]:
        return [e.chi for e in self.epochs]


class PeriodicCursor:
    """Drift-free periodic time cursor: ``value = origin + step * period``.

    Accumulating a float period (``cursor += period``) rounds once per
    addition, so two code paths that should agree on the k-th tick drift
    apart by ulps — enough to reorder records at horizon boundaries
    (lint rule KL005). Deriving the value from an integer step count
    rounds once total, keeping every tick exactly reproducible.
    """

    __slots__ = ("origin", "period", "step")

    def __init__(self, origin: float, period: float) -> None:
        self.origin = float(origin)
        self.period = float(period)
        self.step = 0

    @property
    def value(self) -> float:
        return self.origin + self.step * self.period

    def advance(self) -> float:
        """Move to the next tick; returns the new cursor value."""
        self.step += 1
        return self.value

    def reset(self, origin: float) -> None:
        """Re-anchor the cursor at ``origin`` (tick zero)."""
        self.origin = float(origin)
        self.step = 0


class SourceBinding:
    """Wires a :class:`SourceSpec` into a query and tracks its generation
    and progress state. Generation cursors are owned by the engine."""

    def __init__(
        self,
        spec: SourceSpec,
        operator: Operator,
        input_index: int = 0,
        source_id: int = 0,
        history: int = 400,
        seed: int = 0,
    ) -> None:
        self.spec = spec
        self.operator = operator
        self.input_index = input_index
        self.source_id = source_id
        self.channel = operator.inputs[input_index]
        self.progress: Optional[StreamProgress] = None  # set by Query
        # cumulative ingestion counters (engine-maintained); the invariant
        # monitor balances these against entry-operator consumption.
        self.events_ingested = 0.0
        self.watermarks_ingested = 0
        # generation cursors (engine-managed, drift-free)
        self._gen_cursor = PeriodicCursor(0.0, spec.gen_batch_ms)
        self._watermark_cursor = PeriodicCursor(
            spec.watermark_period_ms, spec.watermark_period_ms
        )
        self._marker_cursor = PeriodicCursor(
            spec.marker_period_ms, spec.marker_period_ms
        )
        self._history = history
        # burst-state machine (engine-managed)
        self.rng = np.random.default_rng(seed)
        self.bursting = False
        self.burst_state_until = 0.0

    # -- generation cursors ------------------------------------------------
    # Exposed as plain float attributes for compatibility (tests re-anchor
    # them); assignment resets the integer tick count at the new origin.

    @property
    def next_gen_time(self) -> float:
        """Generation time of the next event batch's start."""
        return self._gen_cursor.value

    @next_gen_time.setter
    def next_gen_time(self, value: float) -> None:
        self._gen_cursor.reset(value)

    @property
    def next_watermark_time(self) -> float:
        return self._watermark_cursor.value

    @next_watermark_time.setter
    def next_watermark_time(self, value: float) -> None:
        self._watermark_cursor.reset(value)

    @property
    def next_marker_time(self) -> float:
        return self._marker_cursor.value

    @next_marker_time.setter
    def next_marker_time(self, value: float) -> None:
        self._marker_cursor.reset(value)

    def advance_gen(self) -> float:
        return self._gen_cursor.advance()

    def advance_watermark(self) -> float:
        return self._watermark_cursor.advance()

    def advance_marker(self) -> float:
        return self._marker_cursor.advance()

    def bind_progress(
        self, assigner: Optional[WindowAssigner], start_time: float = 0.0
    ) -> None:
        self.progress = StreamProgress(
            assigner,
            self.spec.watermark_period_ms,
            history=self._history,
            start_time=start_time,
        )


class Query:
    """A deployed streaming query: sources -> operator DAG -> sink."""

    def __init__(
        self,
        query_id: str,
        bindings: Sequence[SourceBinding],
        operators: Sequence[Operator],
        sink: SinkOperator,
        epoch_history: int = 400,
        deployed_at: float = 0.0,
    ) -> None:
        if not bindings:
            raise ValueError("query needs at least one source")
        if deployed_at < 0:
            raise ValueError(f"negative deployment time: {deployed_at}")
        self.query_id = query_id
        self.bindings = list(bindings)
        self.operators = list(operators)
        self.sink = sink
        self.deployed_at = float(deployed_at)
        # Structural validation first: _assigner_for walks downstream
        # pointers and must only run on a graph known to be acyclic.
        self._validate()
        self._downstream: Dict[Operator, Optional[Operator]] = {}
        self._wire_downstream_map()
        # The operator list is fixed for the query's lifetime, so the
        # windowed subset can be classified once instead of per lookup
        # (schedulers read it every cycle).
        self._windowed_ops: List[_WindowedOperatorBase] = [  # klink: transient[build-time classification of the fixed operator list]
            op for op in self.operators if isinstance(op, _WindowedOperatorBase)
        ]
        # Operators whose state_bytes can be non-zero (the property is
        # overridden). memory_bytes skips the stateless rest: their base
        # property returns exactly 0.0 and adding 0.0 to a non-negative
        # accumulator is a bit-exact no-op.
        self._stateful_ops: List[Operator] = [  # klink: transient[build-time classification of the fixed operator list]
            op
            for op in self.operators
            if type(op).state_bytes is not Operator.state_bytes
        ]
        for binding in self.bindings:
            binding._history = epoch_history
            binding.bind_progress(
                self._assigner_for(binding.operator), start_time=self.deployed_at
            )

    # -- construction helpers ---------------------------------------------------

    def _wire_downstream_map(self) -> None:
        from repro.analysis.plan_check import build_downstream_map

        downstream, _ = build_downstream_map(self.operators)
        self._downstream = downstream
        # Position-indexed twin of the downstream map (-1 = sink/none) for
        # the per-cycle cost walk in pending_cost_ms.
        index = {op: i for i, op in enumerate(self.operators)}
        self._downstream_idx = [  # klink: transient[build-time wiring, fixed for the life of the topology]
            index[down] if down is not None else -1
            for down in (downstream[op] for op in self.operators)
        ]

    def _validate(self) -> None:
        """Graph-shape validation (cycles, wiring, sink placement, topo
        order), delegated to the static plan validator. Raises
        :class:`~repro.analysis.plan_check.PlanValidationError` — a
        ``ValueError`` — on any structural error. The full semantic pass
        (watermark reachability, key selectors, cost bounds) runs at
        engine submission via ``repro.analysis.plan_check.check_query``.
        """
        from repro.analysis.plan_check import PlanValidationError, check_structure

        report = check_structure(self.operators, self.sink)
        if not report.ok:
            raise PlanValidationError(report)

    def validate(self) -> "Report":
        """Run the full static plan check; returns the diagnostics report."""
        from repro.analysis.plan_check import check_query

        return check_query(self)

    def _assigner_for(self, entry: Operator) -> Optional[WindowAssigner]:
        """First window assigner on the path from ``entry`` downstream."""
        op: Optional[Operator] = entry
        while op is not None:
            if isinstance(op, _WindowedOperatorBase):
                return op.assigner
            op = self._downstream[op]
        return None

    # -- scheduler-facing aggregates -------------------------------------------

    def downstream_of(self, op: Operator) -> Optional[Operator]:
        return self._downstream[op]

    @property
    def queued_events(self) -> float:
        return sum(op.queued_events for op in self.operators)

    @property
    def queued_bytes(self) -> float:
        return sum(op.queued_bytes for op in self.operators)

    @property
    def state_bytes(self) -> float:
        return sum(op.state_bytes for op in self.operators)

    @property
    def memory_bytes(self) -> float:
        """Total memory footprint: queued records plus window state.

        One pass over the operators with separate accumulators — the same
        two float-add sequences as summing ``queued_bytes`` and
        ``state_bytes`` independently.
        """
        queued = 0.0
        state = 0.0
        for op in self.operators:
            if op._queues_dirty:
                op._refresh_queue_memo()
            queued += op._queued_bytes_memo
        # Stateless operators contribute exactly 0.0 to ``state``; only
        # the overridden properties are read (same adds, same order).
        for op in self._stateful_ops:
            state += op.state_bytes
        return queued + state

    def has_work(self) -> bool:
        return any(op.has_work() for op in self.operators)

    def windowed_operators(self) -> List[_WindowedOperatorBase]:
        """The query's window operators (do not mutate the returned list)."""
        return self._windowed_ops

    def join_operators(self) -> List[WindowedJoin]:
        return [op for op in self.operators if isinstance(op, WindowedJoin)]

    def unit_cost_list(self) -> List[float]:
        """Cost to push one event end-to-end from each operator (ms), by
        position in ``operators``.

        ``unit_cost[op] = cost(op) + selectivity(op) * unit_cost(downstream)``
        using measured selectivities where available (Sec. 3: cost is
        estimated from per-operator processing time and selectivity [33]).
        Position-indexed rather than operator-keyed: the scheduler and the
        distributed cost forwarding price queues every cycle, and list
        indexing beats identity hashing.
        """
        ops = self.operators
        n = len(ops)
        costs = [0.0] * n
        downstream_idx = self._downstream_idx
        for i in range(n - 1, -1, -1):
            op = ops[i]
            di = downstream_idx[i]
            stats = op.stats
            events_in = stats.events_in
            # measured_selectivity, inlined under its events_in > 0 branch
            sel = stats.events_out / events_in if events_in > 0 else op.selectivity
            tail = costs[di] if di >= 0 else 0.0
            costs[i] = op.cost_per_event_ms + sel * tail
        return costs

    def pending_cost_ms(self) -> float:
        """cost_q(t): CPU time to process every queued event end-to-end."""
        costs = self.unit_cost_list()
        total = 0.0
        for i, op in enumerate(self.operators):
            if op._queues_dirty:
                op._refresh_queue_memo()
            total += op._queued_events_memo * costs[i]
        return total

    def pipeline_cost_per_event_ms(self) -> float:
        """Ideal end-to-end processing cost of a single event (slowdown
        denominator, Sec. 6.1.2)."""
        return sum(op.cost_per_event_ms for op in self.operators)

    def next_window_deadline(self) -> float:
        """Earliest pending window deadline across the query's window ops."""
        deadlines = [
            op.next_deadline(op.event_clock) for op in self.windowed_operators()
        ]
        return min(deadlines) if deadlines else math.inf

    def oldest_queued_arrival(self) -> Optional[float]:
        """Engine time of the oldest queued record (FCFS ordering key)."""
        arrivals = [
            ch.head_arrival
            for op in self.operators
            for ch in op.inputs
            if ch.head_arrival is not None
        ]
        return min(arrivals) if arrivals else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Query({self.query_id!r}, ops={len(self.operators)})"


def chain(*operators: Operator) -> List[Operator]:
    """Wire a linear pipeline: each operator's output feeds the next."""
    for up, down in zip(operators, operators[1:]):
        up.connect(down)
    return list(operators)
