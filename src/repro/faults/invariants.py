"""Runtime invariant checking for engine runs.

The simulator's claims rest on bookkeeping that nothing previously
verified at runtime: every generated event must end up processed, queued,
or shed (never duplicated or lost), watermarks must only move forward,
window panes must fire exactly when their deadline is swept, and a cycle
can never consume more CPU than ``cores x r``. An
:class:`InvariantMonitor` attached to an engine
(``Engine(..., invariants=monitor)``) re-derives these conservation laws
from independent counters after every collect/start/pause cycle and
records an :class:`InvariantViolation` for each breach.

The monitor is pure observation: it never mutates engine state, so a
monitored run is bit-identical to an unmonitored one. Combined with a
:class:`~repro.faults.plan.FaultPlan` it turns any experiment into a
differential stress test — every scheduler, under identical
perturbations, must keep every invariant intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.spe.operators import SinkOperator, _WindowedOperatorBase
from repro.spe.watermarks import WatermarkGeneratorOperator


@dataclass(frozen=True)
class InvariantViolation:
    """One detected breach of a runtime invariant."""

    time: float
    invariant: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return (
            f"[t={self.time:.1f}ms] {self.invariant} on {self.subject}: "
            f"{self.detail}"
        )


class InvariantError(AssertionError):
    """Raised in strict mode on the first violation."""


class _QueryLayout:
    """The parts of one query's topology the per-cycle checks walk,
    resolved once: the topology is fixed for the life of a run."""

    __slots__ = (
        "query", "channels", "entry_channels", "entry_ops", "windowed",
        "clocked",
    )

    def __init__(self, query: Any) -> None:
        self.query = query
        self.channels = [ch for op in query.operators for ch in op.inputs]
        channels = {id(b.channel): b.channel for b in query.bindings}
        ops = {id(b.operator): b.operator for b in query.bindings}
        # The entry balance is only meaningful when the entry operators
        # are fed exclusively by sources; a mid-pipeline channel would mix
        # source and derived traffic and the balance would not hold.
        fed_by_sources = all(
            id(ch) in channels for op in ops.values() for ch in op.inputs
        )
        self.entry_channels = list(channels.values()) if fed_by_sources else None
        self.entry_ops = list(ops.values())
        self.windowed = list(query.windowed_operators())
        #: (operator, is windowed) for every operator keeping an event-time
        #: clock, in operator order
        self.clocked = [
            (op, isinstance(op, _WindowedOperatorBase))
            for op in query.operators
            if isinstance(op, (_WindowedOperatorBase, WatermarkGeneratorOperator))
        ]


class InvariantMonitor:
    """Continuously asserts engine conservation invariants.

    Checked every cycle (and once more at the end of the run):

    * **clock** — the virtual clock strictly advances.
    * **cpu-budget** — CPU consumed in a cycle (processing + scheduler
      overhead) never exceeds ``cores x cycle_ms``.
    * **plan-sanity** — a priority plan schedules only registered queries
      and each at most once.
    * **channel-conservation** — per channel:
      ``pushed + returned - popped == queued`` and no negative depths
      (queue depth = ingested − processed − shed, at channel granularity).
    * **event-conservation** — per query: events the engine delivered to
      source channels equal events consumed by the entry operators plus
      events still queued there (nothing created, lost, or duplicated).
    * **watermark-monotonicity** — per stream/operator/generator, observed
      watermark clocks never regress.
    * **window-firing** — no window pane stays buffered once the
      operator's event clock has swept its deadline (results are emitted
      exactly once, and only after their SWM arrives).
    * **sink-swm-order** — SWM timestamps reach each sink in
      non-decreasing order with non-negative propagation latency.

    Args:
        tolerance: absolute slack for floating-point comparisons.
        strict: raise :class:`InvariantError` on the first violation
            instead of recording it.
        max_violations: stop recording (but keep counting) beyond this
            many violations, so a broken run cannot exhaust memory.
    """

    def __init__(
        self,
        *,
        tolerance: float = 1e-6,
        strict: bool = False,
        max_violations: int = 100,
    ) -> None:
        if tolerance < 0:
            raise ValueError(f"negative tolerance: {tolerance}")
        if max_violations < 1:
            raise ValueError(f"need at least one violation slot: {max_violations}")
        self.tolerance = tolerance
        self.strict = strict
        self.max_violations = max_violations
        self.violations: List[InvariantViolation] = []
        self.total_violations = 0
        self.cycles_checked = 0
        # per-entity snapshots for monotonicity checks (keyed by id())
        self._last_now: Optional[float] = None
        self._event_clocks: Dict[int, float] = {}
        self._input_wms: Dict[int, List[float]] = {}
        self._progress_wms: Dict[int, float] = {}
        self._generator_wms: Dict[int, float] = {}
        self._sink_swm_seen: Dict[int, int] = {}
        self._sink_last_ts: Dict[int, float] = {}
        self._layouts: Dict[int, _QueryLayout] = {}
        self._ingested_prev = 0.0
        self._shed_prev = 0.0
        # events whose loss is *tolerated*: booked by on_crash when a node
        # failed with recovery explicitly disabled. With recovery enabled,
        # loss is never tolerated — it becomes an unrecovered-loss
        # violation instead (the failover must preserve every event).
        self._tolerated_loss: Dict[str, float] = {}

    # -- result accessors -----------------------------------------------------

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def report(self) -> str:
        """Human-readable summary of the monitoring outcome."""
        if self.ok:
            return (
                f"invariants OK: {self.cycles_checked} cycles checked, "
                f"0 violations"
            )
        lines = [
            f"invariants VIOLATED: {self.total_violations} violations over "
            f"{self.cycles_checked} cycles"
        ]
        lines.extend(f"  {v}" for v in self.violations)
        if self.total_violations > len(self.violations):
            lines.append(
                f"  ... {self.total_violations - len(self.violations)} more"
            )
        return "\n".join(lines)

    def _layout(self, query: Any) -> _QueryLayout:
        layout = self._layouts.get(id(query))
        if layout is None or layout.query is not query:
            layout = self._layouts[id(query)] = _QueryLayout(query)
        return layout

    def _record(self, time: float, invariant: str, subject: str, detail: str) -> None:
        self.total_violations += 1
        if len(self.violations) < self.max_violations:
            self.violations.append(
                InvariantViolation(time, invariant, subject, detail)
            )
        if self.strict:
            raise InvariantError(str(self.violations[-1]))

    # -- engine-facing hooks ---------------------------------------------------

    def on_cycle(self, event) -> None:
        """Check all invariants after one collect/start/pause cycle
        (``event`` is the engine's :class:`~repro.spe.engine.CycleEvent`)."""
        engine = event.engine
        now = event.now
        cpu_used_ms = event.used + event.overhead
        tol = self.tolerance
        self.cycles_checked += 1

        if self._last_now is not None and now <= self._last_now:
            self._record(
                now, "clock", "engine",
                f"clock did not advance: {self._last_now} -> {now}",
            )
        self._last_now = now

        budget = engine.cores * engine.cycle_ms
        if cpu_used_ms > budget * (1.0 + 1e-9) + tol:
            self._record(
                now, "cpu-budget", "engine",
                f"cycle consumed {cpu_used_ms:.3f} CPU-ms, budget is "
                f"{budget:.3f} (cores x r)",
            )

        registered = {q.query_id for q in engine.queries}
        for record in event.nodes:
            plan = record.plan
            if plan.mode != "priority":
                continue
            ids = plan.scheduled_query_ids()
            seen = set()
            for qid in ids:
                if qid not in registered:
                    self._record(
                        now, "plan-sanity", qid,
                        "plan schedules an unregistered query",
                    )
                if qid in seen:
                    self._record(
                        now, "plan-sanity", qid,
                        "plan schedules the same query twice",
                    )
                seen.add(qid)

        self._monotone_counters(engine, now)
        for query in engine.queries:
            layout = self._layout(query)
            self._check_channels(layout, now)
            self._check_entry_conservation(layout, now)
            self._check_watermarks(layout, now)
            self._check_windows(layout, now)
            self._check_sinks(query, now)

    def finalize(self, engine) -> None:
        """Re-check the stationary invariants on the final engine state
        and publish the violation count into the run's metrics."""
        now = engine.clock.now
        for query in engine.queries:
            layout = self._layout(query)
            self._check_channels(layout, now)
            self._check_entry_conservation(layout, now)
            self._check_windows(layout, now)
        # Engine-wide conservation: everything the sources delivered is
        # accounted for by the per-binding ingestion counters.
        delivered = sum(
            b.events_ingested for q in engine.queries for b in q.bindings
        )
        total = engine.metrics.total_events_ingested
        if abs(delivered - total) > max(self.tolerance, 1e-9 * total):
            self._record(
                now, "event-conservation", "engine",
                f"per-binding ingestion counters ({delivered:.3f}) disagree "
                f"with the engine total ({total:.3f})",
            )
        engine.metrics.invariant_violations = self.total_violations

    # -- resilience hooks (repro.resilience) -----------------------------------

    def on_crash(self, engine, lost_events: Dict[str, float], recovery_enabled: bool) -> None:
        """Account events lost when a node crashed.

        ``lost_events`` maps query ids to events dropped from their entry
        channels. With recovery *disabled* the loss is expected — crash
        semantics without checkpoints lose volatile state — so it is
        booked as tolerated and the conservation checks subtract it. With
        recovery *enabled*, lost events mean the failover failed to
        preserve them: each is recorded as an ``unrecovered-loss``
        violation (this is the tightened semantics — loss is only ever
        acceptable when the run explicitly opted out of recovery).
        """
        now = engine.clock.now
        for query_id in sorted(lost_events):
            lost = lost_events[query_id]
            if lost <= self.tolerance:
                continue
            if recovery_enabled:
                self._record(
                    now, "unrecovered-loss", query_id,
                    f"{lost:.3f} events lost to a node failure although "
                    f"recovery was enabled",
                )
            else:
                self._tolerated_loss[query_id] = (
                    self._tolerated_loss.get(query_id, 0.0) + lost
                )

    def on_rollback(self, engine) -> None:
        """Re-base the cross-cycle baselines after a checkpoint rollback.

        A rollback legitimately rewinds ingestion counters, watermark
        clocks, and sink ledgers; without re-basing, the next ``on_cycle``
        would flag the rewind itself as regression. The re-based values
        come from the *restored* state, so any genuine regression after
        the rollback is still caught.
        """
        metrics = engine.metrics
        self._ingested_prev = metrics.total_events_ingested
        self._shed_prev = metrics.events_shed
        for query in engine.queries:
            for binding in query.bindings:
                progress = binding.progress
                if progress is not None:
                    self._progress_wms[id(progress)] = progress.last_watermark_ts
            for op in query.operators:
                if isinstance(op, _WindowedOperatorBase):
                    self._event_clocks[id(op)] = op.event_clock
                    self._input_wms[id(op)] = list(op._input_watermarks)
                elif isinstance(op, WatermarkGeneratorOperator):
                    self._generator_wms[id(op)] = op.last_emitted
            sink = query.sink
            if isinstance(sink, SinkOperator):
                last_ts = -math.inf
                for at, latency in sink.swm_latencies:
                    last_ts = max(last_ts, at - latency)
                self._sink_swm_seen[id(sink)] = len(sink.swm_latencies)
                self._sink_last_ts[id(sink)] = last_ts

    # -- individual invariant checks ------------------------------------------

    def _monotone_counters(self, engine, now: float) -> None:
        m = engine.metrics
        if m.total_events_ingested < self._ingested_prev - self.tolerance:
            self._record(
                now, "event-conservation", "engine",
                f"total_events_ingested regressed: "
                f"{self._ingested_prev} -> {m.total_events_ingested}",
            )
        if m.events_shed < self._shed_prev - self.tolerance:
            self._record(
                now, "event-conservation", "engine",
                f"events_shed regressed: {self._shed_prev} -> {m.events_shed}",
            )
        self._ingested_prev = m.total_events_ingested
        self._shed_prev = m.events_shed

    def _check_channels(self, layout: _QueryLayout, now: float) -> None:
        tol = self.tolerance
        for ch in layout.channels:
            # the fields behind Channel.queued_events / queued_bytes
            queued = ch._queued_events
            pushed = ch.events_pushed
            flow = pushed + ch.events_returned - ch.events_popped
            slack = 1e-9 * pushed
            if abs(flow - queued) > (slack if slack > tol else tol):
                self._record(
                    now, "channel-conservation", ch.name or repr(ch),
                    f"pushed+returned-popped = {flow:.6f} but queued "
                    f"depth is {queued:.6f}",
                )
            if queued < -tol:
                self._record(
                    now, "channel-conservation", ch.name or repr(ch),
                    f"negative queue depth: {queued}",
                )
            if ch._queued_bytes < -tol:
                self._record(
                    now, "channel-conservation", ch.name or repr(ch),
                    f"negative queued bytes: {ch._queued_bytes}",
                )

    def _check_entry_conservation(self, layout: _QueryLayout, now: float) -> None:
        """ingested == consumed by entry operators + still queued there."""
        entry_channels = layout.entry_channels
        if entry_channels is None:
            return
        query = layout.query
        # left folds from int 0, like sum(): the floats a sum() over the
        # same values gives, without a generator per query per cycle
        ingested = consumed = queued = 0
        for binding in query.bindings:
            ingested += binding.events_ingested
        for op in layout.entry_ops:
            consumed += op.stats.events_in
        for ch in entry_channels:
            queued += ch._queued_events
        tolerated = self._tolerated_loss.get(query.query_id, 0.0)
        accounted = consumed + queued + tolerated
        slack = max(self.tolerance, 1e-9 * max(ingested, 1.0))
        if abs(accounted - ingested) > slack:
            self._record(
                now, "event-conservation", query.query_id,
                f"ingested {ingested:.6f} events but consumed+queued "
                f"accounts for {accounted:.6f} "
                f"(consumed={consumed:.6f}, queued={queued:.6f})",
            )

    def _check_watermarks(self, layout: _QueryLayout, now: float) -> None:
        query = layout.query
        for binding in query.bindings:
            progress = binding.progress
            if progress is None:
                continue
            key = id(progress)
            last = self._progress_wms.get(key, -math.inf)
            if progress.last_watermark_ts < last:
                self._record(
                    now, "watermark-monotonicity",
                    f"{query.query_id}.src{binding.source_id}",
                    f"stream watermark regressed: {last} -> "
                    f"{progress.last_watermark_ts}",
                )
            self._progress_wms[key] = progress.last_watermark_ts
        for op, windowed in layout.clocked:
            key = id(op)
            if windowed:
                last = self._event_clocks.get(key, -math.inf)
                if op.event_clock < last:
                    self._record(
                        now, "watermark-monotonicity", op.name,
                        f"event clock regressed: {last} -> {op.event_clock}",
                    )
                self._event_clocks[key] = op.event_clock
                prev = self._input_wms.get(key)
                current = op._input_watermarks
                if prev == current:
                    continue  # unchanged: nothing can have regressed
                if prev is not None:
                    for i, (a, b) in enumerate(zip(prev, current)):
                        if b < a:
                            self._record(
                                now, "watermark-monotonicity",
                                f"{op.name}.in{i}",
                                f"input watermark regressed: {a} -> {b}",
                            )
                self._input_wms[key] = list(current)
                continue
            last = self._generator_wms.get(key, -math.inf)
            if op.last_emitted < last:
                self._record(
                    now, "watermark-monotonicity", op.name,
                    f"generated watermark regressed: {last} -> "
                    f"{op.last_emitted}",
                )
            self._generator_wms[key] = op.last_emitted

    def _check_windows(self, layout: _QueryLayout, now: float) -> None:
        for op in layout.windowed:
            clock = op.event_clock
            if math.isinf(clock):
                continue
            # the pane heap's head is the earliest buffered deadline
            heap = op._pane_heap
            if heap and heap[0][0] <= clock - 1e-9:
                self._record(
                    now, "window-firing", op.name,
                    f"pane with deadline {heap[0][0]} still buffered although "
                    f"the event clock has reached {clock}",
                )

    def _check_sinks(self, query, now: float) -> None:
        sink = query.sink
        if not isinstance(sink, SinkOperator):
            return
        key = id(sink)
        seen = self._sink_swm_seen.get(key, 0)
        if len(sink.swm_latencies) == seen:
            return  # no SWM delivered since the last check
        last_ts = self._sink_last_ts.get(key, -math.inf)
        ledger = sink.swm_latencies
        for at, latency in zip(ledger.at[seen:], ledger.latency[seen:]):
            if latency < -self.tolerance:
                self._record(
                    now, "sink-swm-order", sink.name,
                    f"negative SWM propagation latency: {latency:.3f}ms",
                )
            ts = at - latency
            if ts < last_ts - self.tolerance:
                self._record(
                    now, "sink-swm-order", sink.name,
                    f"SWM timestamps out of order at the sink: {last_ts} -> {ts}",
                )
            last_ts = max(last_ts, ts)
        self._sink_swm_seen[key] = len(sink.swm_latencies)
        self._sink_last_ts[key] = last_ts
