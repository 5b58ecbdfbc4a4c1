"""Stream operators.

Operators are the units the runtime scheduler executes (Sec. 5: Flink
*Tasks*). Each operator consumes records from one or more input
:class:`~repro.spe.streams.Channel` objects, charges processing cost
against the scheduling cycle's CPU budget, and emits records downstream.

Cost model
----------
Every operator declares ``cost_per_event_ms`` — CPU milliseconds consumed
per processed event — and a design-time ``selectivity`` (output events per
input event). Measured selectivity and mean cost are also tracked at
runtime, because Klink and Highest-Rate consume *measured* values from the
runtime data-acquisition module rather than trusting declarations.

Window semantics
----------------
:class:`WindowedAggregate` and :class:`WindowedJoin` implement the blocking
operators the paper targets: events accumulate in per-pane state and only a
watermark covering a pane's deadline unblocks (fires) it. The first
watermark to fire a pane is forwarded downstream flagged as a *sweeping
watermark* (SWM), after the pane's output events (invariant (ii) of
Sec. 2.2: the output operator receives the window's events before the SWM).
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.spe.events import LatencyMarker, RecordBatch, Watermark
from repro.spe.metrics import ColumnLedger
from repro.spe.state import (
    FLOAT, FLOATS, HEAP, INT, LEDGER, RAW, SORTED_PAIRS, STATE, STATES,
)
from repro.spe.streams import _COMPACT_THRESHOLD, Channel, _Entry
from repro.spe.windows import Pane, WindowAssigner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.lineage import LineageTracker

# Budget below which a step loop stops rather than splitting ever-smaller
# batch fragments.
_MIN_BUDGET_MS = 1e-6


class OperatorStats:
    """Measured runtime statistics for one operator."""

    __slots__ = (
        "events_in",
        "events_out",
        "busy_ms",
        "late_events_dropped",
        "watermarks_seen",
        "panes_fired",
    )

    #: captured as the list [events_in, ..., panes_fired]
    CHECKPOINT = (
        (None, "events_in", RAW),
        (None, "events_out", RAW),
        (None, "busy_ms", RAW),
        (None, "late_events_dropped", RAW),
        (None, "watermarks_seen", INT),
        (None, "panes_fired", INT),
    )

    def __init__(self) -> None:
        self.events_in = 0.0
        self.events_out = 0.0
        self.busy_ms = 0.0
        self.late_events_dropped = 0.0
        self.watermarks_seen = 0
        self.panes_fired = 0

    @property
    def measured_selectivity(self) -> float:
        """Observed output/input ratio; falls back to 1.0 with no data."""
        if self.events_in <= 0:
            return 1.0
        return self.events_out / self.events_in


class Operator:
    """Base class: a stateless unary operator applying selectivity.

    Subclasses override :meth:`_on_row` and :meth:`_on_watermark` to
    change data/watermark handling; the budget-accounting loop in
    :meth:`step` is shared.
    """

    #: lineage tracker observer, installed by Engine when tracing is
    #: enabled; hooks fire on every FULL consumption of a queued record
    #: (a partially consumed batch keeps its final event queued, so its
    #: queue span is still open).
    lineage: Optional["LineageTracker"] = None
    #: installed with ``lineage``: the t_ends of this operator's queued
    #: records a sampled record rides on (the tracker's in-flight index,
    #: updated in place). Only those rows are reported to the tracker.
    lineage_watch: Optional[Set[float]] = None

    CHECKPOINT = (
        ("stats", "stats", STATE),
        ("cost_multiplier", "cost_multiplier", FLOAT),
        ("inputs", "inputs", STATES),
    )

    def __init__(
        self,
        name: str,
        cost_per_event_ms: float,
        selectivity: float = 1.0,
        out_bytes_per_event: int = 100,
        n_inputs: int = 1,
    ) -> None:
        if cost_per_event_ms < 0:
            raise ValueError(f"negative cost: {cost_per_event_ms}")
        if selectivity < 0:
            raise ValueError(f"negative selectivity: {selectivity}")
        if n_inputs < 1:
            raise ValueError(f"operator needs >= 1 input: {n_inputs}")
        self.name = name
        self.cost_per_event_ms = float(cost_per_event_ms)
        #: transient cost scaling set by fault injection (interference /
        #: slowdown episodes); 1.0 under normal operation. Inflates the
        #: *measured* cost, which is what runtime-adaptive policies see.
        self.cost_multiplier = 1.0
        self.selectivity = float(selectivity)
        self.out_bytes_per_event = int(out_bytes_per_event)
        self.inputs: List[Channel] = [
            Channel(f"{name}.in{i}", owner=self) for i in range(n_inputs)
        ]
        for i, channel in enumerate(self.inputs):
            channel._consumer_index = i
        self.output: Optional[Channel] = None  # wired by Query
        self.stats = OperatorStats()
        # Memoized queue aggregates: schedulers, the memory policy, the
        # audit log, and the telemetry sampler all read queued_events /
        # queued_bytes several times per scheduling cycle. The input
        # channels mark this flag on every enqueue/dequeue, so the sums
        # are recomputed at most once per channel mutation instead of on
        # every read (byte-identical: the same sum over the same values).
        self._queues_dirty = True
        self._queued_events_memo = 0.0
        self._queued_bytes_memo = 0.0

    # -- wiring --------------------------------------------------------------

    def connect(self, downstream: "Operator", input_index: int = 0) -> None:
        """Wire this operator's output to ``downstream``'s input channel."""
        self.output = downstream.inputs[input_index]  # klink: transient[build-time wiring, fixed for the life of the topology]

    # -- scheduler-facing introspection ---------------------------------------

    def _refresh_queue_memo(self) -> None:
        # Plain loops over the channel fields (same left-to-right float
        # adds as the generator-expression sums they replace; ``sum``
        # starts from int 0, and 0 + float == 0.0 + float bit-for-bit).
        events = 0.0
        nbytes = 0.0
        for ch in self.inputs:
            events += ch._queued_events
            nbytes += ch._queued_bytes
        self._queued_events_memo = events  # klink: transient[memo over channel state, which is captured]
        self._queued_bytes_memo = nbytes  # klink: transient[memo over channel state, which is captured]
        self._queues_dirty = False  # klink: transient[memo validity flag; restore marks it dirty]

    @property
    def queued_events(self) -> float:
        """Payload events waiting across all input channels."""
        if self._queues_dirty:
            self._refresh_queue_memo()
        return self._queued_events_memo

    @property
    def queued_bytes(self) -> float:
        if self._queues_dirty:
            self._refresh_queue_memo()
        return self._queued_bytes_memo

    @property
    def state_events(self) -> float:
        """Events buffered in operator state; stateless ops hold none."""
        return 0.0

    @property
    def state_bytes(self) -> float:
        """Memory held in operator state (windows); stateless ops hold none."""
        return 0.0

    def has_work(self) -> bool:
        """True when any input channel holds a record."""
        for ch in self.inputs:
            if ch._entries:
                return True
        return False

    def next_deadline(self, after: float) -> float:
        """Earliest window deadline after event-time ``after`` (inf if none)."""
        return math.inf

    # -- execution -------------------------------------------------------------

    def step(self, budget_ms: float, now: float) -> float:
        """Process queued records within ``budget_ms``; return ms consumed.

        Inputs are drained round-robin so multi-input operators make
        progress on every stream: each round splits the remaining budget
        evenly across the inputs that still hold records, so one stream's
        oversized row cannot starve the others (a join must keep all its
        watermark fronts moving). Emission order preserves FIFO per input.
        """
        inputs = self.inputs
        if len(inputs) == 1:
            return self._drain(inputs[0], budget_ms, 0.0, now)
        used = 0.0
        while budget_ms - used > _MIN_BUDGET_MS:
            active = [ch for ch in inputs if ch._entries]
            if not active:
                break
            if len(active) == 1:
                # Only one input holds records: the round-robin loop
                # degenerates (share == grant == budget - used per record,
                # division by 1 is exact) into the single-input drain.
                # Nothing is pushed to this operator's own inputs during
                # its step (the topology is acyclic), so the other inputs
                # stay empty for the rest of the budget.
                return self._drain(active[0], budget_ms, used, now)
            share = (budget_ms - used) / len(active)
            for channel in active:
                grant = min(share, budget_ms - used)
                if grant <= _MIN_BUDGET_MS:
                    # share is fixed for the round, so either it is spent
                    # or the whole budget is: no later turn can run
                    return used
                entry = channel._entries[0]
                if type(entry.record) is RecordBatch:
                    # One row per channel per turn: the budget split
                    # depends on this granularity, not on the row cap.
                    # The turn is its own budget, so the loop charges
                    # exactly ``grant`` (0.0 + x == x).
                    used += self._consume_rows(entry, channel, grant, 0.0, now, 1)
                else:
                    channel._entries.popleft()
                    used += self._dispatch(entry.record, channel, grant, now)
        return used

    def _drain(
        self, channel: Channel, budget_ms: float, used: float, now: float
    ) -> float:
        """Drain ``channel`` in FIFO order until the budget is spent or the
        queue is empty; returns the updated ``used``."""
        entries = channel._entries
        while budget_ms - used > _MIN_BUDGET_MS and entries:
            entry = entries[0]
            record = entry.record
            if type(record) is RecordBatch:
                used = self._consume_rows(entry, channel, budget_ms, used, now)
                continue
            # Control records carry no payload accounting.
            entries.popleft()
            used += self._dispatch(record, channel, budget_ms - used, now)
        return used

    def _consume_rows(
        self,
        entry: object,
        channel: Channel,
        budget_ms: float,
        used: float,
        now: float,
        max_rows: Optional[int] = None,
    ) -> float:
        """Drain rows of the head :class:`RecordBatch` within the budget,
        at most ``max_rows`` of them; returns the updated ``used``.

        The one row loop of every operator kind: single-input drains and
        the one-row turns of the multi-input round robin both run it, and
        each kind's work is its :meth:`_on_row`, called once per row.
        Each row is charged against a grant recomputed as ``budget -
        used``; a row the grant only partly covers has its affordable
        fraction processed and the rest left as the new head row. The
        arithmetic is per row, so every float the scheduler or the
        invariant monitor can observe is byte-identical whatever the
        channel's row cap. Rows consumed whole are reported to the
        lineage tracker once the loop is done (:meth:`_trace_rows`).
        """
        rb = entry.record
        counts = rb.counts
        n = len(counts)
        bpe = rb.bytes_per_event
        cpe = self.cost_per_event_ms
        mult = self.cost_multiplier
        stats = self.stats
        input_index = channel._consumer_index
        on_row = self._on_row
        # Channel accounting hoisted into locals: the same additions in
        # the same order, written back after the loop. _on_row never
        # touches its own input channel's accounting (outputs are a
        # different channel; the topology is acyclic), so no reader can
        # observe the intermediate values.
        q_events = channel._queued_events
        q_bytes = channel._queued_bytes
        popped = channel.events_popped
        ev_in = stats.events_in
        busy = stats.busy_ms
        # rows start..stop-1 are consumed whole (stop drops back to a
        # partially consumed row)
        start = i = rb.head
        end = n if max_rows is None else min(n, i + max_rows)
        stop = n
        while i < end:
            grant = budget_ms - used
            if grant <= _MIN_BUDGET_MS:
                break
            count = counts[i]
            full_cost = count * cpe * mult
            # Pop accounting for the whole row, then process what the
            # grant covers; a partial row's remainder is returned below.
            q_events -= count
            q_bytes -= count * bpe
            popped += count
            if q_events < 1e-9:
                q_events = 0.0
            if q_bytes < 1e-6:
                q_bytes = 0.0
            if full_cost <= grant or cpe == 0.0:
                ev_in += count
                busy += full_cost
                on_row(rb, i, count, input_index, now)
                used += full_cost
                i += 1
                continue
            # Partial row: process the affordable fraction and leave the
            # remainder as the new head row.
            stop = i
            fraction = grant / full_cost
            head_count = count * fraction
            tail_count = count * (1.0 - fraction)
            ev_in += head_count
            busy += grant
            on_row(rb, i, head_count, input_index, now)
            used += grant
            if tail_count > 0:
                q_events += tail_count
                q_bytes += tail_count * bpe
                channel.events_returned += tail_count
                counts[i] = tail_count
            else:  # pragma: no cover - zero-mass remainder
                i += 1
            break
        channel._queued_events = q_events
        channel._queued_bytes = q_bytes
        channel.events_popped = popped
        stats.events_in = ev_in
        stats.busy_ms = busy
        rb.head = i
        if i >= n:
            channel.discard_head()
        else:
            # The first unconsumed row's arrival defines head_arrival.
            entry.enqueued_at = rb.enqueued_ats[i]
        self._queues_dirty = True
        if self.lineage_watch:
            self._trace_rows(rb, start, min(i, stop), channel, now)
        return used

    def _trace_rows(
        self,
        rb: RecordBatch,
        start: int,
        stop: int,
        channel: Channel,
        now: float,
    ) -> None:
        """Report rows ``start..stop-1`` of ``rb``, each consumed whole by
        the drain that just ran, to the lineage tracker — only those whose
        t_end is in :attr:`lineage_watch`, in row order.

        Deferring the reports to the end of the drain is exact: a payload
        drain moves no watermark and fires no pane, so the tracker sees
        the same state it would have seen row by row, and a tracker hook
        touches only its own state. Callers skip the call while the watch
        set is empty (always, without a tracker).
        """
        watch = self.lineage_watch
        lineage = self.lineage
        t_ends = rb.t_ends
        if watch is None or lineage is None or watch.isdisjoint(t_ends[start:stop]):
            return
        on_consumed = lineage.on_consumed
        t_starts = rb.t_starts
        enqueued_ats = rb.enqueued_ats
        for j in range(start, stop):
            t_end = t_ends[j]
            # a report may empty this key, so re-test every row
            if t_end in watch:
                on_consumed(
                    self, t_starts[j], t_end, enqueued_ats[j], channel, now
                )

    def _dispatch(
        self,
        record: object,
        channel: Channel,
        budget_ms: float,
        now: float,
    ) -> float:
        # Exact-type checks: control entries are exactly Watermark or
        # LatencyMarker (payload rows are drained by the callers).
        if type(record) is Watermark:
            self.stats.watermarks_seen += 1
            cost = min(self.cost_per_event_ms * self.cost_multiplier, budget_ms)
            self._on_watermark(record, channel._consumer_index, now)
            self.stats.busy_ms += cost
            return cost
        if isinstance(record, LatencyMarker):
            cost = min(self.cost_per_event_ms * self.cost_multiplier, budget_ms)
            self._emit(record, now)
            self.stats.busy_ms += cost
            return cost
        raise TypeError(f"unknown record type: {type(record)!r}")

    # -- record handlers (overridden by subclasses) ------------------------------

    def _on_row(
        self,
        rb: RecordBatch,
        index: int,
        count: float,
        input_index: int,
        now: float,
    ) -> None:
        """Handle ``count`` events of row ``index`` of ``rb``.

        The stateless handler appends the row, scaled by ``selectivity``,
        straight to the output channel's tail batch: the same steps as
        :meth:`_emit_row` and :meth:`Channel.push_row`, without their
        calls, because this runs once per row of every stateless drain.
        A cross-node output still goes through ``push_row``.
        """
        out_count = count * self.selectivity
        if not out_count > 0:  # a NaN mass emits nothing either
            return
        self.stats.events_out += out_count
        output = self.output
        if output is None:
            return
        t_start = rb.t_starts[index]
        t_end = rb.t_ends[index]
        delay = rb.delays[index]
        bpe = self.out_bytes_per_event
        if output.latency_ms > 0.0:
            output.push_row(out_count, t_start, t_end, delay, bpe, now)
            return
        entries = output._entries
        tail = entries[-1].record if entries else None
        if (
            type(tail) is RecordBatch
            and tail.bytes_per_event == bpe
            and len(tail.counts) - tail.head < output.batch_size
        ):
            if tail.head > _COMPACT_THRESHOLD:
                tail.compact()
            tail.counts.append(out_count)
            tail.t_starts.append(t_start)
            tail.t_ends.append(t_end)
            tail.delays.append(delay)
            tail.enqueued_ats.append(now)
        else:
            entries.append(
                _Entry(RecordBatch(bpe, out_count, t_start, t_end, delay, now), now)
            )
        output._queued_events += out_count
        output._queued_bytes += out_count * bpe
        output.events_pushed += out_count
        if output._owner is not None:
            output._owner._queues_dirty = True

    def _on_watermark(self, wm: Watermark, input_index: int, now: float) -> None:
        self._emit(wm, now)

    def _emit_row(
        self,
        count: float,
        t_start: float,
        t_end: float,
        delay: float,
        bytes_per_event: int,
        now: float,
    ) -> None:
        """Emit one payload row downstream."""
        self.stats.events_out += count
        output = self.output
        if output is not None:
            output.push_row(count, t_start, t_end, delay, bytes_per_event, now)

    def _emit(self, record: object, now: float) -> None:
        """Emit a control record (watermark or latency marker)."""
        output = self.output
        if output is not None:
            # Channel.push inlined: no payload accounting, just the entry
            # append (or the in-flight queue on a latency channel).
            if output.latency_ms > 0.0:
                output._pending.append(_Entry(record, now + output.latency_ms))
            else:
                output._entries.append(_Entry(record, now))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"


class MapOperator(Operator):
    """One-to-one transformation (projection, enrichment, parsing)."""

    def __init__(self, name: str, cost_per_event_ms: float, out_bytes_per_event: int = 100):
        super().__init__(name, cost_per_event_ms, selectivity=1.0,
                         out_bytes_per_event=out_bytes_per_event)


class FilterOperator(Operator):
    """Drops a fraction of events: selectivity < 1."""

    def __init__(
        self,
        name: str,
        cost_per_event_ms: float,
        selectivity: float,
        out_bytes_per_event: int = 100,
    ):
        if selectivity > 1.0:
            raise ValueError(f"filter selectivity must be <= 1: {selectivity}")
        super().__init__(name, cost_per_event_ms, selectivity=selectivity,
                         out_bytes_per_event=out_bytes_per_event)


class FlatMapOperator(Operator):
    """One-to-many transformation: selectivity may exceed 1."""

    def __init__(
        self,
        name: str,
        cost_per_event_ms: float,
        selectivity: float,
        out_bytes_per_event: int = 100,
    ):
        super().__init__(name, cost_per_event_ms, selectivity=selectivity,
                         out_bytes_per_event=out_bytes_per_event)


class KeyByOperator(Operator):
    """Key-partitioning marker (Flink's ``keyBy``).

    Declares the key selector under which downstream keyed windows group
    their state. Routing itself is not simulated (per-key matching does
    not affect scheduling behaviour), so the operator is a zero-cost
    stateless pass-through by default — but its *presence* is what the
    plan validator checks for upstream of keyed windows (rule KP110),
    mirroring the SPE rule that a keyed window needs a keyed stream.
    """

    def __init__(
        self,
        name: str,
        key: str,
        cost_per_event_ms: float = 0.0,
        out_bytes_per_event: int = 100,
    ) -> None:
        if not key:
            raise ValueError("key selector must be a non-empty field name")
        super().__init__(name, cost_per_event_ms, selectivity=1.0,
                         out_bytes_per_event=out_bytes_per_event)
        self.key = key


class _WindowedOperatorBase(Operator):
    """Shared pane-state machinery for windowed aggregate and join."""

    CHECKPOINT = (
        ("window.panes", "_panes", SORTED_PAIRS),
        ("window.pane_ends", "_pane_ends", SORTED_PAIRS),
        ("window.pane_heap", "_pane_heap", HEAP),
        ("window.input_watermarks", "_input_watermarks", FLOATS),
        ("window.event_clock", "_event_clock", FLOAT),
    )

    def __init__(
        self,
        name: str,
        assigner: WindowAssigner,
        cost_per_event_ms: float,
        output_events_per_pane: float,
        state_bytes_per_event: int,
        out_bytes_per_event: int,
        incremental: bool,
        n_inputs: int,
        fire_cost_per_event_ms: float | None = None,
    ) -> None:
        super().__init__(
            name,
            cost_per_event_ms,
            selectivity=1.0,  # true selectivity emerges from pane firing
            out_bytes_per_event=out_bytes_per_event,
            n_inputs=n_inputs,
        )
        self.assigner = assigner
        self.output_events_per_pane = float(output_events_per_pane)
        self.state_bytes_per_event = int(state_bytes_per_event)
        self.incremental = bool(incremental)
        self.fire_cost_per_event_ms = (
            cost_per_event_ms if fire_cost_per_event_ms is None
            else fire_cost_per_event_ms
        )
        # pane start -> accumulated event count
        self._panes: Dict[float, float] = {}
        self._pane_ends: Dict[float, float] = {}
        # Memoized sum over _panes: the memory model and schedulers read
        # state_events several times per cycle; mutation sites clear the
        # memo, so a hit equals a fresh sum over the unchanged table.
        self._state_events_memo: Optional[float] = None  # klink: transient[memo over _panes, which is captured]
        # Min-heap of (deadline, pane start), kept in lockstep with
        # _pane_ends: pushed when a pane is first buffered, popped when it
        # fires. Gives O(log n) firing and O(1) next_deadline instead of
        # scanning + sorting the whole pane table on every watermark and
        # every scheduler collect. Heap order (end, then start) matches
        # the firing order of a per-watermark sort because a single
        # assigner's pane ends are monotone in their starts.
        self._pane_heap: List[Tuple[float, float]] = []
        # per-input last watermark (event-time clock per stream)
        self._input_watermarks: List[float] = [-math.inf] * n_inputs
        self._event_clock: float = -math.inf  # combined (min) watermark

    # -- state introspection ------------------------------------------------------

    @property
    def state_events(self) -> float:
        """Events currently buffered in window state."""
        memo = self._state_events_memo
        if memo is None:
            memo = self._state_events_memo = sum(self._panes.values())
        return memo

    def after_restore(self) -> None:
        """Drop the memoized pane mass after a restore rebuilt the pane
        table; the next ``state_events`` read re-sums ``_panes``."""
        self._state_events_memo = None  # klink: transient[memo over _panes, which is captured]

    @property
    def state_bytes(self) -> float:
        if self.incremental:
            # Online (partial) aggregation keeps one accumulator per pane
            # output, not the raw events.
            return (
                len(self._panes)
                * self.output_events_per_pane
                * self.state_bytes_per_event
            )
        return self.state_events * self.state_bytes_per_event

    @property
    def event_clock(self) -> float:
        """Current combined event-time clock (min over input watermarks)."""
        return self._event_clock

    def next_deadline(self, after: float) -> float:
        # Every buffered pane's end is > the event clock (due panes are
        # popped the moment the clock advances, late panes are never
        # buffered), so the heap head IS the earliest pending deadline.
        if self._pane_heap:
            return self._pane_heap[0][0]
        return self.assigner.next_deadline(max(after, self._event_clock, 0.0))

    def pending_pane_deadlines(self) -> List[float]:
        """Deadlines of panes buffered but not yet fired (sorted)."""
        return sorted(end for end, _ in self._pane_heap)

    # -- record handlers -----------------------------------------------------------

    def _on_row(
        self,
        rb: RecordBatch,
        index: int,
        count: float,
        input_index: int,
        now: float,
    ) -> None:
        clock = self._input_watermarks[input_index]
        t_end = rb.t_ends[index]
        if t_end <= clock:
            # Entirely late: every event precedes the stream's watermark.
            self.stats.late_events_dropped += count
            return
        t_start = rb.t_starts[index]
        if t_start < clock < t_end:
            # Partially late: drop the uniform mass before the watermark.
            keep = (t_end - clock) / (t_end - t_start)
            self.stats.late_events_dropped += count * (1.0 - keep)
            count *= keep
            t_start = clock
        panes = self._panes
        pane_ends = self._pane_ends
        event_clock = self._event_clock
        self._state_events_memo = None
        for p_start, p_end, pane_count in self.assigner.assign_range_raw(
            t_start, t_end, count
        ):
            if p_end <= event_clock:
                # Pane already fired; late contribution is dropped (Flink's
                # default allowed-lateness of zero).
                self.stats.late_events_dropped += pane_count
                continue
            panes[p_start] = panes.get(p_start, 0.0) + pane_count
            if p_start not in pane_ends:
                pane_ends[p_start] = p_end
                heapq.heappush(self._pane_heap, (p_end, p_start))

    def _on_watermark(self, wm: Watermark, input_index: int, now: float) -> None:
        if wm.timestamp <= self._input_watermarks[input_index]:
            # Out-of-order watermark: dropped (Flink's behaviour, Sec. 2.2).
            return
        wms = self._input_watermarks
        wms[input_index] = wm.timestamp
        # min() over one (or two) elements, inlined: single-input windowed
        # operators dominate, and ties resolve to the first element just
        # as the builtin does.
        if len(wms) == 1:
            combined = wms[0]
        elif len(wms) == 2:
            a, b = wms
            combined = a if a <= b else b
        else:
            combined = min(wms)
        if combined <= self._event_clock:
            return  # other inputs still hold the clock back; nothing fires
        self._event_clock = combined
        fired = self._fire_due_panes(combined, now)
        # Forward the watermark after any window output (invariant ii).
        # It is an SWM for downstream if it unblocked at least one pane here
        # or was already sweeping upstream.
        self._emit(
            Watermark(combined, source_id=0, is_swm=fired or wm.is_swm), now
        )

    def _fire_due_panes(self, up_to: float, now: float) -> bool:
        heap = self._pane_heap
        if not heap or heap[0][0] > up_to:
            return False
        self._state_events_memo = None
        lineage = self.lineage
        while heap and heap[0][0] <= up_to:
            end, start = heapq.heappop(heap)
            del self._pane_ends[start]
            buffered = self._panes.pop(start, 0.0)
            out_count = self._pane_output_count(buffered)
            self.stats.panes_fired += 1
            fire_cost = out_count * self.fire_cost_per_event_ms * self.cost_multiplier
            self.stats.busy_ms += fire_cost
            if out_count > 0:
                self._emit_row(
                    out_count, end, end, 0.0, self.out_bytes_per_event, now
                )
            if lineage is not None:
                lineage.on_pane_fire(self, end, out_count, now)
        return True

    def _pane_output_count(self, buffered: float) -> float:
        """Events emitted when a pane holding ``buffered`` events fires."""
        raise NotImplementedError


class WindowedAggregate(_WindowedOperatorBase):
    """Keyed windowed aggregation (e.g. per-campaign counts in YSB).

    Emits ``output_events_per_pane`` records per fired pane — one per
    distinct key/group — independent of how many raw events the pane held,
    which is what gives window operators their characteristically low
    selectivity at SWM ingestion (Sec. 3.4).

    A window emitting more than one record per pane is *keyed* (its
    outputs are per-key aggregates) and must declare its key selector:
    either pass ``key_by`` here or place a :class:`KeyByOperator`
    upstream — the plan validator rejects keyed windows with neither
    (rule KP110), the static analogue of Flink refusing a keyed window
    on an un-keyed stream.
    """

    def __init__(
        self,
        name: str,
        assigner: WindowAssigner,
        cost_per_event_ms: float,
        output_events_per_pane: float = 1.0,
        state_bytes_per_event: int = 100,
        out_bytes_per_event: int = 100,
        incremental: bool = True,
        key_by: Optional[str] = None,
    ):
        super().__init__(
            name,
            assigner,
            cost_per_event_ms,
            output_events_per_pane=output_events_per_pane,
            state_bytes_per_event=state_bytes_per_event,
            out_bytes_per_event=out_bytes_per_event,
            incremental=incremental,
            n_inputs=1,
        )
        self.key_by = key_by

    def _pane_output_count(self, buffered: float) -> float:
        return min(self.output_events_per_pane, buffered) if buffered else 0.0


class WindowedJoin(_WindowedOperatorBase):
    """Windowed join over ``n_inputs`` streams (Sec. 3.3).

    The operator unblocks a pane only once *every* input stream's watermark
    passes the pane deadline (the combined event clock is the minimum of
    the per-input watermarks). Join output per pane is modelled by
    ``join_selectivity`` — output events per buffered input event — since
    key-level matching does not affect scheduling behaviour.
    """

    def __init__(
        self,
        name: str,
        assigner: WindowAssigner,
        cost_per_event_ms: float,
        n_inputs: int = 2,
        join_selectivity: float = 0.1,
        state_bytes_per_event: int = 100,
        out_bytes_per_event: int = 100,
    ):
        if n_inputs < 2:
            raise ValueError(f"join needs >= 2 inputs: {n_inputs}")
        super().__init__(
            name,
            assigner,
            cost_per_event_ms,
            output_events_per_pane=0.0,  # output scales with input instead
            state_bytes_per_event=state_bytes_per_event,
            out_bytes_per_event=out_bytes_per_event,
            incremental=False,  # joins buffer raw events until the pane fires
            n_inputs=n_inputs,
        )
        self.join_selectivity = float(join_selectivity)

    def _pane_output_count(self, buffered: float) -> float:
        return buffered * self.join_selectivity

    def input_watermark(self, input_index: int) -> float:
        """Last watermark seen on one input (used by Klink's join slack)."""
        return self._input_watermarks[input_index]


class CountWindowedAggregate(Operator):
    """Count-based windowed aggregation (Sec. 2.1's count-based windows).

    A count-based window function closes a window after ``size`` events:
    the deadline is the arrival of the ``size``-th event rather than an
    event-time instant, so watermarks play no role in unblocking it and
    Klink's SWM machinery treats such queries as deadline-free (they are
    scheduled after deadline-bearing queries, which is correct: their
    output is never "due" at a wall-clock point).

    Windows tumble by count: events are accumulated until ``size`` is
    reached, then ``output_events_per_window`` records are emitted.
    Fractional batch mass carries over exactly.
    """

    CHECKPOINT = (
        ("count_window.accumulated", "_accumulated", FLOAT),
        ("count_window.windows_fired", "windows_fired", INT),
    )

    def __init__(
        self,
        name: str,
        size: int,
        cost_per_event_ms: float,
        output_events_per_window: float = 1.0,
        state_bytes_per_event: int = 100,
        out_bytes_per_event: int = 100,
        incremental: bool = True,
    ) -> None:
        if size <= 0:
            raise ValueError(f"count window size must be positive: {size}")
        super().__init__(name, cost_per_event_ms, selectivity=1.0,
                         out_bytes_per_event=out_bytes_per_event)
        self.size = int(size)
        self.output_events_per_window = float(output_events_per_window)
        self.state_bytes_per_event = int(state_bytes_per_event)
        self.incremental = bool(incremental)
        self._accumulated = 0.0
        self.windows_fired = 0

    @property
    def state_events(self) -> float:
        return self._accumulated

    @property
    def state_bytes(self) -> float:
        if self.incremental:
            return self.output_events_per_window * self.state_bytes_per_event
        return self._accumulated * self.state_bytes_per_event

    def _on_row(
        self,
        rb: RecordBatch,
        index: int,
        count: float,
        input_index: int,
        now: float,
    ) -> None:
        self._accumulate(count, rb.t_ends[index], now)

    def _accumulate(self, count: float, last_t: float, now: float) -> None:
        self._accumulated += count
        while self._accumulated >= self.size:
            self._accumulated -= self.size
            self.windows_fired += 1
            if self.output_events_per_window > 0:
                self._emit_row(
                    self.output_events_per_window, last_t, last_t, 0.0,
                    self.out_bytes_per_event, now,
                )

    def _on_watermark(self, wm: Watermark, input_index: int, now: float) -> None:
        # Count windows are watermark-agnostic: forward progress untouched.
        self._emit(wm, now)


class SinkOperator(Operator):
    """Terminal (output) operator recording output latencies.

    Latency of the stream is the propagation delay of SWMs: for each SWM
    reaching the sink, ``now - swm.timestamp`` (Sec. 6.1.2). Latency
    markers record source-to-sink propagation of individual probes. Both
    ledgers hold ``(at, latency)`` rows: the engine time of delivery and
    the propagation delay.
    """

    CHECKPOINT = (
        ("sink.swm_latencies", "swm_latencies", LEDGER),
        ("sink.marker_latencies", "marker_latencies", LEDGER),
        ("sink.events_delivered", "events_delivered", FLOAT),
    )

    def __init__(self, name: str, cost_per_event_ms: float = 0.0):
        super().__init__(name, cost_per_event_ms, selectivity=1.0)
        self.swm_latencies = ColumnLedger(("at", "latency"))
        self.marker_latencies = ColumnLedger(("at", "latency"))
        self.events_delivered: float = 0.0

    def _on_row(
        self,
        rb: RecordBatch,
        index: int,
        count: float,
        input_index: int,
        now: float,
    ) -> None:
        self.events_delivered += count

    def _on_watermark(self, wm: Watermark, input_index: int, now: float) -> None:
        if wm.is_swm:
            self.swm_latencies.append(now, now - wm.timestamp)

    def _dispatch(self, record, channel, budget_ms, now):
        if isinstance(record, LatencyMarker):
            cost = min(self.cost_per_event_ms, budget_ms)
            self.marker_latencies.append(now, now - record.created_at)
            self.stats.busy_ms += cost
            return cost
        return super()._dispatch(record, channel, budget_ms, now)
