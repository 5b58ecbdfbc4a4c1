"""Regression tests for the engine hot paths.

Two scheduler-facing reads used to be O(state) per call: a windowed
operator's ``next_deadline`` rebuilt and scanned the whole pane table,
and ``queued_events``/``queued_bytes`` re-summed every input channel on
every read. Both are called several times per operator per scheduling
cycle. These tests pin the optimized behaviour: deadline reads peek a
maintained min-heap without touching the pane dictionaries, and queue
aggregates are memoized until a channel actually mutates — while staying
observably identical to the naive computation.
"""

import math

import pytest

from repro.spe.events import EventBatch, RecordBatch, Watermark
from repro.spe.operators import MapOperator, SinkOperator, WindowedAggregate
from repro.spe.windows import TumblingEventTimeWindows


class GuardDict(dict):
    """A dict that forbids whole-table scans but allows point access."""

    def _scan(self, *args, **kwargs):
        raise AssertionError(
            "O(n) scan of the pane table on a hot path"
        )

    __iter__ = _scan
    keys = _scan
    values = _scan
    items = _scan
    copy = _scan


def on_row(op, count, t_start, t_end):
    """Hand ``op`` one payload row on input 0, as a drain would."""
    rb = RecordBatch(100, count, t_start, t_end, 0.0, 0.0)
    op._on_row(rb, 0, count, 0, 0.0)


def windowed(n_panes=200, size_ms=100.0):
    """A windowed aggregate with ``n_panes`` buffered panes."""
    op = WindowedAggregate(
        "w", TumblingEventTimeWindows(size_ms), cost_per_event_ms=0.0
    )
    op.connect(SinkOperator("s"))
    span = n_panes * size_ms
    on_row(op, float(n_panes), 0.0, span)
    assert len(op._pane_ends) == n_panes
    return op


class TestNextDeadlineIsO1:
    def test_deadline_reads_never_scan_the_pane_table(self):
        op = windowed()
        # From here on, any whole-table iteration over the pane dicts
        # (what the pre-heap implementation did per call) fails loudly.
        op._panes = GuardDict(op._panes)
        op._pane_ends = GuardDict(op._pane_ends)
        first = op.next_deadline(0.0)
        assert first == 100.0
        for _ in range(50):
            assert op.next_deadline(0.0) == first
        assert len(op._pane_heap) == 200  # peeked, not popped

    def test_deadline_tracks_firing(self):
        op = windowed(n_panes=10)
        op._on_watermark(Watermark(450.0, source_id=0), 0, 0.0)
        assert op.next_deadline(0.0) == 500.0
        assert op.stats.panes_fired == 4  # ends 100..400

    def test_heap_and_pane_table_stay_lockstep(self):
        op = windowed(n_panes=20)
        op._on_watermark(Watermark(777.0, source_id=0), 0, 0.0)
        assert len(op._pane_heap) == len(op._pane_ends)
        assert {s for _, s in op._pane_heap} == set(op._pane_ends)
        for end, start in op._pane_heap:
            assert op._pane_ends[start] == end
            assert end > 777.0  # every due pane was popped

    def test_pending_deadlines_sorted_and_complete(self):
        op = windowed(n_panes=5)
        pending = op.pending_pane_deadlines()
        assert pending == sorted(pending)
        assert pending == [100.0, 200.0, 300.0, 400.0, 500.0]

    def test_empty_operator_falls_back_to_assigner(self):
        op = WindowedAggregate(
            "w", TumblingEventTimeWindows(100.0), cost_per_event_ms=0.0
        )
        assert op.next_deadline(250.0) == 300.0

    def test_late_pane_not_reinserted(self):
        op = windowed(n_panes=4)
        op._on_watermark(Watermark(250.0, source_id=0), 0, 0.0)
        heap_len = len(op._pane_heap)
        # Entirely-late batch: dropped, never re-buffered into the heap.
        on_row(op, 5.0, 0.0, 200.0)
        assert len(op._pane_heap) == heap_len
        assert op.stats.late_events_dropped == 5.0


class TestQueueMemoization:
    def test_matches_direct_sum_after_each_mutation(self):
        op = MapOperator("m", 0.01)

        def direct_events():
            return sum(ch.queued_events for ch in op.inputs)

        def direct_bytes():
            return sum(ch.queued_bytes for ch in op.inputs)

        assert op.queued_events == direct_events() == 0.0
        op.inputs[0].push(EventBatch(count=10, t_start=0.0, t_end=1.0), 0.0)
        assert op.queued_events == direct_events() == 10.0
        assert op.queued_bytes == direct_bytes() > 0.0
        op.inputs[0].push(EventBatch(count=5, t_start=1.0, t_end=2.0), 0.0)
        assert op.queued_events == direct_events() == 15.0
        op.inputs[0].pop()
        assert op.queued_events == direct_events() == 5.0
        op.inputs[0].clear()
        assert op.queued_events == direct_events() == 0.0
        assert op.queued_bytes == direct_bytes() == 0.0

    def test_latency_release_invalidates(self):
        op = MapOperator("m", 0.01)
        channel = op.inputs[0]
        channel.latency_ms = 50.0
        channel.push(EventBatch(count=8, t_start=0.0, t_end=1.0), 0.0)
        # Still in flight: the memo must reflect the empty ready queue.
        assert op.queued_events == 0.0
        channel.release(60.0)
        assert op.queued_events == 8.0

    def test_push_front_invalidates(self):
        op = MapOperator("m", 0.01)
        op.inputs[0].push(EventBatch(count=3, t_start=0.0, t_end=1.0), 0.0)
        assert op.queued_events == 3.0
        returned = RecordBatch(100, 2.0, 0.0, 1.0, 0.0, 0.0)
        op.inputs[0].push_front(returned, 0.0)
        assert op.queued_events == 5.0

    def test_watermarks_do_not_count_as_events(self):
        op = MapOperator("m", 0.01)
        op.inputs[0].push(Watermark(100.0, source_id=0), 0.0)
        assert op.queued_events == 0.0
        assert op.has_work()

    def test_step_consumption_updates_memo(self):
        op = MapOperator("m", 1.0)
        op.connect(SinkOperator("s"))
        op.inputs[0].push(EventBatch(count=10, t_start=0.0, t_end=1.0), 0.0)
        assert op.queued_events == 10.0
        op.step(4.0, now=0.0)  # budget for 4 of the 10 events
        assert op.queued_events == pytest.approx(6.0)

    def test_memo_reused_between_mutations(self):
        op = MapOperator("m", 0.01)
        op.inputs[0].push(EventBatch(count=7, t_start=0.0, t_end=1.0), 0.0)
        assert op.queued_events == 7.0
        assert not op._queues_dirty
        # A clean read must not re-mark the operator dirty.
        assert op.queued_bytes >= 0.0
        assert not op._queues_dirty
        op.inputs[0].pop()
        assert op._queues_dirty


class TestWindowedStateUnchanged:
    """The heap is an index, not a semantic change: state introspection
    still reports exactly what the pane table holds."""

    def test_state_events_and_bytes(self):
        op = windowed(n_panes=10)
        assert op.state_events == pytest.approx(10.0)
        assert op.state_bytes > 0.0

    def test_fire_emits_into_output(self):
        op = windowed(n_panes=10)
        sink_channel = op.output
        op._on_watermark(Watermark(1050.0, source_id=0), 0, 0.0)
        assert op.stats.panes_fired == 10
        assert sink_channel.queued_events > 0.0
        assert math.isinf(op.next_deadline(0.0)) is False
