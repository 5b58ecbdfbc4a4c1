"""Unit tests for stream operators: cost accounting, selectivity, window
firing, SWM flagging, join unblocking, and late-event handling."""

import math

import pytest

from repro.spe.events import EventBatch, LatencyMarker, RecordBatch, Watermark
from repro.spe.operators import (
    FilterOperator,
    FlatMapOperator,
    MapOperator,
    SinkOperator,
    WindowedAggregate,
    WindowedJoin,
)
from repro.spe.windows import SlidingEventTimeWindows, TumblingEventTimeWindows


def feed(op, record, now=0.0, input_index=0):
    op.inputs[input_index].push(record, now)


def drain(op, budget=1e9, now=0.0):
    return op.step(budget, now)


def batch(count=10, t0=0.0, t1=100.0, delay=0.0):
    return EventBatch(count=count, t_start=t0, t_end=t1, delay=delay)


class TestStatelessOperators:
    def test_map_preserves_count(self):
        m = MapOperator("m", 0.01)
        sink = SinkOperator("s")
        m.connect(sink)
        feed(m, batch(count=10))
        drain(m)
        assert sink.inputs[0].queued_events == 10

    def test_filter_applies_selectivity(self):
        f = FilterOperator("f", 0.01, selectivity=0.25)
        sink = SinkOperator("s")
        f.connect(sink)
        feed(f, batch(count=100))
        drain(f)
        assert sink.inputs[0].queued_events == pytest.approx(25)

    def test_filter_rejects_expanding_selectivity(self):
        with pytest.raises(ValueError):
            FilterOperator("f", 0.01, selectivity=1.5)

    def test_flatmap_can_expand(self):
        fm = FlatMapOperator("fm", 0.01, selectivity=3.0)
        sink = SinkOperator("s")
        fm.connect(sink)
        feed(fm, batch(count=10))
        drain(fm)
        assert sink.inputs[0].queued_events == pytest.approx(30)

    def test_cost_charged_per_event(self):
        m = MapOperator("m", 0.5)
        feed(m, batch(count=10))
        used = drain(m)
        assert used == pytest.approx(5.0)
        assert m.stats.busy_ms == pytest.approx(5.0)

    def test_budget_splits_batch(self):
        m = MapOperator("m", 1.0)  # 1 ms per event
        sink = SinkOperator("s")
        m.connect(sink)
        feed(m, batch(count=10))
        used = m.step(4.0, now=0.0)
        assert used == pytest.approx(4.0)
        assert sink.inputs[0].queued_events == pytest.approx(4)
        assert m.queued_events == pytest.approx(6)  # remainder requeued

    def test_zero_cost_operator_processes_everything(self):
        m = MapOperator("m", 0.0)
        feed(m, batch(count=1000))
        used = m.step(0.001, now=0.0)
        assert m.queued_events == 0
        assert used == 0.0

    def test_measured_selectivity_converges(self):
        f = FilterOperator("f", 0.01, selectivity=0.5)
        feed(f, batch(count=100))
        drain(f)
        assert f.stats.measured_selectivity == pytest.approx(0.5)

    def test_watermark_forwarded_by_stateless(self):
        m = MapOperator("m", 0.01)
        sink = SinkOperator("s")
        m.connect(sink)
        feed(m, Watermark(42.0))
        drain(m)
        entry = sink.inputs[0].pop()
        assert isinstance(entry.record, Watermark)
        assert entry.record.timestamp == 42.0

    def test_latency_marker_forwarded(self):
        m = MapOperator("m", 0.01)
        sink = SinkOperator("s")
        m.connect(sink)
        feed(m, LatencyMarker(created_at=5.0))
        drain(m)
        assert isinstance(sink.inputs[0].pop().record, LatencyMarker)


class TestWindowedAggregate:
    def make(self, size=1000.0, outputs=5.0, incremental=True):
        w = WindowedAggregate(
            "w",
            TumblingEventTimeWindows(size),
            cost_per_event_ms=0.01,
            output_events_per_pane=outputs,
            state_bytes_per_event=100,
            incremental=incremental,
        )
        sink = SinkOperator("s")
        w.connect(sink)
        return w, sink

    def test_events_buffer_until_watermark(self):
        w, sink = self.make()
        feed(w, batch(count=10, t0=0, t1=900))
        drain(w)
        assert sink.inputs[0].queued_events == 0
        assert w.state_events == pytest.approx(10)

    def test_watermark_fires_due_pane(self):
        w, sink = self.make(outputs=5.0)
        feed(w, batch(count=10, t0=0, t1=900))
        feed(w, Watermark(1000.0))
        drain(w)
        assert sink.inputs[0].queued_events == pytest.approx(5.0)
        assert w.state_events == 0
        assert w.stats.panes_fired == 1

    def test_firing_watermark_is_flagged_swm(self):
        w, sink = self.make()
        feed(w, batch(count=10, t0=0, t1=900))
        feed(w, Watermark(1000.0))
        drain(w)
        records = [sink.inputs[0].pop().record for _ in range(2)]
        assert isinstance(records[0], RecordBatch)  # output precedes SWM
        assert isinstance(records[1], Watermark) and records[1].is_swm

    def test_nonfiring_watermark_not_swm(self):
        w, sink = self.make()
        feed(w, Watermark(500.0))  # mid-pane, no deadline covered
        drain(w)
        record = sink.inputs[0].pop().record
        assert isinstance(record, Watermark) and not record.is_swm

    def test_upstream_swm_flag_propagates(self):
        w, sink = self.make()
        feed(w, Watermark(500.0, is_swm=True))
        drain(w)
        assert sink.inputs[0].pop().record.is_swm

    def test_watermark_fires_multiple_due_panes(self):
        w, sink = self.make(outputs=1.0)
        feed(w, batch(count=10, t0=0, t1=2900))
        feed(w, Watermark(3000.0))
        drain(w)
        assert w.stats.panes_fired == 3

    def test_out_of_order_watermark_dropped(self):
        w, sink = self.make()
        feed(w, Watermark(1000.0))
        feed(w, Watermark(500.0))  # regression: dropped
        drain(w)
        wms = [
            e.record
            for e in list(sink.inputs[0])
            if isinstance(e.record, Watermark)
        ]
        assert [wm.timestamp for wm in wms] == [1000.0]

    def test_late_batch_dropped_and_counted(self):
        w, sink = self.make()
        feed(w, Watermark(1000.0))
        feed(w, batch(count=10, t0=0, t1=900))  # entirely before the wm
        drain(w)
        assert w.stats.late_events_dropped == pytest.approx(10)
        assert w.state_events == 0

    def test_partially_late_batch_keeps_fresh_mass(self):
        w, sink = self.make()
        feed(w, Watermark(1000.0))
        feed(w, batch(count=10, t0=500, t1=1500))
        drain(w)
        assert w.stats.late_events_dropped == pytest.approx(5.0)
        assert w.state_events == pytest.approx(5.0)

    def test_pane_output_capped_by_buffered_events(self):
        w, sink = self.make(outputs=100.0)
        feed(w, batch(count=3, t0=0, t1=900))
        feed(w, Watermark(1000.0))
        drain(w)
        assert sink.inputs[0].queued_events == pytest.approx(3.0)

    def test_empty_pane_emits_nothing_but_swm_not_flagged(self):
        w, sink = self.make()
        feed(w, Watermark(1000.0))  # no events buffered, nothing pending
        drain(w)
        record = sink.inputs[0].pop().record
        assert isinstance(record, Watermark)
        assert not record.is_swm

    def test_incremental_state_is_compact(self):
        w_inc, _ = self.make(incremental=True)
        w_raw, _ = self.make(incremental=False)
        for w in (w_inc, w_raw):
            feed(w, batch(count=1000, t0=0, t1=900))
            drain(w)
        assert w_inc.state_bytes < w_raw.state_bytes

    def test_next_deadline_tracks_pending_panes(self):
        w, _ = self.make()
        feed(w, batch(count=1, t0=0, t1=10))
        drain(w)
        assert w.next_deadline(0.0) == 1000.0


class TestWindowedJoin:
    def make(self, n_inputs=2, size=1000.0, slide=None, selectivity=0.1):
        j = WindowedJoin(
            "j",
            SlidingEventTimeWindows(size, slide),
            cost_per_event_ms=0.01,
            n_inputs=n_inputs,
            join_selectivity=selectivity,
        )
        sink = SinkOperator("s")
        j.connect(sink)
        return j, sink

    def test_rejects_single_input(self):
        with pytest.raises(ValueError):
            WindowedJoin(
                "j", TumblingEventTimeWindows(100.0), 0.01, n_inputs=1
            )

    def test_single_stream_watermark_does_not_unblock(self):
        j, sink = self.make()
        feed(j, batch(count=10, t0=0, t1=900), input_index=0)
        feed(j, Watermark(1000.0, source_id=0), input_index=0)
        drain(j)
        assert j.stats.panes_fired == 0
        assert sink.inputs[0].queued_events == 0

    def test_min_watermark_unblocks(self):
        j, sink = self.make(selectivity=0.5)
        feed(j, batch(count=10, t0=0, t1=900), input_index=0)
        feed(j, batch(count=10, t0=0, t1=900), input_index=1)
        feed(j, Watermark(1000.0, source_id=0), input_index=0)
        feed(j, Watermark(1000.0, source_id=1), input_index=1)
        drain(j)
        assert j.stats.panes_fired == 1
        assert sink.inputs[0].queued_events == pytest.approx(10.0)  # 20 * 0.5

    def test_combined_clock_is_minimum(self):
        j, _ = self.make()
        feed(j, Watermark(2000.0), input_index=0)
        feed(j, Watermark(500.0), input_index=1)
        drain(j)
        assert j.event_clock == 500.0

    def test_lagging_stream_holds_later_windows(self):
        # Fig. 4's scenario: top stream sweeps deadline 3, bottom only 2.
        j, _ = self.make(size=1000.0, slide=1000.0)
        feed(j, Watermark(3000.0), input_index=0)
        feed(j, Watermark(2000.0), input_index=1)
        drain(j)
        assert j.event_clock == 2000.0
        feed(j, Watermark(3000.0), input_index=1)
        drain(j)
        assert j.event_clock == 3000.0

    def test_join_buffers_raw_state(self):
        j, _ = self.make()
        feed(j, batch(count=100, t0=0, t1=900), input_index=0)
        drain(j)
        assert j.state_bytes == pytest.approx(100 * j.state_bytes_per_event)

    def test_input_watermark_accessor(self):
        j, _ = self.make()
        feed(j, Watermark(700.0), input_index=1)
        drain(j)
        assert j.input_watermark(1) == 700.0
        assert j.input_watermark(0) == -math.inf


class TestSink:
    def test_records_swm_latency(self):
        sink = SinkOperator("s")
        feed(sink, Watermark(1000.0, is_swm=True), now=1500.0)
        sink.step(1.0, now=1500.0)
        assert list(sink.swm_latencies) == [(1500.0, 500.0)]
        assert list(sink.swm_latencies.latency) == [500.0]

    def test_ignores_non_swm_watermarks(self):
        sink = SinkOperator("s")
        feed(sink, Watermark(1000.0), now=1500.0)
        sink.step(1.0, now=1500.0)
        assert len(sink.swm_latencies) == 0

    def test_records_marker_latency(self):
        sink = SinkOperator("s")
        feed(sink, LatencyMarker(created_at=100.0), now=350.0)
        sink.step(1.0, now=350.0)
        assert list(sink.marker_latencies) == [(350.0, 250.0)]

    def test_counts_delivered_events(self):
        sink = SinkOperator("s")
        feed(sink, batch(count=7))
        sink.step(1.0, now=0.0)
        assert sink.events_delivered == 7


class TestMultiInputFairness:
    def test_round_robin_across_inputs(self):
        j = WindowedJoin(
            "j", TumblingEventTimeWindows(1000.0), 1.0, n_inputs=2
        )
        feed(j, batch(count=100, t0=0, t1=900), input_index=0)
        feed(j, batch(count=100, t0=0, t1=900), input_index=1)
        j.step(10.0, now=0.0)  # budget for ~10 events total
        # Both inputs made progress.
        assert j.inputs[0].queued_events < 100
        assert j.inputs[1].queued_events < 100
