"""Unit tests for operator chaining (fusion)."""

import pytest

from repro.spe.chaining import FusedOperator, fuse_stateless, fusible_runs, is_stateless
from repro.spe.events import EventBatch
from repro.spe.operators import (
    FilterOperator,
    MapOperator,
    SinkOperator,
    WindowedAggregate,
)
from repro.spe.reorder import ReorderBuffer
from repro.spe.windows import TumblingEventTimeWindows
from tests.helpers import make_simple_query


class TestIsStateless:
    def test_map_and_filter_are_stateless(self):
        assert is_stateless(MapOperator("m", 0.01))
        assert is_stateless(FilterOperator("f", 0.01, 0.5))

    def test_window_sink_reorder_are_stateful(self):
        w = WindowedAggregate("w", TumblingEventTimeWindows(100.0), 0.01)
        assert not is_stateless(w)
        assert not is_stateless(SinkOperator("s"))
        assert not is_stateless(ReorderBuffer("rb"))


class TestFusion:
    def test_fused_cost_discounts_by_selectivity(self):
        f = FilterOperator("f", 1.0, selectivity=0.5)
        m = MapOperator("m", 1.0)
        fused = fuse_stateless([f, m])
        # Cost per incoming event: 1.0 (filter) + 0.5 * 1.0 (map on
        # survivors).
        assert fused.cost_per_event_ms == pytest.approx(1.5)
        assert fused.selectivity == pytest.approx(0.5)

    def test_fused_output_bytes_from_last_member(self):
        f = FilterOperator("f", 0.01, 0.5, out_bytes_per_event=200)
        m = MapOperator("m", 0.01, out_bytes_per_event=64)
        assert fuse_stateless([f, m]).out_bytes_per_event == 64

    def test_fused_processes_like_the_chain(self):
        f = FilterOperator("f", 0.01, selectivity=0.5)
        m = MapOperator("m", 0.01)
        fused = fuse_stateless([f, m])
        sink = SinkOperator("s")
        fused.connect(sink)
        fused.inputs[0].push(EventBatch(count=100, t_start=0, t_end=1), 0.0)
        fused.step(1e9, 0.0)
        assert sink.inputs[0].queued_events == pytest.approx(50.0)

    def test_fused_operator_carries_a_partial_row_across_steps(self):
        fused = fuse_stateless(
            [FilterOperator("f", 0.01, selectivity=0.5), MapOperator("m", 0.01)]
        )
        sink = SinkOperator("s")
        fused.connect(sink)
        for channel in (fused.inputs[0], sink.inputs[0]):
            channel.batch_size = 64
        for i in range(4):
            fused.inputs[0].push(
                EventBatch(count=100, t_start=float(i), t_end=i + 1.0, delay=0.5),
                float(i),
            )
        # 1.5 ms per 100-event row: the first step ends mid-row, whose
        # unpaid third is returned to the queue as its new head row
        src = fused.inputs[0]
        assert fused.step(2.5, 10.0) == 2.5
        assert (src.queued_events, src.events_popped, src.events_returned) == (
            233.33333333333334, 200.0, 33.333333333333336
        )
        assert src.head_arrival == 1.0
        assert fused.step(1e9, 11.0) == 3.5
        assert (src.queued_events, len(src)) == (0.0, 0)
        # the rows and stats the per-row handler produced for this case
        out = sink.inputs[0]
        assert len(out) == 1
        rb = out.peek().record
        assert list(
            zip(rb.counts, rb.t_starts, rb.t_ends, rb.delays, rb.enqueued_ats)
        ) == [
            (50.0, 0.0, 1.0, 0.5, 10.0),
            (33.33333333333333, 1.0, 2.0, 0.5, 10.0),
            (16.666666666666668, 1.0, 2.0, 0.5, 11.0),
            (50.0, 2.0, 3.0, 0.5, 11.0),
            (50.0, 3.0, 4.0, 0.5, 11.0),
        ]
        stats = fused.stats
        assert (stats.events_in, stats.events_out, stats.busy_ms) == (
            400.0, 200.0, 6.0
        )
        assert (out.queued_events, out.queued_bytes, out.events_pushed) == (
            200.0, 20000.0, 200.0
        )

    def test_fusing_stateful_rejected(self):
        w = WindowedAggregate("w", TumblingEventTimeWindows(100.0), 0.01)
        with pytest.raises(ValueError):
            fuse_stateless([MapOperator("m", 0.01), w])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            fuse_stateless([])

    def test_default_name_joins_members(self):
        f = FilterOperator("q.f", 0.01, 0.5)
        m = MapOperator("q.m", 0.01)
        assert fuse_stateless([f, m]).name == "q.f+q.m"


class TestFusibleRuns:
    def test_finds_stateless_run_in_pipeline(self):
        q = make_simple_query()  # filter -> window -> sink
        assert fusible_runs(q.operators) == []  # single stateless op only

    def test_long_stateless_chain_detected(self):
        ops = [
            MapOperator("a", 0.01),
            FilterOperator("b", 0.01, 0.9),
            MapOperator("c", 0.01),
            WindowedAggregate("w", TumblingEventTimeWindows(100.0), 0.01),
            SinkOperator("s"),
        ]
        runs = fusible_runs(ops)
        assert len(runs) == 1
        assert [op.name for op in runs[0]] == ["a", "b", "c"]

    def test_stateful_breaks_runs(self):
        ops = [
            MapOperator("a", 0.01),
            MapOperator("b", 0.01),
            WindowedAggregate("w", TumblingEventTimeWindows(100.0), 0.01),
            MapOperator("c", 0.01),
            MapOperator("d", 0.01),
            SinkOperator("s"),
        ]
        runs = fusible_runs(ops)
        assert len(runs) == 2
        assert [op.name for op in runs[1]] == ["c", "d"]
