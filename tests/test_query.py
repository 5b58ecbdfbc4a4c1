"""Unit tests for Query construction, validation, and scheduler-facing
aggregates (costs, deadlines, memory)."""

import math

import pytest

from repro.net.delays import ConstantDelay
from repro.spe.operators import (
    FilterOperator,
    MapOperator,
    SinkOperator,
    WindowedAggregate,
)
from repro.spe.query import Query, SourceBinding, SourceSpec, chain
from repro.spe.windows import TumblingEventTimeWindows

from tests.helpers import make_join_query, make_simple_query


def _spec(name="s", rate=1000.0):
    model = ConstantDelay(0.0)
    return SourceSpec(
        name=name,
        rate_eps=rate,
        watermark_period_ms=500.0,
        lateness_ms=0.0,
        delay_model=model,
    )


class TestConstructionValidation:
    def test_requires_at_least_one_source(self):
        sink = SinkOperator("s")
        with pytest.raises(ValueError):
            Query("q", [], [sink], sink)

    def test_sink_must_be_last(self):
        m = MapOperator("m", 0.01)
        sink = SinkOperator("s")
        m.connect(sink)
        with pytest.raises(ValueError):
            Query("q", [SourceBinding(_spec(), m)], [sink, m], sink)

    def test_sink_must_be_included(self):
        m = MapOperator("m", 0.01)
        sink = SinkOperator("s")
        m.connect(sink)
        with pytest.raises(ValueError):
            Query("q", [SourceBinding(_spec(), m)], [m], sink)

    def test_unwired_operator_rejected(self):
        m = MapOperator("m", 0.01)  # no output
        sink = SinkOperator("s")
        with pytest.raises(ValueError):
            Query("q", [SourceBinding(_spec(), m)], [m, sink], sink)

    def test_rejects_negative_deployment_time(self):
        with pytest.raises(ValueError):
            make_simple_query(deployed_at=-1.0)

    def test_chain_wires_linearly(self):
        a, b, c = MapOperator("a", 0.01), MapOperator("b", 0.01), SinkOperator("c")
        ops = chain(a, b, c)
        assert ops == [a, b, c]
        assert a.output is b.inputs[0]
        assert b.output is c.inputs[0]


class TestTopology:
    def test_downstream_of(self, simple_query):
        filt, window, sink = simple_query.operators
        assert simple_query.downstream_of(filt) is window
        assert simple_query.downstream_of(window) is sink
        assert simple_query.downstream_of(sink) is None

    def test_windowed_operators_found(self, simple_query):
        assert len(simple_query.windowed_operators()) == 1

    def test_join_operators_found(self, join_query):
        assert len(join_query.join_operators()) == 1
        assert len(join_query.windowed_operators()) == 1

    def test_progress_bound_to_first_window_downstream(self, simple_query):
        for binding in simple_query.bindings:
            assert binding.progress is not None
            assert binding.progress.assigner is simple_query.windowed_operators()[0].assigner


class TestAggregates:
    def test_queued_events_sum_over_operators(self, simple_query):
        filt = simple_query.operators[0]
        from repro.spe.events import EventBatch

        filt.inputs[0].push(EventBatch(count=10, t_start=0, t_end=1), 0.0)
        assert simple_query.queued_events == 10

    def test_memory_includes_state(self, simple_query):
        from repro.spe.events import EventBatch

        window = simple_query.windowed_operators()[0]
        window.inputs[0].push(EventBatch(count=10, t_start=0, t_end=1), 0.0)
        window.step(1e9, 0.0)
        assert simple_query.state_bytes > 0
        assert simple_query.memory_bytes >= simple_query.state_bytes

    def test_unit_costs_fold_selectivity(self):
        q = make_simple_query(cost_ms=1.0, selectivity=0.5)
        filt, window, sink = q.operators
        unit = dict(zip(q.operators, q.unit_cost_list()))
        # sink: 0 cost; window: 1.0 + sel*0 (window declared sel 1.0,
        # unmeasured); filter: 1.0 + 0.5 * unit(window)
        assert unit[sink] == pytest.approx(sink.cost_per_event_ms)
        assert unit[filt] == pytest.approx(1.0 + 0.5 * unit[window])

    def test_pending_cost_scales_with_queue(self):
        q = make_simple_query(cost_ms=1.0)
        from repro.spe.events import EventBatch

        filt = q.operators[0]
        assert q.pending_cost_ms() == 0.0
        filt.inputs[0].push(EventBatch(count=10, t_start=0, t_end=1), 0.0)
        assert q.pending_cost_ms() > 10.0 * 0.99  # at least the first hop

    def test_pipeline_cost_per_event(self):
        q = make_simple_query(cost_ms=1.0)
        assert q.pipeline_cost_per_event_ms() == pytest.approx(
            sum(op.cost_per_event_ms for op in q.operators)
        )

    def test_next_window_deadline(self, simple_query):
        assert simple_query.next_window_deadline() == 1000.0

    def test_next_window_deadline_without_windows_is_inf(self):
        m = MapOperator("m", 0.01)
        sink = SinkOperator("s")
        m.connect(sink)
        q = Query("q", [SourceBinding(_spec(), m)], [m, sink], sink)
        assert q.next_window_deadline() == math.inf

    def test_oldest_queued_arrival(self, simple_query):
        from repro.spe.events import EventBatch

        assert simple_query.oldest_queued_arrival() is None
        filt, window, _ = simple_query.operators
        window.inputs[0].push(EventBatch(count=1, t_start=0, t_end=1), 5.0)
        filt.inputs[0].push(EventBatch(count=1, t_start=0, t_end=1), 9.0)
        assert simple_query.oldest_queued_arrival() == 5.0


class TestDeploymentStaggering:
    def test_window_offset_follows_deployment(self):
        q = make_simple_query(deployed_at=700.0, window_ms=1000.0)
        assigner = q.windowed_operators()[0].assigner
        assert assigner.offset == 700.0

    def test_progress_initial_deadline_respects_deployment(self):
        q = make_simple_query(deployed_at=700.0, window_ms=1000.0)
        assert q.bindings[0].progress.next_deadline == 1700.0
