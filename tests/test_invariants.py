"""System-level invariants checked over full engine runs.

These complement the per-module property tests: after arbitrary
scheduling, every event the sources handed to the engine must be
accounted for somewhere (conservation), watermarks must reach sinks in
monotonically increasing order, and window outputs must respect the
SWM-ordering invariants of Sec. 2.2.
"""

import math

import pytest

from repro.core.baselines import DefaultScheduler, FCFSScheduler
from repro.core.klink import KlinkScheduler
from repro.spe.engine import Engine
from repro.spe.events import EventBatch, Watermark
from repro.spe.memory import MemoryConfig
from repro.spe.operators import SinkOperator
from tests.helpers import make_join_query, make_simple_query


def run_engine(queries, scheduler, duration=20_000.0, **kw):
    engine = Engine(queries, scheduler, cores=4, cycle_ms=100.0, **kw)
    return engine, engine.run(duration)


SCHEDULERS = [DefaultScheduler, FCFSScheduler, KlinkScheduler]


class TestEventConservation:
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_ingested_events_fully_accounted(self, scheduler_cls):
        """ingested = consumed by first operator + still queued there."""
        q = make_simple_query(rate_eps=2000.0, burst_factor=2.0)
        engine, metrics = run_engine([q], scheduler_cls())
        first = q.operators[0]
        accounted = first.stats.events_in + first.inputs[0].queued_events
        assert accounted == pytest.approx(metrics.total_events_ingested, rel=1e-9)

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_filter_mass_balance(self, scheduler_cls):
        """events_out == selectivity * events_in at the filter."""
        q = make_simple_query(selectivity=0.5)
        engine, _ = run_engine([q], scheduler_cls())
        filt = q.operators[0]
        assert filt.stats.events_out == pytest.approx(
            0.5 * filt.stats.events_in, rel=1e-9
        )

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_window_mass_balance(self, scheduler_cls):
        """Window input = buffered state + fired-pane mass + late drops."""
        q = make_simple_query()
        engine, _ = run_engine([q], scheduler_cls())
        window = q.windowed_operators()[0]
        upstream_out = q.operators[0].stats.events_out
        consumed = window.stats.events_in + window.inputs[0].queued_events
        assert consumed == pytest.approx(upstream_out, rel=1e-9)


class TestWatermarkMonotonicity:
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_sink_swm_timestamps_monotone(self, scheduler_cls):
        q = make_simple_query(delay_ms=50.0)
        engine, _ = run_engine([q], scheduler_cls())
        times = [t for t, _ in q.sink.swm_latencies]
        assert times == sorted(times)

    def test_window_event_clock_never_regresses(self):
        q = make_join_query(delays_ms=(0.0, 120.0))
        engine = Engine([q], KlinkScheduler(), cores=4, cycle_ms=100.0)
        join = q.join_operators()[0]
        last_clock = -math.inf
        for _ in range(200):
            engine.step_cycle()
            assert join.event_clock >= last_clock
            last_clock = join.event_clock


class TestSwmOrderingInvariants:
    def test_window_output_precedes_swm_at_sink_channel(self):
        """Invariant (ii) of Sec. 2.2: the output operator receives a
        window's events before the SWM that swept them."""

        class RecordingSink(SinkOperator):
            def __init__(self, name):
                super().__init__(name)
                self.sequence = []

            def _on_row(self, rb, index, count, input_index, now):
                super()._on_row(rb, index, count, input_index, now)
                self.sequence.append(("data", rb.t_ends[index]))

            def _on_watermark(self, wm, input_index, now):
                super()._on_watermark(wm, input_index, now)
                if wm.is_swm:
                    self.sequence.append(("swm", wm.timestamp))

        q = make_simple_query()
        # Swap in the recording sink.
        old_sink = q.sink
        sink = RecordingSink("rec")
        window = q.windowed_operators()[0]
        window.connect(sink)
        q2_ops = q.operators[:-1] + [sink]
        from repro.spe.query import Query

        q2 = Query("q2", q.bindings, q2_ops, sink)
        engine = Engine([q2], DefaultScheduler(), cores=4, cycle_ms=100.0)
        engine.run(10_000.0)
        # Every SWM is preceded (somewhere earlier in the sequence) by
        # the pane output whose event-time it covers.
        seen_data = []
        for kind, ts in sink.sequence:
            if kind == "data":
                seen_data.append(ts)
            else:
                assert any(d <= ts for d in seen_data), (ts, seen_data[:3])

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_swm_count_bounded_by_elapsed_windows(self, scheduler_cls):
        q = make_simple_query(window_ms=1000.0)
        engine, metrics = run_engine([q], scheduler_cls(), duration=20_000.0)
        assert len(metrics.swm_latencies) <= 20  # at most one per window


class TestMemoryInvariants:
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_memory_never_negative(self, scheduler_cls):
        q = make_simple_query(rate_eps=5000.0)
        engine, metrics = run_engine([q], scheduler_cls())
        assert all(s.memory_bytes >= 0 for s in metrics.samples)

    def test_shed_plus_ingested_bounded_by_generated(self):
        q = make_simple_query(rate_eps=20_000.0, cost_ms=0.5)
        engine, metrics = run_engine(
            [q],
            DefaultScheduler(),
            memory=MemoryConfig(capacity_bytes=100_000.0,
                                backpressure_threshold=0.5),
        )
        generated_upper = 20_000.0 * 20.0  # rate x duration (s)
        total = metrics.total_events_ingested + metrics.events_shed
        assert total <= generated_upper * 3.0  # bursts can exceed the mean
