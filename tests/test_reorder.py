"""Unit tests for the IOP reorder buffer (Sec. 2.1)."""

import pytest

from repro.spe.events import EventBatch, RecordBatch, Watermark
from repro.spe.operators import SinkOperator
from repro.spe.reorder import ReorderBuffer


def make():
    rb = ReorderBuffer("rb")
    sink = SinkOperator("s")
    rb.connect(sink)
    return rb, sink


def batch(count, t0, t1):
    return EventBatch(count=count, t_start=t0, t_end=t1)


class TestBuffering:
    def test_events_held_until_watermark(self):
        rb, sink = make()
        rb.inputs[0].push(batch(10, 0, 100), 0.0)
        rb.step(1e9, 0.0)
        assert sink.inputs[0].queued_events == 0
        assert rb.state_events == 10
        assert rb.pending_batches() == 1

    def test_watermark_releases_complete_batches(self):
        rb, sink = make()
        rb.inputs[0].push(batch(10, 0, 100), 0.0)
        rb.inputs[0].push(Watermark(100.0), 0.0)
        rb.step(1e9, 0.0)
        assert sink.inputs[0].queued_events == 10
        assert rb.state_events == 0
        assert rb.released_events == 10

    def test_straddling_batch_stays_buffered(self):
        rb, sink = make()
        rb.inputs[0].push(batch(10, 50, 150), 0.0)
        rb.inputs[0].push(Watermark(100.0), 0.0)
        rb.step(1e9, 0.0)
        assert sink.inputs[0].queued_events == 0
        assert rb.pending_batches() == 1

    def test_release_is_event_time_sorted(self):
        rb, sink = make()
        # Out-of-order arrival: late-generated batch arrives first.
        rb.inputs[0].push(batch(1, 200, 300), 0.0)
        rb.inputs[0].push(batch(2, 0, 100), 0.0)
        rb.inputs[0].push(Watermark(300.0), 0.0)
        rb.step(1e9, 0.0)
        released = [
            t_start for e in list(sink.inputs[0])
            if isinstance(e.record, RecordBatch)
            for t_start in e.record.t_starts
        ]
        assert released == [0, 200]

    def test_watermark_follows_released_events(self):
        rb, sink = make()
        rb.inputs[0].push(batch(1, 0, 100), 0.0)
        rb.inputs[0].push(Watermark(100.0), 0.0)
        rb.step(1e9, 0.0)
        records = [e.record for e in list(sink.inputs[0])]
        assert isinstance(records[0], RecordBatch)
        assert isinstance(records[-1], Watermark)

    def test_state_bytes_track_buffered_mass(self):
        rb, _ = make()
        rb.inputs[0].push(batch(10, 0, 100), 0.0)
        rb.step(1e9, 0.0)
        assert rb.state_bytes == pytest.approx(10 * 100)  # default 100 B/ev

    def test_explicit_state_bytes_override(self):
        rb = ReorderBuffer("rb", state_bytes_per_event=16)
        sink = SinkOperator("s")
        rb.connect(sink)
        rb.inputs[0].push(batch(10, 0, 100), 0.0)
        rb.step(1e9, 0.0)
        assert rb.state_bytes == pytest.approx(160)


class TestIopOverheadEndToEnd:
    def test_iop_adds_latency_over_oop(self):
        """Inserting a reorder buffer (IOP) delays output relative to OOP,
        the overhead Sec. 2.1 attributes to in-order processing."""
        from repro.core.baselines import DefaultScheduler
        from repro.spe.engine import Engine
        from repro.spe.operators import FilterOperator, WindowedAggregate
        from repro.spe.query import Query, SourceBinding, SourceSpec
        from repro.spe.windows import TumblingEventTimeWindows
        from repro.net.delays import UniformDelay

        def build(iop: bool):
            model = UniformDelay(0.0, 200.0, seed=5)
            spec = SourceSpec(
                name="src", rate_eps=1000.0, watermark_period_ms=500.0,
                lateness_ms=model.bound, delay_model=model,
            )
            ops = []
            if iop:
                ops.append(ReorderBuffer("rb"))
            filt = FilterOperator("f", 0.01, selectivity=0.5)
            window = WindowedAggregate(
                "w", TumblingEventTimeWindows(1000.0), 0.01,
                output_events_per_pane=10, key_by="key",
            )
            sink = SinkOperator("snk")
            ops += [filt, window, sink]
            for up, down in zip(ops, ops[1:]):
                up.connect(down)
            binding = SourceBinding(spec, ops[0])
            return Query("q", [binding], ops, sink)

        def mean_latency(iop: bool) -> float:
            engine = Engine([build(iop)], DefaultScheduler(), cores=4,
                            cycle_ms=100.0)
            return engine.run(20_000.0).mean_latency_ms

        assert mean_latency(True) >= mean_latency(False)
