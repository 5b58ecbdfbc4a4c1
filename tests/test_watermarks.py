"""Unit tests for mid-pipeline watermark generation (Sec. 2.2 case ii)."""

import math

import pytest

from repro.net.delays import ConstantDelay
from repro.spe.engine import Engine
from repro.spe.events import RecordBatch, Watermark
from repro.spe.operators import SinkOperator, WindowedAggregate
from repro.spe.query import Query, SourceBinding, SourceSpec
from repro.spe.watermarks import (
    BoundedOutOfOrderness,
    PunctuatedWatermarks,
    WatermarkGeneratorOperator,
)
from repro.spe.windows import TumblingEventTimeWindows
from repro.core.baselines import DefaultScheduler


class TestBoundedOutOfOrderness:
    def test_no_watermark_before_data(self):
        s = BoundedOutOfOrderness(bound_ms=100.0)
        assert s.on_idle(now=1000.0) is None

    def test_watermark_trails_max_event_time(self):
        s = BoundedOutOfOrderness(bound_ms=100.0, period_ms=200.0)
        ts = s.on_batch(500.0, now=600.0)
        assert ts == 400.0

    def test_periodic_emission_rate_limited(self):
        s = BoundedOutOfOrderness(bound_ms=0.0, period_ms=200.0)
        assert s.on_batch(100.0, now=0.0) == 100.0
        assert s.on_batch(150.0, now=50.0) is None  # too soon
        assert s.on_batch(300.0, now=250.0) == 300.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BoundedOutOfOrderness(bound_ms=-1.0)
        with pytest.raises(ValueError):
            BoundedOutOfOrderness(bound_ms=0.0, period_ms=0.0)


class TestPunctuated:
    def test_emits_on_every_batch(self):
        s = PunctuatedWatermarks(bound_ms=50.0)
        assert s.on_batch(100.0, now=0.0) == 50.0
        assert s.on_batch(200.0, now=0.0) == 150.0

    def test_max_event_time_never_regresses(self):
        s = PunctuatedWatermarks(bound_ms=0.0)
        s.on_batch(500.0, now=0.0)
        assert s.on_batch(100.0, now=0.0) == 500.0


def push_row(gen, t_end, count=10):
    """Queue one payload row ending at event time ``t_end`` on ``gen``."""
    gen.inputs[0].push_row(count, 0.0, t_end, 0.0, 100, 0.0)


class TestGeneratorOperator:
    def make(self, strategy=None):
        gen = WatermarkGeneratorOperator(
            "wmgen", strategy or PunctuatedWatermarks(bound_ms=0.0)
        )
        sink = SinkOperator("s")
        gen.connect(sink)
        return gen, sink

    def test_forwards_data_and_injects_watermark(self):
        gen, sink = self.make()
        push_row(gen, 100.0, count=5)
        gen.step(1e9, 0.0)
        records = [e.record for e in list(sink.inputs[0])]
        assert isinstance(records[0], RecordBatch)
        assert isinstance(records[1], Watermark)
        assert records[1].timestamp == 100.0

    def test_watermarks_monotone(self):
        gen, sink = self.make()
        push_row(gen, 500.0)
        push_row(gen, 100.0)  # older data
        gen.step(1e9, 0.0)
        wms = [
            e.record.timestamp
            for e in list(sink.inputs[0])
            if isinstance(e.record, Watermark)
        ]
        assert wms == [500.0]
        assert gen.watermarks_emitted == 1

    def test_absorbs_upstream_watermarks(self):
        gen, sink = self.make(BoundedOutOfOrderness(0.0, period_ms=1.0))
        gen.inputs[0].push(Watermark(1e9), 0.0)
        gen.step(1e9, 0.0)
        wms = [
            e.record for e in list(sink.inputs[0])
            if isinstance(e.record, Watermark)
        ]
        assert wms == []  # nothing observed yet -> nothing re-generated

    def test_notifies_progress_tracker(self):
        from repro.spe.query import StreamProgress

        progress = StreamProgress(
            TumblingEventTimeWindows(100.0), watermark_period_ms=100.0
        )
        gen, _ = self.make()
        gen.attach_progress(progress)
        push_row(gen, 150.0)
        gen.step(1e9, now=200.0)
        assert progress.last_watermark_ts == 150.0
        assert progress.epoch_index == 1  # swept the [0,100) deadline


class TestEndToEndMidPipelineGeneration:
    def test_windows_fire_without_source_watermarks(self):
        model = ConstantDelay(50.0)
        spec = SourceSpec(
            name="src",
            rate_eps=1000.0,
            watermark_period_ms=500.0,
            lateness_ms=model.bound,
            delay_model=model,
            emit_watermarks=False,  # case (ii): pipeline generates them
        )
        gen = WatermarkGeneratorOperator(
            "gen", BoundedOutOfOrderness(bound_ms=100.0, period_ms=200.0)
        )
        window = WindowedAggregate(
            "w", TumblingEventTimeWindows(1000.0), 0.01,
            output_events_per_pane=5, key_by="key",
        )
        sink = SinkOperator("snk")
        gen.connect(window)
        window.connect(sink)
        binding = SourceBinding(spec, gen)
        query = Query("q", [binding], [gen, window, sink], sink)
        gen.attach_progress(binding.progress)

        engine = Engine([query], DefaultScheduler(), cores=4, cycle_ms=100.0)
        metrics = engine.run(10_000.0)
        assert gen.watermarks_emitted > 0
        assert len(metrics.swm_latencies) >= 5

    def test_source_watermarks_suppressed(self):
        model = ConstantDelay(0.0)
        spec = SourceSpec(
            name="src", rate_eps=100.0, watermark_period_ms=500.0,
            lateness_ms=0.0, delay_model=model, emit_watermarks=False,
        )
        from repro.spe.operators import MapOperator

        m = MapOperator("m", 0.001)
        sink = SinkOperator("snk")
        m.connect(sink)
        query = Query("q", [SourceBinding(spec, m)], [m, sink], sink)
        engine = Engine([query], DefaultScheduler(), cores=2, cycle_ms=100.0)
        engine.run(5_000.0)
        assert m.stats.watermarks_seen == 0
