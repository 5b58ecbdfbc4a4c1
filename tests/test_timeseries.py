"""Tests for the in-run telemetry layer (repro.obs.timeseries): metric
primitives, the ring-buffered registry, the engine-facing sampler, and
the v2 trace round trip."""

import json
import math

import pytest

from repro.core.klink import KlinkScheduler
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
    TelemetryConfig,
    TelemetrySampler,
    TraceWriter,
    dumps_line,
    read_trace,
)
from repro.obs.schema import validate_series
from repro.obs.timeseries import labels_key, series_key
from repro.spe.engine import Engine
from tests.helpers import make_simple_query


class TestPrimitives:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.read() == 3.5

    def test_counter_rejects_negative_increment(self):
        with pytest.raises(ValueError):
            Counter().inc(-1.0)

    def test_counter_set_total_cannot_decrease(self):
        c = Counter()
        c.set_total(10.0)
        with pytest.raises(ValueError):
            c.set_total(9.0)

    def test_gauge_is_none_until_set(self):
        g = Gauge()
        assert g.read() is None
        g.set(4)
        assert g.read() == 4.0

    def test_histogram_quantiles_interpolate(self):
        h = Histogram(bounds=(10.0, 20.0, 30.0))
        for v in (5.0, 15.0, 25.0, 25.0):
            h.observe(v)
        assert h.count == 4
        assert h.quantile(0) <= h.quantile(50) <= h.quantile(100)
        assert h.quantile(100) == pytest.approx(30.0)  # containing bucket bound

    def test_histogram_overflow_bucket_interpolates_to_max(self):
        h = Histogram(bounds=(10.0,))
        h.observe(15.0)
        h.observe(25.0)
        assert h.quantile(100) == pytest.approx(25.0)

    def test_histogram_empty_quantile_is_nan(self):
        assert math.isnan(Histogram().quantile(50))

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))

    def test_histogram_rejects_bad_percentile(self):
        with pytest.raises(ValueError):
            Histogram().quantile(101)

    def test_labels_key_sorts_pairs(self):
        assert labels_key({"b": "2", "a": "1"}) == (("a", "1"), ("b", "2"))
        assert series_key("m", labels_key({"b": "2", "a": "1"})) == "m{a=1,b=2}"


class TestSeries:
    def test_ring_buffer_bounds_and_counts_drops(self):
        from collections import deque

        s = Series("m", (), "gauge", points=deque(maxlen=3))
        for i in range(5):
            s.append(float(i), float(i))
        assert len(s.points) == 3
        assert s.dropped == 2
        assert s.values() == [2.0, 3.0, 4.0]
        assert s.window(3.0) == [3.0, 4.0]

    def test_to_dict_key_order_is_fixed(self):
        from collections import deque

        s = Series("m", (("q", "x"),), "gauge", points=deque([(1.0, 2.0)]))
        row = s.to_dict(200.0)
        assert list(row) == [
            "name", "labels", "kind", "period_ms", "points", "dropped",
        ]
        validate_series(row)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert reg.gauge("g", {"a": "1"}) is reg.gauge("g", {"a": "1"})

    def test_label_order_is_canonicalized(self):
        reg = MetricsRegistry()
        a = reg.gauge("g", {"a": "1", "b": "2"})
        b = reg.gauge("g", {"b": "2", "a": "1"})
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_unset_gauges_and_empty_histograms_skipped(self):
        reg = MetricsRegistry()
        reg.gauge("unset")
        reg.histogram("empty")
        reg.counter("c").inc()
        reg.sample(100.0)
        assert [s.name for s in reg.series()] == ["c"]

    def test_histogram_expands_to_derived_series(self):
        reg = MetricsRegistry()
        reg.histogram("lat").observe(10.0)
        reg.sample(100.0)
        names = {s.name for s in reg.series()}
        assert names == {"lat_count", "lat_p50", "lat_p99"}

    def test_series_sorted_regardless_of_registration_order(self):
        def build(order):
            reg = MetricsRegistry()
            for name, labels in order:
                reg.gauge(name, labels).set(1.0)
            reg.sample(0.0)
            return [dumps_line(r) for r in reg.to_rows()]

        forward = [("b", None), ("a", {"q": "2"}), ("a", {"q": "1"})]
        assert build(forward) == build(list(reversed(forward)))

    def test_matching_filters_by_labels(self):
        reg = MetricsRegistry()
        reg.gauge("q", {"query": "a"}).set(1.0)
        reg.gauge("q", {"query": "b"}).set(2.0)
        reg.sample(0.0)
        assert len(reg.matching("q")) == 2
        hits = reg.matching("q", (("query", "a"),))
        assert [s.key for s in hits] == ["q{query=a}"]

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            MetricsRegistry(period_ms=0.0)
        with pytest.raises(ValueError):
            MetricsRegistry(max_samples=0)


class TestTelemetryConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period_ms": 0.0},
            {"max_samples": 0},
            {"deadline_slo_ms": 0.0},
            {"latency_window": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TelemetryConfig(**kwargs)


def run_sampled(*, seed=1, duration=6_000.0, n_queries=2, config=None,
                delay_ms=0.0):
    queries = [
        make_simple_query(f"q{i}", rate_eps=500.0, seed=seed + i,
                          delay_ms=delay_ms)
        for i in range(n_queries)
    ]
    sampler = TelemetrySampler(config or TelemetryConfig())
    engine = Engine(queries, KlinkScheduler(), cores=4, cycle_ms=100.0,
                    seed=seed, telemetry=sampler)
    metrics = engine.run(duration)
    return sampler, metrics


class TestSamplerOnEngine:
    def test_standard_signal_set_recorded(self):
        sampler, _ = run_sampled()
        names = {s.name for s in sampler.registry.series()}
        for expected in (
            "memory_utilization", "memory_bytes", "events_processed",
            "cpu_ms", "memory_mode_active", "queue_depth",
            "watermark_lag_ms", "latency_ms_p99", "op_queue_depth",
            "op_cpu_ms",
        ):
            assert expected in names, expected

    def test_sample_cadence_follows_virtual_clock(self):
        config = TelemetryConfig(period_ms=500.0)
        sampler, metrics = run_sampled(duration=6_000.0, config=config)
        # 100 ms cycles, 500 ms period: one sample every 5th cycle.
        assert sampler.samples_taken == metrics.cycles // 5
        times = [t for t, _ in sampler.registry.get_series("cpu_ms").points]
        assert times == [500.0 * (i + 1) for i in range(len(times))]

    def test_per_operator_series_can_be_disabled(self):
        sampler, _ = run_sampled(config=TelemetryConfig(per_operator=False))
        names = {s.name for s in sampler.registry.series()}
        assert "op_queue_depth" not in names
        assert "queue_depth" in names

    def test_run_metrics_populated(self):
        sampler, metrics = run_sampled()
        assert metrics.deadline_misses == sampler.deadline_misses
        assert math.isfinite(metrics.watermark_lag_mean_ms)
        assert metrics.watermark_lag_max_ms >= metrics.watermark_lag_mean_ms
        summary = metrics.summary()
        assert summary["deadline_misses"] == metrics.deadline_misses
        assert summary["max_watermark_lag_ms"] == metrics.watermark_lag_max_ms

    def test_tight_slo_counts_every_delivery_as_miss(self):
        config = TelemetryConfig(deadline_slo_ms=1e-6)
        sampler, metrics = run_sampled(config=config, delay_ms=50.0)
        assert len(metrics.swm_latencies) > 0
        assert metrics.deadline_misses == len(metrics.swm_latencies)

    def test_seeded_reruns_are_byte_identical(self):
        def rows(delay_ms):
            sampler, _ = run_sampled(seed=7, delay_ms=delay_ms)
            return "\n".join(dumps_line(r) for r in sampler.series_rows())

        first = rows(0.0)
        assert first and first == rows(0.0)
        assert first != rows(200.0)  # different config, different series

    def test_finalize_is_idempotent(self):
        sampler = TelemetrySampler(TelemetryConfig())
        engine = Engine([make_simple_query("q0", rate_eps=500.0, seed=1)],
                        KlinkScheduler(), cores=4, cycle_ms=100.0, seed=1,
                        telemetry=sampler)
        metrics = engine.run(6_000.0)
        published = (json.dumps(metrics.summary(), sort_keys=True), sampler.series_rows())
        # a second call with no cycle in between publishes the same numbers
        sampler.finalize(engine)
        assert (json.dumps(metrics.summary(), sort_keys=True), sampler.series_rows()) == published

    def test_series_rows_validate_against_schema(self):
        sampler, _ = run_sampled()
        rows = sampler.series_rows()
        assert rows
        for row in rows:
            validate_series(row)


class TestSamplerAcrossRollback:
    """A checkpoint rollback rewinds the stats the sampler mirrors; its
    counters must stay monotone and replayed deliveries must be seen."""

    def run(self, monkeypatch):
        from repro.faults import FaultPlan, NodeFailure
        from repro.resilience import (
            CheckpointCoordinator,
            RecoveryConfig,
            RecoveryManager,
        )

        queries = [
            make_simple_query(f"q{i}", rate_eps=2_000.0, seed=i)
            for i in range(2)
        ]
        sampler = TelemetrySampler()
        rebased = []
        on_rollback = sampler.on_rollback

        def spy(engine):
            before = sampler._latencies_seen
            on_rollback(engine)
            rebased.append((before, sampler._latencies_seen))

        monkeypatch.setattr(sampler, "on_rollback", spy)
        coordinator = CheckpointCoordinator(2_000.0)
        engine = Engine(
            queries, KlinkScheduler(), cores=4, cycle_ms=100.0, seed=1,
            telemetry=sampler,
            faults=FaultPlan([NodeFailure(5_300.0, 6_000.0, node=0)]),
            checkpoints=coordinator,
            recovery=RecoveryManager(RecoveryConfig("standby"), coordinator),
        )
        return sampler, engine.run(10_000.0), rebased

    def test_counters_stay_monotone(self, monkeypatch):
        sampler, metrics, rebased = self.run(monkeypatch)
        assert metrics.recoveries == 1 and len(rebased) == 1
        counters = [s for s in sampler.registry.series() if s.kind == "counter"]
        assert {s.name for s in counters} >= {"events_processed", "op_cpu_ms"}
        for series in counters:
            values = series.values()
            assert values == sorted(values), series.key

    def test_replayed_latencies_are_observed(self, monkeypatch):
        sampler, metrics, rebased = self.run(monkeypatch)
        ((seen_before, seen_after),) = rebased
        # the rollback truncated latencies the sampler had already seen
        assert seen_after < seen_before
        # everything delivered before the rollback, plus every delivery
        # after it, replays included
        observed = sampler.registry.histogram("latency_ms").count
        assert observed == seen_before + len(metrics.swm_latencies) - seen_after

    def test_traced_recovery_run_completes(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        rc = main([
            "run", "--workload", "ysb", "--queries", "4", "--duration", "20",
            "--seed", "11", "--faults", "18", "--recover", "standby",
            "--trace", str(path), "--no-cache",
        ])
        assert rc == 0
        trace = read_trace(str(path))
        assert trace.summary["resilience"]["recoveries"] == 1
        assert any(s["name"] == "events_processed" for s in trace.series)


class TestTraceV2RoundTrip:
    def test_series_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(str(path), meta={"workload": "ysb"})
        writer.finalize(
            series=[{"name": "q", "labels": {}, "kind": "gauge",
                     "period_ms": 200.0, "points": [[200.0, 1.0]],
                     "dropped": 0}],
            summary={"cycles": 1},
        )
        trace = read_trace(str(path))
        assert trace.schema_version == 4
        assert trace.series[0]["name"] == "q"

    @pytest.mark.parametrize("version", [2, 3])
    def test_alert_lines_of_older_traces_are_skipped(self, tmp_path, version):
        path = tmp_path / "old.jsonl"
        path.write_text(
            f'{{"type":"meta","schema_version":{version},"workload":"ysb"}}\n'
            '{"type":"alert","rule":"r","series":"q","start":200.0}\n'
            '{"type":"summary","alerts_fired":1.0}\n'
        )
        trace = read_trace(str(path))
        assert trace.summary == {"alerts_fired": 1.0}
        assert not hasattr(trace, "alerts")

    def test_alert_lines_are_unknown_from_v4(self, tmp_path):
        path = tmp_path / "v4.jsonl"
        path.write_text(
            '{"type":"meta","schema_version":4,"workload":"ysb"}\n'
            '{"type":"alert","rule":"r","series":"q","start":200.0}\n'
        )
        with pytest.raises(ValueError, match=r"v4.jsonl:2: unknown record type 'alert'"):
            read_trace(str(path))

    def test_v1_trace_still_loads(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_text(
            '{"type":"meta","schema_version":1,"workload":"ysb"}\n'
            '{"type":"cycle","time":100.0,"cycle":0,"decisions":[]}\n'
            '{"type":"summary","mean_latency_ms":1.0}\n'
        )
        trace = read_trace(str(path))
        assert trace.schema_version == 1
        assert trace.series == []
        assert len(trace.cycles) == 1
