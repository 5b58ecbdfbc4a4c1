"""Tests for cross-run regression comparison (repro.obs.compare):
snapshots, threshold-gated diffs, and the repro-bench compare CLI."""

import copy
import json
import math

import pytest

from repro.core.klink import KlinkScheduler
from repro.faults import FaultPlan
from repro.faults.plan import OperatorSlowdown
from repro.obs import (
    CompareThresholds,
    OperatorProfiler,
    TelemetryConfig,
    TelemetrySampler,
    Trace,
    check_snapshot,
    compare_snapshots,
    load_snapshot,
    render_comparison,
    snapshot_from_trace,
    write_snapshot,
)
from repro.obs.compare import bench_snapshot_name, load_input
from repro.spe.engine import Engine
from repro.workloads import WorkloadParams, build_queries


def sample_snapshot():
    return {
        "snapshot_version": 2,
        "schema_version": 4,
        "workload": "ysb",
        "scheduler": "Klink",
        "n_queries": 4,
        "latency_ms": {"mean": 100.0, "p50": 80.0, "p90": 150.0, "p99": 200.0},
        "throughput_eps": 10_000.0,
        "deadline_misses": 0,
        "watermark_lag_ms": {"mean": 300.0, "max": 500.0},
        "series_count": 10,
        "hottest_operators": [
            {"name": "ysb-0.agg", "cpu_ms": 400.0},
            {"name": "ysb-0.filter", "cpu_ms": 100.0},
        ],
    }


class TestSnapshot:
    def test_name_convention(self):
        assert bench_snapshot_name("ysb") == "BENCH_ysb.json"

    def test_from_trace_key_order_and_content(self):
        trace = Trace(
            meta={"schema_version": 2, "workload": "ysb",
                  "scheduler": "Klink", "n_queries": 2, "seed": 1},
            operators=[
                {"query_id": "q0", "name": "q0.a", "cpu_ms": 5.0},
                {"query_id": "q0", "name": "q0.b", "cpu_ms": 9.0},
            ],
            series=[{"name": "x"}],
            summary={
                "mean_latency_ms": 10.0,
                "p90_latency_ms": 20.0,
                "p99_latency_ms": 30.0,
                "throughput_eps": 100.0,
                "deadline_misses": 3,
                "mean_watermark_lag_ms": 40.0,
                "max_watermark_lag_ms": 50.0,
                "latency_cdf": [[50.0, 12.0], [99.0, 30.0]],
            },
        )
        snap = snapshot_from_trace(trace, top_k=1)
        assert list(snap)[:2] == ["snapshot_version", "schema_version"]
        assert snap["workload"] == "ysb"
        assert snap["latency_ms"]["p50"] == 12.0  # read off the CDF
        assert snap["deadline_misses"] == 3
        assert "alerts" not in snap
        assert snap["series_count"] == 1
        assert snap["hottest_operators"] == [{"name": "q0.b", "cpu_ms": 9.0}]

    def test_rejects_bad_top_k(self):
        with pytest.raises(ValueError):
            snapshot_from_trace(Trace(), top_k=0)

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_ysb.json"
        write_snapshot(str(path), sample_snapshot())
        assert load_snapshot(str(path)) == sample_snapshot()

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"snapshot_version": 99}\n')
        with pytest.raises(ValueError, match="snapshot_version"):
            load_snapshot(str(path))

    def test_load_rejects_non_snapshot_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"hello": 1}\n')
        with pytest.raises(ValueError):
            load_snapshot(str(path))

    def test_load_input_autodetects_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"type":"meta","schema_version":2,"workload":"ysb"}\n'
            '{"type":"summary","mean_latency_ms":5.0,"latency_cdf":[]}\n'
        )
        snap = load_input(str(path))
        assert snap["latency_ms"]["mean"] == 5.0


class TestCheckSnapshot:
    def test_flags_structural_problems(self):
        snapshot = sample_snapshot()
        assert check_snapshot(snapshot) == []
        broken = dict(snapshot)
        del broken["throughput_eps"]
        assert any("throughput_eps" in p for p in check_snapshot(broken))
        broken = dict(snapshot)
        broken["latency_ms"] = {"mean": 1.0}  # missing percentiles
        assert check_snapshot(broken)
        broken = dict(snapshot)
        broken["hottest_operators"] = [{"name": "x", "cpu_ms": None}]
        assert check_snapshot(broken)
        broken = dict(snapshot)
        broken["snapshot_version"] = 99
        assert any("snapshot_version" in p for p in check_snapshot(broken))


class TestCompareSnapshots:
    def test_identical_snapshots_are_ok(self):
        result = compare_snapshots(sample_snapshot(), sample_snapshot())
        assert result.ok and not result.regressions
        assert "OK" in render_comparison(result)

    def test_latency_regression_detected(self):
        current = sample_snapshot()
        current["latency_ms"]["mean"] = 150.0  # +50% > 10% default
        result = compare_snapshots(sample_snapshot(), current)
        assert not result.ok
        assert [d.metric for d in result.regressions] == ["latency_ms.mean"]
        assert "REGRESSED" in render_comparison(result)

    def test_latency_improvement_is_ok(self):
        current = sample_snapshot()
        current["latency_ms"]["mean"] = 50.0
        assert compare_snapshots(sample_snapshot(), current).ok

    def test_throughput_drop_is_a_regression(self):
        current = sample_snapshot()
        current["throughput_eps"] = 5_000.0  # -50%
        result = compare_snapshots(sample_snapshot(), current)
        assert [d.metric for d in result.regressions] == ["throughput_eps"]

    def test_throughput_gain_is_ok(self):
        current = sample_snapshot()
        current["throughput_eps"] = 20_000.0
        assert compare_snapshots(sample_snapshot(), current).ok

    def test_new_deadline_misses_gate_absolutely(self):
        current = sample_snapshot()
        current["deadline_misses"] = 2
        result = compare_snapshots(sample_snapshot(), current)
        assert {d.metric for d in result.regressions} == {"deadline_misses"}
        relaxed = CompareThresholds(max_new_deadline_misses=2)
        assert compare_snapshots(sample_snapshot(), current, relaxed).ok

    def test_abs_floor_ignores_tiny_latency_deltas(self):
        baseline = sample_snapshot()
        baseline["latency_ms"] = {"mean": 0.5, "p50": 0.5, "p90": 0.5, "p99": 0.5}
        current = copy.deepcopy(baseline)
        current["latency_ms"]["mean"] = 1.2  # +140% but only +0.7ms
        assert compare_snapshots(baseline, current).ok

    def test_missing_values_report_but_never_regress(self):
        current = sample_snapshot()
        current["latency_ms"]["p50"] = None
        current["watermark_lag_ms"] = {"mean": None, "max": None}
        result = compare_snapshots(sample_snapshot(), current)
        assert result.ok
        missing = {d.metric for d in result.missing}
        assert "latency_ms.p50" in missing
        assert "watermark_lag_ms.max" in missing
        assert set(result.to_dict()["missing"]) == missing

    def test_nan_vs_number_diffs_as_missing_not_regression(self):
        # A NaN metric (empty-input mean from an in-memory trace summary)
        # against a real number must surface as "missing" — even when the
        # numeric comparison would otherwise have been a huge regression.
        current = sample_snapshot()
        current["latency_ms"]["mean"] = float("nan")
        current["throughput_eps"] = float("nan")  # lower-is-worse metric
        result = compare_snapshots(sample_snapshot(), current)
        assert result.ok  # never a spurious regression
        missing = {d.metric for d in result.missing}
        assert "latency_ms.mean" in missing
        assert "throughput_eps" in missing
        by_metric = {d.metric: d for d in result.deltas}
        delta = by_metric["latency_ms.mean"]
        assert delta.limit == "missing"
        assert delta.current is None and delta.change_pct is None
        assert not delta.regressed
        rendered = render_comparison(result)
        assert "(missing)" in rendered
        assert "metric(s) missing" in rendered  # not a silent pass

    def test_nan_vs_nan_is_missing_not_silent_equality(self):
        baseline = sample_snapshot()
        current = sample_snapshot()
        baseline["latency_ms"]["p99"] = float("nan")
        current["latency_ms"]["p99"] = float("nan")
        result = compare_snapshots(baseline, current)
        assert result.ok
        by_metric = {d.metric: d for d in result.deltas}
        delta = by_metric["latency_ms.p99"]
        # NaN == NaN is false; the pinned semantics report the cell as
        # missing rather than pretending the two runs agreed.
        assert delta.limit == "missing"
        assert delta.baseline is None and delta.current is None
        assert "latency_ms.p99" in {d.metric for d in result.missing}

    def test_operator_cpu_growth_detected(self):
        current = sample_snapshot()
        current["hottest_operators"][0]["cpu_ms"] = 600.0  # +50% > 25%
        result = compare_snapshots(sample_snapshot(), current)
        assert [d.metric for d in result.regressions] == [
            "operator_cpu_ms.ysb-0.agg"
        ]

    def test_identity_mismatch_fails_comparison(self):
        current = sample_snapshot()
        current["scheduler"] = "Default"
        result = compare_snapshots(sample_snapshot(), current)
        assert not result.ok and result.identity_mismatches
        assert "identity mismatch" in render_comparison(result)

    def test_thresholds_reject_negative(self):
        with pytest.raises(ValueError):
            CompareThresholds(latency_pct=-1.0)


def run_ysb(*, fault=False, seed=1, duration=25_000.0):
    """One YSB run summarized into an in-memory snapshot."""
    from repro.spe.memory import GIB, MemoryConfig

    params = WorkloadParams(delay="uniform", rate_scale=1.0, seed=seed)
    queries = build_queries("ysb", 4, params)
    sampler = TelemetrySampler(TelemetryConfig())
    profiler = OperatorProfiler()
    faults = None
    if fault:
        faults = FaultPlan(
            [OperatorSlowdown(start_ms=3_000.0, end_ms=12_000.0, factor=10.0)]
        )
    engine = Engine(queries, KlinkScheduler(), cores=8, cycle_ms=120.0,
                    memory=MemoryConfig(capacity_bytes=1.0 * GIB),
                    seed=seed, faults=faults, profiler=profiler,
                    telemetry=sampler)
    metrics = engine.run(duration)
    from repro.bench.runner import trace_summary

    trace = Trace(
        meta={"schema_version": 2, "workload": "ysb", "scheduler": "Klink",
              "n_queries": 4, "seed": seed},
        operators=[p.to_dict() for p in metrics.operator_profiles],
        series=sampler.series_rows(),
        summary=trace_summary(metrics),
    )
    return snapshot_from_trace(trace)


class TestEndToEndRegressionGate:
    def test_identical_reruns_compare_clean(self):
        a, b = run_ysb(), run_ysb()
        assert a == b  # fully deterministic snapshot
        assert compare_snapshots(a, b).ok

    def test_fault_injected_slowdown_flags_regression(self):
        baseline = run_ysb()
        slowed = run_ysb(fault=True)
        result = compare_snapshots(baseline, slowed)
        assert not result.ok
        metrics = {d.metric for d in result.regressions}
        # The slowdown shows up in delivered latency at minimum.
        assert any(m.startswith("latency_ms.") for m in metrics)


class TestCompareCli:
    def _run_trace(self, tmp_path, name="t.jsonl", seed=1):
        from repro.cli import main

        path = tmp_path / name
        # 30 s: past the 20 s random-deployment window, so the queries
        # actually deliver output (a 10 s run can end before deployment).
        rc = main([
            "run", "--workload", "ysb", "--scheduler", "Klink",
            "--queries", "2", "--duration", "30", "--cores", "4",
            "--seed", str(seed), "--trace", str(path),
        ])
        assert rc == 0
        return path

    def test_emit_then_compare_identical_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        trace_a = self._run_trace(tmp_path, "a.jsonl")
        trace_b = self._run_trace(tmp_path, "b.jsonl")
        bench = tmp_path / "BENCH_ysb.json"
        assert main(["compare", str(trace_a), "--emit", str(bench)]) == 0
        assert bench.exists()
        capsys.readouterr()
        assert main(["compare", str(bench), str(trace_b)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_single_input_prints_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        trace = self._run_trace(tmp_path)
        capsys.readouterr()
        assert main(["compare", str(trace)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["snapshot_version"] == 2

    def test_regression_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        trace = self._run_trace(tmp_path)
        snap = load_input(str(trace))
        # Fabricate a faster baseline: current then looks regressed.
        better = copy.deepcopy(snap)
        for key, value in better["latency_ms"].items():
            if value is not None:
                better["latency_ms"][key] = value * 0.5
        baseline = tmp_path / "baseline.json"
        write_snapshot(str(baseline), better)
        capsys.readouterr()
        assert main(["compare", str(baseline), str(trace)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_json_format_output(self, tmp_path, capsys):
        from repro.cli import main

        trace = self._run_trace(tmp_path)
        capsys.readouterr()
        assert main([
            "compare", str(trace), str(trace), "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "junk.json"
        bad.write_text("{not json at all\n")
        assert main(["compare", str(bad), str(bad)]) == 2

    def test_three_inputs_exit_two(self, tmp_path):
        from repro.cli import main

        trace = self._run_trace(tmp_path)
        assert main(["compare", str(trace), str(trace), str(trace)]) == 2

    def test_check_accepts_valid_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ok.json"
        write_snapshot(str(path), sample_snapshot())
        assert main(["compare", "--check", str(path)]) == 0
        captured = capsys.readouterr()
        assert "[check] OK" in captured.err
        assert captured.out == ""  # --check suppresses the dump

    def test_check_rejects_invalid_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"snapshot_version": 2}))
        assert main(["compare", "--check", str(path)]) == 1
        assert "[check]" in capsys.readouterr().err
