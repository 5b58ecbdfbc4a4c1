"""Tests for cross-run regression comparison (``repro-bench compare``):
run-report inputs, the threshold-gated diff, and the CLI."""

import copy
import json

import pytest

from repro.core.klink import KlinkScheduler
from repro.faults import FaultPlan
from repro.faults.plan import OperatorSlowdown
from repro.obs import (
    OperatorProfiler,
    SchemaError,
    TelemetryConfig,
    TelemetrySampler,
    Trace,
    build_report,
    compare_reports,
    load_report,
    render_comparison,
    validate_report,
)
from repro.spe.engine import Engine
from repro.workloads import WorkloadParams, build_queries


def operator(name, cpu_ms):
    """One operator profile with every field the report schema requires."""
    return {
        "query_id": name.split(".")[0], "name": name, "kind": "map",
        "cpu_ms": cpu_ms, "events_in": 0.0, "events_out": 0.0,
        "watermarks_seen": 0, "panes_fired": 0, "late_events_dropped": 0.0,
        "queued_events_hwm": 0.0, "queued_bytes_hwm": 0.0,
        "state_bytes_hwm": 0.0,
    }


def sample_trace():
    return Trace(
        meta={"schema_version": 4, "workload": "ysb", "scheduler": "Klink",
              "n_queries": 4},
        operators=[operator("ysb-0.filter", 100.0),
                   operator("ysb-0.agg", 400.0)],
        summary={
            "mean_latency_ms": 100.0,
            "p90_latency_ms": 150.0,
            "p99_latency_ms": 200.0,
            "throughput_eps": 10_000.0,
            "deadline_misses": 0,
            "mean_watermark_lag_ms": 300.0,
            "max_watermark_lag_ms": 500.0,
            "latency_cdf": [[50.0, 80.0], [90.0, 150.0], [99.0, 200.0]],
        },
    )


def sample_report():
    """A report document, as ``repro-bench report --out`` writes it."""
    return json.loads(build_report(sample_trace()).to_json())


class TestSnapshot:
    """The inputs of ``compare``: run reports, from a trace or a JSON file."""

    def test_from_trace_key_order_and_content(self):
        result = compare_reports(sample_report(), sample_report())
        assert [d.metric for d in result.deltas] == [
            "latency_ms.mean", "latency_ms.p50", "latency_ms.p90",
            "latency_ms.p99", "throughput_eps", "deadline_misses",
            "watermark_lag_ms.max",
            "operator_cpu_ms.ysb-0.agg", "operator_cpu_ms.ysb-0.filter",
        ]
        by_metric = {d.metric: d for d in result.deltas}
        assert by_metric["latency_ms.p50"].current == 80.0  # off the CDF
        assert by_metric["operator_cpu_ms.ysb-0.agg"].current == 400.0

    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(build_report(sample_trace()).to_json() + "\n")
        assert load_report(str(path)) == sample_report()

    def test_load_rejects_non_snapshot_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"hello": 1}\n')
        with pytest.raises(SchemaError, match=r"bad\.json: \$\.schema_version"):
            load_report(str(path))

    def test_load_input_autodetects_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"type":"meta","schema_version":4,"workload":"ysb"}\n'
            '{"type":"summary","mean_latency_ms":5.0,"latency_cdf":[]}\n'
        )
        report = load_report(str(path))
        validate_report(report)
        assert report["summary"]["mean_latency_ms"] == 5.0


class TestCheckSnapshot:
    def test_flags_structural_problems(self):
        report = sample_report()
        validate_report(report)
        broken = dict(report)
        del broken["summary"]
        with pytest.raises(SchemaError, match=r"\$\.summary"):
            validate_report(broken)
        broken = dict(report)
        broken["latency_cdf"] = [[50.0]]  # a point without its value
        with pytest.raises(SchemaError, match=r"\$\.latency_cdf\[0\]"):
            validate_report(broken)
        broken = copy.deepcopy(report)
        broken["hottest_operators"][0]["cpu_ms"] = None
        with pytest.raises(SchemaError, match=r"hottest_operators\[0\]\.cpu_ms"):
            validate_report(broken)
        with pytest.raises(SchemaError, match=r"^\$: expected object"):
            validate_report([report])


class TestCompareSnapshots:
    """Diff semantics of ``compare_reports``."""

    def test_identical_snapshots_are_ok(self):
        result = compare_reports(sample_report(), sample_report())
        assert result.ok and not result.regressions
        assert "OK" in render_comparison(result)

    def test_latency_regression_detected(self):
        current = sample_report()
        current["summary"]["mean_latency_ms"] = 150.0  # +50% > 10%
        result = compare_reports(sample_report(), current)
        assert not result.ok
        assert [d.metric for d in result.regressions] == ["latency_ms.mean"]
        assert "REGRESSED" in render_comparison(result)

    def test_latency_improvement_is_ok(self):
        current = sample_report()
        current["summary"]["mean_latency_ms"] = 50.0
        assert compare_reports(sample_report(), current).ok

    def test_throughput_drop_is_a_regression(self):
        current = sample_report()
        current["summary"]["throughput_eps"] = 5_000.0  # -50%
        result = compare_reports(sample_report(), current)
        assert [d.metric for d in result.regressions] == ["throughput_eps"]

    def test_throughput_gain_is_ok(self):
        current = sample_report()
        current["summary"]["throughput_eps"] = 20_000.0
        assert compare_reports(sample_report(), current).ok

    def test_new_deadline_misses_gate_absolutely(self):
        # One more miss is a regression however small the relative change.
        baseline = sample_report()
        baseline["summary"]["deadline_misses"] = 100
        current = copy.deepcopy(baseline)
        current["summary"]["deadline_misses"] = 101
        result = compare_reports(baseline, current)
        assert {d.metric for d in result.regressions} == {"deadline_misses"}
        current["summary"]["deadline_misses"] = 90
        assert compare_reports(baseline, current).ok

    def test_abs_floor_ignores_tiny_latency_deltas(self):
        baseline = sample_report()
        baseline["summary"].update(
            mean_latency_ms=0.5, p90_latency_ms=0.5, p99_latency_ms=0.5
        )
        baseline["latency_cdf"] = [[50.0, 0.5]]
        current = copy.deepcopy(baseline)
        current["summary"]["mean_latency_ms"] = 1.2  # +140% but only +0.7ms
        assert compare_reports(baseline, current).ok

    def test_missing_values_report_but_never_regress(self):
        current = sample_report()
        current["latency_cdf"][0][1] = None  # p50
        current["summary"]["max_watermark_lag_ms"] = None
        del current["summary"]["throughput_eps"]
        result = compare_reports(sample_report(), current)
        assert result.ok
        missing = {d.metric for d in result.missing}
        assert missing == {
            "latency_ms.p50", "watermark_lag_ms.max", "throughput_eps",
        }
        assert set(result.to_dict()["missing"]) == missing

    def test_nan_vs_number_diffs_as_missing_not_regression(self):
        # A NaN metric (empty-input mean from an in-memory trace summary)
        # against a real number must surface as "missing" — even when the
        # numeric comparison would otherwise have been a huge regression.
        current = sample_report()
        current["summary"]["mean_latency_ms"] = float("nan")
        current["summary"]["throughput_eps"] = float("nan")  # lower is worse
        result = compare_reports(sample_report(), current)
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
        baseline = sample_report()
        current = sample_report()
        baseline["summary"]["p99_latency_ms"] = float("nan")
        current["summary"]["p99_latency_ms"] = float("nan")
        result = compare_reports(baseline, current)
        assert result.ok
        by_metric = {d.metric: d for d in result.deltas}
        delta = by_metric["latency_ms.p99"]
        # NaN == NaN is false; the pinned semantics report the cell as
        # missing rather than pretending the two runs agreed.
        assert delta.limit == "missing"
        assert delta.baseline is None and delta.current is None
        assert "latency_ms.p99" in {d.metric for d in result.missing}

    def test_operator_cpu_growth_detected(self):
        current = sample_report()
        current["hottest_operators"][0]["cpu_ms"] = 600.0  # +50% > 25%
        result = compare_reports(sample_report(), current)
        assert [d.metric for d in result.regressions] == [
            "operator_cpu_ms.ysb-0.agg"
        ]

    def test_operators_only_one_run_lists_are_not_compared(self):
        current = sample_report()
        current["hottest_operators"][1]["name"] = "ysb-1.filter"
        metrics = [d.metric for d in compare_reports(sample_report(), current).deltas]
        assert "operator_cpu_ms.ysb-0.agg" in metrics
        assert not any(m.endswith(".filter") for m in metrics)

    def test_identity_mismatch_fails_comparison(self):
        current = sample_report()
        current["meta"]["scheduler"] = "Default"
        result = compare_reports(sample_report(), current)
        assert not result.ok and result.identity_mismatches
        assert "identity mismatch" in render_comparison(result)


def run_ysb(*, fault=False, seed=1, duration=25_000.0):
    """One YSB run built into an in-memory report document."""
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
        meta={"schema_version": 4, "workload": "ysb", "scheduler": "Klink",
              "n_queries": 4, "seed": seed},
        operators=[p.to_dict() for p in metrics.operator_profiles],
        series=sampler.series_rows(),
        summary=trace_summary(metrics),
    )
    return json.loads(build_report(trace).to_json())


class TestEndToEndRegressionGate:
    def test_identical_reruns_compare_clean(self):
        a, b = run_ysb(), run_ysb()
        assert a == b  # fully deterministic report
        assert compare_reports(a, b).ok

    def test_fault_injected_slowdown_flags_regression(self):
        baseline = run_ysb()
        slowed = run_ysb(fault=True)
        result = compare_reports(baseline, slowed)
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
        # A report JSON of one run against the trace of a seeded rerun.
        from repro.cli import main

        trace_a = self._run_trace(tmp_path, "a.jsonl")
        trace_b = self._run_trace(tmp_path, "b.jsonl")
        report = tmp_path / "report_ysb.json"
        assert main([
            "report", "--trace", str(trace_a), "--out", str(report),
        ]) == 0
        capsys.readouterr()
        assert main(["compare", str(report), str(trace_b)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "REGRESSED" not in out
        assert main(["compare", str(trace_b), str(report)]) == 0

    def test_one_input_exits_two(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["compare", str(tmp_path / "t.jsonl")])
        assert exc.value.code == 2

    def test_regression_exits_one(self, tmp_path, capsys):
        from repro.cli import main

        trace = self._run_trace(tmp_path)
        # Fabricate a faster baseline: current then looks regressed.
        better = load_report(str(trace))
        summary = better["summary"]
        summary["mean_latency_ms"] = summary["mean_latency_ms"] * 0.5
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(better))
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

        for text in ("{not json at all\n", "1\n2\n", "null\n"):
            bad = tmp_path / "junk.json"
            bad.write_text(text)
            assert main(["compare", str(bad), str(bad)]) == 2

    def test_three_inputs_exit_two(self, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "t.jsonl")
        with pytest.raises(SystemExit) as exc:
            main(["compare", path, path, path])
        assert exc.value.code == 2

    def test_invalid_report_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        report = sample_report()
        report["summary"] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps(sample_report()))
        assert main(["compare", str(ok), str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.json" in err and "$.summary" in err

    def test_truncated_trace_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        trace = self._run_trace(tmp_path)
        lines = trace.read_text().splitlines(keepends=True)
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("".join(lines[:-1]))  # drop the summary
        assert main(["compare", str(trace), str(truncated)]) == 2
        assert "truncated trace" in capsys.readouterr().err

