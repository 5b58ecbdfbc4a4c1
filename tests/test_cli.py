"""Unit tests for the command-line interface."""

import csv
import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "ysb" in out and "Klink" in out

    def test_run_requires_known_scheduler(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheduler", "EDF"])

    def test_run_requires_known_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "tpch"])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == "ysb"
        assert args.scheduler == "Klink"
        assert args.queries == 60


class TestRunCommand:
    def test_run_no_cache_smoke(self, capsys):
        code = main([
            "run", "--workload", "ysb", "--queries", "1",
            "--duration", "5", "--no-cache",
        ])
        assert code == 0
        assert "ysb" in capsys.readouterr().out

    def test_small_run_prints_table(self, capsys):
        rc = main([
            "run", "--workload", "ysb", "--scheduler", "Default",
            "--queries", "2", "--duration", "25", "--cores", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Default" in out
        assert "ysb" in out

    def test_faults_and_invariants_flags(self, capsys):
        rc = main([
            "run", "--workload", "ysb", "--scheduler", "Default",
            "--queries", "2", "--duration", "20", "--cores", "4",
            "--faults", "5", "--check-invariants",
        ])
        assert rc == 0  # zero violations -> success exit
        out = capsys.readouterr().out
        assert "invariants OK" in out

    def test_faults_flag_defaults_off(self):
        args = build_parser().parse_args(["run"])
        assert args.faults is None
        assert args.check_invariants is False

    def test_negative_fault_seed_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--faults", "-1"])

    def test_violations_produce_failure_exit(self, capsys):
        from types import SimpleNamespace

        from repro.cli import _report_monitors
        from repro.faults import InvariantMonitor

        monitor = InvariantMonitor()
        monitor._record(0.0, "cpu-budget", "engine", "synthetic")
        res = SimpleNamespace(
            monitor=monitor,
            config=SimpleNamespace(scheduler="Klink", n_queries=2),
        )
        assert _report_monitors([res]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        path = str(tmp_path / "out.csv")
        main([
            "run", "--workload", "ysb", "--scheduler", "Default",
            "--queries", "2", "--duration", "25", "--cores", "4",
            "--csv", path,
        ])
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["scheduler"] == "Default"
        assert float(rows[0]["throughput_eps"]) > 0


class TestSweepCommand:
    def test_sweep_jobs_no_cache_smoke(self, capsys):
        code = main([
            "sweep", "--workload", "ysb", "--queries", "1",
            "--schedulers", "Default", "FCFS",
            "--duration", "5", "--jobs", "2", "--no-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Default" in out and "FCFS" in out

    def test_sweep_runs_grid(self, capsys):
        rc = main([
            "sweep", "--workload", "ysb", "--queries", "1", "2",
            "--schedulers", "Default", "Klink",
            "--duration", "25", "--cores", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("Default") == 2
        assert out.count("Klink") == 2


class TestEstimateCommand:
    def test_klink_estimator(self, capsys):
        rc = main([
            "estimate", "--delay", "uniform", "--epochs", "60",
            "--repetitions", "1",
        ])
        assert rc == 0
        assert "accuracy" in capsys.readouterr().out

    def test_lr_estimator(self, capsys):
        rc = main([
            "estimate", "--estimator", "lr", "--delay", "zipf",
            "--epochs", "60", "--repetitions", "1",
        ])
        assert rc == 0
        assert "LR" in capsys.readouterr().out


class TestReportCommand:
    def _run_args(self, *extra):
        return [
            "report", "--workload", "ysb", "--scheduler", "Klink",
            "--queries", "2", "--duration", "10", "--cores", "4",
        ] + list(extra)

    def test_text_report_from_fresh_run(self, capsys):
        assert main(self._run_args()) == 0
        out = capsys.readouterr().out
        assert "run report: ysb/Klink" in out
        assert "decision timeline" in out
        assert "hottest operators" in out

    def test_json_report_validates_against_schema(self, capsys):
        import json

        from repro.obs.schema import validate_report

        assert main(self._run_args("--format", "json", "--check-schema")) == 0
        out = capsys.readouterr().out
        validate_report(json.loads(out))

    def test_report_from_saved_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        rc = main([
            "run", "--workload", "ysb", "--scheduler", "Default",
            "--queries", "2", "--duration", "10", "--cores", "4",
            "--trace", str(trace),
        ])
        assert rc == 0 and trace.exists()
        capsys.readouterr()
        assert main(["report", "--trace", str(trace), "--check-schema"]) == 0
        out = capsys.readouterr().out
        assert "run report: ysb/Default" in out

    def test_report_out_file(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "report.json"
        assert main(self._run_args("--out", str(out_path))) == 0
        payload = json.loads(out_path.read_text())
        assert payload["schema_version"] == 4

    def test_save_trace_while_reporting(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(self._run_args("--save-trace", str(trace))) == 0
        assert trace.exists() and trace.stat().st_size > 0

    def test_baseline_policy_reports_too(self, capsys):
        rc = main([
            "report", "--workload", "ysb", "--scheduler", "Default",
            "--queries", "2", "--duration", "10", "--cores", "4",
            "--check-schema",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "processor-share" in out

    def test_corrupt_trace_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "corrupt.jsonl"
        bad.write_text('{"type":"meta"}\nnot json at all\n')
        assert main(["report", "--trace", str(bad)]) == 1
        assert "cannot read trace" in capsys.readouterr().err

    def test_truncated_trace_exits_nonzero(self, tmp_path, capsys):
        # A finalized trace ends with its summary record; a file cut off
        # mid-run has cycles but no summary.
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text(
            '{"type":"meta","schema_version":2,"workload":"ysb",'
            '"scheduler":"Klink"}\n'
            '{"type":"cycle","time":120.0,"cycle":0,"decisions":[]}\n'
        )
        assert main(["report", "--trace", str(truncated)]) == 1
        assert "truncated trace" in capsys.readouterr().err

    def test_missing_meta_exits_nonzero(self, tmp_path, capsys):
        headless = tmp_path / "headless.jsonl"
        headless.write_text('{"type":"summary","mean_latency_ms":1.0}\n')
        assert main(["report", "--trace", str(headless)]) == 1
        assert "missing meta" in capsys.readouterr().err

    def test_check_schema_failure_exits_nonzero(self, tmp_path, capsys):
        # Well-formed container, but the cycle row is missing the
        # required "policy" key, so it violates CYCLE_SCHEMA.
        bad_row = tmp_path / "badrow.jsonl"
        bad_row.write_text(
            '{"type":"meta","schema_version":2,"workload":"ysb",'
            '"scheduler":"Klink"}\n'
            '{"type":"cycle","time":120.0,"cycle":0,"node":0,'
            '"mode":"priority","backpressured":false,"throttled":false,'
            '"memory_utilization":0.1,"cpu_used_ms":1.0,'
            '"overhead_ms":0.1,"decisions":[]}\n'
            '{"type":"summary","mean_latency_ms":1.0,"latency_cdf":[]}\n'
        )
        assert main(["report", "--trace", str(bad_row)]) == 0  # no --check-schema
        capsys.readouterr()
        rc = main(["report", "--trace", str(bad_row), "--check-schema"])
        assert rc == 1
        assert "[schema] FAIL" in capsys.readouterr().err

    def test_chrome_export_from_trace(self, tmp_path, capsys):
        import json

        from repro.obs.flame import validate_chrome_trace

        trace = tmp_path / "trace.jsonl"
        assert main(self._run_args("--save-trace", str(trace))) == 0
        capsys.readouterr()
        flame = tmp_path / "flame.json"
        rc = main([
            "report", "--trace", str(trace), "--chrome", str(flame),
        ])
        assert rc == 0
        payload = json.loads(flame.read_text())
        validate_chrome_trace(payload)
        assert any(e["ph"] == "X" for e in payload["traceEvents"])


class TestTelemetryFlags:
    def test_bench_json_emits_snapshot(self, tmp_path, capsys):
        import json

        bench = tmp_path / "BENCH_ysb.json"
        rc = main([
            "run", "--workload", "ysb", "--scheduler", "Klink",
            "--queries", "2", "--duration", "30", "--cores", "4",
            "--bench-json", str(bench),
        ])
        assert rc == 0
        payload = json.loads(bench.read_text())
        assert payload["snapshot_version"] == 2
        assert "alerts" not in payload
        assert payload["workload"] == "ysb"
        assert payload["latency_ms"]["mean"] is not None

    def test_alert_options_are_gone(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--alert", "x > 1"])
        with pytest.raises(SystemExit):
            parser.parse_args(["compare", "a.json", "--max-new-alerts", "1"])


class TestResilienceFlags:
    def test_defaults_off(self):
        args = build_parser().parse_args(["run"])
        assert args.checkpoint_period is None
        assert args.recover is None

    def test_parse_values(self):
        args = build_parser().parse_args([
            "run", "--checkpoint-period", "2500", "--recover", "standby",
        ])
        assert args.checkpoint_period == 2500.0
        assert args.recover == "standby"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--recover", "reboot"])

    def test_sweep_accepts_resilience_flags(self):
        args = build_parser().parse_args([
            "sweep", "--recover", "none", "--checkpoint-period", "1000",
        ])
        assert args.recover == "none"
        assert args.checkpoint_period == 1000.0

    def test_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        out = capsys.readouterr().out
        assert "--checkpoint-period" in out
        assert "--recover" in out
        assert "standby" in out

    def test_run_with_recovery_flags(self, capsys):
        rc = main([
            "run", "--workload", "ysb", "--scheduler", "Default",
            "--queries", "2", "--duration", "25", "--cores", "4",
            "--faults", "5", "--check-invariants",
            "--recover", "restart", "--checkpoint-period", "2000",
        ])
        assert rc == 0
        assert "invariants OK" in capsys.readouterr().out
