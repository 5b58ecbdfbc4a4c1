"""Self-test of the benchmark harness: ``python -m pytest perfbench -q``.

Runs the workload runner in-process on a shrunken YSB config (4 queries,
12 simulated seconds), so it checks the harness, not the timings.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import child  # noqa: E402
import run  # noqa: E402
from hooks import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def tiny_runs():
    w = replace(WORKLOADS["ysb-klink"], n_queries=4, duration_ms=12_000.0)
    return [child.run_workload(w, 11, traced) for traced in (False, False, True)]


def test_declaration_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_every_declared_metric_is_emitted_with_its_unit(tiny_runs):
    summary = run.summarize("ysb-klink", tiny_runs)
    for traced, declared in ((False, "end_to_end"), (True, "per_layer")):
        line = run.result_line(summary, traced)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] == 3 and line["failed"] == 0
        assert list(line["metrics"]) == [m["name"] for m in BENCHMARK[declared]]
        for m in BENCHMARK[declared]:
            assert NAME.fullmatch(m["name"])
            emitted = line["metrics"][m["name"]]
            assert emitted["unit"] == m["unit"]
            assert isinstance(emitted["value"], (int, float)), m["name"]
    assert all(m["value"] > 0 for m in summary["end_to_end"].values())


def test_missing_hook_reports_null_with_a_warning():
    rec = Recorder(traced=True)
    assert not rec.wrap(object(), "_publish_info", "distributed.publish")
    assert rec.warnings and "_publish_info" in rec.warnings[0]
    layers = rec.layer_metrics(
        {"import_s": 0.0, "backpressure_cycles": 0, "checkpoints_taken": 0,
         "checkpoint_bytes": 0, "recoveries": 0}
    )
    assert layers["distributed.publish_s"] is None
    assert layers["generate.s"] == 0.0
    # a target that is absent by design is no warning
    assert not rec.wrap(object(), "query_slack", "schedule", required=False)
    assert len(rec.warnings) == 1


def test_nondeterministic_summary_fails_the_run(tiny_runs):
    runs = copy.deepcopy(tiny_runs)
    runs[1]["digest"] = "0" * 64
    summary = run.summarize("ysb-klink", runs)
    assert summary["failed"] == 1
    assert "digest" in summary["failures"][0][0]
    assert not run.result_line(summary, False)["correct"]


def test_verdicts_against_a_bound():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert run.verdict(base, [1.01, 1.00, 1.02, 0.99, 1.00], 0.1, "lower") == "same"
    assert run.verdict(base, [1.20, 1.21, 1.19, 1.22, 1.20], 0.1, "lower") == "worse"
    assert run.verdict(base, [0.80, 0.81, 0.79, 0.80, 0.82], 0.1, "lower") == "better"
    assert run.verdict(base, [0.5, 1.5, 1.0, 0.7, 1.3], 0.1, "lower") == "unresolved"
