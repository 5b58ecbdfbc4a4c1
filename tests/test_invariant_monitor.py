"""Tests for repro.faults.invariants.InvariantMonitor.

Two halves: clean runs across every scheduling policy must report zero
violations (including the zero-fault scheduler-equivalence smoke test of
the ISSUE), and deliberately corrupted engine state must be *detected* —
a monitor that never fires is worthless.
"""

import pytest

from repro.core.baselines import (
    DefaultScheduler,
    FCFSScheduler,
    HighestRateScheduler,
    RoundRobinScheduler,
    StreamBoxScheduler,
)
from repro.core.klink import KlinkScheduler
from repro.core.scheduler import Allocation, Plan
from repro.faults import FaultPlan, InvariantError, InvariantMonitor
from repro.spe.engine import Engine

from repro.spe.engine import NodeCycle
from tests.helpers import cycle_event, make_join_query, make_simple_query


def run_monitored(scheduler, *, faults=None, duration_ms=8_000.0, **monitor_kwargs):
    queries = [
        make_simple_query("q0", rate_eps=400.0, delay_ms=20.0, seed=0),
        make_simple_query("q1", rate_eps=300.0, delay_ms=40.0, seed=1),
    ]
    monitor = InvariantMonitor(**monitor_kwargs)
    engine = Engine(
        queries, scheduler, cores=2, cycle_ms=100.0, seed=3,
        faults=faults, invariants=monitor,
    )
    metrics = engine.run(duration_ms)
    return engine, metrics, monitor


class TestCleanRuns:
    @pytest.mark.parametrize(
        "factory",
        [
            KlinkScheduler,
            DefaultScheduler,
            FCFSScheduler,
            RoundRobinScheduler,
            HighestRateScheduler,
            StreamBoxScheduler,
        ],
        ids=lambda f: f.__name__,
    )
    def test_zero_violations_every_policy(self, factory):
        _, metrics, monitor = run_monitored(factory())
        assert monitor.ok, monitor.report()
        assert monitor.cycles_checked == metrics.cycles
        assert metrics.invariant_violations == 0

    def test_join_query_clean(self):
        monitor = InvariantMonitor()
        engine = Engine(
            [make_join_query("jq0")], KlinkScheduler(),
            cores=2, cycle_ms=100.0, invariants=monitor,
        )
        engine.run(8_000.0)
        assert monitor.ok, monitor.report()

    def test_monitored_run_identical_to_unmonitored(self):
        # Pure observation: attaching the monitor must not change the run.
        _, with_monitor, _ = run_monitored(KlinkScheduler())
        queries = [
            make_simple_query("q0", rate_eps=400.0, delay_ms=20.0, seed=0),
            make_simple_query("q1", rate_eps=300.0, delay_ms=40.0, seed=1),
        ]
        bare = Engine(queries, KlinkScheduler(), cores=2, cycle_ms=100.0, seed=3)
        without = bare.run(8_000.0)
        assert with_monitor.swm_latencies == without.swm_latencies
        assert with_monitor.total_events_processed == pytest.approx(
            without.total_events_processed
        )


class TestSchedulerEquivalenceSmoke:
    """ISSUE satellite 4: zero-fault plan, one query — Klink, FCFS, and RR
    all drain the workload with zero violations."""

    @pytest.mark.parametrize(
        "factory",
        [KlinkScheduler, FCFSScheduler, RoundRobinScheduler],
        ids=lambda f: f.__name__,
    )
    def test_drains_with_zero_violations(self, factory):
        query = make_simple_query("q0", rate_eps=500.0, delay_ms=10.0)
        monitor = InvariantMonitor()
        engine = Engine(
            [query], factory(), cores=4, cycle_ms=100.0,
            faults=FaultPlan([]), invariants=monitor,
        )
        metrics = engine.run(10_000.0)
        assert monitor.ok, monitor.report()
        assert metrics.fault_cycles == 0
        assert metrics.total_events_processed > 0
        # Drained: nothing left sitting in the pipeline's channels.
        queued = sum(
            ch.queued_events for op in query.operators for ch in op.inputs
        )
        assert queued == pytest.approx(0.0, abs=1e-6)


class TestDetection:
    def test_detects_channel_corruption(self):
        queries = [make_simple_query("q0", rate_eps=400.0)]
        monitor = InvariantMonitor()
        engine = Engine(
            queries, FCFSScheduler(), cores=2, cycle_ms=100.0, invariants=monitor,
        )
        engine.run(2_000.0)
        assert monitor.ok
        # Fabricate events out of thin air, then re-check.
        channel = queries[0].bindings[0].channel
        channel._queued_events += 1_000.0
        monitor.on_cycle(cycle_event(engine))
        assert not monitor.ok
        assert any(
            v.invariant == "channel-conservation" for v in monitor.violations
        )

    def test_detects_lost_ingestion(self):
        queries = [make_simple_query("q0", rate_eps=400.0)]
        monitor = InvariantMonitor()
        engine = Engine(
            queries, FCFSScheduler(), cores=2, cycle_ms=100.0, invariants=monitor,
        )
        engine.run(2_000.0)
        queries[0].bindings[0].events_ingested += 500.0  # claim unseen events
        monitor.on_cycle(cycle_event(engine))
        assert any(
            v.invariant == "event-conservation" for v in monitor.violations
        )

    def test_detects_watermark_regression(self):
        queries = [make_simple_query("q0", rate_eps=400.0)]
        monitor = InvariantMonitor()
        engine = Engine(
            queries, FCFSScheduler(), cores=2, cycle_ms=100.0, invariants=monitor,
        )
        engine.run(3_000.0)
        progress = queries[0].bindings[0].progress
        progress.last_watermark_ts -= 10_000.0  # move time backwards
        monitor.on_cycle(cycle_event(engine))
        assert any(
            v.invariant == "watermark-monotonicity" for v in monitor.violations
        )

    def test_detects_cpu_overrun(self):
        queries = [make_simple_query("q0")]
        monitor = InvariantMonitor()
        engine = Engine(
            queries, FCFSScheduler(), cores=2, cycle_ms=100.0, invariants=monitor,
        )
        engine.run(1_000.0)
        monitor.on_cycle(cycle_event(engine, used=1e9))
        assert any(v.invariant == "cpu-budget" for v in monitor.violations)

    def test_detects_insane_plan(self):
        queries = [make_simple_query("q0")]
        monitor = InvariantMonitor()
        engine = Engine(
            queries, FCFSScheduler(), cores=2, cycle_ms=100.0, invariants=monitor,
        )
        engine.run(1_000.0)
        query = queries[0]
        bogus = Plan(
            [Allocation(query, query.operators), Allocation(query, query.operators)],
            mode="priority",
        )
        node = NodeCycle(0, engine.scheduler, bogus, [], 0.0, 0.0)
        monitor.on_cycle(cycle_event(engine, nodes=[node]))
        assert any(v.invariant == "plan-sanity" for v in monitor.violations)

    def test_strict_mode_raises(self):
        queries = [make_simple_query("q0")]
        monitor = InvariantMonitor(strict=True)
        engine = Engine(
            queries, FCFSScheduler(), cores=2, cycle_ms=100.0, invariants=monitor,
        )
        engine.run(1_000.0)
        with pytest.raises(InvariantError):
            monitor.on_cycle(cycle_event(engine, used=1e9))

    def test_max_violations_caps_storage_not_count(self):
        monitor = InvariantMonitor(max_violations=3)
        for i in range(10):
            monitor._record(float(i), "clock", "engine", "synthetic")
        assert monitor.total_violations == 10
        assert len(monitor.violations) == 3
        assert "7 more" in monitor.report()

    def test_report_mentions_violation(self):
        monitor = InvariantMonitor()
        monitor._record(42.0, "cpu-budget", "engine", "synthetic overrun")
        text = monitor.report()
        assert "VIOLATED" in text
        assert "cpu-budget" in text
        assert "synthetic overrun" in text
