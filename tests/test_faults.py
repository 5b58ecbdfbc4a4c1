"""Tests for the deterministic fault-injection layer (repro.faults.plan).

Fault activation is a pure function of (identity, time), so every
behavioral effect here is asserted against engine runs with fixed seeds:
source stalls inflate observed delays, watermark stragglers push SWM
ingestion later, drops suppress watermarks entirely, slowdowns stretch
operator costs, memory spikes raise utilization, and node failures gate
the whole (single-node) engine.
"""

import math

import pytest

from repro.faults import (
    FaultPlan,
    InvariantMonitor,
    MemoryPressureSpike,
    NodeFailure,
    OperatorSlowdown,
    SourceStall,
    WatermarkDrop,
    WatermarkStraggler,
)
from repro.core.baselines import FCFSScheduler
from repro.spe.engine import Engine

from tests.helpers import make_simple_query


def run_engine(faults=None, *, duration_ms=10_000.0, monitor=None, seed=0):
    query = make_simple_query("q0", rate_eps=500.0, delay_ms=50.0, seed=seed)
    engine = Engine(
        [query],
        FCFSScheduler(),
        cores=2,
        cycle_ms=100.0,
        seed=seed,
        faults=faults,
        invariants=monitor,
    )
    metrics = engine.run(duration_ms)
    return engine, metrics


class TestFaultWindows:
    def test_active_is_half_open(self):
        f = SourceStall(1000.0, 2000.0)
        assert not f.active(999.9)
        assert f.active(1000.0)
        assert f.active(1999.9)
        assert not f.active(2000.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            SourceStall(2000.0, 1000.0)

    def test_query_filter(self):
        f = WatermarkStraggler(0.0, 1000.0, query_ids=["q1"])
        plan = FaultPlan([f])
        assert plan.watermark_extra_delay("q1", 500.0) > 0.0
        assert plan.watermark_extra_delay("q0", 500.0) == 0.0

    def test_none_matches_all_queries(self):
        plan = FaultPlan([WatermarkDrop(0.0, 1000.0)])
        assert plan.drops_watermark("anything", 10.0)
        assert not plan.drops_watermark("anything", 1000.0)


class TestFaultPlanQueries:
    def test_source_hold_until_takes_max(self):
        plan = FaultPlan([
            SourceStall(0.0, 1000.0),
            SourceStall(500.0, 3000.0),
        ])
        assert plan.source_hold_until("q", 600.0) == 3000.0
        assert plan.source_hold_until("q", 1500.0) == 3000.0
        assert plan.source_hold_until("q", 3000.0) == 0.0

    def test_slowdown_factors_compound(self):
        plan = FaultPlan([
            OperatorSlowdown(0.0, 1000.0, factor=2.0),
            OperatorSlowdown(0.0, 1000.0, factor=3.0),
        ])
        assert plan.slowdown_factor("q", "op", 500.0) == pytest.approx(6.0)
        assert plan.slowdown_factor("q", "op", 2000.0) == 1.0

    def test_operator_name_filter(self):
        plan = FaultPlan(
            [OperatorSlowdown(0.0, 1000.0, factor=4.0, operator_names=["q.window"])]
        )
        assert plan.slowdown_factor("q", "q.window", 10.0) == pytest.approx(4.0)
        assert plan.slowdown_factor("q", "q.filter", 10.0) == 1.0

    def test_memory_spikes_sum(self):
        plan = FaultPlan([
            MemoryPressureSpike(0.0, 1000.0, extra_bytes=100.0),
            MemoryPressureSpike(500.0, 2000.0, extra_bytes=50.0),
        ])
        assert plan.extra_memory_bytes(700.0) == pytest.approx(150.0)
        assert plan.extra_memory_bytes(1500.0) == pytest.approx(50.0)

    def test_node_down(self):
        plan = FaultPlan([NodeFailure(1000.0, 2000.0, node=1)])
        assert plan.node_down(1, 1500.0)
        assert not plan.node_down(0, 1500.0)
        assert not plan.node_down(1, 2500.0)

    def test_perturbs_source(self):
        # only stalls, stragglers and drops touch a query's sources
        plan = FaultPlan([
            SourceStall(0.0, 1000.0, query_ids=["q1"]),
            WatermarkStraggler(0.0, 1000.0, query_ids=["q2"]),
            WatermarkDrop(0.0, 1000.0, query_ids=["q3"]),
            OperatorSlowdown(0.0, 1000.0, factor=2.0, query_ids=["q4"]),
            NodeFailure(0.0, 1000.0),
            MemoryPressureSpike(0.0, 1000.0, extra_bytes=1.0),
        ])
        for qid in ("q1", "q2", "q3"):
            assert plan.perturbs_source(qid)
        assert not plan.perturbs_source("q4")
        assert not plan.perturbs_source("q0")
        assert FaultPlan([WatermarkDrop(0.0, 1.0)]).perturbs_source("q0")
        assert not FaultPlan().perturbs_source("q0")

    def test_end_ms_and_active_at(self):
        plan = FaultPlan([
            SourceStall(0.0, 1000.0),
            WatermarkDrop(4000.0, 5000.0),
        ])
        assert plan.end_ms() == 5000.0
        assert len(plan.active_at(500.0)) == 1
        assert plan.active_at(3000.0) == []
        assert len(plan) == 2

    def test_describe_mentions_every_fault(self):
        plan = FaultPlan([SourceStall(0.0, 1.0), NodeFailure(2.0, 3.0, node=4)])
        text = plan.describe()
        assert "SourceStall" in text
        assert "node=4" in text


class TestRandomPlans:
    def test_same_seed_same_plan(self):
        a = FaultPlan.random(42, 60_000.0, query_ids=["q0", "q1"])
        b = FaultPlan.random(42, 60_000.0, query_ids=["q0", "q1"])
        assert a.describe() == b.describe()

    def test_different_seed_different_plan(self):
        a = FaultPlan.random(1, 60_000.0)
        b = FaultPlan.random(2, 60_000.0)
        assert a.describe() != b.describe()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.random(-1, 1000.0)

    def test_episodes_within_duration(self):
        plan = FaultPlan.random(7, 30_000.0, episodes=10)
        assert len(plan) == 10
        for fault in plan:
            assert 0.0 <= fault.start_ms < fault.end_ms <= 30_000.0


class TestBehavioralEffects:
    def test_source_stall_inflates_latency(self):
        stall = FaultPlan([SourceStall(2000.0, 6000.0)])
        _, clean = run_engine(None)
        _, faulty = run_engine(stall)
        assert faulty.fault_cycles > 0
        assert faulty.mean_latency_ms > clean.mean_latency_ms

    def test_watermark_drop_counted(self):
        drops = FaultPlan([WatermarkDrop(0.0, 5000.0)])
        engine, metrics = run_engine(drops)
        assert metrics.watermarks_dropped_by_faults > 0
        # Fewer watermarks reach the pipeline than in a clean run.
        clean_engine, _ = run_engine(None)
        faulty_wm = engine.queries[0].bindings[0].watermarks_ingested
        clean_wm = clean_engine.queries[0].bindings[0].watermarks_ingested
        assert faulty_wm < clean_wm

    def test_straggler_delays_window_results(self):
        straggler = FaultPlan([WatermarkStraggler(0.0, 8000.0, extra_delay_ms=2000.0)])
        _, clean = run_engine(None)
        _, faulty = run_engine(straggler)
        assert faulty.mean_latency_ms > clean.mean_latency_ms

    def test_slowdown_burns_more_cpu(self):
        slow = FaultPlan([OperatorSlowdown(0.0, 10_000.0, factor=8.0)])
        _, clean = run_engine(None)
        _, faulty = run_engine(slow)
        assert faulty.busy_cpu_ms > clean.busy_cpu_ms * 1.5

    def test_memory_spike_visible_in_model(self):
        spike = FaultPlan(
            [MemoryPressureSpike(0.0, 10_000.0, extra_bytes=512 * 1024 * 1024)]
        )
        engine, metrics = run_engine(spike)
        # external_bytes is reset past the fault window; mid-run samples
        # carry the spike.
        assert max(s.memory_bytes for s in metrics.samples) >= 512 * 1024 * 1024

    def test_node_failure_pauses_single_node_engine(self):
        outage = FaultPlan([NodeFailure(2000.0, 6000.0, node=0)])
        monitor = InvariantMonitor()
        engine, metrics = run_engine(outage, monitor=monitor)
        assert metrics.fault_cycles >= 40  # 4 s / 100 ms cycles
        assert monitor.ok, monitor.report()
        # The engine still drains after recovery.
        assert metrics.total_events_processed > 0

    def test_faulty_run_keeps_invariants(self):
        plan = FaultPlan.random(11, 10_000.0, query_ids=["q0"])
        monitor = InvariantMonitor()
        _, metrics = run_engine(plan, monitor=monitor)
        assert monitor.ok, monitor.report()
        assert metrics.invariant_violations == 0


class TestDistributedFaults:
    def make_cluster(self, faults, monitor, n_queries=4):
        from repro.distributed import DistributedEngine, PhysicalPlan

        queries = [
            make_simple_query(f"q{i}", rate_eps=300.0, delay_ms=20.0, seed=i)
            for i in range(n_queries)
        ]
        plan = PhysicalPlan.locality(queries, 2)
        engine = DistributedEngine.with_klink(
            queries, plan, faults=faults, invariants=monitor
        )
        return engine, queries, plan

    def test_node_failure_blocks_only_its_queries(self):
        # The outage outlives the run: its queries never ingest anything.
        outage = FaultPlan([NodeFailure(0.0, 60_000.0, node=1)])
        monitor = InvariantMonitor()
        engine, queries, plan = self.make_cluster(outage, monitor)
        engine.run(10_000.0)
        for query in queries:
            ingested = sum(b.events_ingested for b in query.bindings)
            if plan.source_node(query) == 1:
                assert ingested == 0.0, query.query_id
            else:
                assert ingested > 0.0, query.query_id
        assert monitor.ok, monitor.report()

    def test_failed_node_recovers_and_drains(self):
        outage = FaultPlan([NodeFailure(2_000.0, 5_000.0, node=1)])
        monitor = InvariantMonitor()
        engine, queries, plan = self.make_cluster(outage, monitor)
        metrics = engine.run(20_000.0)
        # Every query made progress once the node came back.
        for query in queries:
            assert sum(b.events_ingested for b in query.bindings) > 0.0
        assert metrics.fault_cycles > 0
        assert monitor.ok, monitor.report()

    def test_random_plan_on_cluster_keeps_invariants(self):
        plan = FaultPlan.random(
            3, 12_000.0, query_ids=[f"q{i}" for i in range(4)], n_nodes=2
        )
        monitor = InvariantMonitor()
        engine, _, _ = self.make_cluster(plan, monitor)
        engine.run(12_000.0)
        assert monitor.ok, monitor.report()
