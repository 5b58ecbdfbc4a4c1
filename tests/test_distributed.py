"""Unit tests for the distributed design (Sec. 4): placement, information
forwarding, and the multi-node engine."""

import math
from collections import Counter

import pytest

from repro.core.baselines import DefaultScheduler
from repro.core.klink import KlinkScheduler
from repro.obs import AuditLog
from repro.spe.memory import GIB, MemoryConfig
from repro.workloads import WorkloadParams, build_queries
from repro.spe.engine import Engine
from repro.distributed import (
    DistributedEngine,
    ForwardingBoard,
    PhysicalPlan,
    QueryInfo,
)
from repro.distributed.cluster import DistributedKlinkScheduler
from repro.spe.engine import NodeCycle
from tests.helpers import cycle_event, make_join_query, make_simple_query


class TestPhysicalPlan:
    def test_locality_places_whole_pipelines(self):
        queries = [make_simple_query(f"q{i}") for i in range(4)]
        plan = PhysicalPlan.locality(queries, 2)
        for i, q in enumerate(queries):
            nodes = {plan.node_of_operator(op) for op in q.operators}
            assert nodes == {i % 2}
            assert not plan.is_split(q)

    def test_locality_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            PhysicalPlan.locality([make_simple_query()], 0)

    def test_split_produces_contiguous_forward_segments(self):
        queries = [make_simple_query(f"q{i}") for i in range(3)]
        plan = PhysicalPlan.split(queries, 4, segments=2)
        for q in queries:
            assert plan.is_split(q)
            # Cross-node edges point from an upstream op to its downstream.
            for op in plan.cross_node_edges(q):
                down = q.downstream_of(op)
                assert down is not None
                assert plan.node_of_operator(op) != plan.node_of_operator(down)

    def test_split_single_node_degenerates_to_locality(self):
        queries = [make_simple_query("q0")]
        plan = PhysicalPlan.split(queries, 1, segments=2)
        assert not plan.is_split(queries[0])

    def test_source_node(self):
        queries = [make_simple_query(f"q{i}") for i in range(2)]
        plan = PhysicalPlan.locality(queries, 2)
        assert plan.source_node(queries[0]) == 0
        assert plan.source_node(queries[1]) == 1

    def test_local_operators_partition_the_pipeline(self):
        queries = [make_simple_query("q0")]
        plan = PhysicalPlan.split(queries, 2, segments=2)
        q = queries[0]
        locals0 = plan.local_operators(q, 0)
        locals1 = plan.local_operators(q, 1)
        assert set(locals0) | set(locals1) == set(q.operators)
        assert not set(locals0) & set(locals1)


class TestForwardingBoard:
    def test_local_reads_are_fresh(self):
        board = ForwardingBoard(rpc_latency_ms=100.0)
        board.publish(0, "q", QueryInfo(published_at=1000.0, mu=42.0))
        info = board.read(0, 0, "q", now=1000.0)
        assert info.mu == 42.0

    def test_remote_reads_lag_by_rpc_latency(self):
        board = ForwardingBoard(rpc_latency_ms=100.0)
        board.publish(0, "q", QueryInfo(published_at=900.0, mu=1.0))
        board.publish(0, "q", QueryInfo(published_at=1000.0, mu=2.0))
        info = board.read(1, 0, "q", now=1050.0)
        assert info.mu == 1.0  # the 1000.0 snapshot is still in flight

    def test_remote_read_none_when_nothing_delivered_yet(self):
        board = ForwardingBoard(rpc_latency_ms=100.0)
        board.publish(0, "q", QueryInfo(published_at=1000.0))
        assert board.read(1, 0, "q", now=1000.0) is None

    def test_unknown_key_is_none(self):
        assert ForwardingBoard().read(0, 1, "nope", now=0.0) is None

    def test_history_keeps_two_snapshots(self):
        board = ForwardingBoard(rpc_latency_ms=10.0)
        for t in (0.0, 100.0, 200.0):
            board.publish(0, "q", QueryInfo(published_at=t, mu=t))
        assert board.read(1, 0, "q", now=250.0).mu == 200.0
        assert board.read(1, 0, "q", now=205.0).mu == 100.0

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            ForwardingBoard(rpc_latency_ms=-1.0)


class TestDistributedEngine:
    def test_locality_runs_and_measures(self):
        queries = [make_simple_query(f"q{i}", rate_eps=500.0) for i in range(4)]
        plan = PhysicalPlan.locality(queries, 2)
        engine = DistributedEngine.with_policy(queries, plan, DefaultScheduler)
        metrics = engine.run(10_000.0)
        assert len(metrics.swm_latencies) > 0

    def test_split_pipelines_deliver_across_nodes(self):
        queries = [make_simple_query(f"q{i}", rate_eps=500.0) for i in range(2)]
        plan = PhysicalPlan.split(queries, 2, segments=2)
        engine = DistributedEngine.with_klink(queries, plan, rpc_latency_ms=50.0)
        metrics = engine.run(10_000.0)
        assert len(metrics.swm_latencies) > 0
        # Sinks actually received events across the node boundary.
        assert any(q.sink.events_delivered > 0 for q in queries)

    def test_rpc_latency_adds_to_output_latency(self):
        def run(rpc):
            queries = [make_simple_query("q0", rate_eps=500.0, delay_ms=10.0)]
            plan = PhysicalPlan.split(queries, 2, segments=2)
            engine = DistributedEngine.with_klink(
                queries, plan, rpc_latency_ms=rpc
            )
            return engine.run(10_000.0).mean_latency_ms

        assert run(400.0) > run(1.0) + 200.0

    def test_per_node_schedulers_instantiated(self):
        queries = [make_simple_query(f"q{i}") for i in range(2)]
        plan = PhysicalPlan.locality(queries, 2)
        engine = DistributedEngine.with_klink(queries, plan)
        assert len(engine.node_schedulers) == 2
        assert all(
            isinstance(s, DistributedKlinkScheduler)
            for s in engine.node_schedulers
        )

    def test_distributed_klink_uses_forwarded_info_for_remote_sources(self):
        queries = [make_simple_query(f"q{i}", rate_eps=500.0) for i in range(2)]
        plan = PhysicalPlan.locality(queries, 2)
        engine = DistributedEngine.with_klink(queries, plan)
        engine.run(5_000.0)
        # Node 1's scheduler evaluated q0 (whose source is on node 0)
        # through the board without error and produced a finite slack for
        # its local query.
        sched1 = engine.node_schedulers[1]
        assert queries[1].query_id in sched1.last_slacks

    def test_aggregate_capacity_scales_with_nodes(self):
        def run(nodes):
            queries = [
                make_simple_query(f"q{i}", rate_eps=30_000.0, cost_ms=0.05)
                for i in range(4)
            ]
            plan = PhysicalPlan.locality(queries, nodes)
            engine = DistributedEngine.with_policy(
                queries, plan, DefaultScheduler, cores_per_node=2
            )
            return engine.run(10_000.0).total_events_processed

        assert run(4) > run(1) * 1.2


class TestDistributedUnderStress:
    def test_distributed_klink_mm_throttles_cluster_wide(self):
        from repro.spe.memory import MemoryConfig

        queries = [
            make_simple_query(f"q{i}", rate_eps=30_000.0, cost_ms=0.2)
            for i in range(4)
        ]
        plan = PhysicalPlan.locality(queries, 2)
        engine = DistributedEngine.with_klink(
            queries,
            plan,
            cores_per_node=2,
            memory=MemoryConfig(capacity_bytes=2_000_000.0),
        )
        metrics = engine.run(20_000.0)
        # Memory management engaged on at least one node and input was
        # shed while it ran.
        episodes = sum(s.mm_episodes for s in engine.node_schedulers)
        assert episodes > 0
        assert metrics.events_shed > 0

    def test_overhead_charged_per_node(self):
        queries = [make_simple_query(f"q{i}") for i in range(4)]
        plan = PhysicalPlan.locality(queries, 2)
        engine = DistributedEngine.with_klink(queries, plan)
        metrics = engine.run(5_000.0)
        # Both nodes' Klink instances contribute evaluation overhead.
        single = Engine(
            [make_simple_query(f"s{i}") for i in range(4)],
            __import__("repro.core.klink", fromlist=["KlinkScheduler"]).KlinkScheduler(),
        )
        single_metrics = single.run(5_000.0)
        assert metrics.scheduler_overhead_ms > single_metrics.scheduler_overhead_ms


class TestSweepHelper:
    def test_sweep_returns_grid(self):
        from repro.bench.runner import ExperimentConfig, sweep

        base = ExperimentConfig(
            workload="ysb", duration_ms=25_000.0, cores=4, seed=42
        )
        grid = sweep(base, ["Default", "Klink"], [1, 2])
        assert set(grid) == {
            ("Default", 1), ("Default", 2), ("Klink", 1), ("Klink", 2)
        }
        for res in grid.values():
            assert res.metrics.cycles > 0


class TestDistributedObservability:
    def test_per_node_audit_records(self):
        from repro.obs import AuditLog, OperatorProfiler

        queries = [make_simple_query(f"q{i}") for i in range(4)]
        plan = PhysicalPlan.locality(queries, 2)
        audit = AuditLog()
        profiler = OperatorProfiler()
        engine = DistributedEngine.with_klink(
            queries, plan, cores_per_node=2, cycle_ms=100.0,
            audit=audit, profiler=profiler,
        )
        metrics = engine.run(5_000.0)
        nodes = {r.node for r in audit.rows}
        assert nodes == {0, 1}  # one record per live node per cycle
        assert len(audit) == 2 * metrics.cycles
        for record in audit.rows:
            assert record.policy == f"Klink@node{record.node}"
            assert [d.rank for d in record.decisions] == list(
                range(len(record.decisions))
            )
        assert len(metrics.operator_profiles) == sum(
            len(q.operators) for q in queries
        )

    def test_distributed_audit_is_deterministic(self):
        from repro.obs import AuditLog

        def run():
            queries = [make_simple_query(f"q{i}") for i in range(2)]
            plan = PhysicalPlan.split(queries, 2, segments=2)
            audit = AuditLog()
            DistributedEngine.with_klink(
                queries, plan, cores_per_node=2, cycle_ms=100.0, audit=audit,
            ).run(4_000.0)
            return audit.to_jsonl_str()

        assert run() == run()


def took_overdue_branch(scheduler, query, ctx):
    """Whether ``scheduler``'s plan ranked ``query`` from an overdue SWM:
    the single-node pending-SWM test on the query's source node, and its
    locally hosted windows against the forwarded watermark elsewhere."""
    placement = scheduler.physical_plan.placement(query)
    if placement.source_node == scheduler.node:
        return KlinkScheduler._pending_swm_slack(query, ctx.now) is not None
    share = placement.shares.get(scheduler.node)
    if share is None:
        return False  # ranked from forwarded values alone
    estimate = scheduler._shared(query, ctx, placement.source_node)[0]
    if estimate is None:
        return False
    watermark = estimate[0]
    return any(
        op._pane_heap and op._pane_heap[0][0] <= watermark
        for op in share.windowed
    )


class TestDistributedAuditReasons:
    def test_overdue_reason_follows_each_nodes_branch(self):
        """On four nodes a decision says ``overdue-swm`` exactly when that
        node's plan took the overdue branch, not when the query's global
        state holds an ingested-but-unprocessed SWM."""
        queries = build_queries(
            "ysb", 16, WorkloadParams(seed=11, rate_scale=1.25)
        )
        plan = PhysicalPlan.split(queries, 4, segments=2)
        engine = DistributedEngine.with_klink(
            queries, plan, cores_per_node=1,
            memory=MemoryConfig(capacity_bytes=0.5 * GIB),
            rpc_latency_ms=100.0, seed=11, audit=AuditLog(),
        )
        seen = Counter()
        for scheduler in engine.node_schedulers:
            explain = scheduler.explain_plan

            def checking(ctx, node_plan, scheduler=scheduler, explain=explain):
                decisions = explain(ctx, node_plan)
                if scheduler._mm_active:
                    return decisions
                for reason, alloc in zip(decisions.reasons, node_plan.allocations):
                    query = alloc.query
                    took = took_overdue_branch(scheduler, query, ctx)
                    assert (reason == "overdue-swm") == took
                    source = plan.source_node(query) == scheduler.node
                    globally = (
                        KlinkScheduler._pending_swm_slack(query, ctx.now)
                        is not None
                    )
                    seen[("source" if source else "other", took, globally)] += 1
                return decisions

            scheduler.explain_plan = checking
        engine.run(14_000.0)
        assert seen[("source", True, True)] > 0
        assert seen[("other", True, True)] > 0
        # nodes that ranked the query from expected slack while its global
        # state held an overdue SWM: the case the global test mislabels
        assert seen[("other", False, True)] > 0


class TestDistributedTelemetry:
    def run_sampled(self, *, n_nodes=2, duration=6_000.0):
        from repro.obs import TelemetrySampler

        queries = [
            make_simple_query(f"q{i}", rate_eps=500.0) for i in range(4)
        ]
        plan = PhysicalPlan.locality(queries, n_nodes)
        sampler = TelemetrySampler()
        engine = DistributedEngine.with_klink(
            queries, plan, cores_per_node=2, cycle_ms=100.0,
            telemetry=sampler,
        )
        metrics = engine.run(duration)
        return sampler, metrics

    def test_per_node_cpu_series_merged_into_one_registry(self):
        sampler, _ = self.run_sampled()
        keys = {s.key for s in sampler.registry.series()}
        assert "node_cpu_ms{node=0}" in keys
        assert "node_cpu_ms{node=1}" in keys
        # Cluster-global signals recorded once, not per node.
        assert "cpu_ms" in keys

    def test_node_cpu_sums_to_cluster_total(self):
        import pytest as _pytest

        sampler, metrics = self.run_sampled()
        per_node = sum(
            s.latest()[1]
            for s in sampler.registry.matching("node_cpu_ms")
        )
        total = sampler.registry.get_series("cpu_ms").latest()[1]
        assert per_node == _pytest.approx(total)
        assert total == _pytest.approx(
            metrics.busy_cpu_ms + metrics.scheduler_overhead_ms
        )

    def test_merged_series_byte_deterministic_across_reruns(self):
        from repro.obs import dumps_line

        def rows():
            sampler, _ = self.run_sampled()
            return "\n".join(
                dumps_line(r) for r in sampler.series_rows()
            )

        first = rows()
        assert first and first == rows()

    def test_node_iteration_order_does_not_change_bytes(self):
        from repro.obs import TelemetrySampler, dumps_line

        class FakeEngine:
            """Just enough engine surface for one sampler tick."""

            class _Memory:
                def utilization(self, queries):
                    return 0.0

                def used_bytes(self, queries):
                    return 0.0

            class _Metrics:
                swm_latencies = []
                total_events_processed = 0.0
                busy_cpu_ms = 0.0
                scheduler_overhead_ms = 0.0

            def __init__(self):
                self.metrics = self._Metrics()
                self.memory = self._Memory()
                self.queries = []
                self.scheduler = object()
                self.node_schedulers = [self.scheduler] * 3

        def rows(order):
            sampler = TelemetrySampler()
            nodes = [
                NodeCycle(node, None, None, [], float(node + 1), 0.5)
                for node in order
            ]
            sampler.on_cycle(
                cycle_event(FakeEngine(), now=200.0, nodes=nodes, used=6.0,
                            overhead=1.5)
            )
            return [dumps_line(r) for r in sampler.series_rows()]

        assert rows([0, 1, 2]) == rows([2, 1, 0])

    def test_slack_series_labelled_per_node(self):
        sampler, _ = self.run_sampled()
        slack_keys = {
            s.key for s in sampler.registry.series() if s.name == "slack_ms"
        }
        assert slack_keys  # Klink published finite slacks
        assert all("node=" in key for key in slack_keys)

    def test_run_metrics_populated_from_cluster_run(self):
        import math

        _, metrics = self.run_sampled()
        assert math.isfinite(metrics.watermark_lag_mean_ms)
        assert metrics.deadline_misses >= 0
