"""Contracts of the distributed control plane: every placement fact and
forwarded value is derived once, and each derived form equals what a
from-scratch recomputation gives."""

from __future__ import annotations

import json
from typing import Dict, List

from repro.distributed import DistributedEngine, ForwardingBoard, PhysicalPlan
from repro.faults import FaultPlan
from repro.faults.plan import NodeFailure
from repro.resilience import CheckpointCoordinator, RecoveryConfig, RecoveryManager
from repro.resilience.checkpoint import (
    _board_state,
    _restore_board,
    capture,
    deserialize,
    restore,
    serialize,
)
from repro.spe.memory import GIB, MemoryConfig
from repro.workloads import WorkloadParams, build_queries


def _queries(n: int = 8, seed: int = 3):
    return build_queries("ysb", n, WorkloadParams(seed=seed))


def _engine(queries, plan, **kwargs) -> DistributedEngine:
    return DistributedEngine.with_klink(
        queries,
        plan,
        cores_per_node=1,
        memory=MemoryConfig(capacity_bytes=0.5 * GIB),
        rpc_latency_ms=100.0,
        seed=3,
        **kwargs,
    )


def _assert_index_matches_node_of(plan: PhysicalPlan, queries) -> None:
    """The index against a recomputation straight from ``node_of``."""
    for query in queries:
        placement = plan.placement(query)
        ops = query.operators
        assert placement.source_node == plan.node_of[id(ops[0])]
        hosting = sorted({plan.node_of[id(op)] for op in ops})
        assert list(placement.shares) == hosting
        for node, share in placement.shares.items():
            positions = [i for i, op in enumerate(ops) if plan.node_of[id(op)] == node]
            assert share.positions == positions
            assert share.operators == [ops[i] for i in positions]
            assert share.op_ids == {id(ops[i]) for i in positions}
            assert share.windowed == [
                op for op in query.windowed_operators()
                if plan.node_of[id(op)] == node
            ]
            assert share.allocation.query is query
            assert share.allocation.operators == share.operators
            assert plan.local_operators(query, node) == share.operators


class TestPlacementIndex:
    def test_split_index_matches_node_of(self):
        queries = _queries()
        plan = PhysicalPlan.split(queries, 4, segments=2)
        _assert_index_matches_node_of(plan, queries)
        assert all(plan.is_split(q) for q in queries)

    def test_locality_index_matches_node_of(self):
        queries = _queries()
        plan = PhysicalPlan.locality(queries, 3)
        _assert_index_matches_node_of(plan, queries)
        assert not any(plan.is_split(q) for q in queries)

    def test_relocate_rebuilds_the_index(self):
        queries = _queries()
        plan = PhysicalPlan.split(queries, 4, segments=2)
        plan.relocate(queries, 1, 3)
        assert 1 not in plan.node_of.values()
        _assert_index_matches_node_of(plan, queries)

    def test_standby_promotion_moves_operators_through_the_index(self):
        queries = _queries()
        plan = PhysicalPlan.split(queries, 4, segments=2)
        before = dict(plan.node_of)
        coordinator = CheckpointCoordinator(2_000.0)
        engine = _engine(
            queries,
            plan,
            faults=FaultPlan([NodeFailure(4_000.0, 6_000.0, node=1)]),
            checkpoints=coordinator,
            recovery=RecoveryManager(RecoveryConfig("standby"), coordinator),
        )
        engine.run(8_000.0)
        assert engine.metrics.recoveries == 1
        assert 1 in before.values() and 1 not in plan.node_of.values()
        _assert_index_matches_node_of(plan, queries)
        # Channel latencies follow the new placement.
        for query in queries:
            crossing = {id(op) for op in plan.cross_node_edges(query)}
            for op in query.operators:
                if op.output is not None:
                    expected = 100.0 if id(op) in crossing else 0.0
                    assert op.output.latency_ms == expected


def _publishers_from_entries(board: ForwardingBoard) -> Dict[str, List[int]]:
    rebuilt: Dict[str, List[int]] = {}
    for node, query_id in board._entries:
        rebuilt.setdefault(query_id, []).append(node)
    return {q: sorted(nodes) for q, nodes in rebuilt.items()}


class TestBoardIndex:
    def test_publishers_track_entries(self):
        board = ForwardingBoard(10.0)
        from repro.distributed import QueryInfo

        for node in (2, 0, 3, 0):
            board.publish(node, "q", QueryInfo(published_at=1.0))
        board.publish(1, "r", QueryInfo(published_at=1.0))
        assert board.publishers("q") == [0, 2, 3]
        assert board.publishers("r") == [1]
        assert board.publishers("missing") == []
        assert board._publishers == _publishers_from_entries(board)

    def test_restore_board_rebuilds_publishers(self):
        queries = _queries()
        engine = _engine(queries, PhysicalPlan.split(queries, 4, segments=2))
        engine.run(3_000.0)
        rows = _board_state(engine.board)
        fresh = ForwardingBoard(100.0)
        fresh.remote_memo[("stale", 0.0, 2.0)] = [None, (1.0, 0)]
        _restore_board(fresh, rows)
        assert fresh._publishers == _publishers_from_entries(fresh)
        assert fresh._publishers == engine.board._publishers
        assert fresh.remote_memo == {}

    def test_failover_rollback_keeps_publishers_consistent(self):
        queries = _queries()
        coordinator = CheckpointCoordinator(2_000.0)
        engine = _engine(
            queries,
            PhysicalPlan.split(queries, 4, segments=2),
            faults=FaultPlan([NodeFailure(4_000.0, 6_000.0, node=2)]),
            checkpoints=coordinator,
            recovery=RecoveryManager(RecoveryConfig("standby"), coordinator),
        )
        engine.run(7_000.0)
        assert engine.metrics.recoveries == 1
        assert engine.board._publishers == _publishers_from_entries(engine.board)


class TestSharedRemoteSlack:
    def test_non_hosting_nodes_share_the_direct_remote_slack(self):
        queries = _queries()
        plan = PhysicalPlan.split(queries, 4, segments=2)
        engine = _engine(queries, plan)
        engine.run(6_000.0)
        ctx = engine._collect()
        board = engine.board
        checked = 0
        for query in queries:
            placement = plan.placement(query)
            outsiders = [
                s for s in engine.node_schedulers
                if s.node not in placement.shares
                and s.node not in board.publishers(query.query_id)
            ]
            assert len(outsiders) == 2  # 4 nodes, every query on 2
            board.remote_memo.clear()
            estimate = outsiders[0]._forwarded_estimate(
                query, ctx, placement.source_node
            )
            direct = outsiders[0]._remote_slack(
                query, ctx, estimate, board.publishers(query.query_id), ()
            )
            for scheduler in reversed(outsiders):
                assert scheduler.query_slack(query, ctx) == direct
            assert list(board.remote_memo.values()) == [[estimate, direct]]
            checked += direct[0] != float("inf")
        assert checked > 0

    def test_rollback_replay_gives_uninterrupted_slacks(self):
        """Restoring an older checkpoint into the same engine replays the
        same virtual times on the same board: no slack shared before the
        restore may leak into the replay."""
        queries = _queries()
        full = _engine(queries, PhysicalPlan.split(queries, 4, segments=2))
        full.run(9_000.0)

        queries = _queries()
        replayed = _engine(queries, PhysicalPlan.split(queries, 4, segments=2))
        replayed.run(3_000.0)
        snapshot = deserialize(serialize(capture(replayed)))
        # A first pass over the same virtual times reads the board with a
        # different lag, so every slack it shares differs from the replay's.
        replayed.board.rpc_latency_ms = 300.0
        replayed.run(3_000.0)
        replayed.board.rpc_latency_ms = 100.0
        assert replayed.board.remote_memo
        # Rewind the virtual clock so the snapshot can be resumed in place.
        replayed.clock._now = 0.0
        restore(replayed, snapshot, mode="resume")
        replayed.run(9_000.0 - replayed.clock.now)

        assert [s.last_slacks for s in replayed.node_schedulers] == [
            s.last_slacks for s in full.node_schedulers
        ]
        assert json.dumps(replayed.metrics.summary(), sort_keys=True) == json.dumps(
            full.metrics.summary(), sort_keys=True
        )
