"""Multi-node engine with decentralized per-node schedulers (Sec. 4).

Each node runs its own scheduler instance over the operators the physical
plan placed on it, with its own CPU budget (``cores_per_node`` x cycle).
Cross-node edges carry an RPC transfer latency. Klink instances exchange
delay and cost information through a :class:`ForwardingBoard` whose
remote reads lag by the RPC latency, exactly as the paper's design: the
node hosting a query's source publishes watermark/delay statistics
downstream, and every node hosting downstream operators publishes its
local pending cost upstream (Fig. 5's forwarding arrows).
"""

from __future__ import annotations

import math
from typing import Any, Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.klink import KlinkScheduler
from repro.core.scheduler import Allocation, Plan, Scheduler, SchedulerContext
from repro.core.slack import expected_slack_scalars, interval_steps_scalars
from repro.distributed.forwarding import ForwardingBoard, QueryInfo
from repro.distributed.placement import PhysicalPlan
from repro.spe.engine import Engine, NodeCycle
from repro.spe.memory import MemoryConfig
from repro.spe.query import Query
from repro.spe.state import STATE


class DistributedKlinkScheduler(KlinkScheduler):
    """Klink instance running on one node of a distributed deployment.

    Differences from the single-node evaluator:

    * the slack of a query whose source node is elsewhere is computed from
      the delay information that node *forwarded* (one RPC period stale);
    * the cost term aggregates the local pending cost with the costs the
      downstream/upstream nodes published (cost forwarding).

    Every node but the source reads the forwarded delay information the
    same way, so the SWM estimate built from it is computed once per
    cycle and shared through the board; so is the whole slack for the
    nodes that host none of the query's operators and hold no board entry
    for it, since every value they read is remote.
    """

    def __init__(self, node: int, board: ForwardingBoard, plan: PhysicalPlan, **kwargs):
        super().__init__(**kwargs)
        self.node = node
        self.board = board
        self.physical_plan = plan
        self.name = f"Klink@node{node}"

    def query_slack(self, query: Query, ctx: SchedulerContext) -> Tuple[float, int]:
        placement = self.physical_plan.placement(query)
        source_node = placement.source_node
        if source_node == self.node:
            return super().query_slack(query, ctx)
        publishers = self.board.publishers(query.query_id)
        share = placement.shares.get(self.node)
        shared = self._shared(query, ctx, source_node)
        if share is not None or self.node in publishers:
            local_windows = share.windowed if share is not None else ()
            return self._remote_slack(query, ctx, shared[0], publishers, local_windows)
        # This node hosts nothing of the query and reads every value
        # remotely, exactly as every other such node does this cycle.
        if shared[1] is None:
            shared[1] = self._remote_slack(query, ctx, shared[0], publishers, ())
        return shared[1]

    def _shared(
        self, query: Query, ctx: SchedulerContext, source_node: int
    ) -> List[Any]:
        """This cycle's ``[forwarded estimate, outsider slack]`` for the
        query, common to every node but the source (the outsider slack is
        filled in by the first node that hosts nothing of the query)."""
        key = (query.query_id, ctx.now, self.estimator.z)
        memo = self.board.remote_memo
        shared = memo.get(key)
        if shared is None:
            shared = memo[key] = [
                self._forwarded_estimate(query, ctx, source_node),
                None,
            ]
        return shared

    def _forwarded_estimate(
        self, query: Query, ctx: SchedulerContext, source_node: int
    ) -> Optional[Tuple[float, float, float, float, float, int]]:
        """``(watermark, mean, std, t_min, t_max, steps)`` of the next SWM
        from the delay information the source node forwarded, or ``None``
        before it forwarded a deadline."""
        now = ctx.now
        info = self.board.read(self.node, source_node, query.query_id, now)
        if info is None or info.next_deadline is None:
            return None
        spec = query.bindings[0].spec
        estimator = self.estimator
        generation = estimator.swm_generation_time(
            info.next_deadline,
            spec.watermark_period_ms,
            spec.lateness_ms,
            phase=query.deployed_at,
        )
        std = max(math.sqrt(max(info.chi - info.mu * info.mu, 0.0)), 1.0)
        mean = generation + info.mu
        t_min = mean - estimator.z * std
        t_max = mean + estimator.z * std
        steps = interval_steps_scalars(t_min, t_max, now, ctx.cycle_ms)
        return info.last_watermark_ts, mean, std, t_min, t_max, steps

    def _remote_slack(
        self,
        query: Query,
        ctx: SchedulerContext,
        estimate: Optional[Tuple[float, float, float, float, float, int]],
        publishers: Sequence[int],
        local_windows: Sequence[Any],
    ) -> Tuple[float, int]:
        """Slack from the source node's forwarded estimate (see
        :meth:`_forwarded_estimate`) and the costs every publishing node
        forwarded."""
        if estimate is None:
            return math.inf, 0
        watermark, mean, std, t_min, t_max, steps = estimate
        now = ctx.now
        # Pending-SWM check against the forwarded watermark state and the
        # locally hosted window operators' buffered panes (the pane heap's
        # root is the earliest pending deadline).
        for op in local_windows:
            heap = op._pane_heap
            if heap and heap[0][0] <= watermark:
                self._overdue.add(query.query_id)  # klink: transient[per-plan branch record read by explain_plan()]
                return heap[0][0] - now, 0
        # Cost forwarding: every node's published share for the query.
        board = self.board
        query_id = query.query_id
        cost = 0.0
        for node in publishers:
            forwarded = board.read(self.node, node, query_id, now)
            if forwarded is not None:
                cost += forwarded.pending_cost_ms
        slack = expected_slack_scalars(mean, std, t_min, t_max, now, cost, ctx.cycle_ms)
        return slack, steps


class DistributedEngine(Engine):
    """Engine spanning several nodes with per-node scheduling.

    ``scheduler_factory`` builds one policy instance per node; pass
    :class:`DistributedKlinkScheduler` via :meth:`with_klink` or any
    query-level baseline via :meth:`with_policy`.
    """

    CHECKPOINT = (("board", "board", STATE),)

    def __init__(
        self,
        queries: Sequence[Query],
        scheduler_factory: Callable[[int, ForwardingBoard, PhysicalPlan], Scheduler],
        plan: PhysicalPlan,
        *,
        cores_per_node: int = 24,
        cycle_ms: float = 120.0,
        memory: MemoryConfig | None = None,
        seed: int = 0,
        rpc_latency_ms: float = 2.0,
        audit=None,
        profiler=None,
        faults=None,
        invariants=None,
        telemetry=None,
        checkpoints=None,
        recovery=None,
        validate: bool = True,
    ) -> None:
        self.plan = plan
        plan.build_index(queries)
        self.board = ForwardingBoard(rpc_latency_ms)
        self.cores_per_node = cores_per_node
        self.rpc_latency_ms = float(rpc_latency_ms)
        self.node_schedulers: List[Scheduler] = [
            scheduler_factory(node, self.board, plan)
            for node in range(plan.n_nodes)
        ]
        super().__init__(
            queries,
            self.node_schedulers[0],
            cores=cores_per_node * plan.n_nodes,
            cycle_ms=cycle_ms,
            memory=memory,
            seed=seed,
            audit=audit,
            profiler=profiler,
            faults=faults,
            invariants=invariants,
            telemetry=telemetry,
            checkpoints=checkpoints,
            recovery=recovery,
            validate=validate,
        )
        # Attach transfer latency to cross-node edges.
        for query in self.queries:
            for op in plan.cross_node_edges(query):
                channel = op.output
                if channel is not None:
                    channel.latency_ms = rpc_latency_ms
                    self._delayed_channels.append(channel)

    # -- convenience constructors ------------------------------------------------

    @classmethod
    def with_klink(
        cls,
        queries: Sequence[Query],
        plan: PhysicalPlan,
        *,
        enable_memory_management: bool = True,
        **engine_kwargs,
    ) -> "DistributedEngine":
        def factory(node: int, board: ForwardingBoard, p: PhysicalPlan) -> Scheduler:
            return DistributedKlinkScheduler(
                node, board, p, enable_memory_management=enable_memory_management
            )

        return cls(queries, factory, plan, **engine_kwargs)

    @classmethod
    def with_policy(
        cls,
        queries: Sequence[Query],
        plan: PhysicalPlan,
        policy_factory: Callable[[], Scheduler],
        **engine_kwargs,
    ) -> "DistributedEngine":
        def factory(node: int, board: ForwardingBoard, p: PhysicalPlan) -> Scheduler:
            return policy_factory()

        return cls(queries, factory, plan, **engine_kwargs)

    # -- forwarding ---------------------------------------------------------------

    def _publish_info(self, now: float, down_nodes=frozenset()) -> None:
        board = self.board
        for query in self.queries:
            placement = self.plan.placement(query)
            unit = None
            for node, share in placement.shares.items():
                if node in down_nodes:
                    continue  # a failed node publishes nothing; reads go stale
                if unit is None:
                    unit = query.unit_cost_list()
                pending = 0.0
                for op, i in zip(share.operators, share.positions):
                    if op._queues_dirty:
                        op._refresh_queue_memo()
                    pending += op._queued_events_memo * unit[i]
                if node == placement.source_node:
                    info = self._delay_info(query, now, pending)
                else:
                    info = QueryInfo(published_at=now, pending_cost_ms=pending)
                board.publish(node, query.query_id, info)

    @staticmethod
    def _delay_info(query: Query, now: float, pending: float) -> QueryInfo:
        """The source node's info: its pending cost plus the watermark
        state and mean delay moments of the query's input streams.

        Plain loops with the float operations of ``sum(...) / len(...)``
        (an int-0 start, adds in binding order) and of ``min``/``max``
        (strict comparisons keep the first extreme)."""
        n = 0
        mu_sum = chi_sum = 0
        watermark = deadline = ingest = None
        for binding in query.bindings:
            progress = binding.progress
            if progress is None:
                continue
            mu, chi = progress.current_epoch_mean()
            mu_sum += mu
            chi_sum += chi
            n += 1
            ts = progress.last_watermark_ts
            if watermark is None or ts < watermark:
                watermark = ts
            ts = progress.next_deadline
            if ts is not None and (deadline is None or ts < deadline):
                deadline = ts
            ts = progress.last_swm_ingest_time
            if ts is not None and (ingest is None or ts > ingest):
                ingest = ts
        if not n:
            return QueryInfo(published_at=now, pending_cost_ms=pending)
        return QueryInfo(
            published_at=now,
            mu=mu_sum / n,
            chi=chi_sum / n,
            last_watermark_ts=watermark,
            next_deadline=deadline,
            last_swm_ingest_time=ingest,
            pending_cost_ms=pending,
        )

    # -- the node-aware cycle hook ------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.plan.n_nodes

    def _run_nodes(
        self, now: float, backpressured: bool, down_nodes: FrozenSet[int]
    ) -> Tuple[SchedulerContext, Tuple[NodeCycle, ...]]:
        """Deliver, publish forwarded information, collect, then let each
        live node's policy plan and run the node's share of its plan."""
        # Queries whose source node failed cannot ingest: their traffic
        # ages in the network buffer until the node recovers.
        blocked = None
        if down_nodes:
            blocked = lambda q: self.plan.source_node(q) in down_nodes
        self._deliver_ingestions(now, backpressured, blocked=blocked)
        self._publish_info(now, down_nodes)
        ctx = self._collect()
        # A failed node runs neither its policy nor its tasks.
        nodes = tuple(
            self._run_node(node, scheduler, ctx, self.cores_per_node)
            for node, scheduler in enumerate(self.node_schedulers)
            if node not in down_nodes
        )
        self._throttle_requested = any(r.plan.throttle_ingestion for r in nodes)
        return ctx, nodes

    def _on_standby_promotion(self, node: int, now: float) -> None:
        """Re-place the failed node's operators onto a hot standby.

        The standby is modelled as spare capacity on the surviving node
        with the fewest operators (ties to the lowest index):
        :meth:`PhysicalPlan.relocate` moves the operators and rebuilds the
        placement index, and channel transfer latencies are rewritten, so
        the moved operators run there from the next plan onward. Everything
        downstream — ``_localize``, ``_publish_info``, the per-node
        schedulers — reads that index, so the promotion takes effect
        cluster-wide at once.
        """
        survivors = [
            n
            for n in range(self.plan.n_nodes)
            if n != node
            and not (self.faults is not None and self.faults.node_down(n, now))
        ]
        if not survivors:
            return  # total outage: nothing to promote onto
        load = {n: 0 for n in survivors}
        for target_node in self.plan.node_of.values():
            if target_node in load:
                load[target_node] += 1
        target = min(survivors, key=lambda n: (load[n], n))
        # Placement is infrastructure state: the re-placement survives a
        # later rollback, like the wall clock.
        self.plan.relocate(self.queries, node, target)
        # Re-derive which edges now cross nodes (the moved operators may
        # have gained or lost co-location with their neighbours).
        for query in self.queries:
            cross = {id(op) for op in self.plan.cross_node_edges(query)}
            for op in query.operators:
                channel = op.output
                if channel is None:
                    continue
                if id(op) in cross:
                    channel.latency_ms = self.rpc_latency_ms
                    if channel not in self._delayed_channels:
                        self._delayed_channels.append(channel)  # klink: transient[derived channel wiring, re-computed from the placement plan]
                else:
                    channel.latency_ms = 0.0

    def _localize(self, plan: Plan, node: int) -> Plan:
        """Restrict a node's plan to the operators hosted on that node."""
        placement = self.plan.placement
        allocations = []
        for alloc in plan.allocations:
            share = placement(alloc.query).shares.get(node)
            if share is None:
                continue
            if alloc.operators is None:
                allocations.append(share.allocation)
                continue
            op_ids = share.op_ids
            local = [op for op in alloc.operators if id(op) in op_ids]
            if local:
                allocations.append(Allocation(alloc.query, local))
        return Plan(allocations, mode=plan.mode)
