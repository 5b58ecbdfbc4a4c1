"""Single-node stream processing engine (discrete-event simulator).

The engine plays the role of Flink's runtime in the paper's Sec. 5
framework. It owns the virtual clock, generates source traffic through the
network delay models, maintains operator input queues, and — once per
scheduling cycle of ``r`` milliseconds — *collects* runtime information,
asks the active policy for a :class:`~repro.core.scheduler.Plan`, and
*starts* the planned tasks with the cycle's CPU budget while the others
stay *paused* (the register/collect/start/pause API of Sec. 5).

CPU model
---------
A node has ``cores`` cores; one cycle provides ``cores * r`` CPU
milliseconds. A query pipeline executes sequentially, so a single query
can consume at most ``r`` ms per cycle (one core-slice); a priority plan
therefore effectively selects which ``cores`` queries run this cycle.
Unused budget is lost (cores idle), mirroring a real deployment.

Ingestion model
---------------
Sources generate event batches every ``gen_batch_ms`` with event-times
equal to generation time; each batch samples a network delay and enters
the engine's ingestion queue at ``generation + delay``. Watermarks are
generated every ``watermark_period_ms`` carrying ``generation - lateness``
and are subject to the same network. When the memory model signals
backpressure, delivery into operator queues is suspended (throttling the
input rate, as Flink's backpressure does) while generation continues —
events age in the network buffer and latency grows.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.scheduler import Allocation, Decisions, Plan, Scheduler, SchedulerContext
from repro.spe.events import EventBatch, LatencyMarker, Watermark
from repro.spe.memory import MemoryConfig, MemoryModel
from repro.spe.metrics import RunMetrics
from repro.spe.operators import Operator, SinkOperator
from repro.spe.query import Query, SourceBinding
from repro.spe.simtime import VirtualClock
from repro.spe.state import BOOL, FLOAT, INT, INT_MAP, RNG, STATE
from repro.spe.streams import DEFAULT_BATCH_SIZE, Channel

#: an in-flight network record: (ingest_time, seq, query, binding, record)
NetworkEntry = Tuple[float, int, Query, SourceBinding, object]


class NodeCycle(NamedTuple):
    """One node's part of a cycle: the policy instance that ran there, the
    plan it made, the decisions explained at plan time (empty without an
    audit log), and the CPU its tasks used and its planning cost."""

    node: int
    scheduler: Scheduler
    plan: Plan
    decisions: Decisions
    used: float
    overhead: float


class CycleEvent(NamedTuple):
    """What one scheduling cycle did, built once after the cycle executed
    and handed to every cycle observer's ``on_cycle``.

    ``nodes`` holds one record per node that planned, in node order;
    ``used`` and ``overhead`` are their sums. ``down_nodes`` is the
    effective failed-node set after recovery.
    """

    engine: "Engine"
    now: float
    cycle: int
    ctx: SchedulerContext
    backpressured: bool
    down_nodes: FrozenSet[int]
    nodes: Tuple[NodeCycle, ...]
    used: float
    overhead: float


class Engine:
    """Runs a set of queries under a scheduling policy on one node.

    Cycle observers (``invariants``, ``profiler``, ``telemetry``,
    ``audit``, in that order) receive one
    :class:`CycleEvent` per cycle through ``on_cycle(event)`` and one
    ``finalize(engine)`` call at the end of every :meth:`run`.
    """

    #: nodes the engine schedules on
    n_nodes = 1

    #: checkpoint state beside the frame ``resilience.checkpoint`` writes
    #: by hand (clock, network, schedulers, queries)
    CHECKPOINT = (
        ("seq", "_seq", INT),
        ("throttle_requested", "_throttle_requested", BOOL),
        ("events_in_prev", "_events_in_prev", FLOAT),
        ("swm_drained", "_swm_drained", INT_MAP),
        ("marker_drained", "_marker_drained", INT_MAP),
        ("engine_rng", "_rng", RNG),
        ("external_bytes", "memory", STATE),
        ("metrics", "metrics", STATE),
    )

    def __init__(
        self,
        queries: Sequence[Query],
        scheduler: Scheduler,
        *,
        cores: int = 24,
        cycle_ms: float = 120.0,
        memory: MemoryConfig | None = None,
        seed: int = 0,
        audit=None,
        profiler=None,
        faults=None,
        invariants=None,
        telemetry=None,
        checkpoints=None,
        recovery=None,
        lineage=None,
        validate: bool = True,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if cores < 1:
            raise ValueError(f"need at least one core: {cores}")
        if cycle_ms <= 0:
            raise ValueError(f"cycle must be positive: {cycle_ms}")
        if not queries:
            raise ValueError("engine needs at least one query")
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1: {batch_size}")
        self.queries = list(queries)
        #: row cap of every input channel's columnar RecordBatch entries
        #: (1 = one row per entry). Single-input operators drain an
        #: entry's rows within one budget-loop turn; multi-input (join)
        #: operators consume exactly one row per round-robin turn, the
        #: granularity their budget split depends on. Execution is
        #: byte-identical for every row cap (the batch-equivalence gate in
        #: tests and CI enforces it).
        self.batch_size = int(batch_size)
        for query in self.queries:
            for op in query.operators:
                for channel in op.inputs:
                    channel.batch_size = self.batch_size
        if validate:
            # Fail fast on misconfigured plans (cycles, keyless keyed
            # windows, watermark-less event-time windows, ...) before a
            # single simulation cycle runs; ``validate=False`` bypasses.
            from repro.analysis.plan_check import validate_queries

            validate_queries(self.queries)
        self.scheduler = scheduler
        self.cores = cores
        self.cycle_ms = float(cycle_ms)
        self.memory = MemoryModel(memory)
        #: optional scheduler-decision audit trail (repro.obs.AuditLog)
        self.audit = audit
        #: optional per-operator profiler (repro.obs.OperatorProfiler)
        self.profiler = profiler
        #: optional deterministic fault schedule (repro.faults.FaultPlan)
        self.faults = faults
        #: optional runtime invariant checker (repro.faults.InvariantMonitor)
        self.invariants = invariants
        #: optional in-run telemetry sampler (repro.obs.TelemetrySampler)
        self.telemetry = telemetry
        #: optional periodic checkpointing (repro.resilience.CheckpointCoordinator)
        self.checkpoints = checkpoints
        #: optional failover recovery (repro.resilience.RecoveryManager);
        #: None keeps the legacy node-failure semantics (lossless pause)
        self.recovery = recovery
        #: optional sampled per-record causal tracing (repro.obs.LineageTracker)
        self.lineage = lineage
        self.clock = VirtualClock()
        self.metrics = RunMetrics()
        self._rng = np.random.default_rng(seed)
        self._seq = 0
        #: id of the next LatencyMarker this engine generates. Numbering is
        #: per engine, so snapshot bytes do not depend on what else ran in
        #: the process; like the markers it numbers, it is never rolled back.
        self._marker_id = 0
        # The network: a calendar queue of NetworkEntry tuples. Records
        # land in the bucket of the cycle that can first deliver them;
        # each delivery drains every bucket <= the current cycle index,
        # keeps the authoritative ``ingest_time <= now`` check, and sorts
        # the deliverable set once by (ingest_time, seq), the network's
        # delivery order.
        self._cal_buckets: Dict[int, List[NetworkEntry]] = {}
        self._cal_cycle = 0
        self._throttle_requested = False  # set by plans that stall sources
        self._swm_drained: Dict[str, int] = {q.query_id: 0 for q in self.queries}
        self._marker_drained: Dict[str, int] = {q.query_id: 0 for q in self.queries}
        self._events_in_prev = 0.0
        #: where the last run() call aimed to end; -inf before the first
        self._run_end = float("-inf")
        #: cross-node channels whose transfers are released each cycle
        #: (only a DistributedEngine has any)
        self._delayed_channels: List[Channel] = []
        # Flat view of every operator's stats block in (query, operator)
        # order: the utilization sampler sums events_in once per cycle, and
        # both the query set and each query's operator list are fixed for
        # the engine's lifetime (stats blocks are mutated in place, never
        # replaced — checkpoint restore included).
        self._all_op_stats = [
            op.stats for q in self.queries for op in q.operators
        ]
        self._register()
        if lineage is not None:
            lineage.attach(self)

    # -- Sec. 5 framework: register -------------------------------------------

    def _register(self) -> None:
        """Register every task (operator) with the runtime scheduler."""
        seen_ids = set()
        for query in self.queries:
            if query.query_id in seen_ids:
                raise ValueError(f"duplicate query id: {query.query_id}")
            seen_ids.add(query.query_id)

    # -- source generation -------------------------------------------------------

    def _generate_until(self, horizon: float, shed_events: bool) -> None:
        """Generate source records with generation time <= ``horizon``.

        Under backpressure (``shed_events``), payload generation for the
        elapsed interval is shed — the throttled producer slows down and
        those events never enter the system, which is what bounds memory
        and caps throughput (Fig. 6d's plateau). Watermarks and latency
        markers are control traffic and keep flowing, so event-time keeps
        progressing while the input rate is throttled.
        """
        for query in self.queries:
            for binding in query.bindings:
                self._generate_binding(query, binding, horizon, shed_events)

    def _generate_binding(
        self, query: Query, binding: SourceBinding, horizon: float, shed_events: bool
    ) -> None:
        """File one source's records generated up to ``horizon`` into the
        network: event batches, then watermarks, then latency markers, each
        stream in generation order — the order in which records take their
        delay draws and seq numbers.

        The grid walk, the delay draw and the calendar-queue filing fuse
        into one pass per stream. Delays come one at a time out of the
        model's block-prefetch buffer (``DelayModel.sample_amortized``): a
        binding-cycle needs ~3 draws, below the break-even size of a numpy
        batch. Fault hooks run per record, and only for sources that some
        fault episode can hold, delay or drop.
        """
        spec = binding.spec
        start = query.deployed_at
        if binding.next_gen_time < start:
            binding.next_gen_time = start
            binding.next_watermark_time = start + spec.watermark_period_ms
            binding.next_marker_time = start + spec.marker_period_ms
        qid = query.query_id
        faults = self.faults
        if faults is not None and not faults.perturbs_source(qid):
            faults = None  # every source hook would be a no-op
        metrics = self.metrics
        sample = spec.delay_model.sample_amortized
        seq = self._seq
        buckets = self._cal_buckets
        cur = self._cal_cycle
        now = self.clock.now
        cycle_ms = self.cycle_ms
        # The cursors' drift-free arithmetic (``origin + step * period``,
        # see PeriodicCursor.value) is inlined below with origin/period
        # hoisted: this loop runs for every binding every cycle and the
        # property indirection dominates its cost. Records are filed
        # inline, under _file_network's bucket rule.
        gen_batch_ms = spec.gen_batch_ms
        cursor = binding._gen_cursor
        g_origin, g_period = cursor.origin, cursor.period
        step = cursor.step
        g0 = g_origin + step * g_period
        # Event batches: one per generation interval, rate-modulated by the
        # source's burst state machine (load spikes, Sec. 1).
        bursty = spec.burst_factor > 1.0
        if not bursty:
            count = spec.rate_eps * gen_batch_ms / 1000.0
        else:
            rate = self._current_rate
        bytes_per_event = spec.bytes_per_event
        while g0 + gen_batch_ms <= horizon:
            step += 1
            g1 = g_origin + step * g_period  # drift-free g0 + gen_batch_ms
            if bursty:
                count = rate(binding, g0) * gen_batch_ms / 1000.0
            if shed_events:
                metrics.events_shed += count
            elif count > 0:
                delay = sample()
                if faults is not None:
                    # A stalled source holds the batch until the stall
                    # ends; the extra time counts as experienced network
                    # delay, so Klink's delay history sees the perturbation.
                    delay = max(delay, faults.source_hold_until(qid, g1) - g1)
                t = g1 + delay
                seq += 1
                key = cur if t <= now else cur + int((t - now) / cycle_ms)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = bucket = []
                bucket.append(
                    (
                        t,
                        seq,
                        query,
                        binding,
                        EventBatch(
                            count=count,
                            t_start=g0,
                            t_end=g1,
                            delay=delay,
                            bytes_per_event=bytes_per_event,
                        ),
                    )
                )
            g0 = g1
        cursor.step = step
        # Watermarks: periodic, timestamp lags generation by the lateness
        # allowance (Sec. 2.2's "current time minus five seconds" pattern).
        # Suppressed for sources whose pipeline generates watermarks with
        # a WatermarkGeneratorOperator instead (Sec. 2.2 case ii).
        if spec.emit_watermarks:
            cursor = binding._watermark_cursor
            w_origin, w_period = cursor.origin, cursor.period
            step = cursor.step
            lateness = spec.lateness_ms
            source_id = binding.source_id
            while True:
                g = w_origin + step * w_period
                if g > horizon:
                    break
                step += 1
                if faults is None:
                    delay = sample()
                elif faults.drops_watermark(qid, g):
                    # A lost watermark takes no delay draw.
                    metrics.watermarks_dropped_by_faults += 1
                    continue
                else:
                    delay = sample() + faults.watermark_extra_delay(qid, g)
                    delay = max(delay, faults.source_hold_until(qid, g) - g)
                t = g + delay
                seq += 1
                key = cur if t <= now else cur + int((t - now) / cycle_ms)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = bucket = []
                bucket.append(
                    (
                        t,
                        seq,
                        query,
                        binding,
                        Watermark(g - lateness, source_id=source_id),
                    )
                )
            cursor.step = step
        # Latency markers: 200 ms period per source (Sec. 6.1.2).
        cursor = binding._marker_cursor
        m_origin, m_period = cursor.origin, cursor.period
        step = cursor.step
        marker_id = self._marker_id
        while True:
            g = m_origin + step * m_period
            if g > horizon:
                break
            delay = sample()
            if faults is not None:
                delay = max(delay, faults.source_hold_until(qid, g) - g)
            t = g + delay
            seq += 1
            key = cur if t <= now else cur + int((t - now) / cycle_ms)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = bucket = []
            bucket.append((t, seq, query, binding, LatencyMarker(g, marker_id)))
            marker_id += 1
            step += 1
        cursor.step = step
        self._marker_id = marker_id  # klink: transient[never rolled back; restore raises it past every restored id]
        self._seq = seq

    def _current_rate(self, binding: SourceBinding, at: float) -> float:
        """Source rate at generation time ``at``, per the burst state."""
        spec = binding.spec
        if spec.burst_factor <= 1.0:
            return spec.rate_eps
        while binding.burst_state_until <= at:
            binding.bursting = not binding.bursting
            mean = (
                spec.burst_on_mean_ms if binding.bursting else spec.burst_off_mean_ms
            )
            binding.burst_state_until += float(binding.rng.exponential(mean))
        factor = spec.burst_factor if binding.bursting else spec.quiet_factor
        return spec.rate_eps * factor

    def reserve_marker_ids(self, highest: int) -> None:
        """Number future latency markers above ``highest``, an id this
        engine now holds (a restore calls this, so an engine resuming a
        snapshot never reissues a restored marker's id)."""
        if highest >= self._marker_id:
            self._marker_id = highest + 1

    # -- network -------------------------------------------------------------------

    def _push_network(
        self, ingest_time: float, query: Query, binding: SourceBinding, record: object
    ) -> None:
        self._seq += 1
        self._file_network((ingest_time, self._seq, query, binding, record))

    def _file_network(self, entry: NetworkEntry) -> None:
        """File ``entry`` under the first cycle whose delivery pass may find
        it due. The bucket index only controls *when the record is
        checked*: the authoritative test stays the per-record
        ``ingest_time <= now`` in the delivery pass, so a record bucketed
        one cycle early (float division is correctly rounded, so it can
        never be bucketed late by more than an ulp's worth, which the
        re-check absorbs) is simply deferred to the next bucket."""
        ingest_time = entry[0]
        now = self.clock.now
        if ingest_time <= now:
            key = self._cal_cycle
        else:
            key = self._cal_cycle + int((ingest_time - now) / self.cycle_ms)
        bucket = self._cal_buckets.get(key)
        if bucket is None:
            self._cal_buckets[key] = bucket = []  # klink: transient[canonical form captured as network_entries]
        bucket.append(entry)

    @property
    def network_entries(self) -> List[NetworkEntry]:
        """Every in-flight record, sorted by (ingest_time, seq) — the order
        the network delivers in. The checkpoint codec captures this form;
        assigning it re-files the records against the current clock."""
        entries = [
            entry for bucket in self._cal_buckets.values() for entry in bucket
        ]
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        return entries

    @network_entries.setter
    def network_entries(self, entries: List[NetworkEntry]) -> None:
        self._cal_buckets = {}
        for entry in entries:
            self._file_network(entry)

    def _due_calendar_records(self, now: float) -> List[NetworkEntry]:
        """Drain every bucket up to the current cycle and return the
        deliverable records in (ingest_time, seq) order; records checked
        early re-file under the next cycle's bucket."""
        buckets = self._cal_buckets
        cur = self._cal_cycle
        due_keys = [key for key in buckets if key <= cur]
        if not due_keys:
            return []
        if len(due_keys) == 1:
            checked = buckets.pop(due_keys[0])
        else:
            due_keys.sort()
            checked = []
            for key in due_keys:
                checked.extend(buckets.pop(key))
        ready = []
        early = None
        for entry in checked:
            if entry[0] <= now:
                ready.append(entry)
            else:
                if early is None:
                    early = []
                early.append(entry)
        if early is not None:
            nxt = buckets.get(cur + 1)
            if nxt is None:
                buckets[cur + 1] = early
            else:
                nxt.extend(early)
        # (ingest_time, seq) pairs are unique, so tuple comparison never
        # reaches the Query element.
        ready.sort()
        return ready

    # -- ingestion ---------------------------------------------------------------

    def _deliver_ingestions(
        self, now: float, backpressured: bool, blocked=None
    ) -> None:
        """Move network records with ingest time <= now into source queues.

        Under backpressure, payload batches already in flight are deferred
        to the next cycle (they age in the network buffer) while control
        records (watermarks, markers) are still delivered — watermarks
        occupy no queue memory and progressing event-time is what lets
        window operators fire and release state. ``blocked`` (a predicate
        over queries) defers everything for queries whose ingestion path
        is unavailable — e.g. their source node failed.
        """
        ready = self._due_calendar_records(now)
        deferred = []
        stalled: Dict[str, bool] = {}
        metrics = self.metrics
        lineage = self.lineage
        # With per-query credit bounds disabled, query_stalled is
        # constant-False: skip the per-record memo lookups entirely.
        check_stall = self.memory.config.per_query_bound_fraction is not None
        query_stalled = self.memory.query_stalled
        # The unconstrained cycle — no admission gate, no credit stalls,
        # no backpressure — delivers every record; skipping the three
        # constant-False tests per record matters at this loop's volume.
        # (The guard tests are pure reads, so the split is unobservable.)
        gated = check_stall or backpressured or blocked is not None
        for _, _, query, binding, record in ready:
            if gated:
                qid = query.query_id
                if blocked is not None and blocked(query):
                    deferred.append((query, binding, record))
                    continue
                if check_stall and qid not in stalled:
                    stalled[qid] = query_stalled(query)
                if check_stall and stalled[qid]:
                    # Credit-based flow control: the whole channel stalls —
                    # events, watermarks, and markers keep their order and
                    # age in the source buffer until credit frees up.
                    deferred.append((query, binding, record))
                    continue
                # Exact-type checks: network records are exactly EventBatch,
                # Watermark, or LatencyMarker (no subclasses in the codebase).
                is_payload = type(record) is EventBatch
                if backpressured and is_payload:
                    deferred.append((query, binding, record))
                    continue
            else:
                is_payload = type(record) is EventBatch
            progress = binding.progress
            if is_payload:
                binding.channel.push_row(
                    record.count,
                    record.t_start,
                    record.t_end,
                    record.delay,
                    record.bytes_per_event,
                    now,
                )
                binding.events_ingested += record.count
                if progress is not None:
                    progress.observe_delay(record.delay, record.count)
                metrics.total_events_ingested += record.count
                if lineage is not None:
                    lineage.on_ingested(query, binding, record, now)
            elif type(record) is Watermark:
                if progress is not None and record.timestamp <= progress.last_watermark_ts:
                    continue  # late watermark: dropped by the SPE (Sec. 2.2)
                if progress is not None:
                    swm = progress.observe_watermark(record.timestamp, now)
                    if swm and lineage is not None:
                        # This watermark finalized a source epoch: it is the
                        # sweeping watermark the SWM estimator predicted.
                        lineage.on_swm_ingested(
                            query.query_id, binding.source_id,
                            record.timestamp, now,
                        )
                binding.channel.push(record, now)
                binding.watermarks_ingested += 1
            else:  # LatencyMarker
                binding.channel.push(record, now)
        if deferred:
            push = self._push_network
            retry_at = now + self.cycle_ms
            for query, binding, record in deferred:
                push(retry_at, query, binding, record)

    # -- Sec. 5 framework: collect ------------------------------------------------

    def _collect(self) -> SchedulerContext:
        return SchedulerContext(
            now=self.clock.now,
            cycle_ms=self.cycle_ms,
            cores=self.cores,
            queries=self.queries,
            memory_utilization=self.memory.utilization(self.queries),
        )

    # -- Sec. 5 framework: start/pause (plan execution) ------------------------------

    def _execute_plan(self, plan: Plan, budget_ms: float) -> float:
        """Run the planned tasks within ``budget_ms``; return CPU ms used."""
        if plan.mode == "share":
            return self._execute_share(plan.allocations, budget_ms)
        return self._execute_priority(plan.allocations, budget_ms)

    def _execute_priority(
        self, allocations: List[Allocation], budget_ms: float
    ) -> float:
        """Grant core time in priority order until the budget runs out.

        Each scheduled query's operators run as parallel task threads, so
        one query can absorb up to ``cycle_ms`` per *operator* in a cycle
        (it rides load bursts on several cores); queries further down the
        order get whatever budget the higher-priority ones left.
        """
        used_total = 0.0
        cycle_ms = self.cycle_ms
        for alloc in allocations:
            remaining = budget_ms - used_total
            if remaining <= 1e-9:
                break
            ops = alloc.runnable_operators()
            slice_ms = min(cycle_ms * len(ops), remaining)
            used_total += self._fair_share_ops(ops, slice_ms, cap_per_op=cycle_ms)
        return used_total

    def _execute_share(
        self, allocations: List[Allocation], budget_ms: float
    ) -> float:
        """Operator-level processor sharing (Flink's Default behaviour).

        Every operator is a task thread; the OS scheduler shares cores
        fairly across *threads*, not queries, so the cycle budget is split
        evenly over all operators with queued work. Each thread can use at
        most one core for the cycle (``cycle_ms``). Leftover budget is
        re-offered in further rounds (work-conserving), which also lets
        records produced by upstream operators in round one be consumed
        downstream in round two.
        """
        all_ops = [
            op for alloc in allocations for op in alloc.runnable_operators()
        ]
        return self._fair_share_ops(all_ops, budget_ms, cap_per_op=self.cycle_ms)

    def _fair_share_ops(
        self, operators: List[Operator], budget_ms: float, cap_per_op: float
    ) -> float:
        """Fairly share ``budget_ms`` across operator threads.

        Several rounds re-offer unused budget to operators that still have
        work (work-conserving) and let records emitted upstream in an
        earlier round be consumed downstream in a later one. ``cap_per_op``
        bounds any single thread to one core for the cycle.
        """
        used_total = 0.0
        used_per_op: Dict[int, float] = {}
        used_get = used_per_op.get
        now = self.clock.now
        cap_cutoff = cap_per_op - 1e-9
        for rnd in range(3):
            # The work filter is has_work() inlined (any input channel
            # non-empty) — a pure read, so the explicit loop is
            # unobservable; round 0 additionally skips the per-op usage
            # lookups (no operator has usage yet, so the cap filter
            # passes trivially: 0 < cutoff for any positive cap).
            ops = []
            ops_append = ops.append
            if rnd == 0 and cap_cutoff > 0.0:
                for op in operators:
                    for ch in op.inputs:
                        if ch._entries:
                            ops_append(op)
                            break
            else:
                for op in operators:
                    for ch in op.inputs:
                        if ch._entries:
                            if used_get(id(op), 0.0) < cap_cutoff:
                                ops_append(op)
                            break
            if not ops or budget_ms - used_total <= 1e-9:
                break
            share = (budget_ms - used_total) / len(ops)
            for op in ops:
                prior = used_get(id(op), 0.0)
                # Inlined 3-way min (ties take the earlier argument,
                # matching the builtin's left-to-right resolution).
                grant = share
                cap_rem = cap_per_op - prior
                if cap_rem < grant:
                    grant = cap_rem
                budget_rem = budget_ms - used_total
                if budget_rem < grant:
                    grant = budget_rem
                if grant <= 1e-9:
                    continue
                used = op.step(grant, now)
                used_per_op[id(op)] = prior + used
                used_total += used
        return used_total

    # -- metrics ----------------------------------------------------------------

    def _drain_sink_metrics(self) -> None:
        for query in self.queries:
            sink = query.sink
            seen = self._swm_drained[query.query_id]
            if len(sink.swm_latencies) > seen:
                fresh = sink.swm_latencies.latency[seen:]
                self._swm_drained[query.query_id] = len(sink.swm_latencies)
                per_query = self.metrics.per_query_swm_latencies
                per_query.setdefault(query.query_id, array("d")).extend(fresh)
                self.metrics.swm_latencies.extend(fresh)
                ideal = query.pipeline_cost_per_event_ms()
                if ideal > 0:
                    self.metrics.slowdowns.extend([lat / ideal for lat in fresh])
            markers, seen_m = sink.marker_latencies, self._marker_drained[query.query_id]
            self.metrics.marker_latencies.extend(markers.latency[seen_m:])
            self._marker_drained[query.query_id] = len(markers)

    def _sample_utilization(self, cpu_used_ms: float) -> None:
        events_in = sum(s.events_in for s in self._all_op_stats)
        delta = events_in - self._events_in_prev
        self._events_in_prev = events_in
        self.metrics.total_events_processed += delta
        self.metrics.samples.append(
            self.clock.now,
            self.memory.used_bytes(self.queries),
            cpu_used_ms / (self.cores * self.cycle_ms),
            delta,
        )

    # -- main loop -----------------------------------------------------------------

    @property
    def observers(self) -> Tuple[Any, ...]:
        """The attached cycle observers, in dispatch order."""
        return tuple(
            observer
            for observer in (
                self.invariants, self.profiler, self.telemetry, self.audit
            )
            if observer is not None
        )

    def run(self, duration_ms: float) -> RunMetrics:
        """Advance the simulation by ``duration_ms`` and return metrics."""
        if duration_ms <= 0:
            raise ValueError(f"duration must be positive: {duration_ms}")
        if self.checkpoints is not None:
            self.checkpoints.ensure_baseline(self)
        if self.recovery is not None:
            self.recovery.begin_run(self)
        # Whole cycles overshoot a target end that is not on a cycle
        # boundary. A call that starts within one cycle past the previous
        # call's target counts from that target, so a run split into
        # segments runs the same cycles as one call.
        start = self.clock.now
        if self._run_end - 1e-9 <= start < self._run_end + self.cycle_ms:
            start = self._run_end
        end = start + duration_ms
        self._run_end = end  # klink: transient[segment bookkeeping of this engine's run() calls; a restored engine starts a new run]
        while self.clock.now < end - 1e-9:
            self.step_cycle()
        if self.recovery is not None:
            self.recovery.finalize(self)
        if self.checkpoints is not None:
            self.checkpoints.finalize(self)
        self.metrics.duration_ms = self.clock.now
        self.metrics.late_events_dropped = sum(
            op.stats.late_events_dropped for q in self.queries for op in q.operators
        )
        for observer in self.observers:
            observer.finalize(self)
        if self.lineage is not None:
            self.lineage.finalize(self.clock.now)
        return self.metrics

    def _apply_faults(self, now: float) -> FrozenSet[int]:
        """Apply the cycle's active fault episodes; return the failed nodes."""
        faults = self.faults
        if faults is None:
            return frozenset()
        self.memory.external_bytes = faults.extra_memory_bytes(now)
        if faults.has_slowdowns:
            for query in self.queries:
                qid = query.query_id
                for op in query.operators:
                    op.cost_multiplier = faults.slowdown_factor(
                        qid, op.name, now
                    )
        if faults.active_at(now):
            self.metrics.fault_cycles += 1
        return frozenset(
            node for node in range(self.n_nodes) if faults.node_down(node, now)
        )

    def step_cycle(self) -> None:
        """Execute one scheduling cycle of ``cycle_ms``."""
        self.clock.advance(self.cycle_ms)
        # The calendar queue's cycle index advances with the clock even on
        # cycles that skip delivery (node down): the next delivery pass
        # drains every bucket <= the current index, so nothing is checked
        # late.
        self._cal_cycle += 1  # klink: transient[relative bucket index; restore refiles buckets against it]
        now = self.clock.now
        down_nodes = self._apply_faults(now)
        if self.recovery is not None:
            down_nodes = self.recovery.on_cycle(self, down_nodes, now)
        for channel in self._delayed_channels:
            if channel._pending:
                channel.release(now)
        backpressured = self.memory.backpressured(self.queries) or self._throttle_requested
        if backpressured:
            self.metrics.backpressure_cycles += 1
        self._generate_until(now, shed_events=backpressured)
        ctx, nodes = self._run_nodes(now, backpressured, down_nodes)
        used = overhead = 0.0
        for record in nodes:
            used += record.used
            overhead += record.overhead
        self.metrics.scheduler_overhead_ms += overhead
        self.metrics.busy_cpu_ms += used
        self._drain_sink_metrics()
        self._sample_utilization(used + overhead)
        cycle_index = self.metrics.cycles
        self.metrics.cycles += 1
        observers = self.observers
        if observers:
            event = CycleEvent(
                self, now, cycle_index, ctx, backpressured, down_nodes, nodes,
                used, overhead,
            )
            for observer in observers:
                observer.on_cycle(event)
        if self.checkpoints is not None:
            self.checkpoints.maybe_checkpoint(self, now, down_nodes)

    def _run_nodes(
        self, now: float, backpressured: bool, down_nodes: FrozenSet[int]
    ) -> Tuple[SchedulerContext, Tuple[NodeCycle, ...]]:
        """Deliver, collect, then plan and execute on every live node;
        return the context the policies planned on and one record per
        node that planned.

        This is the one-node case. While the node is failed nothing is
        ingested or executed, and the cycle still reports the node's
        record with an empty plan, so it is traced and audited."""
        if down_nodes:
            # Sources keep generating; their output ages in the network
            # buffer and floods in at recovery.
            idle = NodeCycle(0, self.scheduler, Plan([], mode="priority"), Decisions(), 0.0, 0.0)
            return self._collect(), (idle,)
        self._deliver_ingestions(now, backpressured)
        ctx = self._collect()
        record = self._run_node(0, self.scheduler, ctx, self.cores)
        self._throttle_requested = record.plan.throttle_ingestion
        return ctx, (record,)

    def _run_node(
        self, node: int, scheduler: Scheduler, ctx: SchedulerContext, cores: int
    ) -> NodeCycle:
        """Plan with ``scheduler`` and run the node's share of the plan
        within its ``cores`` x cycle budget."""
        plan = scheduler.plan(ctx)
        # Explanations are captured at *plan* time: policies that rank
        # on live queue state (FCFS arrival, HR productivity) must be
        # read before execution drains the queues they ranked on.
        decisions = scheduler.explain_plan(ctx, plan) if self.audit is not None else Decisions()
        overhead = plan.overhead_ms + scheduler.overhead_ms(ctx)
        # Memory pressure (heap churn, GC) taxes the cycle's useful CPU.
        tax = self.memory.pressure_tax(ctx.memory_utilization)
        budget = max(0.0, (cores * self.cycle_ms - overhead) * (1.0 - tax))
        used = self._execute_plan(self._localize(plan, node), budget)
        return NodeCycle(node, scheduler, plan, decisions, used, overhead)

    def _localize(self, plan: Plan, node: int) -> Plan:
        """Restrict ``plan`` to the operators hosted on ``node``: on one
        node, every operator."""
        return plan

    def _on_standby_promotion(self, node: int, now: float) -> None:
        """Hook invoked by the RecoveryManager when a hot standby takes
        over ``node``. The single-node engine models an in-place standby
        (same operators, same placement), so there is nothing to move;
        :class:`~repro.distributed.cluster.DistributedEngine` overrides
        this to re-place the failed node's operators on a survivor."""
