"""The Klink scheduler (Sec. 3).

Klink's evaluator runs once per scheduling cycle. Under normal operation
it applies **SWM prioritization**: every query's slack — the idle time it
can absorb without missing its next window deadline — is computed from the
estimated ingestion time of its next sweeping watermark (Sec. 3.1/3.2),
and queries execute in least-slack order. For windowed joins, a slack
value is computed per input stream and the query's slack is the minimum
(Sec. 3.3). When memory utilization reaches the bound ``b``, Klink
transiently switches to **memory management** (Sec. 3.4), scheduling the
pipeline prefixes that release the most in-flight events, until either
half of the consumed memory is freed or a time budget elapses.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.lineage import SwmForecastAudit

from repro.core.estimator import _MIN_STD_MS, SwmIngestionEstimator
from repro.core.memory_policy import best_prefix
from repro.core.scheduler import Allocation, Decisions, Plan, Scheduler, SchedulerContext
from repro.core.slack import expected_slack_scalars, interval_steps_scalars
from repro.spe.query import Query
from repro.spe.state import BOOL, FLOAT, FLOAT_MAP, INT


class KlinkScheduler(Scheduler):
    """Progress-aware least-slack scheduler with memory management."""

    name = "Klink"

    #: modelled CPU cost of one slide of Algorithm 1's probability window
    step_overhead_ms = 0.02
    #: modelled per-query fixed evaluation cost per cycle (runtime data
    #: collection + priority bookkeeping)
    per_query_overhead_ms = 0.05

    #: optional SWM-forecast accuracy audit (repro.obs.SwmForecastAudit),
    #: installed by the bench runner when lineage tracing is enabled. A
    #: pure observer of the estimates Klink computes anyway — it is kept
    #: out of the checkpoint so checkpoint bytes are unchanged by tracing.
    forecast_audit: Optional["SwmForecastAudit"] = None

    #: the estimator itself is stateless (it reads StreamProgress, which
    #: checkpoints with the bindings); only the MM episode machine and
    #: the diagnostics carry across cycles
    CHECKPOINT = (
        ("mm_active", "_mm_active", BOOL),
        ("mm_entry_util", "_mm_entry_util", FLOAT),
        ("mm_entry_time", "_mm_entry_time", FLOAT),
        ("last_slacks", "last_slacks", FLOAT_MAP),
        ("mm_episodes", "mm_episodes", INT),
        ("last_overhead_ms", "_last_overhead_ms", FLOAT),
    )

    def __init__(
        self,
        *,
        confidence: float = 95.0,
        history: int = 400,
        memory_threshold: float = 0.2,
        mm_release_fraction: float = 0.5,
        mm_max_ms: float = 3000.0,
        enable_memory_management: bool = True,
        estimator: Optional[SwmIngestionEstimator] = None,
    ) -> None:
        self.confidence = confidence
        self.history = history
        self.memory_threshold = memory_threshold
        self.mm_release_fraction = mm_release_fraction
        self.mm_max_ms = mm_max_ms
        self.enable_memory_management = enable_memory_management
        self.estimator = estimator or SwmIngestionEstimator(
            history=history, confidence=confidence
        )
        if enable_memory_management:
            self.name = "Klink"
        else:
            self.name = "Klink (w/o MM)"
        # memory-management episode state
        self._mm_active = False
        self._mm_entry_util = 0.0
        self._mm_entry_time = 0.0
        # diagnostics
        self.last_slacks: Dict[str, float] = {}
        self.mm_episodes = 0
        self._last_overhead_ms = 0.0
        # SoA scratch for plan(): per-query slack values aligned with
        # ctx.queries, reused across cycles (rebuilt, never carried over).
        self._slack_soa: List[float] = []
        # One whole-pipeline Allocation per query, reused by every plan.
        self._whole: Dict[str, Allocation] = {}
        # Per-plan scratch for explain_plan(): the queries whose slack this
        # plan's loop took from an overdue SWM.
        self._overdue: Set[str] = set()

    # -- slack evaluation (Algorithm 1) ------------------------------------

    def query_slack(self, query: Query, ctx: SchedulerContext) -> Tuple[float, int]:
        """Minimum slack over the query's input streams, plus the number of
        Algorithm-1 window slides performed (for the overhead model).

        Two regimes:

        * An SWM has already been *ingested* but not yet propagated to the
          window operator (it sits queued behind data events). Its window
          deadline has elapsed: every millisecond now adds directly to
          output latency, so the slack is the (negative) age of the SWM
          minus the queued work — minimizing SWM propagation delay
          (observation (i) of Sec. 2.2).
        * Otherwise the SWM is still in flight, and the expected slack of
          Algorithm 1 applies: schedule the query early enough that its
          queues are drained by the time the SWM arrives (observation (ii)).
        """
        urgent = self._pending_swm_slack(query, ctx.now)
        if urgent is not None:
            self._overdue.add(query.query_id)
            return urgent, 0
        cost = query.pending_cost_ms()
        slacks: List[float] = []
        steps = 0
        # The estimator hands back the distribution's scalars directly and
        # the slack/steps cores consume them, so no SwmEstimate is
        # allocated per (query, binding) per cycle. An attached forecast
        # audit only logs the prediction: audited and unaudited runs take
        # this same path.
        audit = self.forecast_audit
        estimate_scalars = self.estimator.estimate_scalars
        now = ctx.now
        cycle_ms = ctx.cycle_ms
        phase = query.deployed_at
        for binding in query.bindings:
            scalars = estimate_scalars(binding, phase=phase)
            if scalars is None:
                continue
            mean, std, t_min, t_max = scalars[0], scalars[1], scalars[2], scalars[3]
            if audit is not None:
                audit.on_prediction(
                    query.query_id, binding.source_id, scalars[4], mean,
                    binding, now,
                )
            slacks.append(
                expected_slack_scalars(
                    mean, std, t_min, t_max, now, cost, cycle_ms
                )
            )
            steps += interval_steps_scalars(t_min, t_max, now, cycle_ms)
        if not slacks:
            # No window operator downstream: the query has no deadline to
            # protect. It is scheduled after deadline-bearing queries.
            return math.inf, steps
        return min(slacks), steps

    @staticmethod
    def _pending_swm_slack(query: Query, now: float) -> Optional[float]:
        """Slack when an ingested-but-unprocessed SWM is queued, else None.

        An unprocessed SWM exists when some window operator still buffers a
        pane whose deadline is covered by the watermarks every input stream
        has already delivered to the engine (for joins: the minimum across
        inputs, Sec. 3.3). Overdue queries are ranked purely by elapsed
        deadline (earliest-deadline-first): the queued work is sunk cost
        that must be paid whichever order is chosen, and subtracting it
        (Eq. 1 with the known past ``w``) would bias against large queues
        and starve them.
        """
        ingested_wm = None
        for binding in query.bindings:
            progress = binding.progress
            # min() over the progresses: a strict < keeps the first minimum
            if progress is not None and (
                ingested_wm is None or progress.last_watermark_ts < ingested_wm
            ):
                ingested_wm = progress.last_watermark_ts
        if ingested_wm is None:
            return None
        swept_deadline = math.inf
        for op in query.windowed_operators():
            # The pane heap's head is the earliest pending deadline (due
            # panes pop as soon as the event clock advances), so the full
            # sorted listing is not needed here.
            heap = op._pane_heap
            if heap and heap[0][0] <= ingested_wm:
                swept_deadline = min(swept_deadline, heap[0][0])
        if math.isinf(swept_deadline):
            return None
        return swept_deadline - now

    # -- memory-management mode transitions (Sec. 3.4) ------------------------

    def _update_mm_state(self, ctx: SchedulerContext) -> bool:
        if not self.enable_memory_management:
            return False
        util = ctx.memory_utilization
        if not self._mm_active:
            if util >= self.memory_threshold:
                self._mm_active = True
                self._mm_entry_util = util
                self._mm_entry_time = ctx.now
                self.mm_episodes += 1
        else:
            freed_enough = util <= self._mm_entry_util * (
                1.0 - self.mm_release_fraction
            )
            timed_out = (ctx.now - self._mm_entry_time) >= self.mm_max_ms
            if freed_enough or timed_out:
                self._mm_active = False
        return self._mm_active

    # -- plan -----------------------------------------------------------------

    def plan(self, ctx: SchedulerContext) -> Plan:
        mm = self._update_mm_state(ctx)
        queries = ctx.queries
        slack_soa = self._slack_soa  # klink: transient[scratch ranking buffer rebuilt every plan()]
        del slack_soa[:]
        self._overdue.clear()  # klink: transient[per-plan branch record read by explain_plan()]
        total_steps = 0
        slack_of: Dict[str, float] = {}
        for query in queries:
            slack, steps = self.query_slack(query, ctx)
            slack_soa.append(slack)
            slack_of[query.query_id] = slack
            total_steps += steps
        self.last_slacks = slack_of
        self._last_overhead_ms = (
            self.per_query_overhead_ms * len(queries)
            + self.step_overhead_ms * total_steps
        )
        # Stable argsort over the SoA column: identical ordering to sorting
        # the queries by a slack lookup (query_ids are unique, ties keep
        # ctx.queries order under both formulations).
        order = sorted(range(len(queries)), key=slack_soa.__getitem__)
        ordered = [queries[i] for i in order]
        if not mm:
            return Plan([self._whole_allocation(q) for q in ordered], mode="priority")
        # Memory management (Sec. 3.4): run each query's memory-releasing
        # prefix, prioritizing the queries providing the largest potential
        # reduction in memory utilization; slack breaks ties so latency is
        # still protected among equal releases.
        scored: List[Tuple[float, float, Allocation]] = []
        for query in ordered:
            prefix = best_prefix(query, ctx.cycle_ms)
            if prefix is None:
                continue
            if prefix.worthwhile:
                ops = list(prefix.operators)
                if query.sink not in ops:
                    # The output operator always runs: window results and
                    # SWMs emitted by the prefix must reach it (invariant
                    # (ii), Sec. 2.2), and sinks are nearly free to run.
                    ops.append(query.sink)
                allocation = Allocation(query, ops)
                release = prefix.achievable_removal(ctx.cycle_ms)
            else:
                allocation = self._whole_allocation(query)
                release = 0.0
            scored.append((release, slack_of[query.query_id], allocation))
        scored.sort(key=lambda item: (-item[0], item[1]))
        return Plan(
            [alloc for _, _, alloc in scored],
            mode="priority",
            # Prefix-only scheduling stalls the sources feeding the
            # unscheduled suffix operators (credit-based flow control), so
            # input is throttled while memory management runs.
            throttle_ingestion=True,
        )

    def _whole_allocation(self, query: Query) -> Allocation:
        """The reusable ``Allocation(query)`` (rebuilt if the query object
        behind an id changed)."""
        alloc = self._whole.get(query.query_id)
        if alloc is None or alloc.query is not query:
            alloc = self._whole[query.query_id] = Allocation(query)  # klink: transient[reusable plan entries, rebuilt from the query on demand]
        return alloc

    def overhead_ms(self, ctx: SchedulerContext) -> float:
        return self._last_overhead_ms

    # -- observability --------------------------------------------------------

    def _delay_profile(
        self, query: Query
    ) -> Tuple[Optional[float], Optional[float]]:
        """(mean, std) of the estimated SWM network delay across the
        query's input streams (averaged for joins, Sec. 3.3)."""
        means: List[float] = []
        stds: List[float] = []
        for binding in query.bindings:
            progress = binding.progress
            if progress is None:
                continue
            mu, chi = self.estimator.delay_moments(progress)
            means.append(mu)
            # SwmIngestionEstimator.delay_std's expression, on the same read
            stds.append(max(math.sqrt(max(chi - mu * mu, 0.0)), _MIN_STD_MS))
        if not means:
            return None, None
        return sum(means) / len(means), sum(stds) / len(stds)

    def explain_plan(self, ctx: SchedulerContext, plan: Plan) -> Decisions:
        """Audit-trail explanation: why each query holds its rank.

        Reasons: ``memory-release`` / ``memory-mode-full`` while the
        memory-management episode is active (Sec. 3.4), ``overdue-swm``
        for the queries this plan ranked EDF because their ingested SWM
        awaits processing, ``no-deadline`` for deadline-free queries
        (infinite slack), and ``slack-order`` for the normal
        least-expected-slack ranking. Must follow :meth:`plan` in the
        same cycle: it reads the slacks and branches the plan recorded.
        The finite slack is also the decision's score.
        """
        ids: List[str] = []
        reasons: List[str] = []
        slacks: List[Optional[float]] = []
        means: List[Optional[float]] = []
        stds: List[Optional[float]] = []
        memory: List[float] = []
        queued: List[float] = []
        for alloc in plan.allocations:
            query = alloc.query
            slack = self.last_slacks.get(query.query_id)
            if self._mm_active:
                reason = (
                    "memory-release"
                    if alloc.operators is not None
                    else "memory-mode-full"
                )
            elif slack is not None and math.isinf(slack):
                reason = "no-deadline"
            elif query.query_id in self._overdue:
                reason = "overdue-swm"
            else:
                reason = "slack-order"
            mean, std = self._delay_profile(query)
            ids.append(query.query_id)
            reasons.append(reason)
            slacks.append(slack if slack is not None and math.isfinite(slack) else None)
            means.append(mean)
            stds.append(std)
            memory.append(query.memory_bytes)
            queued.append(query.queued_events)
        return Decisions(ids, reasons, slacks, means, stds, slacks, memory, queued)

    def reset(self) -> None:
        self._mm_active = False
        self._mm_entry_util = 0.0
        self._mm_entry_time = 0.0
        self.last_slacks = {}
        self.mm_episodes = 0
        self._last_overhead_ms = 0.0
