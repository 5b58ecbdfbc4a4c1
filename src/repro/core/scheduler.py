"""Runtime scheduling framework (the infrastructure of Sec. 5).

The paper adds to Flink a *state-based* scheduling framework: a single
scheduler orchestrates operator execution, collecting runtime information
(the tuple **I**) each cycle and deciding which tasks run for the next
``r`` milliseconds. This module defines the policy-side abstractions; the
engine (:mod:`repro.spe.engine`) implements the orchestration side with
the paper's four API calls (``register``, ``collect``, ``start``,
``pause``).

A policy receives a :class:`SchedulerContext` — live views of every
deployed query, the engine clock, and memory utilization — and returns a
:class:`Plan`:

* ``mode="priority"``: allocations are a priority order; the engine grants
  each query at most one core-slice of ``r`` ms per cycle, walking the
  order until the cycle's CPU budget (cores x r) is exhausted. This is how
  Klink, HR, SBox, FCFS, and RR express their decisions.
* ``mode="share"``: the budget is divided evenly among queries with queued
  work — processor-sharing, modelling Flink's default scheduler, which
  performs no query-level prioritization (threads share cores under the
  OS scheduler).

An allocation may restrict execution to a subset of a query's operators
(a pipeline *prefix*), which Klink's memory-management policy uses to run
exactly the operator sequence that releases the most memory (Sec. 3.4).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence

if TYPE_CHECKING:  # imported lazily to avoid a cycle with repro.spe.engine
    from repro.spe.operators import Operator
    from repro.spe.query import Query


@dataclass
class Allocation:
    """One scheduling decision: run ``query`` (or a subset of its ops)."""

    query: Query
    operators: Optional[List[Operator]] = None  # None -> whole pipeline

    def runnable_operators(self) -> List[Operator]:
        return self.operators if self.operators is not None else self.query.operators


@dataclass
class Plan:
    """A cycle's scheduling decision.

    ``throttle_ingestion`` marks plans that deliberately stall the sources:
    when a policy schedules only pipeline prefixes (Klink's memory
    management), the unscheduled downstream operators' input buffers fill
    and the SPE's credit-based flow control pushes back to the sources, so
    new input is shed for the duration — the engine honours the flag by
    throttling generation exactly as it does under memory backpressure.
    """

    allocations: List[Allocation]
    mode: str = "priority"  # "priority" | "share"
    overhead_ms: float = 0.0
    throttle_ingestion: bool = False

    def __post_init__(self) -> None:
        if self.mode not in ("priority", "share"):
            raise ValueError(f"unknown plan mode: {self.mode}")
        if self.overhead_ms < 0:
            raise ValueError(f"negative overhead: {self.overhead_ms}")

    def scheduled_query_ids(self) -> List[str]:
        """Query ids in allocation order.

        Used by diagnostics and by the invariant monitor, which asserts
        that a priority plan schedules only registered queries and each at
        most once.
        """
        return [alloc.query.query_id for alloc in self.allocations]


class Decisions(NamedTuple):
    """A plan's explanation for the audit trail, one column per field.

    Every column is in allocation order, so the decision at position
    ``i`` has rank ``i``: ``ids`` and ``reasons`` name each query and
    why it holds its rank, and the six value columns hold floats or
    ``None`` (:class:`repro.obs.audit.QueryDecision` documents each).
    """

    ids: Sequence[str] = ()
    reasons: Sequence[str] = ()
    slack_ms: Sequence[Optional[float]] = ()
    swm_delay_mean_ms: Sequence[Optional[float]] = ()
    swm_delay_std_ms: Sequence[Optional[float]] = ()
    score: Sequence[Optional[float]] = ()
    memory_bytes: Sequence[float] = ()
    queued_events: Sequence[float] = ()


@dataclass
class SchedulerContext:
    """The runtime information tuple I handed to the policy each cycle.

    Queries expose the per-operator runtime data (queue sizes, measured
    costs and selectivities, window deadlines, delay histories via their
    source bindings) that the data-acquisition module collects.
    """

    now: float
    cycle_ms: float
    cores: int
    queries: Sequence[Query]
    memory_utilization: float = 0.0


class Scheduler(abc.ABC):
    """Base class for runtime scheduling policies."""

    #: human-readable policy name (used in bench output)
    name: str = "base"

    #: fixed bookkeeping cost charged per evaluated query per cycle (ms).
    #: Policies with heavier evaluation override :meth:`overhead_ms`.
    per_query_overhead_ms: float = 0.0005

    #: cross-cycle state a checkpoint carries (``repro.spe.state``):
    #: stateless policies declare none, stateful ones extend it so a
    #: restored run replans identically
    CHECKPOINT: tuple = ()

    @abc.abstractmethod
    def plan(self, ctx: SchedulerContext) -> Plan:
        """Return this cycle's plan. Called once per scheduling cycle."""

    def overhead_ms(self, ctx: SchedulerContext) -> float:
        """CPU cost of running the policy itself this cycle."""
        return self.per_query_overhead_ms * len(ctx.queries)

    # -- observability -------------------------------------------------------

    #: the audit trail's reason for every rank of a priority plan
    reason: str = "priority-order"

    def score(self, query: Query) -> Optional[float]:
        """The scalar this policy ranked ``query`` on, for the audit
        trail; ``None`` when it ranks on no single key."""
        return None

    def explain_plan(self, ctx: SchedulerContext, plan: Plan) -> Decisions:
        """Explain a plan for the scheduler-decision audit trail.

        The engine calls this right after :meth:`plan` in the same cycle,
        before execution drains the queues the policy ranked on, so live
        query state and per-cycle diagnostics still match the plan. The
        base implementation gives every allocation :attr:`reason` (or
        ``processor-share`` for a share plan) and its finite
        :meth:`score`; Klink overrides it with its slacks and branches.
        """
        queries = [alloc.query for alloc in plan.allocations]
        n = len(queries)
        return Decisions(
            ids=[q.query_id for q in queries],
            reasons=["processor-share" if plan.mode == "share" else self.reason] * n,
            slack_ms=[None] * n,
            swm_delay_mean_ms=[None] * n,
            swm_delay_std_ms=[None] * n,
            score=[s if s is None or math.isfinite(s) else None for s in map(self.score, queries)],
            memory_bytes=[q.memory_bytes for q in queries],
            queued_events=[q.queued_events for q in queries],
        )

    def reset(self) -> None:
        """Clear any cross-cycle state (called between experiment runs)."""

    # -- checkpointing (repro.resilience) ------------------------------------

    def snapshot_state(self) -> Dict[str, object]:
        """JSON-safe copy of the declared ``CHECKPOINT`` state (``{}``
        for a stateless policy)."""
        # imported here: repro.spe imports this module
        from repro.spe.state import capture_state

        state: Dict[str, object] = capture_state(self)
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Apply a state dict produced by :meth:`snapshot_state`."""
        from repro.spe.state import restore_state

        restore_state(self, state)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"
