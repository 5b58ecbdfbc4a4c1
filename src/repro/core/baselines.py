"""Baseline scheduling policies (Sec. 6.1.3).

* **Default** — Flink's scheduler performs no query-level runtime
  prioritization: operator threads share cores under the JVM/OS scheduler.
  Modelled as processor-sharing across all queries with queued work.
* **FCFS** — processes input in event arrival order: the query holding the
  oldest queued record runs first.
* **RR** — Round-Robin over the queries, a fixed core-slice each, avoiding
  starvation.
* **HR (Highest Rate)** [Sharaf et al., TODS 2008] — prioritizes the query
  (path) with the highest global output rate: output events produced per
  unit of CPU time, computed from per-operator selectivities and costs.
* **SBox (StreamBox)** [Miao et al., ATC 2017] — prioritizes the query
  whose window deadline is closest (the substream with the earliest
  watermark), scheduling it until a watermark is processed.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.core.scheduler import Allocation, Plan, Scheduler, SchedulerContext
from repro.spe.query import Query
from repro.spe.state import INT


def _rank_by_keys(queries: List[Query], keys: List[float]) -> List[Query]:
    """Stable argsort of ``queries`` by the parallel SoA ``keys`` column.

    Equivalent ordering to ``sorted(queries, key=...)`` — Python's sort is
    stable, so ties preserve the input order under both formulations — but
    the key is a plain list index instead of a per-comparison callback.
    """
    order = sorted(range(len(queries)), key=keys.__getitem__)
    return [queries[i] for i in order]


class DefaultScheduler(Scheduler):
    """Flink default: processor-sharing, no prioritization."""

    name = "Default"

    def plan(self, ctx: SchedulerContext) -> Plan:
        allocations = [Allocation(q) for q in ctx.queries]
        return Plan(allocations, mode="share")


class FCFSScheduler(Scheduler):
    """First-Come-First-Served over queued record arrival times."""

    name = "FCFS"
    reason = "fcfs-oldest-arrival"

    def plan(self, ctx: SchedulerContext) -> Plan:
        queries = ctx.queries
        arrivals: List[float] = []
        for q in queries:
            arrival = q.oldest_queued_arrival()
            arrivals.append(arrival if arrival is not None else math.inf)
        ordered = _rank_by_keys(queries, arrivals)
        return Plan([Allocation(q) for q in ordered], mode="priority")

    def score(self, query: Query) -> Optional[float]:
        # engine time of the oldest queued record (the ranking key)
        return query.oldest_queued_arrival()


class RoundRobinScheduler(Scheduler):
    """Fixed-quantum rotation over the deployed queries."""

    name = "RR"
    reason = "rr-rotation"
    CHECKPOINT = (("cursor", "_cursor", INT),)

    def __init__(self) -> None:
        self._cursor = 0

    def plan(self, ctx: SchedulerContext) -> Plan:
        queries = list(ctx.queries)
        if not queries:
            return Plan([], mode="priority")
        start = self._cursor % len(queries)
        rotation = queries[start:] + queries[:start]
        self._cursor = (start + ctx.cores) % len(queries)
        return Plan([Allocation(q) for q in rotation], mode="priority")

    def reset(self) -> None:
        self._cursor = 0


class HighestRateScheduler(Scheduler):
    """Highest Rate: output events per CPU millisecond, descending.

    For a pipeline o_1..o_m the productivity of admitting one event is
    ``prod(sel_i) / sum_i(cost_i * prod_{j<i} sel_j)`` — the global output
    rate of the path. Measured selectivities/costs are used once observed,
    as HR's runtime implementation would.
    """

    name = "HR"
    reason = "hr-productivity"

    @staticmethod
    def productivity(query: Query) -> float:
        out_fraction = 1.0
        cpu = 0.0
        for op in query.operators:
            cpu += out_fraction * op.cost_per_event_ms
            sel = (
                op.stats.measured_selectivity
                if op.stats.events_in > 0
                else op.selectivity
            )
            out_fraction *= sel
        if cpu <= 0:
            return math.inf
        return out_fraction / cpu

    def plan(self, ctx: SchedulerContext) -> Plan:
        # SoA ranking on negated productivity: sorted(reverse=True) keeps
        # ties in input order (stability is direction-independent), and so
        # does an ascending stable sort on the negated key, because
        # negation never collapses distinct float keys (inf stays -inf).
        queries = ctx.queries
        keys = [-self.productivity(q) for q in queries]
        ordered = _rank_by_keys(queries, keys)
        return Plan([Allocation(q) for q in ordered], mode="priority")

    def score(self, query: Query) -> Optional[float]:
        return self.productivity(query)


class StreamBoxScheduler(Scheduler):
    """StreamBox: earliest upcoming window deadline first.

    SBox allocates resources to the substream with the earliest watermark;
    at query granularity this is the query whose pending window deadline is
    closest. It is agnostic of queue sizes and network delay (the paper's
    critique), so a query whose deadline is near but whose input cannot
    complete for a long time still hoards resources.
    """

    name = "SBox"
    reason = "sbox-deadline"

    def plan(self, ctx: SchedulerContext) -> Plan:
        queries = ctx.queries
        deadlines: List[float] = []
        for q in queries:
            ddl = q.next_window_deadline()
            deadlines.append(ddl if not math.isnan(ddl) else math.inf)
        ordered = _rank_by_keys(queries, deadlines)
        return Plan([Allocation(q) for q in ordered], mode="priority")

    def score(self, query: Query) -> Optional[float]:
        # the pending window deadline the ranking used
        return query.next_window_deadline()


ALL_BASELINES = {
    "Default": DefaultScheduler,
    "FCFS": FCFSScheduler,
    "RR": RoundRobinScheduler,
    "HR": HighestRateScheduler,
    "SBox": StreamBoxScheduler,
}
