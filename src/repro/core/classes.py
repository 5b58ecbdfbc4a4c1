"""Class-based (SLA) scheduling composition.

The paper's related work (Sec. 7) discusses policies that prioritize
queries "by using user-defined values or by specifying an SLA" and notes
that "Klink's algorithm can be complementarily used with such policies":
the SLA policy decides *between* service classes, the inner policy
decides *within* a class.

:class:`ClassBasedScheduler` implements that composition: every query is
assigned a service class (0 = most important). Each cycle the inner
policy produces its ordering as usual; allocations are then stably
re-sorted by class, so class 0's queries always run first but keep the
inner policy's relative order (Klink's least-slack, SBox's deadlines,
...). Share-mode inner policies (Default) are passed through per class
in class order.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.scheduler import Decisions, Plan, Scheduler, SchedulerContext
from repro.spe.state import INT_MAP, STATE


class ClassBasedScheduler(Scheduler):
    """Strict-priority service classes around an inner scheduling policy."""

    #: class assignments change at runtime (:meth:`assign`), so they are
    #: checkpoint state, as is the inner policy's own state
    CHECKPOINT = (("query_classes", "query_classes", INT_MAP), ("inner", "inner", STATE))

    def __init__(
        self,
        inner: Scheduler,
        query_classes: Optional[Dict[str, int]] = None,
        default_class: int = 0,
    ) -> None:
        if default_class < 0:
            raise ValueError(f"negative default class: {default_class}")
        self.inner = inner
        self.query_classes = dict(query_classes or {})
        self.default_class = default_class
        self.name = f"Class({inner.name})"

    def class_of(self, query_id: str) -> int:
        return self.query_classes.get(query_id, self.default_class)

    def assign(self, query_id: str, service_class: int) -> None:
        """Assign (or update) a query's service class."""
        if service_class < 0:
            raise ValueError(f"negative service class: {service_class}")
        self.query_classes[query_id] = service_class

    def plan(self, ctx: SchedulerContext) -> Plan:
        inner_plan = self.inner.plan(ctx)
        ordered = sorted(
            inner_plan.allocations,
            key=lambda alloc: self.class_of(alloc.query.query_id),
        )  # sort is stable: ties keep the inner policy's order
        return Plan(
            ordered,
            mode=inner_plan.mode,
            overhead_ms=inner_plan.overhead_ms,
            throttle_ingestion=inner_plan.throttle_ingestion,
        )

    def overhead_ms(self, ctx: SchedulerContext) -> float:
        return self.inner.overhead_ms(ctx)

    def explain_plan(self, ctx: SchedulerContext, plan: Plan) -> Decisions:
        """The inner policy explains this plan: the class re-sort only
        moved allocations, and ranks are positions in this plan."""
        return self.inner.explain_plan(ctx, plan)

    def reset(self) -> None:
        self.inner.reset()
