"""Per-cycle engine tracing.

A :class:`CycleTracer` attached to an :class:`~repro.spe.engine.Engine`
records one row per scheduling cycle: clock, memory, CPU, backpressure
state, and the head of the scheduler's priority order. Traces explain
*why* a run behaved the way it did — which queries the policy favoured,
when memory-management episodes started, when backpressure began
shedding — and export to CSV for offline analysis.

Usage::

    tracer = CycleTracer(max_rows=10_000)
    engine = Engine(queries, scheduler, tracer=tracer)
    engine.run(60_000.0)
    tracer.to_csv("trace.csv")
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence


@dataclass
class CycleRecord:
    """One scheduling cycle's observable state."""

    time: float
    memory_utilization: float
    cpu_used_ms: float
    overhead_ms: float
    backpressured: bool
    plan_mode: str
    throttled: bool
    head_queries: List[str] = field(default_factory=list)


class CycleTracer:
    """Bounded in-memory trace of engine cycles."""

    FIELDS = [
        "time",
        "memory_utilization",
        "cpu_used_ms",
        "overhead_ms",
        "backpressured",
        "plan_mode",
        "throttled",
        "head_queries",
    ]

    def __init__(self, max_rows: int = 100_000, head: int = 4, stream=None) -> None:
        if max_rows < 1:
            raise ValueError(f"need at least one row: {max_rows}")
        if head < 0:
            raise ValueError(f"negative head count: {head}")
        self.head = head
        self._rows: Deque[CycleRecord] = deque(maxlen=max_rows)
        #: optional row sink with a ``write(dict)`` method (e.g.
        #: :class:`repro.obs.export.JsonlWriter`): every record is forwarded
        #: as it is produced, so long runs keep full traces on disk while
        #: the in-memory deque stays bounded.
        self.stream = stream

    # -- engine-facing hook --------------------------------------------------

    def on_cycle(self, event) -> None:
        """Record one cycle: the first planning node's plan with the
        cycle's total CPU. A cycle in which no node planned (every node
        of a cluster failed) leaves no row."""
        if not event.nodes:
            return
        plan = event.nodes[0].plan
        record = CycleRecord(
            time=event.now,
            memory_utilization=event.ctx.memory_utilization,
            cpu_used_ms=event.used,
            overhead_ms=event.overhead,
            backpressured=event.backpressured,
            plan_mode=plan.mode,
            throttled=plan.throttle_ingestion,
            head_queries=[
                alloc.query.query_id
                for alloc in plan.allocations[: self.head]
            ],
        )
        self._rows.append(record)
        if self.stream is not None:
            self.stream.write(self._record_dict(record))

    def finalize(self, engine) -> None:
        """Nothing to close: every row is written as its cycle ends."""

    # -- consumption ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Sequence[CycleRecord]:
        return tuple(self._rows)

    def last(self) -> Optional[CycleRecord]:
        return self._rows[-1] if self._rows else None

    def throttled_spans(self) -> List[tuple]:
        """(start, end) time spans during which ingestion was throttled."""
        spans = []
        start = None
        prev_time = None
        for row in self._rows:
            throttling = row.throttled or row.backpressured
            if throttling and start is None:
                start = row.time
            elif not throttling and start is not None:
                spans.append((start, prev_time))
                start = None
            prev_time = row.time
        if start is not None:
            spans.append((start, prev_time))
        return spans

    @staticmethod
    def _record_dict(row: CycleRecord) -> dict:
        """A record as an insertion-ordered dict (FIELDS order)."""
        return {
            "time": row.time,
            "memory_utilization": row.memory_utilization,
            "cpu_used_ms": row.cpu_used_ms,
            "overhead_ms": row.overhead_ms,
            "backpressured": row.backpressured,
            "plan_mode": row.plan_mode,
            "throttled": row.throttled,
            "head_queries": list(row.head_queries),
        }

    def to_jsonl(self, path: str) -> None:
        """Write the retained rows as deterministic JSON lines."""
        from repro.obs.export import JsonlWriter

        with JsonlWriter(path) as writer:
            for row in self._rows:
                writer.write(self._record_dict(row))

    def to_chrome(self, path: str, *, cycle_ms: float) -> None:
        """Export the retained cycles as a Chrome trace-event file.

        Lightweight counterpart of ``repro-bench report --chrome`` for
        runs traced with a bare :class:`CycleTracer` (no TraceWriter):
        the result loads in ``chrome://tracing`` / Perfetto.
        """
        from repro.obs.flame import trace_from_tracer, write_chrome_trace

        trace = trace_from_tracer(
            [self._record_dict(row) for row in self._rows], cycle_ms=cycle_ms
        )
        write_chrome_trace(path, trace)

    def to_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.FIELDS)
            for row in self._rows:
                writer.writerow(
                    [
                        f"{row.time:.3f}",
                        f"{row.memory_utilization:.6f}",
                        f"{row.cpu_used_ms:.3f}",
                        f"{row.overhead_ms:.4f}",
                        int(row.backpressured),
                        row.plan_mode,
                        int(row.throttled),
                        "|".join(row.head_queries),
                    ]
                )
