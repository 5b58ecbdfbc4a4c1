"""Scheduler-decision audit trail.

The paper's whole argument is that scheduling *decisions* driven by SWM
delay estimates beat arrival-order and round-robin policies; the audit
log is what lets a run substantiate that claim. Each scheduling cycle it
records, per query, the policy's ranking together with a
machine-readable *reason* (least-slack order, memory-mode release,
overdue SWM, ...) and the runtime inputs the decision was based on: the
slack estimate, the estimated SWM delay mean/std, memory bytes, and
queued events.

While a log is attached, the engine asks each node's policy to
*explain* its plan right after planning: ``Scheduler.explain_plan``
returns the decisions as columns (:class:`repro.core.scheduler.Decisions`).
:meth:`AuditLog.on_cycle` stores one :class:`DecisionRecord` per node
with those columns packed. Memory is bounded: records live in a
``deque(maxlen=max_rows)``, and an optional ``stream`` (any object with
a ``write(dict)`` method, e.g. a :class:`~repro.obs.export.TraceWriter`)
receives every record as it is produced for unbounded-duration runs.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs.export import JsonlWriter, dumps_line

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.scheduler import Decisions

#: machine-readable decision reasons emitted by the shipped policies
KNOWN_REASONS = (
    "slack-order",        # Klink: least-expected-slack priority order
    "overdue-swm",        # Klink: ingested-but-unprocessed SWM, EDF order
    "no-deadline",        # Klink: no downstream window deadline to protect
    "memory-release",     # Klink MM: prefix run releasing in-flight memory
    "memory-mode-full",   # Klink MM: no worthwhile prefix, full pipeline
    "processor-share",    # Default: fair share, no prioritization
    "priority-order",     # generic priority plan (base Scheduler)
    "fcfs-oldest-arrival",
    "rr-rotation",
    "hr-productivity",
    "sbox-deadline",
)


@dataclass(frozen=True)
class QueryDecision:
    """One query's position in a cycle's plan, and why: the row that
    :attr:`DecisionRecord.decisions` and :meth:`DecisionRecord.head`
    rebuild from the record's columns.

    ``score`` carries the policy-specific ranking key (arrival time for
    FCFS, productivity for HR, deadline for SBox, the finite slack for
    Klink); ``slack_ms`` and the SWM delay moments are filled by
    slack-driven policies.
    """

    query_id: str
    rank: int
    reason: str
    slack_ms: Optional[float] = None
    swm_delay_mean_ms: Optional[float] = None
    swm_delay_std_ms: Optional[float] = None
    score: Optional[float] = None
    memory_bytes: float = 0.0
    queued_events: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Fixed-key-order dict (stable JSONL serialization)."""
        return {
            "query_id": self.query_id,
            "rank": self.rank,
            "reason": self.reason,
            "slack_ms": self.slack_ms,
            "swm_delay_mean_ms": self.swm_delay_mean_ms,
            "swm_delay_std_ms": self.swm_delay_std_ms,
            "score": self.score,
            "memory_bytes": self.memory_bytes,
            "queued_events": self.queued_events,
        }


#: QueryDecision's fields in declaration (and JSONL key) order
_FIELDS = tuple(f.name for f in fields(QueryDecision))


class DecisionRecord:
    """One scheduling cycle's decision, with full per-query context.

    The per-query decisions are stored packed, one column per field:
    query ids and reasons as tuples in rank order (the rank is the
    position), the six value columns as ``array('d')`` with one bitmask
    marking their ``None`` cells.
    """

    __slots__ = (
        "time", "cycle", "node", "policy", "mode", "backpressured",
        "throttled", "memory_utilization", "cpu_used_ms", "overhead_ms",
        "_ids", "_reasons", "_floats", "_none",
    )

    def __init__(
        self,
        *,
        time: float,
        cycle: int,
        node: int,
        policy: str,
        mode: str,
        backpressured: bool,
        throttled: bool,
        memory_utilization: float,
        cpu_used_ms: float,
        overhead_ms: float,
        decisions: Decisions,
    ) -> None:
        self.time = time
        self.cycle = cycle
        self.node = node
        self.policy = policy
        self.mode = mode
        self.backpressured = backpressured
        self.throttled = throttled
        self.memory_utilization = memory_utilization
        self.cpu_used_ms = cpu_used_ms
        self.overhead_ms = overhead_ms
        n = len(decisions.ids)
        self._ids: Tuple[str, ...] = tuple(decisions.ids)
        self._reasons: Tuple[str, ...] = tuple(decisions.reasons)
        floats: List[Sequence[Any]] = []
        none = 0
        for c, values in enumerate(decisions[2:]):
            if None in values:
                none |= sum(1 << (c * n + i) for i, v in enumerate(values) if v is None)
            floats.append(array("d", [0.0 if v is None else v for v in values]))
        self._floats = tuple(floats)
        self._none = none

    def _rows(self) -> Iterator[Tuple[Any, ...]]:
        """Each decision's field values, in QueryDecision field order."""
        n = len(self._ids)
        columns: List[Sequence[Any]] = []
        for c, column in enumerate(self._floats):
            mask = self._none >> (c * n) & ((1 << n) - 1)
            if mask:
                column = [None if mask >> i & 1 else v for i, v in enumerate(column)]
            columns.append(column)
        return zip(self._ids, range(n), self._reasons, *columns)

    @property
    def decisions(self) -> Tuple[QueryDecision, ...]:
        """The cycle's decisions, rebuilt from the columns on every access
        (wrap in ``list()`` to keep them)."""
        return tuple(QueryDecision(*row) for row in self._rows())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "cycle": self.cycle,
            "node": self.node,
            "policy": self.policy,
            "mode": self.mode,
            "backpressured": self.backpressured,
            "throttled": self.throttled,
            "memory_utilization": self.memory_utilization,
            "cpu_used_ms": self.cpu_used_ms,
            "overhead_ms": self.overhead_ms,
            "decisions": [dict(zip(_FIELDS, row)) for row in self._rows()],
        }

    def head(self) -> Optional[QueryDecision]:
        """The top-ranked decision (None for an empty plan)."""
        return next((QueryDecision(*row) for row in self._rows()), None)


class AuditLog:
    """Bounded in-memory log of scheduler decisions, optionally streamed.

    Attach to an engine via ``Engine(..., audit=AuditLog())``. Two runs
    of the same seeded configuration produce byte-identical JSONL
    exports (the simulation is deterministic and serialization is
    insertion-ordered with fixed float formatting).
    """

    def __init__(self, max_rows: int = 50_000, stream: Any = None) -> None:
        if max_rows < 1:
            raise ValueError(f"need at least one row: {max_rows}")
        self.max_rows = max_rows
        self.stream = stream
        self.records_seen = 0
        self._rows: Deque[DecisionRecord] = deque(maxlen=max_rows)

    # -- engine-facing hook --------------------------------------------------

    def on_cycle(self, event: Any) -> None:
        """Record one row per node that planned this cycle, with the
        decisions the engine captured at *plan* time (before execution
        drained the queues the policy ranked on)."""
        for node in event.nodes:
            scheduler, plan = node.scheduler, node.plan
            record = DecisionRecord(
                time=event.now,
                cycle=event.cycle,
                node=node.node,
                policy=str(getattr(scheduler, "name", type(scheduler).__name__)),
                mode=str(plan.mode),
                backpressured=bool(event.backpressured),
                throttled=bool(plan.throttle_ingestion),
                memory_utilization=float(event.ctx.memory_utilization),
                cpu_used_ms=float(node.used),
                overhead_ms=float(node.overhead),
                decisions=node.decisions,
            )
            self._rows.append(record)
            self.records_seen += 1
            if self.stream is not None:
                self.stream.write(record.to_dict())

    def finalize(self, engine: Any) -> None:
        """Nothing to close: every row is written as its cycle ends."""

    # -- consumption ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Sequence[DecisionRecord]:
        return tuple(self._rows)

    def last(self) -> Optional[DecisionRecord]:
        return self._rows[-1] if self._rows else None

    def reason_counts(self, head_only: bool = False) -> Dict[str, int]:
        """Occurrences of each decision reason across retained records."""
        counts: Counter[str] = Counter()
        for record in self._rows:
            counts.update(record._reasons[:1] if head_only else record._reasons)
        return dict(sorted(counts.items()))

    def head_query_counts(self) -> Dict[str, int]:
        """How often each query was ranked first (who the policy favours)."""
        counts: Counter[str] = Counter()
        for record in self._rows:
            counts.update(record._ids[:1])
        return dict(sorted(counts.items()))

    def mode_episodes(self) -> List[Tuple[float, float, str]]:
        """(start, end, kind) spans for throttle/backpressure conditions.

        ``kind`` is ``"backpressure"`` or ``"throttle"``; overlapping
        conditions produce separate spans per kind.
        """
        episodes: List[Tuple[float, float, str]] = []
        for kind in ("backpressure", "throttle"):
            start: Optional[float] = None
            prev_time: Optional[float] = None
            for record in self._rows:
                active = (
                    record.backpressured
                    if kind == "backpressure"
                    else record.throttled
                )
                if active and start is None:
                    start = record.time
                elif not active and start is not None:
                    assert prev_time is not None
                    episodes.append((start, prev_time, kind))
                    start = None
                prev_time = record.time
            if start is not None and prev_time is not None:
                episodes.append((start, prev_time, kind))
        episodes.sort(key=lambda e: (e[0], e[2]))
        return episodes

    def to_jsonl(self, path: str) -> None:
        """Export retained records as deterministic JSONL."""
        with JsonlWriter(path) as writer:
            for record in self._rows:
                writer.write(record.to_dict())

    def to_jsonl_str(self) -> str:
        """Retained records as one JSONL string (determinism tests)."""
        return "".join(
            dumps_line(record.to_dict()) + "\n" for record in self._rows
        )
