"""Per-operator and per-chain profiling.

Where the audit log explains *why* the policy chose what it chose, the
profiler shows *where the simulated CPU-milliseconds actually went*:
per operator, cumulative CPU-ms and events in/out (from the operator's
own runtime stats), plus the per-cycle *high-water marks* the stats
alone cannot reconstruct — peak queued events/bytes and peak window
state — which is what identifies the queue that caused a
memory-management episode.

Attach an :class:`OperatorProfiler` to an engine
(``Engine(..., profiler=OperatorProfiler())``); the engine samples it
once per scheduling cycle and publishes the final profiles through
``RunMetrics.operator_profiles``. The per-cycle cost is one pass over
the operators (the engine already makes such a pass for utilization
sampling); memory is O(#operators), independent of run length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence


@dataclass(frozen=True)
class OperatorProfile:
    """Cumulative runtime profile of one operator over a run."""

    query_id: str
    name: str
    kind: str
    cpu_ms: float
    events_in: float
    events_out: float
    watermarks_seen: int
    panes_fired: int
    late_events_dropped: float
    queued_events_hwm: float
    queued_bytes_hwm: float
    state_bytes_hwm: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query_id": self.query_id,
            "name": self.name,
            "kind": self.kind,
            "cpu_ms": self.cpu_ms,
            "events_in": self.events_in,
            "events_out": self.events_out,
            "watermarks_seen": self.watermarks_seen,
            "panes_fired": self.panes_fired,
            "late_events_dropped": self.late_events_dropped,
            "queued_events_hwm": self.queued_events_hwm,
            "queued_bytes_hwm": self.queued_bytes_hwm,
            "state_bytes_hwm": self.state_bytes_hwm,
        }


@dataclass(frozen=True)
class ChainProfile:
    """Aggregated profile of one query's operator chain (pipeline)."""

    query_id: str
    n_operators: int
    cpu_ms: float
    events_in: float        # events entering the chain (entry operators)
    events_delivered: float  # events the sink consumed
    late_events_dropped: float
    queued_events_hwm: float   # sum of member HWMs (worst queue build-up)
    memory_bytes_hwm: float    # queued bytes + window state, peak of sums
    hottest_operator: str
    hottest_cpu_ms: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "query_id": self.query_id,
            "n_operators": self.n_operators,
            "cpu_ms": self.cpu_ms,
            "events_in": self.events_in,
            "events_delivered": self.events_delivered,
            "late_events_dropped": self.late_events_dropped,
            "queued_events_hwm": self.queued_events_hwm,
            "memory_bytes_hwm": self.memory_bytes_hwm,
            "hottest_operator": self.hottest_operator,
            "hottest_cpu_ms": self.hottest_cpu_ms,
        }


class _HighWater:
    """Per-operator running maxima (one slot-based record per operator)."""

    __slots__ = ("queued_events", "queued_bytes", "state_bytes")

    def __init__(self) -> None:
        self.queued_events = 0.0
        self.queued_bytes = 0.0
        self.state_bytes = 0.0


class OperatorProfiler:
    """Accumulates per-operator high-water marks cycle by cycle.

    Operators are keyed by ``(query_id, operator_name)`` so profiles
    survive the operators themselves (the key is also what the trace
    format stores). Cumulative counters (CPU-ms, events) are read off
    ``operator.stats`` at snapshot time — they need no per-cycle work.
    """

    def __init__(self) -> None:
        self._hwm: Dict[str, _HighWater] = {}
        self._query_mem_hwm: Dict[str, float] = {}
        self.cycles_sampled = 0

    @staticmethod
    def _key(query_id: str, op: Any) -> str:
        return f"{query_id}\x00{op.name}"

    # -- engine-facing hook --------------------------------------------------

    def on_cycle(self, event: Any) -> None:
        """Update high-water marks from the current queue/state depths."""
        self.cycles_sampled += 1
        for query in event.engine.queries:
            qid = query.query_id
            mem = 0.0
            for op in query.operators:
                key = self._key(qid, op)
                hw = self._hwm.get(key)
                if hw is None:
                    hw = self._hwm[key] = _HighWater()
                queued_events = op.queued_events
                queued_bytes = op.queued_bytes
                state_bytes = op.state_bytes
                if queued_events > hw.queued_events:
                    hw.queued_events = queued_events
                if queued_bytes > hw.queued_bytes:
                    hw.queued_bytes = queued_bytes
                if state_bytes > hw.state_bytes:
                    hw.state_bytes = state_bytes
                mem += queued_bytes + state_bytes
            if mem > self._query_mem_hwm.get(qid, 0.0):
                self._query_mem_hwm[qid] = mem

    def finalize(self, engine: Any) -> None:
        """Publish the final profiles into the run's metrics."""
        engine.metrics.operator_profiles = self.profiles(engine.queries)

    # -- snapshots -----------------------------------------------------------

    def profiles(self, queries: Sequence[Any]) -> List[OperatorProfile]:
        """Final per-operator profiles, in query/pipeline order."""
        out: List[OperatorProfile] = []
        for query in queries:
            for op in query.operators:
                hw = self._hwm.get(self._key(query.query_id, op), _HighWater())
                out.append(
                    OperatorProfile(
                        query_id=query.query_id,
                        name=op.name,
                        kind=type(op).__name__,
                        cpu_ms=op.stats.busy_ms,
                        events_in=op.stats.events_in,
                        events_out=op.stats.events_out,
                        watermarks_seen=op.stats.watermarks_seen,
                        panes_fired=op.stats.panes_fired,
                        late_events_dropped=op.stats.late_events_dropped,
                        queued_events_hwm=hw.queued_events,
                        queued_bytes_hwm=hw.queued_bytes,
                        state_bytes_hwm=hw.state_bytes,
                    )
                )
        return out

    def chain_profiles(self, queries: Sequence[Any]) -> List[ChainProfile]:
        """Per-query (pipeline chain) aggregation of the profiles."""
        out: List[ChainProfile] = []
        for query in queries:
            members = list(query.operators)
            cpu = sum(op.stats.busy_ms for op in members)
            late = sum(op.stats.late_events_dropped for op in members)
            hwms = [
                self._hwm.get(self._key(query.query_id, op), _HighWater())
                for op in members
            ]
            # Dedup preserving binding order: a set here would float-sum
            # events_in in hash order, making the trace byte-unstable for
            # multi-source queries (joins) across PYTHONHASHSEED values.
            entry_ops = list(
                dict.fromkeys(binding.operator for binding in query.bindings)
            )
            events_in = sum(op.stats.events_in for op in entry_ops)
            hottest = max(members, key=lambda op: op.stats.busy_ms)
            out.append(
                ChainProfile(
                    query_id=query.query_id,
                    n_operators=len(members),
                    cpu_ms=cpu,
                    events_in=events_in,
                    events_delivered=query.sink.events_delivered,
                    late_events_dropped=late,
                    queued_events_hwm=sum(h.queued_events for h in hwms),
                    memory_bytes_hwm=self._query_mem_hwm.get(query.query_id, 0.0),
                    hottest_operator=hottest.name,
                    hottest_cpu_ms=hottest.stats.busy_ms,
                )
            )
        return out
