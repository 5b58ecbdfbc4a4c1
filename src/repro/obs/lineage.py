"""Per-record event lineage and SWM-forecast accuracy audit.

Klink's claim is that progress-aware scheduling removes *queueing* delay
ahead of window deadlines. The aggregate metrics (latency CDFs, per-operator
profiles) show that it happens; this module shows *where*: a
:class:`LineageTracker` follows a deterministic sample of records from
source generation to sink delivery, recording a contiguous span chain on
the virtual clock —

``network`` (generation → ingestion) → per-hop ``emit`` (cross-node channel
transfer) and ``queue`` (channel wait) → ``execute`` (operator processing;
zero-width by construction, because execution within a scheduling cycle is
instantaneous on the virtual clock) → ``window`` (residency in pane state
until the pane fires) → … → sink delivery.

Because consecutive spans share their boundary timestamps exactly, the
five waterfall components sum to the record's end-to-end latency *exactly*
whenever the virtual-clock arithmetic is closed (integer-valued cycle,
generation, and window grids — true for every pinned benchmark config).

Sampling is hash-based and seeded (:func:`repro.spe.events.record_identity`
hashed with a keyed blake2b): the same records are traced across reruns
and across ``jobs=N`` worker processes, and no RNG stream is consumed, so
enabling tracing leaves run summaries, scheduler decisions, and checkpoint
fingerprints byte-identical to an untraced run.

The companion :class:`SwmForecastAudit` hooks into every Klink slack
evaluation: each call of the SWM-ingestion estimator logs its predicted
arrival (and a naive last-period baseline) against the deadline it covers;
when the sweeping watermark actually arrives, the logged predictions
resolve into signed errors, aggregated into calibration statistics
(mean/percentile error, over-/under-prediction episodes) for the report.

Both logs that grow with run length are columns: the forecast audit's
resolved errors are ``array('d')`` ledgers and completed records live in
a :class:`CompletionLog`. In-flight lineage state of sampled rows
survives checkpoint/restore through the declared ``CHECKPOINT`` state of
the tracker and the audit (:mod:`repro.spe.state`, driven by
``capture_lineage`` / ``restore_lineage``), which references the logs by
prefix.
"""

from __future__ import annotations

from array import array
from collections import deque
from functools import partial
from hashlib import blake2b
from typing import (
    TYPE_CHECKING,
    Any,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.spe.events import EventBatch, pack_event_time, record_identity_prefix
from repro.spe.metrics import ColumnLedger, percentile
from repro.spe.operators import (
    CountWindowedAggregate,
    Operator,
    SinkOperator,
    _WindowedOperatorBase,
)
from repro.spe.state import INT, LEDGER, STATE, Codec, keyed_ledgers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spe.engine import Engine
    from repro.spe.query import Query, SourceBinding
    from repro.spe.streams import Channel

#: waterfall component kinds, in decomposition order
SPAN_KINDS: Tuple[str, ...] = ("network", "queue", "execute", "window", "emit")

#: terminal statuses a sampled record can end in
RECORD_STATUSES: Tuple[str, ...] = (
    "delivered",
    "dropped-late",
    "filtered",
    "window-no-output",
    "count-window",
    "no-downstream",
    "in-flight",
)

#: columns of the forecast audit's per-deadline ledgers
DEADLINE_COLUMNS: Tuple[str, ...] = ("deadline", "error")

_TWO_POW_64 = 1 << 64

#: (kind, operator name or None, start, end) — one link of a span chain
Span = Tuple[str, Optional[str], float, float]


class _Record:
    """In-flight lineage state of one sampled record."""

    __slots__ = ("rid", "query_id", "source_id", "t_end", "absorbed_at", "spans")

    def __init__(
        self,
        rid: str,
        query_id: str,
        source_id: int,
        t_end: float,
    ) -> None:
        self.rid = rid
        self.query_id = query_id
        self.source_id = source_id
        self.t_end = t_end
        self.absorbed_at = 0.0  # window-absorption time while parked on a pane
        self.spans: List[Span] = []  # contiguous chain

    def encode(self) -> Dict[str, Any]:
        return {
            "rid": self.rid,
            "query_id": self.query_id,
            "source_id": self.source_id,
            "t_end": self.t_end,
            "absorbed_at": self.absorbed_at,
            "spans": [list(span) for span in self.spans],
        }

    @classmethod
    def decode(cls, state: Dict[str, Any]) -> "_Record":
        rec = cls(
            str(state["rid"]),
            str(state["query_id"]),
            int(state["source_id"]),
            float(state["t_end"]),
        )
        rec.absorbed_at = float(state["absorbed_at"])
        rec.spans = [
            (
                str(kind),
                None if op is None else str(op),
                float(start),
                float(end),
            )
            for kind, op, start, end in state["spans"]
        ]
        return rec


def _flight_key(key: List[Any]) -> Tuple[str, str, float]:
    return str(key[0]), str(key[1]), float(key[2])


#: ``{(query_id, operator, t_end): FIFO of rider groups}``, sorted by key
INFLIGHT = Codec(
    lambda inflight: [
        [list(key), [[rec.encode() for rec in group] for group in groups]]
        for key, groups in sorted(inflight.items())
    ],
    lambda state, live, mode: {
        _flight_key(key): deque([_Record.decode(r) for r in group] for group in groups)
        for key, groups in state
    },
)

#: ``{(query_id, operator, pane end): parked records}``, sorted by key
WINDOW_WAIT = Codec(
    lambda waiting: [
        [list(key), [rec.encode() for rec in records]]
        for key, records in sorted(waiting.items())
    ],
    lambda state, live, mode: {
        _flight_key(key): [_Record.decode(r) for r in records] for key, records in state
    },
)

#: the unresolved predictions, copied: resolution pops them, so a sidecar
#: cannot name a prefix of them as it does the error ledgers
PENDING = Codec(
    lambda pending: [
        [qid, sid, [[d, [list(e) for e in evs]] for d, evs in sorted(by_d.items())]]
        for (qid, sid), by_d in pending.items()
    ],
    lambda state, live, mode: {
        (str(qid), int(sid)): {
            float(d): [(float(m), None if n is None else float(n)) for m, n in evs]
            for d, evs in by_d
        }
        for qid, sid, by_d in state
    },
)


class _OpInfo:
    """Static per-operator wiring the tracker resolves once at attach."""

    __slots__ = ("query_id", "name", "downstream", "is_sink", "assigner", "is_count")

    def __init__(
        self,
        query_id: str,
        name: str,
        downstream: Optional[str],
        is_sink: bool,
        assigner: Any,
        is_count: bool,
    ) -> None:
        self.query_id = query_id
        self.name = name
        self.downstream = downstream
        self.is_sink = is_sink
        self.assigner = assigner  # WindowAssigner for event-time windowed ops
        self.is_count = is_count


class SwmForecastAudit:
    """Predicted-vs-actual next-SWM arrival calibration (per source).

    Klink's scheduler calls :meth:`on_prediction` on every slack
    evaluation (pure logging — the scheduler's arithmetic and decisions
    are untouched); the engine calls :meth:`on_actual` when a sweeping
    watermark is ingested. Each pending deadline then resolves every
    logged evaluation into a signed arrival error
    ``predicted_mean - actual_ingest_time`` (positive = over-prediction:
    the estimator expected the SWM later than it came), plus the same
    error for a naive last-period baseline
    (``last SWM ingestion + watermark period``).
    """

    CHECKPOINT = (
        ("evaluations", "evaluations", INT),
        ("pending", "_pending", PENDING),
        ("errors", "_errors", keyed_ledgers(partial(array, "d"))),
        ("naive_errors", "_naive_errors", keyed_ledgers(partial(array, "d"))),
        (
            "deadline_errors",
            "_deadline_errors",
            keyed_ledgers(partial(ColumnLedger, DEADLINE_COLUMNS)),
        ),
    )

    def __init__(self) -> None:
        self.evaluations = 0
        #: (query_id, source_id) -> static source metadata
        self._sources: Dict[Tuple[str, int], Dict[str, Any]] = {}
        #: (query_id, source_id) -> deadline -> [(predicted_mean, naive)]
        self._pending: Dict[
            Tuple[str, int], Dict[float, List[Tuple[float, Optional[float]]]]
        ] = {}
        #: (query_id, source_id) -> all resolved per-evaluation errors
        self._errors: Dict[Tuple[str, int], array] = {}
        self._naive_errors: Dict[Tuple[str, int], array] = {}
        #: (query_id, source_id) -> (deadline, last-evaluation error) rows
        self._deadline_errors: Dict[Tuple[str, int], ColumnLedger] = {}

    # -- wiring --------------------------------------------------------------

    def register_source(
        self,
        query_id: str,
        source_id: int,
        watermark_period_ms: float,
        delay_model: Dict[str, Any],
    ) -> None:
        self._sources[(query_id, source_id)] = {  # klink: transient[static source metadata, registered again when a tracker attaches]
            "watermark_period_ms": watermark_period_ms,
            "delay_model": delay_model,
        }

    # -- hooks ---------------------------------------------------------------

    def on_prediction(
        self,
        query_id: str,
        source_id: int,
        deadline: float,
        mean: float,
        binding: "SourceBinding",
        now: float,
    ) -> None:
        """Log one slack evaluation's prediction: the mean of the
        estimated next-SWM arrival for ``deadline``."""
        progress = binding.progress
        naive: Optional[float] = None
        if progress is not None and progress.last_swm_ingest_time is not None:
            naive = (
                progress.last_swm_ingest_time + binding.spec.watermark_period_ms
            )
        key = (query_id, source_id)
        self._pending.setdefault(key, {}).setdefault(deadline, []).append(
            (mean, naive)
        )
        self.evaluations += 1

    def on_actual(
        self, query_id: str, source_id: int, wm_timestamp: float, now: float
    ) -> None:
        """Resolve pending deadlines swept by an ingested SWM at ``now``."""
        key = (query_id, source_id)
        pending = self._pending.get(key)
        if not pending:
            return
        swept = sorted(d for d in pending if d <= wm_timestamp)
        if not swept:
            return
        if key not in self._errors:  # the three ledgers share their keys
            self._errors[key] = array("d")
            self._naive_errors[key] = array("d")
            self._deadline_errors[key] = ColumnLedger(DEADLINE_COLUMNS)
        errors, naive_errors = self._errors[key], self._naive_errors[key]
        per_deadline = self._deadline_errors[key]
        for deadline in swept:
            evaluations = pending.pop(deadline)
            last_error = 0.0
            for predicted, naive in evaluations:
                last_error = predicted - now
                errors.append(last_error)
                if naive is not None:
                    naive_errors.append(naive - now)
            per_deadline.append(deadline, last_error)

    # -- output --------------------------------------------------------------

    @staticmethod
    def _episodes(signed: Iterable[float]) -> Tuple[int, int]:
        """(over, under) maximal runs of same-signed consecutive errors."""
        over = under = 0
        current = 0
        for err in signed:
            sign = 1 if err > 0 else (-1 if err < 0 else 0)
            if sign != current:
                if sign > 0:
                    over += 1
                elif sign < 0:
                    under += 1
                current = sign
        return over, under

    def rows(self) -> List[Dict[str, Any]]:
        """One ``swm_forecast`` trace record per audited source."""
        rows: List[Dict[str, Any]] = []
        keys = sorted(set(self._errors) | set(self._pending) | set(self._sources))
        for key in keys:
            errors = self._errors.get(key, array("d"))
            if not errors and not self._pending.get(key):
                continue
            naive = self._naive_errors.get(key, array("d"))
            abs_errors = [abs(e) for e in errors]
            by_deadline = self._deadline_errors.get(key) or ColumnLedger(DEADLINE_COLUMNS)
            over, under = self._episodes(e for _, e in by_deadline)
            meta = self._sources.get(key, {})
            rows.append(
                {
                    "type": "swm_forecast",
                    "query_id": key[0],
                    "source_id": key[1],
                    "evaluations": len(errors),
                    "deadlines_resolved": len(by_deadline),
                    "deadlines_unresolved": len(self._pending.get(key, {})),
                    "mean_error_ms": (
                        sum(errors) / len(errors) if errors else None
                    ),
                    "mean_abs_error_ms": (
                        sum(abs_errors) / len(abs_errors) if abs_errors else None
                    ),
                    "p50_abs_error_ms": (
                        percentile(abs_errors, 50) if abs_errors else None
                    ),
                    "p90_abs_error_ms": (
                        percentile(abs_errors, 90) if abs_errors else None
                    ),
                    "p99_abs_error_ms": (
                        percentile(abs_errors, 99) if abs_errors else None
                    ),
                    "over_predictions": sum(1 for e in errors if e > 0),
                    "under_predictions": sum(1 for e in errors if e < 0),
                    "over_episodes": over,
                    "under_episodes": under,
                    "naive_evaluations": len(naive),
                    "naive_mean_abs_error_ms": (
                        sum(abs(e) for e in naive) / len(naive) if naive else None
                    ),
                    "watermark_period_ms": meta.get("watermark_period_ms"),
                    "delay_model": meta.get("delay_model"),
                }
            )
        return rows


class CompletionLog:
    """Completed sampled records, in completion order, as columns.

    Per record it holds the ``t_end`` and ``completed_at`` floats, the
    ``rid``, ``query_id`` and ``status`` strings and the ``source_id`` by
    reference, and ``span_stop``, the end offset of the record's spans in
    the flat span columns ``span_kind``, ``span_op``, ``span_start`` and
    ``span_end``. The log only grows at its end, so a checkpoint sidecar
    names a prefix of it instead of copying it. Iteration rebuilds each
    record's ``lineage`` trace row as a fresh dict: ``components`` and
    ``end_to_end_ms`` are recomputed with the float operations that first
    built them, so the rows are exactly the ones the run completed.
    """

    def __init__(self, rows: Iterable[Dict[str, Any]] = ()) -> None:
        self.rid: List[str] = []
        self.query_id: List[str] = []
        self.source_id = array("q")
        self.status: List[str] = []
        self.t_end = array("d")
        self.completed_at = array("d")
        self.span_stop = array("q")
        self.span_kind: List[str] = []
        self.span_op: List[Optional[str]] = []
        self.span_start = array("d")
        self.span_end = array("d")
        for row in rows:
            self.append(
                str(row["rid"]),
                str(row["query_id"]),
                int(row["source_id"]),
                float(row["t_end"]),
                str(row["status"]),
                float(row["completed_at"]),
                [
                    (
                        str(span["kind"]),
                        None if span["op"] is None else str(span["op"]),
                        float(span["start"]),
                        float(span["end"]),
                    )
                    for span in row["spans"]
                ],
            )

    def append(
        self,
        rid: str,
        query_id: str,
        source_id: int,
        t_end: float,
        status: str,
        completed_at: float,
        spans: Iterable[Span],
    ) -> None:
        self.rid.append(rid)
        self.query_id.append(query_id)
        self.source_id.append(source_id)
        self.status.append(status)
        self.t_end.append(t_end)
        self.completed_at.append(completed_at)
        for kind, op, start, end in spans:
            self.span_kind.append(kind)
            self.span_op.append(op)
            self.span_start.append(start)
            self.span_end.append(end)
        self.span_stop.append(len(self.span_kind))

    def with_rows(self, rows: Iterable[Dict[str, Any]]) -> "CompletionLog":
        """A new log holding ``rows``."""
        return CompletionLog(rows)

    def __len__(self) -> int:
        return len(self.span_stop)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        start = 0
        for i, stop in enumerate(self.span_stop):
            spans = list(
                zip(
                    self.span_kind[start:stop],
                    self.span_op[start:stop],
                    self.span_start[start:stop],
                    self.span_end[start:stop],
                )
            )
            start = stop
            components = {kind: 0.0 for kind in SPAN_KINDS}
            for kind, _, begin, end in spans:
                components[kind] += end - begin
            t_end, completed_at = self.t_end[i], self.completed_at[i]
            yield {
                "type": "lineage",
                "rid": self.rid[i],
                "query_id": self.query_id[i],
                "source_id": self.source_id[i],
                "t_end": t_end,
                "status": self.status[i],
                "completed_at": completed_at,
                "end_to_end_ms": completed_at - t_end,
                "components": components,
                "spans": [
                    {"kind": kind, "op": op, "start": begin, "end": end}
                    for kind, op, begin, end in spans
                ],
            }


class LineageTracker:
    """Deterministic sampled per-record causal tracing.

    Wire one tracker per engine via ``Engine(..., lineage=tracker)``; the
    engine attaches it to every operator. Beside ``_inflight`` the tracker
    keeps a per-operator index of the ``t_end`` keys in flight, which
    each operator holds as ``lineage_watch``: the operator runs its one
    drain loop whether or not a tracker is attached, and afterwards
    reports to :meth:`on_consumed` only the rows whose key is in that
    set. Records still in flight when a run ends are closed only in the
    rows read (:meth:`finalize`), so a run split into segments traces
    like one. All hooks are observers: they
    read simulation state but never mutate it, consume no randomness, and
    perform no float arithmetic the simulation could observe — the
    byte-identity contract of PR 8 is preserved by construction (a
    dedicated test compares summaries, decisions, and checkpoint bytes
    with tracing on and off).
    """

    CHECKPOINT = (
        ("inflight", "_inflight", INFLIGHT),
        ("window_wait", "_window_wait", WINDOW_WAIT),
        ("completed", "_completed", LEDGER),
        ("rows_sampled", "rows_sampled", INT),
        ("spans_recorded", "spans_recorded", INT),
        ("forecast", "forecast", STATE),
    )

    def __init__(self, sample_rate: float, seed: int = 0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1]: {sample_rate}")
        self.sample_rate = float(sample_rate)
        self.seed = int(seed)
        # Keyed hash threshold: a record is sampled iff the 64-bit keyed
        # blake2b of its identity falls below rate * 2^64.
        self._threshold = int(round(self.sample_rate * _TWO_POW_64))
        self._key = seed.to_bytes(8, "little", signed=True)
        #: (query_id, source_id) -> record_identity_prefix of the stream
        self._prefixes: Dict[Tuple[str, int], bytes] = {}  # klink: transient[pure function of the key, rebuilt on demand]
        #: id(operator) -> static wiring info, built by attach()
        self._ops: Dict[int, _OpInfo] = {}
        #: (query_id, operator name, flowing t_end) -> FIFO of rider groups
        self._inflight: Dict[Tuple[str, str, float], Deque[List[_Record]]] = {}
        #: (query_id, operator name) -> the t_ends of that operator's
        #: _inflight keys; each set is shared with the operator as its
        #: ``lineage_watch``, so it is only ever updated in place
        self._inflight_index: Dict[Tuple[str, str], Set[float]] = {}  # klink: transient[index over _inflight keys; after_restore() rebuilds it]
        #: (query_id, operator name, pane end) -> records parked in the pane
        self._window_wait: Dict[Tuple[str, str, float], List[_Record]] = {}
        self._completed = CompletionLog()
        self._ended_at: Optional[float] = None
        self.rows_sampled = 0
        self.spans_recorded = 0
        self.forecast = SwmForecastAudit()

    # -- wiring --------------------------------------------------------------

    def attach(self, engine: "Engine") -> None:
        """Resolve operator wiring and install hook pointers."""
        for query in engine.queries:
            for op in query.operators:
                downstream: Optional[str] = None
                if op.output is not None and op.output._owner is not None:
                    downstream = op.output._owner.name
                assigner = None
                if isinstance(op, _WindowedOperatorBase):
                    assigner = op.assigner
                self._ops[id(op)] = _OpInfo(  # klink: transient[build-time wiring, fixed for the life of the topology]
                    query.query_id,
                    op.name,
                    downstream,
                    isinstance(op, SinkOperator),
                    assigner,
                    isinstance(op, CountWindowedAggregate),
                )
                op.lineage = self
                op.lineage_watch = self._watch(query.query_id, op.name)
            for binding in query.bindings:
                self.forecast.register_source(
                    query.query_id,
                    binding.source_id,
                    binding.spec.watermark_period_ms,
                    binding.spec.delay_model.describe(),
                )

    # -- in-flight index ------------------------------------------------------

    def _watch(self, query_id: str, name: str) -> Set[float]:
        watch = self._inflight_index.get((query_id, name))
        if watch is None:
            watch = self._inflight_index[(query_id, name)] = set()  # klink: transient[index over _inflight keys; after_restore() rebuilds it]
        return watch

    def _push_inflight(
        self, key: Tuple[str, str, float], group: List[_Record]
    ) -> None:
        groups = self._inflight.get(key)
        if groups is None:
            groups = self._inflight[key] = deque()
            self._watch(key[0], key[1]).add(key[2])
        groups.append(group)

    def after_restore(self) -> None:
        """Rebuild the in-flight index from ``_inflight`` (after a restore
        replaced it), keeping every operator's watch set object."""
        for watch in self._inflight_index.values():
            watch.clear()
        for query_id, name, t_end in self._inflight:
            self._watch(query_id, name).add(t_end)

    # -- sampling ------------------------------------------------------------

    def sampled(self, query_id: str, source_id: int, t_end: float) -> bool:
        """Deterministic keyed-hash sampling decision for one record: the
        keyed blake2b of its :func:`~repro.spe.events.record_identity`."""
        if self._threshold <= 0:
            return False
        prefix = self._prefixes.get((query_id, source_id))
        if prefix is None:
            prefix = record_identity_prefix(query_id, source_id)
            self._prefixes[(query_id, source_id)] = prefix  # klink: transient[pure function of the key, rebuilt on demand]
        digest = blake2b(
            prefix + pack_event_time(t_end), digest_size=8, key=self._key
        ).digest()
        return int.from_bytes(digest, "big") < self._threshold

    # -- engine hooks ----------------------------------------------------------

    def on_ingested(
        self,
        query: "Query",
        binding: "SourceBinding",
        batch: EventBatch,
        now: float,
    ) -> None:
        """A generated payload batch entered its source channel at ``now``."""
        t_end = batch.t_end
        query_id = query.query_id
        if not self.sampled(query_id, binding.source_id, t_end):
            return
        rid = f"{query_id}:{binding.source_id}:{t_end!r}"
        rec = _Record(rid, query_id, binding.source_id, t_end)
        # Generation happens at t_end (the batch's final event is created
        # the instant the batch closes and enters the network).
        rec.spans.append(("network", None, t_end, now))
        self.rows_sampled += 1
        owner = binding.channel._owner
        first_op = owner.name if owner is not None else binding.operator.name
        self._push_inflight((query_id, first_op, t_end), [rec])

    def on_swm_ingested(
        self, query_id: str, source_id: int, wm_timestamp: float, now: float
    ) -> None:
        """A sweeping watermark was ingested (forecast-audit actual)."""
        self.forecast.on_actual(query_id, source_id, wm_timestamp, now)

    # -- operator hooks --------------------------------------------------------

    def on_consumed(
        self,
        op: Operator,
        t_start: float,
        t_end: float,
        enqueued_at: float,
        channel: "Channel",
        now: float,
    ) -> None:
        """``op`` fully consumed a queued row/batch ``[t_start, t_end)``."""
        info = self._ops.get(id(op))
        if info is None:
            return
        key = (info.query_id, info.name, t_end)
        groups = self._inflight.get(key)
        if not groups:
            return
        group = groups.popleft()
        if not groups:
            del self._inflight[key]
            self._inflight_index[key[:2]].discard(t_end)
        transfer = channel.transfer_interval(enqueued_at)
        name = info.name
        for rec in group:
            if transfer is not None:
                rec.spans.append(("emit", name, transfer[0], transfer[1]))
            rec.spans.append(("queue", name, enqueued_at, now))
            rec.spans.append(("execute", name, now, now))
        if info.is_sink:
            for rec in group:
                self._finish(rec, "delivered", now)
            return
        if info.is_count:
            # Count windows close by arrival order; whether this record's
            # events sit in the fired or the accumulating window is not
            # defined, so the chain ends at absorption.
            for rec in group:
                self._finish(rec, "count-window", now)
            return
        if info.assigner is not None:
            clock = op._input_watermarks[channel._consumer_index]  # type: ignore[attr-defined]
            if t_end <= clock:
                for rec in group:
                    self._finish(rec, "dropped-late", now)
                return
            pane = info.assigner.final_event_pane(t_start, t_end)
            if pane is None:
                for rec in group:
                    self._finish(rec, "count-window", now)
                return
            for rec in group:
                rec.absorbed_at = now
            wait_key = (info.query_id, info.name, pane[1])
            self._window_wait.setdefault(wait_key, []).extend(group)
            return
        if op.selectivity <= 0.0:
            for rec in group:
                self._finish(rec, "filtered", now)
            return
        downstream = info.downstream
        if downstream is None:
            for rec in group:
                self._finish(rec, "no-downstream", now)
            return
        self._push_inflight((info.query_id, downstream, t_end), group)

    def on_pane_fire(
        self, op: Operator, pane_end: float, out_count: float, now: float
    ) -> None:
        """A window pane ``[.., pane_end)`` of ``op`` fired at ``now``."""
        info = self._ops.get(id(op))
        if info is None:
            return
        waiting = self._window_wait.pop((info.query_id, info.name, pane_end), None)
        if not waiting:
            return
        name = info.name
        for rec in waiting:
            rec.spans.append(("window", name, rec.absorbed_at, now))
        if out_count <= 0:
            for rec in waiting:
                self._finish(rec, "window-no-output", now)
            return
        downstream = info.downstream
        if downstream is None:
            for rec in waiting:
                self._finish(rec, "no-downstream", now)
            return
        # Every parked record now rides the single pane-output batch,
        # whose event-time boundary is the pane end.
        self._push_inflight((info.query_id, downstream, pane_end), waiting)

    # -- completion ------------------------------------------------------------

    def _finish(self, rec: _Record, status: str, now: float) -> None:
        self._completed.append(
            rec.rid, rec.query_id, rec.source_id, rec.t_end, status, now, rec.spans
        )
        self.spans_recorded += len(rec.spans)

    def finalize(self, now: float) -> None:
        """End of a ``run()`` segment at ``now``: rows read from here on
        close the records still in flight at that time. The records
        themselves stay open, so a run split into segments follows them
        on exactly like one unbroken run."""
        self._ended_at = now  # klink: transient[end of the latest run segment; every segment end sets it]

    def _open_rows(self) -> CompletionLog:
        """Records still in flight, closed as ``in-flight`` at the end of
        the latest run segment (none before the first segment ends)."""
        log = CompletionLog()
        now = self._ended_at
        if now is None:
            return log
        for (_, name, _), records in self._window_wait.items():
            for rec in records:
                spans = rec.spans + [("window", name, rec.absorbed_at, now)]
                log.append(rec.rid, rec.query_id, rec.source_id, rec.t_end,
                           "in-flight", now, spans)
        for groups in self._inflight.values():
            for group in groups:
                for rec in group:
                    log.append(rec.rid, rec.query_id, rec.source_id, rec.t_end,
                               "in-flight", now, rec.spans)
        return log

    # -- output ----------------------------------------------------------------

    def lineage_rows(self) -> List[Dict[str, Any]]:
        """Completed ``lineage`` trace records in completion order, then
        the records still in flight at the end of the run. Each call
        builds fresh rows: editing one changes nothing else."""
        return [*self._completed, *self._open_rows()]

    def swm_forecast_rows(self) -> List[Dict[str, Any]]:
        return self.forecast.rows()

    def summary_row(self) -> Dict[str, Any]:
        """The ``lineage_summary`` trace record (self-overhead accounting).

        ``trace_bytes`` is filled by the trace writer with the bytes of
        lineage-attributable records it wrote (0 until then).
        """
        open_rows = self._open_rows()
        statuses = {status: 0 for status in RECORD_STATUSES}
        for log in (self._completed, open_rows):
            for status in log.status:
                statuses[status] = statuses.get(status, 0) + 1
        return {
            "type": "lineage_summary",
            "sample_rate": self.sample_rate,
            "seed": self.seed,
            "rows_sampled": self.rows_sampled,
            "span_records": self.spans_recorded + len(open_rows.span_kind),
            "statuses": statuses,
            "forecast_evaluations": self.forecast.evaluations,
            "trace_bytes": 0,
        }


def waterfall(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate lineage records into the latency-waterfall report section.

    Only delivered records decompose end-to-end latency exactly; the
    section reports their mean per-component milliseconds and percentage
    shares, overall and per query.
    """

    def aggregate(subset: List[Dict[str, Any]]) -> Dict[str, Any]:
        n = len(subset)
        sums = {kind: 0.0 for kind in SPAN_KINDS}
        total = 0.0
        for row in subset:
            components = row["components"]
            for kind in SPAN_KINDS:
                sums[kind] += float(components[kind])
            total += float(row["end_to_end_ms"])
        means = {kind: (sums[kind] / n if n else 0.0) for kind in SPAN_KINDS}
        shares = {
            kind: (100.0 * sums[kind] / total if total > 0 else 0.0)
            for kind in SPAN_KINDS
        }
        return {
            "records": n,
            "mean_end_to_end_ms": (total / n if n else 0.0),
            "components_ms": means,
            "shares_pct": shares,
        }

    delivered = [row for row in rows if row["status"] == "delivered"]
    by_query: Dict[str, List[Dict[str, Any]]] = {}
    for row in delivered:
        by_query.setdefault(str(row["query_id"]), []).append(row)
    return {
        "sampled": len(rows),
        "delivered": len(delivered),
        "overall": aggregate(delivered),
        "by_query": [
            {"query_id": qid, **aggregate(subset)}
            for qid, subset in sorted(by_query.items())
        ],
    }
