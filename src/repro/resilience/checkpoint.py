"""Deterministic engine checkpointing (versioned, JSON-serializable).

A checkpoint is a *global consistent snapshot* of one engine taken at a
scheduling-cycle boundary — the simulator's analogue of Flink's aligned
checkpoints. Because the simulator is a deterministic discrete-event
system, a snapshot does not need an event log to support replay: capturing
the source generation cursors (:class:`~repro.spe.query.PeriodicCursor`),
every RNG's bit-generator state (binding burst machines, delay models,
the engine RNG), the in-flight network heap, channel contents, operator
and window state, and the metric ledgers is sufficient to *regenerate*
the exact same traffic from the checkpoint onward. Restoring a snapshot
and re-running therefore reproduces the original event counts exactly,
which is what lets the invariant monitor prove no-loss/no-duplication
across a failover (see ``docs/RESILIENCE.md``).

Snapshots are plain dicts of JSON-safe builtins under a versioned schema
(:data:`SCHEMA_VERSION`) and serialize canonically — sorted keys, fixed
separators — so byte-level comparison of two serialized snapshots is a
meaningful state-equality check (the property tests rely on this).

Two restore modes:

* ``mode="resume"`` — full restore including the virtual clock and the
  complete metric state; used to continue a run in a *fresh* engine built
  from the same configuration (suspend/resume).
* ``mode="rollback"`` — restart-all failover within the *same* engine:
  stream state and the event-ledger metrics roll back to the checkpoint,
  while the clock and the processing-time accounting (cycles, CPU time,
  utilization samples, scheduler overhead) keep accumulating — a real
  cluster's wall clock does not rewind when a job restarts.
"""

from __future__ import annotations

import json
import math
from collections import deque
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional

from repro.spe.events import EventBatch, LatencyMarker, RecordBatch, Watermark
from repro.spe.metrics import RunMetrics, UtilizationSample
from repro.spe.operators import (
    CountWindowedAggregate,
    Operator,
    SinkOperator,
    _WindowedOperatorBase,
)
from repro.spe.query import EpochStats, PeriodicCursor, Query, SourceBinding
from repro.spe.reorder import ReorderBuffer
from repro.spe.streams import Channel, _Entry
from repro.spe.watermarks import (
    BoundedOutOfOrderness,
    PunctuatedWatermarks,
    WatermarkGeneratorOperator,
    WatermarkStrategy,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.lineage import LineageTracker
    from repro.spe.engine import Engine

#: checkpoint schema version; bumped on any incompatible layout change
#: (v2: channels may hold in-flight columnar RecordBatch runs, tag "rb";
#: v3: a lineage sidecar — capture_lineage/restore_lineage — may ride
#: alongside a snapshot in the store, never inside the snapshot itself;
#: v4: the in-flight network is captured through the engine's layout
#: helpers — the vectorized calendar queue and the scalar heap flatten
#: to the identical canonical (ingest_time, seq)-sorted list, and
#: restore loads into whichever layout the engine runs)
SCHEMA_VERSION = 4

#: RunMetrics scalar fields captured verbatim (the resilience counters —
#: checkpoints taken, recoveries, lost events — are deliberately absent:
#: they are processing-time accounting and never roll back).
_METRIC_SCALARS = (
    "duration_ms",
    "total_events_processed",
    "total_events_ingested",
    "events_shed",
    "late_events_dropped",
    "scheduler_overhead_ms",
    "busy_cpu_ms",
    "backpressure_cycles",
    "cycles",
    "fault_cycles",
    "watermarks_dropped_by_faults",
    "invariant_violations",
    "deadline_misses",
    "watermark_lag_max_ms",
    "watermark_lag_mean_ms",
    "alerts_fired",
)

#: the event-ledger subset restored on rollback: everything derived from
#: *which stream records exist*, nothing derived from *how long the
#: engine has been running*.
_LEDGER_LISTS = ("swm_latencies", "marker_latencies", "slowdowns")
_LEDGER_SCALARS = (
    "total_events_processed",
    "total_events_ingested",
    "events_shed",
    "watermarks_dropped_by_faults",
)


#: row codecs for the per-epoch and per-cycle ledgers, the longest lists a
#: snapshot holds: one C-level call per row, yielding tuples (JSON encodes a
#: tuple exactly like a list)
_epoch_row = attrgetter("mu", "chi", "swm_ingest_time", "swm_timestamp")
_sample_row = attrgetter("time", "memory_bytes", "cpu_fraction", "events_processed")


class CheckpointError(ValueError):
    """A snapshot cannot be taken, parsed, or applied to this engine."""


# -- small codecs -----------------------------------------------------------


def _rng_state(rng: Any) -> Dict[str, Any]:
    """A numpy Generator's bit-generator state (plain ints, JSON-exact)."""
    state: Dict[str, Any] = rng.bit_generator.state
    return state


def _set_rng_state(rng: Any, state: Dict[str, Any]) -> None:
    rng.bit_generator.state = state


def _encode_record(record: object) -> Dict[str, Any]:
    if isinstance(record, EventBatch):
        return {
            "t": "b",
            "count": record.count,
            "t_start": record.t_start,
            "t_end": record.t_end,
            "delay": record.delay,
            "bpe": record.bytes_per_event,
        }
    if isinstance(record, Watermark):
        return {
            "t": "w",
            "ts": record.timestamp,
            "src": record.source_id,
            "swm": record.is_swm,
        }
    if isinstance(record, LatencyMarker):
        return {"t": "m", "at": record.created_at, "id": record.marker_id}
    if isinstance(record, RecordBatch):
        # Unconsumed rows only (the consumed prefix before ``head`` is
        # dead state); restore rebases head to 0 with identical columns.
        h = record.head
        return {
            "t": "rb",
            "counts": record.counts[h:],
            "t_starts": record.t_starts[h:],
            "t_ends": record.t_ends[h:],
            "delays": record.delays[h:],
            "enq": record.enqueued_ats[h:],
            "bpe": record.bytes_per_event,
        }
    raise CheckpointError(f"unknown record type: {type(record)!r}")


def _decode_record(state: Dict[str, Any]) -> object:
    kind = state.get("t")
    if kind == "b":
        return EventBatch(
            count=state["count"],
            t_start=state["t_start"],
            t_end=state["t_end"],
            delay=state["delay"],
            bytes_per_event=state["bpe"],
        )
    if kind == "w":
        return Watermark(state["ts"], source_id=state["src"], is_swm=state["swm"])
    if kind == "m":
        return LatencyMarker(created_at=state["at"], marker_id=state["id"])
    if kind == "rb":
        rb = RecordBatch(state["bpe"])
        rb.counts = [float(v) for v in state["counts"]]
        rb.t_starts = [float(v) for v in state["t_starts"]]
        rb.t_ends = [float(v) for v in state["t_ends"]]
        rb.delays = [float(v) for v in state["delays"]]
        rb.enqueued_ats = [float(v) for v in state["enq"]]
        return rb
    raise CheckpointError(f"unknown record tag: {kind!r}")


def _cursor_state(cursor: PeriodicCursor) -> List[float]:
    return [cursor.origin, cursor.period, cursor.step]


def _restore_cursor(cursor: PeriodicCursor, state: List[float]) -> None:
    cursor.origin = float(state[0])
    cursor.period = float(state[1])
    cursor.step = int(state[2])


def _strategy_state(strategy: WatermarkStrategy) -> Dict[str, Any]:
    if isinstance(strategy, BoundedOutOfOrderness):
        return {
            "kind": "bounded",
            "max_event_time": strategy.max_event_time,
            "next_emit": strategy._next_emit,
        }
    if isinstance(strategy, PunctuatedWatermarks):
        return {"kind": "punctuated", "max_event_time": strategy.max_event_time}
    raise CheckpointError(
        f"watermark strategy {type(strategy).__name__} is not checkpointable"
    )


def _restore_strategy(strategy: WatermarkStrategy, state: Dict[str, Any]) -> None:
    if isinstance(strategy, BoundedOutOfOrderness):
        strategy.max_event_time = state["max_event_time"]
        strategy._next_emit = state["next_emit"]
    elif isinstance(strategy, PunctuatedWatermarks):
        strategy.max_event_time = state["max_event_time"]
    else:  # pragma: no cover - rejected at capture time
        raise CheckpointError(
            f"watermark strategy {type(strategy).__name__} is not checkpointable"
        )


# -- channels ---------------------------------------------------------------


def _channel_state(channel: Channel) -> Dict[str, Any]:
    # Private-attribute reads keep capture pure: the queued_events memo
    # path would mark owner flags, and capture must not mutate anything.
    return {
        "entries": [
            [_encode_record(e.record), e.enqueued_at] for e in channel._entries
        ],
        "pending": [
            [_encode_record(e.record), e.enqueued_at] for e in channel._pending
        ],
        "queued_events": channel._queued_events,
        "queued_bytes": channel._queued_bytes,
        "pushed": channel.events_pushed,
        "returned": channel.events_returned,
        "popped": channel.events_popped,
    }


def _restore_channel(channel: Channel, state: Dict[str, Any]) -> None:
    channel._entries = deque(
        _Entry(_decode_record(rec), at) for rec, at in state["entries"]
    )
    channel._pending = deque(
        _Entry(_decode_record(rec), at) for rec, at in state["pending"]
    )
    channel._queued_events = float(state["queued_events"])
    channel._queued_bytes = float(state["queued_bytes"])
    channel.events_pushed = float(state["pushed"])
    channel.events_returned = float(state["returned"])
    channel.events_popped = float(state["popped"])
    if channel._owner is not None:
        channel._owner._queues_dirty = True


# -- operators --------------------------------------------------------------


def _operator_state(op: Operator) -> Dict[str, Any]:
    state: Dict[str, Any] = {
        "stats": [
            op.stats.events_in,
            op.stats.events_out,
            op.stats.busy_ms,
            op.stats.late_events_dropped,
            op.stats.watermarks_seen,
            op.stats.panes_fired,
        ],
        "cost_multiplier": op.cost_multiplier,
        "inputs": [_channel_state(ch) for ch in op.inputs],
    }
    if isinstance(op, _WindowedOperatorBase):
        # (start, value) pairs sort by their unique start; the heap holds
        # immutable tuples, so a shallow copy freezes it
        state["window"] = {
            "panes": sorted(op._panes.items()),
            "pane_ends": sorted(op._pane_ends.items()),
            "pane_heap": list(op._pane_heap),
            "input_watermarks": list(op._input_watermarks),
            "event_clock": op._event_clock,
        }
    if isinstance(op, CountWindowedAggregate):
        state["count_window"] = {
            "accumulated": op._accumulated,
            "windows_fired": op.windows_fired,
        }
    if isinstance(op, SinkOperator):
        # The ledgers are append-only lists of immutable (at, latency)
        # tuples: a shallow copy freezes them, and JSON encodes a tuple
        # exactly like a list.
        state["sink"] = {
            "swm_latencies": list(op.swm_latencies),
            "marker_latencies": list(op.marker_latencies),
            "events_delivered": op.events_delivered,
        }
    if isinstance(op, WatermarkGeneratorOperator):
        state["wm_gen"] = {
            "last_emitted": op.last_emitted,
            "watermarks_emitted": op.watermarks_emitted,
            "regressions_suppressed": op.regressions_suppressed,
            "strategy": _strategy_state(op.strategy),
        }
    if isinstance(op, ReorderBuffer):
        state["reorder"] = {
            "buffer": [_encode_record(b) for b in op._buffer],
            "buffered_events": op._buffered_events,
            "buffered_bytes": op._buffered_bytes,
            "released_events": op.released_events,
        }
    return state


def _restore_operator(op: Operator, state: Dict[str, Any]) -> None:
    (
        op.stats.events_in,
        op.stats.events_out,
        op.stats.busy_ms,
        op.stats.late_events_dropped,
        watermarks_seen,
        panes_fired,
    ) = state["stats"]
    op.stats.watermarks_seen = int(watermarks_seen)
    op.stats.panes_fired = int(panes_fired)
    op.cost_multiplier = float(state["cost_multiplier"])
    for channel, ch_state in zip(op.inputs, state["inputs"]):
        _restore_channel(channel, ch_state)
    if isinstance(op, _WindowedOperatorBase):
        window = state["window"]
        op._panes = {float(s): float(c) for s, c in window["panes"]}
        op._pane_ends = {float(s): float(e) for s, e in window["pane_ends"]}
        # Restored verbatim (it is already a valid heap): keeps the pop
        # order — and thus the resumed run — exactly reproducible.
        op._pane_heap = [(float(e), float(s)) for e, s in window["pane_heap"]]
        op._input_watermarks = [float(w) for w in window["input_watermarks"]]
        op._event_clock = float(window["event_clock"])
        # The pane table was rebuilt: drop the state-sum memo so the next
        # read recomputes over the restored (canonically ordered) dict.
        op._invalidate_state_memo()
    if isinstance(op, CountWindowedAggregate):
        count_window = state["count_window"]
        op._accumulated = float(count_window["accumulated"])
        op.windows_fired = int(count_window["windows_fired"])
    if isinstance(op, SinkOperator):
        sink = state["sink"]
        op.swm_latencies = [(float(a), float(b)) for a, b in sink["swm_latencies"]]
        op.marker_latencies = [
            (float(a), float(b)) for a, b in sink["marker_latencies"]
        ]
        op.events_delivered = float(sink["events_delivered"])
    if isinstance(op, WatermarkGeneratorOperator):
        wm_gen = state["wm_gen"]
        op.last_emitted = float(wm_gen["last_emitted"])
        op.watermarks_emitted = int(wm_gen["watermarks_emitted"])
        op.regressions_suppressed = int(wm_gen["regressions_suppressed"])
        _restore_strategy(op.strategy, wm_gen["strategy"])
    if isinstance(op, ReorderBuffer):
        reorder = state["reorder"]
        buffer: List[EventBatch] = []
        for encoded in reorder["buffer"]:
            record = _decode_record(encoded)
            if not isinstance(record, EventBatch):  # pragma: no cover - defensive
                raise CheckpointError(
                    f"reorder buffer holds a non-batch record: {record!r}"
                )
            buffer.append(record)
        op._buffer = buffer
        op._buffered_events = float(reorder["buffered_events"])
        op._buffered_bytes = float(reorder["buffered_bytes"])
        op.released_events = float(reorder["released_events"])


# -- source bindings --------------------------------------------------------


def _binding_state(binding: SourceBinding) -> Dict[str, Any]:
    state: Dict[str, Any] = {
        "gen_cursor": _cursor_state(binding._gen_cursor),
        "watermark_cursor": _cursor_state(binding._watermark_cursor),
        "marker_cursor": _cursor_state(binding._marker_cursor),
        "events_ingested": binding.events_ingested,
        "watermarks_ingested": binding.watermarks_ingested,
        "rng": _rng_state(binding.rng),
        "bursting": binding.bursting,
        "burst_state_until": binding.burst_state_until,
    }
    delay_model = binding.spec.delay_model
    if getattr(delay_model, "_rng", None) is not None:
        # The logical (consumed-draw) state, not the live one: amortized
        # prefetching may have run the generator ahead of the values
        # handed out, and snapshot bytes must not depend on that.
        state["delay_rng"] = delay_model.checkpoint_rng_state()
    progress = binding.progress
    if progress is not None:
        state["progress"] = {
            "epoch_index": progress.epoch_index,
            "epochs": list(map(_epoch_row, progress.epochs)),
            "delay_sum": progress._delay_sum,
            "delay_sq_sum": progress._delay_sq_sum,
            "delay_weight": progress._delay_weight,
            "last_watermark_ts": progress.last_watermark_ts,
            "last_swm_ingest_time": progress.last_swm_ingest_time,
            "next_deadline": progress.next_deadline,
        }
    return state


def _restore_binding(binding: SourceBinding, state: Dict[str, Any]) -> None:
    _restore_cursor(binding._gen_cursor, state["gen_cursor"])
    _restore_cursor(binding._watermark_cursor, state["watermark_cursor"])
    _restore_cursor(binding._marker_cursor, state["marker_cursor"])
    binding.events_ingested = float(state["events_ingested"])
    binding.watermarks_ingested = int(state["watermarks_ingested"])
    _set_rng_state(binding.rng, state["rng"])
    binding.bursting = bool(state["bursting"])
    binding.burst_state_until = float(state["burst_state_until"])
    delay_model = binding.spec.delay_model
    if getattr(delay_model, "_rng", None) is not None and "delay_rng" in state:
        # Installs the logical state and discards any prefetched draws;
        # the resumed stream re-prefetches from here, bit-identically.
        delay_model.restore_rng_state(state["delay_rng"])
    progress = binding.progress
    progress_state = state.get("progress")
    if progress is not None and progress_state is not None:
        progress.epoch_index = int(progress_state["epoch_index"])
        progress.epochs = deque(
            (EpochStats(*row) for row in progress_state["epochs"]),
            maxlen=progress.history_limit,
        )
        progress._delay_sum = float(progress_state["delay_sum"])
        progress._delay_sq_sum = float(progress_state["delay_sq_sum"])
        progress._delay_weight = float(progress_state["delay_weight"])
        progress.last_watermark_ts = float(progress_state["last_watermark_ts"])
        progress.last_swm_ingest_time = progress_state["last_swm_ingest_time"]
        progress.next_deadline = progress_state["next_deadline"]
        # The restore mutated the tracker in place: drop the estimator's
        # delay-moments memo so the next read recomputes from the
        # restored history.
        progress._invalidate_moments_memo()


# -- metrics ----------------------------------------------------------------


def _metrics_state(metrics: RunMetrics) -> Dict[str, Any]:
    return {
        "scalars": {name: getattr(metrics, name) for name in _METRIC_SCALARS},
        "swm_latencies": list(metrics.swm_latencies),
        "marker_latencies": list(metrics.marker_latencies),
        "slowdowns": list(metrics.slowdowns),
        "per_query_swm_latencies": {
            qid: list(values)
            for qid, values in metrics.per_query_swm_latencies.items()
        },
        "samples": list(map(_sample_row, metrics.samples)),
        "alert_counts": dict(metrics.alert_counts),
    }


def _restore_metrics(metrics: RunMetrics, state: Dict[str, Any], mode: str) -> None:
    if mode == "resume":
        for name in _METRIC_SCALARS:
            setattr(metrics, name, state["scalars"][name])
        metrics.samples = [UtilizationSample(*row) for row in state["samples"]]
        metrics.alert_counts = dict(state["alert_counts"])
    else:  # rollback: only the event ledger rewinds
        for name in _LEDGER_SCALARS:
            setattr(metrics, name, state["scalars"][name])
    for name in _LEDGER_LISTS:
        setattr(metrics, name, list(state[name]))
    metrics.per_query_swm_latencies = {
        qid: list(values)
        for qid, values in state["per_query_swm_latencies"].items()
    }


# -- engine-level helpers ---------------------------------------------------


def _schedulers(engine: "Engine") -> List[Any]:
    """One scheduler per node when decentralized, else the single policy."""
    node_schedulers = getattr(engine, "node_schedulers", None)
    return list(node_schedulers) if node_schedulers else [engine.scheduler]


def _board_state(board: Any) -> List[Any]:
    rows = []
    for (node, query_id), history in sorted(board._entries.items()):
        rows.append(
            [
                node,
                query_id,
                [
                    [
                        published_at,
                        {
                            "published_at": info.published_at,
                            "mu": info.mu,
                            "chi": info.chi,
                            "last_watermark_ts": info.last_watermark_ts,
                            "next_deadline": info.next_deadline,
                            "last_swm_ingest_time": info.last_swm_ingest_time,
                            "pending_cost_ms": info.pending_cost_ms,
                        },
                    ]
                    for published_at, info in history
                ],
            ]
        )
    return rows


def _restore_board(board: Any, rows: List[Any]) -> None:
    from repro.distributed.forwarding import QueryInfo

    board._entries = {
        (int(node), str(query_id)): [
            (float(published_at), QueryInfo(**info))
            for published_at, info in history
        ]
        for node, query_id, history in rows
    }
    board.reindex()


def _check_topology(engine: "Engine", snapshot: Dict[str, Any]) -> None:
    """The snapshot must describe this engine's exact query topology."""
    queries = snapshot["queries"]
    if len(queries) != len(engine.queries):
        raise CheckpointError(
            f"snapshot holds {len(queries)} queries, engine has "
            f"{len(engine.queries)}"
        )
    for query, q_state in zip(engine.queries, queries):
        if q_state["query_id"] != query.query_id:
            raise CheckpointError(
                f"query id mismatch: snapshot {q_state['query_id']!r} vs "
                f"engine {query.query_id!r}"
            )
        names = [op.name for op in query.operators]
        if q_state["operator_names"] != names:
            raise CheckpointError(
                f"operator topology of {query.query_id!r} changed: snapshot "
                f"{q_state['operator_names']} vs engine {names}"
            )
        if len(q_state["bindings"]) != len(query.bindings):
            raise CheckpointError(
                f"source count of {query.query_id!r} changed"
            )
        for op, op_state in zip(query.operators, q_state["operators"]):
            if len(op_state["inputs"]) != len(op.inputs):
                raise CheckpointError(
                    f"input count of {query.query_id}.{op.name} changed"
                )


# -- public API -------------------------------------------------------------


def capture(engine: "Engine") -> Dict[str, Any]:
    """Snapshot ``engine`` into a JSON-safe dict. Pure: mutates nothing."""
    # The engine flattens whichever network layout is active (scalar heap
    # or vectorized calendar queue) into the same canonical
    # (ingest_time, seq)-sorted list, so snapshot bytes are identical
    # across kernel paths.
    network = [
        [ingest_time, seq, query.query_id, query.bindings.index(binding),
         _encode_record(record)]
        for ingest_time, seq, query, binding, record in engine.network_entries
    ]
    snapshot: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "time": engine.clock.now,
        "seq": engine._seq,
        "throttle_requested": engine._throttle_requested,
        "events_in_prev": engine._events_in_prev,
        "swm_drained": dict(engine._swm_drained),
        "marker_drained": dict(engine._marker_drained),
        "engine_rng": _rng_state(engine._rng),
        "external_bytes": engine.memory.external_bytes,
        "network": network,
        "schedulers": [s.snapshot_state() for s in _schedulers(engine)],
        "metrics": _metrics_state(engine.metrics),
        "queries": [
            {
                "query_id": query.query_id,
                "operator_names": [op.name for op in query.operators],
                "operators": [_operator_state(op) for op in query.operators],
                "bindings": [_binding_state(b) for b in query.bindings],
            }
            for query in engine.queries
        ],
    }
    board = getattr(engine, "board", None)
    if board is not None:
        snapshot["board"] = _board_state(board)
    return snapshot


def restore(engine: "Engine", snapshot: Dict[str, Any], *, mode: str = "resume") -> None:
    """Apply ``snapshot`` to ``engine``.

    ``mode="resume"`` restores everything, including the virtual clock
    (which only moves forward: resuming an engine that has already run
    past the snapshot raises). ``mode="rollback"`` rewinds stream state
    and the event-ledger metrics only — the clock and the
    processing-time accounting keep running, as in a real failover.
    """
    if mode not in ("resume", "rollback"):
        raise CheckpointError(f"unknown restore mode: {mode!r}")
    if snapshot.get("schema") != SCHEMA_VERSION:
        raise CheckpointError(
            f"snapshot schema {snapshot.get('schema')!r} != "
            f"supported {SCHEMA_VERSION}"
        )
    _check_topology(engine, snapshot)
    schedulers = _schedulers(engine)
    scheduler_states = snapshot["schedulers"]
    if len(scheduler_states) != len(schedulers):
        raise CheckpointError(
            f"snapshot holds {len(scheduler_states)} scheduler states, "
            f"engine has {len(schedulers)}"
        )
    if mode == "resume":
        if engine.clock.now > snapshot["time"] + 1e-9:
            raise CheckpointError(
                f"cannot resume backwards: engine at {engine.clock.now}ms, "
                f"snapshot at {snapshot['time']}ms"
            )
        engine.clock.advance_to(snapshot["time"])
    engine._seq = int(snapshot["seq"])
    engine._throttle_requested = bool(snapshot["throttle_requested"])
    engine._events_in_prev = float(snapshot["events_in_prev"])
    engine._swm_drained = {k: int(v) for k, v in snapshot["swm_drained"].items()}
    engine._marker_drained = {
        k: int(v) for k, v in snapshot["marker_drained"].items()
    }
    _set_rng_state(engine._rng, snapshot["engine_rng"])
    engine.memory.external_bytes = float(snapshot["external_bytes"])
    query_by_id = {q.query_id: q for q in engine.queries}
    network = []
    for ingest_time, seq, query_id, binding_index, record in snapshot["network"]:
        query = query_by_id[query_id]
        network.append(
            (
                float(ingest_time),
                int(seq),
                query,
                query.bindings[int(binding_index)],
                _decode_record(record),
            )
        )
    # The engine files the sorted list into its active network layout
    # (heap: a time-sorted list is a valid heap; calendar queue: bucket
    # keys are recomputed against the restored clock).
    engine.network_entries = network
    for scheduler, state in zip(schedulers, scheduler_states):
        scheduler.restore_state(state)
    board = getattr(engine, "board", None)
    if board is not None and "board" in snapshot:
        _restore_board(board, snapshot["board"])
    for query, q_state in zip(engine.queries, snapshot["queries"]):
        for op, op_state in zip(query.operators, q_state["operators"]):
            _restore_operator(op, op_state)
        for binding, b_state in zip(query.bindings, q_state["bindings"]):
            _restore_binding(binding, b_state)
    _restore_metrics(engine.metrics, snapshot["metrics"], mode)


def capture_lineage(tracker: "LineageTracker") -> Dict[str, Any]:
    """Sidecar snapshot of a :class:`~repro.obs.lineage.LineageTracker`.

    In-flight lineage state (sampled records riding queues, records
    parked on window panes, the completed-record log, and the
    SWM-forecast audit ledgers) survives checkpoint/restore through this
    codec pair. The sidecar is deliberately *not* part of the engine
    snapshot: enabling tracing must leave checkpoint bytes identical to
    an untraced run, so the store carries it alongside the snapshot.
    Dict iterations are sorted so equal states encode identically.
    """
    return {
        "inflight": [
            [list(key), [[rec.encode() for rec in group] for group in groups]]
            for key, groups in sorted(tracker._inflight.items())
        ],
        "window_wait": [
            [list(key), [rec.encode() for rec in records]]
            for key, records in sorted(tracker._window_wait.items())
        ],
        # completed rows are never mutated once appended: share them
        "completed": list(tracker._completed),
        "rows_sampled": tracker.rows_sampled,
        "spans_recorded": tracker.spans_recorded,
        "forecast": tracker.forecast.encode(),
    }


def restore_lineage(tracker: "LineageTracker", state: Dict[str, Any]) -> None:
    """Apply a sidecar captured by :func:`capture_lineage`."""
    from repro.obs.lineage import _Record

    tracker._inflight = {
        (str(k[0]), str(k[1]), float(k[2])): deque(
            [_Record.decode(r) for r in group] for group in groups
        )
        for k, groups in state["inflight"]
    }
    tracker.reindex_inflight()
    tracker._window_wait = {
        (str(k[0]), str(k[1]), float(k[2])): [
            _Record.decode(r) for r in records
        ]
        for k, records in state["window_wait"]
    }
    tracker._completed = [dict(row) for row in state["completed"]]
    tracker.rows_sampled = int(state["rows_sampled"])
    tracker.spans_recorded = int(state["spans_recorded"])
    tracker.forecast.restore(state["forecast"])


def serialize(snapshot: Dict[str, Any]) -> str:
    """Canonical JSON text: sorted keys, fixed separators, non-finite
    floats as ``Infinity``/``-Infinity``/``NaN`` literals (round-trip
    exact in Python's json). Equal states serialize to equal bytes."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def deserialize(text: str) -> Dict[str, Any]:
    """Parse a snapshot serialized by :func:`serialize`.

    Raises :class:`CheckpointError` (not a bare ``json`` error) on
    corrupt input, so callers handle storage corruption and schema
    drift through one exception type.
    """
    try:
        snapshot = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"corrupt snapshot: not valid JSON at line {exc.lineno} "
            f"column {exc.colno} ({exc.msg}); the checkpoint file is "
            "truncated or damaged — discard it and fall back to an "
            "earlier checkpoint"
        ) from exc
    if not isinstance(snapshot, dict):
        raise CheckpointError(
            "corrupt snapshot: text decodes to "
            f"{type(snapshot).__name__}, expected a snapshot object"
        )
    return snapshot


class CheckpointStore:
    """In-memory ring of the most recent snapshots."""

    def __init__(self, keep: int = 4) -> None:
        if keep < 1:
            raise ValueError(f"must keep at least one checkpoint: {keep}")
        self.keep = keep
        self._snapshots: List[Dict[str, Any]] = []
        # lineage sidecars, index-aligned with _snapshots (None when the
        # engine ran untraced — the common case)
        self._lineage: List[Optional[Dict[str, Any]]] = []

    def add(
        self,
        snapshot: Dict[str, Any],
        lineage: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._snapshots.append(snapshot)
        self._lineage.append(lineage)
        if len(self._snapshots) > self.keep:
            drop = len(self._snapshots) - self.keep
            del self._snapshots[:drop]
            del self._lineage[:drop]

    def latest(self) -> Optional[Dict[str, Any]]:
        return self._snapshots[-1] if self._snapshots else None

    def latest_lineage(self) -> Optional[Dict[str, Any]]:
        """The lineage sidecar captured with the latest snapshot, if any."""
        return self._lineage[-1] if self._lineage else None

    def times(self) -> List[float]:
        return [float(s["time"]) for s in self._snapshots]

    def __len__(self) -> int:
        return len(self._snapshots)


class CheckpointCoordinator:
    """Takes aligned periodic checkpoints on the virtual clock.

    Attached to an engine via ``Engine(..., checkpoints=coordinator)``;
    the engine calls :meth:`maybe_checkpoint` at the end of every cycle.
    A checkpoint is due every ``period_ms`` of virtual time but is
    *skipped* while any node is down — snapshots must be globally
    consistent, and a failed node cannot contribute its state (the
    alignment rule of checkpoint-based recovery).
    """

    def __init__(self, period_ms: float, *, keep: int = 4) -> None:
        if period_ms <= 0:
            raise ValueError(f"checkpoint period must be positive: {period_ms}")
        self.period_ms = float(period_ms)
        self.store = CheckpointStore(keep)
        self._step = 0

    def ensure_baseline(self, engine: "Engine") -> None:
        """Guarantee at least one snapshot exists (taken at run start),
        so a failure in the first period can still roll back."""
        if self.store.latest() is None:
            self._take(engine)

    def maybe_checkpoint(
        self, engine: "Engine", now: float, down_nodes: FrozenSet[int] = frozenset()
    ) -> bool:
        """Take a checkpoint if one is due at ``now``; returns True if taken."""
        if now + 1e-9 < (self._step + 1) * self.period_ms:
            return False
        self._step = int(math.floor(now / self.period_ms + 1e-9))
        if down_nodes:
            return False  # unaligned: retry at the next period boundary
        self._take(engine)
        return True

    def finalize(self, engine: "Engine") -> None:
        """Record the size of the newest snapshot in
        ``metrics.checkpoint_bytes_last``. Called once when a run ends:
        stored snapshots never change after capture, so one serialization
        here gives the byte count every checkpoint used to pay for."""
        latest = self.store.latest()
        if latest is not None:
            engine.metrics.checkpoint_bytes_last = len(serialize(latest))

    def _take(self, engine: "Engine") -> None:
        snapshot = capture(engine)
        tracker = getattr(engine, "lineage", None)
        # The sidecar rides the store but never enters the snapshot, so
        # checkpoint bytes are identical with tracing on or off.
        self.store.add(
            snapshot,
            lineage=capture_lineage(tracker) if tracker is not None else None,
        )
        engine.metrics.checkpoints_taken += 1
