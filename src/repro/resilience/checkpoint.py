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

Snapshots are dicts of JSON-safe builtins under a versioned schema
(:data:`SCHEMA_VERSION`), with the append-only ledgers held as read-only
:class:`LedgerView` prefixes instead of copies. :func:`serialize` is the
canonical form — sorted keys, fixed separators, views as lists — so
byte-level comparison of two serialized snapshots is a meaningful
state-equality check (the property tests rely on this).

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
from itertools import islice
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional

from repro.spe.state import (
    CheckpointError,
    LedgerView,
    capture_state,
    decode_record,
    encode_record,
    restore_state,
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
#: restore loads into whichever layout the engine runs; the heap has
#: since been retired, and the calendar queue writes the same list;
#: v5: the run metrics no longer carry ``scalars.alerts_fired`` and
#: ``alert_counts``, and the schema fingerprint records each declared
#: field as ``key=attr:codec``)
SCHEMA_VERSION = 5


def _highest_marker_id(snapshot: Dict[str, Any]) -> int:
    """The highest latency-marker id in flight or queued (-1 for none)."""
    records = [record for *_, record in snapshot["network"]]
    for q_state in snapshot["queries"]:
        for op_state in q_state["operators"]:
            for channel in op_state["inputs"]:
                records.extend(rec for rec, _ in channel["entries"])
                records.extend(rec for rec, _ in channel["pending"])
    ids = [rec["id"] for rec in records if rec["t"] == "m"]
    return int(max(ids, default=-1))


def _schedulers(engine: "Engine") -> List[Any]:
    """One scheduler per node when decentralized, else the single policy."""
    node_schedulers = getattr(engine, "node_schedulers", None)
    return list(node_schedulers) if node_schedulers else [engine.scheduler]


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
    """Snapshot ``engine`` into a JSON-safe dict. Pure: mutates nothing.

    The engine's declared state (and that of its metrics, schedulers,
    operators, channels and bindings) comes from one generic walk; only
    this frame — the clock, the network and the query topology — is
    written by hand."""
    snapshot: Dict[str, Any] = capture_state(engine)
    # The engine flattens its calendar queue into the (ingest_time,
    # seq)-sorted delivery order, so snapshot bytes do not depend on
    # which cycle bucket holds a record.
    snapshot["network"] = [
        [ingest_time, seq, query.query_id, query.bindings.index(binding),
         encode_record(record)]
        for ingest_time, seq, query, binding, record in engine.network_entries
    ]
    snapshot["schema"] = SCHEMA_VERSION
    snapshot["time"] = engine.clock.now
    snapshot["schedulers"] = [capture_state(s) for s in _schedulers(engine)]
    snapshot["queries"] = [
        {
            "query_id": query.query_id,
            "operator_names": [op.name for op in query.operators],
            "operators": [capture_state(op) for op in query.operators],
            "bindings": [capture_state(b) for b in query.bindings],
        }
        for query in engine.queries
    ]
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
    restore_state(engine, snapshot, mode)
    query_by_id = {q.query_id: q for q in engine.queries}
    network = []
    for ingest_time, seq, query_id, binding_index, record in snapshot["network"]:
        query = query_by_id[query_id]
        binding = query.bindings[int(binding_index)]
        network.append((float(ingest_time), int(seq), query, binding, decode_record(record)))
    # The engine re-files the sorted list into its calendar queue, with
    # bucket keys recomputed against the restored clock.
    engine.network_entries = network
    engine.reserve_marker_ids(_highest_marker_id(snapshot))
    for scheduler, state in zip(schedulers, scheduler_states):
        restore_state(scheduler, state, mode)
    for query, q_state in zip(engine.queries, snapshot["queries"]):
        for op, op_state in zip(query.operators, q_state["operators"]):
            restore_state(op, op_state, mode)
        for binding, b_state in zip(query.bindings, q_state["bindings"]):
            restore_state(binding, b_state, mode)


def capture_lineage(tracker: "LineageTracker") -> Dict[str, Any]:
    """Sidecar snapshot of a :class:`~repro.obs.lineage.LineageTracker`:
    its declared state and its forecast audit's. The sidecar is
    deliberately *not* part of the engine snapshot: enabling tracing
    must leave checkpoint bytes identical to an untraced run, so the
    store carries it alongside the snapshot. The completion log and the
    resolved forecast ledgers only grow, so the sidecar holds
    :class:`LedgerView` prefixes of them."""
    sidecar: Dict[str, Any] = capture_state(tracker)
    return sidecar


def restore_lineage(tracker: "LineageTracker", state: Dict[str, Any]) -> None:
    """Apply a sidecar captured by :func:`capture_lineage`. The logs are
    rebound to fresh ledgers, so views held by stored sidecars keep the
    prefix they name."""
    restore_state(tracker, state)


def _materialize(node: object) -> List[Any]:
    if isinstance(node, LedgerView):
        return list(node)
    raise TypeError(f"{type(node).__name__} is not JSON serializable")


def serialize(snapshot: Any) -> str:
    """Canonical JSON text: sorted keys, fixed separators, ledger views
    as the lists they name, non-finite floats as ``Infinity``/
    ``-Infinity``/``NaN`` literals (round-trip exact in Python's json).
    Equal states serialize to equal bytes."""
    return json.dumps(
        snapshot, sort_keys=True, separators=(",", ":"), default=_materialize
    )


def _encoded_size(node: Any, depth: int = 2) -> int:
    """``len(serialize(node))`` without the whole text: sums the canonical
    encodings of a dict's or list's items down to ``depth`` levels (one
    top-level entry, then one query, at a time) and of ledger views in
    row chunks. Deeper nodes, and dicts with a non-``str`` key (json
    converts and sorts those keys itself), are encoded whole."""
    if isinstance(node, LedgerView):  # joining k chunks turns k - 1 "][" into ","
        rows = iter(node)
        sizes = [len(serialize(c)) for c in iter(lambda: list(islice(rows, 4096)), [])]
        return sum(sizes) - len(sizes) + 1 if sizes else 2
    if depth and isinstance(node, dict) and all(isinstance(k, str) for k in node):
        body = sum(
            len(serialize(k)) + 1 + _encoded_size(v, depth - 1)
            for k, v in node.items()
        )
    elif depth and isinstance(node, (list, tuple)):
        body = sum(_encoded_size(item, depth - 1) for item in node)
    else:
        return len(serialize(node))
    # brackets, plus one separator between consecutive items
    return 2 + body + max(len(node) - 1, 0)


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
        stored snapshots never change after capture, so one piecewise
        count here gives the byte count every checkpoint used to pay for."""
        latest = self.store.latest()
        if latest is not None:
            engine.metrics.checkpoint_bytes_last = _encoded_size(latest)

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
