"""Failure detection and recovery strategies on top of checkpoints.

A :class:`RecoveryManager` sits between the fault plan and the engine's
cycle loop. Each cycle the engine reports the *raw* set of down nodes
(straight from :meth:`repro.faults.plan.FaultPlan.node_down`); the
manager detects transitions, drives the configured strategy, and returns
the *effective* down set the engine should act on:

* ``restart`` — restart-from-checkpoint. The node stays dark for the
  whole failure episode (work placed on it is paused, exactly as
  before); when it returns, *all* state rolls back to the last global
  checkpoint and the sources replay deterministically from there. This
  is Flink's restart-all failover: recovery time ≈ episode length, and
  some work between the checkpoint and the failure is recomputed.
* ``standby`` — hot-standby promotion. On detection the engine rolls
  back to the last checkpoint and a standby immediately takes over the
  failed node's operators (on :class:`~repro.distributed.cluster.
  DistributedEngine` they are re-placed onto a surviving node; the
  single-node :class:`~repro.spe.engine.Engine` models an in-place
  standby). The node is masked as healthy for the rest of the episode,
  so recovery time ≈ one detection cycle.
* ``none`` — no recovery: the crash wipes the failed node's queues and
  window state. The lost events are counted in
  ``metrics.events_lost_to_failures`` and reported to the
  :class:`~repro.faults.invariants.InvariantMonitor`, which tolerates
  the loss *only* because recovery is explicitly disabled.

Leaving ``recovery=None`` on the engine keeps the legacy semantics
(lossless pause, no accounting) untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Tuple

from repro.faults.plan import NodeFailure
from repro.resilience import checkpoint as checkpoint_mod
from repro.resilience.checkpoint import CheckpointCoordinator
from repro.spe.operators import CountWindowedAggregate, _WindowedOperatorBase

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spe.engine import Engine

STRATEGIES = ("restart", "standby", "none")

#: pre/post window floor for the latency-inflation metric (virtual ms)
_INFLATION_WINDOW_FLOOR_MS = 5_000.0


@dataclass(frozen=True)
class RecoveryConfig:
    """Which strategy to run when a node failure is detected."""

    strategy: str

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown recovery strategy {self.strategy!r}; "
                f"expected one of {STRATEGIES}"
            )


@dataclass
class RecoveryEvent:
    """One detected failure and what recovery did about it."""

    node: int
    strategy: str
    failed_at: float
    detected_at: float
    recovered_at: Optional[float] = None
    checkpoint_time: Optional[float] = None
    events_lost: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "node": self.node,
            "strategy": self.strategy,
            "failed_at": self.failed_at,
            "detected_at": self.detected_at,
            "recovered_at": self.recovered_at,
            "checkpoint_time": self.checkpoint_time,
            "events_lost": self.events_lost,
        }


def _node_operators(engine: "Engine", node: int) -> List[Tuple[Any, Any]]:
    """(query, operator) pairs placed on ``node`` (all of them when the
    engine has no physical plan — the single-node case)."""
    plan = getattr(engine, "plan", None)
    pairs = []
    for query in engine.queries:
        for op in query.operators:
            if plan is None or plan.node_of[id(op)] == node:
                pairs.append((query, op))
    return pairs


def _wipe_node_state(engine: "Engine", node: int) -> Tuple[Dict[str, float], float]:
    """Model a crash with no recovery: drop the node's queued/in-flight
    events and volatile window state. Returns (entry-channel losses by
    query id, total events lost)."""
    entry_channels = {
        id(binding.channel): query.query_id
        for query in engine.queries
        for binding in query.bindings
    }
    lost_entry: Dict[str, float] = {}
    total_lost = 0.0
    for query, op in _node_operators(engine, node):
        for channel in op.inputs:
            queued = channel.queued_events
            if queued > 0:
                total_lost += queued
                query_id = entry_channels.get(id(channel))
                if query_id is not None:
                    lost_entry[query_id] = lost_entry.get(query_id, 0.0) + queued
            channel.clear()
            # In-flight records addressed to a dead node are lost too;
            # they were never booked as pushed, so this is count-neutral.
            channel._pending.clear()
        if isinstance(op, _WindowedOperatorBase):
            op._panes.clear()
            op._pane_ends.clear()
            op._pane_heap.clear()
        if isinstance(op, CountWindowedAggregate):
            op._accumulated = 0.0
    return lost_entry, total_lost


class RecoveryManager:
    """Detects node-failure transitions and applies a recovery strategy."""

    def __init__(
        self,
        config: RecoveryConfig,
        coordinator: Optional[CheckpointCoordinator] = None,
    ) -> None:
        if config.strategy != "none" and coordinator is None:
            raise ValueError(
                f"strategy {config.strategy!r} needs a CheckpointCoordinator"
            )
        self.config = config
        self.coordinator = coordinator
        self.events: List[RecoveryEvent] = []
        self._down: set = set()
        self._masked: Dict[int, float] = {}
        self._pending_restart: Dict[int, RecoveryEvent] = {}
        self._began = False

    # -- engine hooks -------------------------------------------------------

    def begin_run(self, engine: "Engine") -> None:
        """Take the baseline checkpoint so an early failure can roll back."""
        self._began = True
        if self.coordinator is not None:
            self.coordinator.ensure_baseline(engine)

    def on_cycle(
        self, engine: "Engine", raw_down: FrozenSet[int], now: float
    ) -> FrozenSet[int]:
        """Map the fault plan's raw down set to the effective one."""
        if not self._began:
            self.begin_run(engine)
        self._masked = {n: until for n, until in self._masked.items() if now < until}
        effective = {n for n in raw_down if n not in self._masked}
        for node in sorted(self._down - effective):
            self._down.discard(node)
            self._on_return(engine, node, now)
        for node in sorted(effective - self._down):
            self._down.add(node)
            if self._on_failure(engine, node, now):
                # standby promoted: the node's work moved, so from the
                # engine's perspective nothing is down anymore
                effective.discard(node)
                self._down.discard(node)
        return frozenset(effective)

    def finalize(self, engine: "Engine") -> None:
        """Derive the post-failure latency-inflation metric: mean sink
        latency in a window after recovery over the same-width window
        before the failure, averaged across recoveries."""
        ratios = []
        for event in self.events:
            if event.recovered_at is None:
                continue
            window = max(
                _INFLATION_WINDOW_FLOOR_MS,
                2.0 * (event.recovered_at - event.failed_at),
            )
            # The rollback truncated sink output between the checkpoint
            # and the failure, so the healthy-baseline window ends at the
            # checkpoint (when there was one), not at the failure itself.
            pre_end = (
                event.checkpoint_time
                if event.checkpoint_time is not None
                else event.failed_at
            )
            pre: List[float] = []
            post: List[float] = []
            for query in engine.queries:
                for at, latency in query.sink.swm_latencies:
                    if pre_end - window <= at < pre_end:
                        pre.append(latency)
                    elif event.recovered_at <= at < event.recovered_at + window:
                        post.append(latency)
            if pre and post:
                pre_mean = sum(pre) / len(pre)
                if pre_mean > 0:
                    ratios.append((sum(post) / len(post)) / pre_mean)
        if ratios:
            engine.metrics.post_failure_latency_inflation = float(
                sum(ratios) / len(ratios)
            )

    # -- transitions --------------------------------------------------------

    def _episode(self, engine: "Engine", node: int, now: float) -> Optional[NodeFailure]:
        faults = engine.faults
        if faults is None:
            return None
        best: Optional[NodeFailure] = None
        for fault in faults:
            if (
                isinstance(fault, NodeFailure)
                and fault.node == node
                and fault.active(now)
            ):
                if best is None or fault.start_ms < best.start_ms:
                    best = fault
        return best

    def _on_failure(self, engine: "Engine", node: int, now: float) -> bool:
        """Handle a newly-down node; returns True if a standby took over."""
        episode = self._episode(engine, node, now)
        failed_at = episode.start_ms if episode is not None else now
        episode_end = episode.end_ms if episode is not None else now
        if self.config.strategy == "none":
            lost_entry, total_lost = _wipe_node_state(engine, node)
            engine.metrics.events_lost_to_failures += total_lost
            if engine.invariants is not None:
                engine.invariants.on_crash(
                    engine, lost_entry, recovery_enabled=False
                )
            event = RecoveryEvent(
                node, "none", failed_at, now, events_lost=total_lost
            )
            self.events.append(event)
            engine.metrics.recovery_events.append(event.to_dict())
            return False
        if self.config.strategy == "standby":
            checkpoint_time = self._rollback(engine, node)
            self._masked[node] = episode_end
            event = RecoveryEvent(
                node, "standby", failed_at, now,
                recovered_at=now, checkpoint_time=checkpoint_time,
            )
            self._commit_recovery(engine, event)
            engine._on_standby_promotion(node, now)
            return True
        # restart: stay dark for the episode, roll back when the node returns
        self._pending_restart[node] = RecoveryEvent(node, "restart", failed_at, now)
        return False

    def _on_return(self, engine: "Engine", node: int, now: float) -> None:
        event = self._pending_restart.pop(node, None)
        if event is None:
            return
        event.checkpoint_time = self._rollback(engine, node)
        event.recovered_at = now
        self._commit_recovery(engine, event)

    def _rollback(self, engine: "Engine", node: int) -> Optional[float]:
        """Roll the whole engine back to the latest checkpoint; returns the
        checkpoint time, or None if there was nothing to roll back to (in
        which case the crash loss stands and the invariant monitor flags
        it — recovery was enabled but failed to preserve the events)."""
        assert self.coordinator is not None
        snapshot = self.coordinator.store.latest()
        if snapshot is None:
            lost_entry, total_lost = _wipe_node_state(engine, node)
            engine.metrics.events_lost_to_failures += total_lost
            if engine.invariants is not None:
                engine.invariants.on_crash(
                    engine, lost_entry, recovery_enabled=True
                )
            return None
        checkpoint_mod.restore(engine, snapshot, mode="rollback")
        tracker = getattr(engine, "lineage", None)
        if tracker is not None:
            sidecar = self.coordinator.store.latest_lineage()
            if sidecar is not None:
                # Roll the in-flight lineage state back with the stream
                # state it shadows, so span chains stay consistent with
                # the replayed records.
                checkpoint_mod.restore_lineage(tracker, sidecar)
        if engine.invariants is not None:
            engine.invariants.on_rollback(engine)
        if engine.telemetry is not None:
            engine.telemetry.on_rollback(engine)
        return float(snapshot["time"])

    def _commit_recovery(self, engine: "Engine", event: RecoveryEvent) -> None:
        self.events.append(event)
        metrics = engine.metrics
        metrics.recoveries += 1
        assert event.recovered_at is not None
        metrics.recovery_time_ms.append(event.recovered_at - event.failed_at)
        if event.checkpoint_time is not None:
            metrics.replay_span_ms.append(event.recovered_at - event.checkpoint_time)
        metrics.recovery_events.append(event.to_dict())
