"""Deterministic fault schedules for the engine and the cluster.

Real streaming deployments are perturbed in ways a clean simulation never
exercises: sources stall and recover, watermarks straggle behind their
events or disappear entirely, operators slow down (noisy neighbours, GC,
skewed keys), memory is consumed by co-tenants, and whole nodes fail and
come back. A :class:`FaultPlan` is a *seeded, timed* schedule of such
perturbations that the :class:`~repro.spe.engine.Engine` (and
:class:`~repro.distributed.cluster.DistributedEngine`) consult every
scheduling cycle. Because every episode is a pure function of simulated
time, a run under a fault plan is exactly as deterministic as a run
without one — which is what makes *differential testing* possible: run
Klink, FCFS, RR, HR, and SBox under the identical fault schedule and
compare how each degrades.

Fault semantics (all windows are half-open ``[start_ms, end_ms)`` in
simulated engine time):

* :class:`SourceStall` — affected sources stop delivering: everything
  they generate during the episode (events, watermarks, markers) is held
  and arrives at the stall's end, aged by the time it spent stuck.
* :class:`WatermarkStraggler` — watermarks generated during the episode
  suffer ``extra_delay_ms`` of additional network delay; events flow
  normally, so event-time progress *lags* the data (the classic straggler
  that blocks window firing).
* :class:`WatermarkDrop` — watermarks generated during the episode are
  lost entirely (a faulty source task that stops reporting progress).
* :class:`OperatorSlowdown` — matching operators' per-event cost is
  multiplied by ``factor`` for the duration (interference episode).
* :class:`MemoryPressureSpike` — ``extra_bytes`` of the memory budget are
  occupied by an external tenant for the duration, which can push the
  engine over its backpressure threshold.
* :class:`NodeFailure` — the node executes nothing for the duration and
  ingestion for queries whose sources live on it is suspended; on a
  single-node engine, node 0 is the whole engine.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np


def _normalize_ids(ids: Optional[Sequence[str]]) -> Optional[FrozenSet[str]]:
    if ids is None:
        return None
    return frozenset(ids)


@dataclass(frozen=True)
class Fault:
    """Base episode: active on the half-open interval [start_ms, end_ms)."""

    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        if self.start_ms < 0:
            raise ValueError(f"fault starts before time zero: {self.start_ms}")
        if self.end_ms <= self.start_ms:
            raise ValueError(
                f"fault window inverted or empty: [{self.start_ms}, {self.end_ms})"
            )

    def active(self, t: float) -> bool:
        return self.start_ms <= t < self.end_ms

    def describe(self) -> str:
        extras = []
        for f in dataclasses.fields(self):
            if f.name in ("start_ms", "end_ms"):
                continue
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, frozenset):
                value = "{" + ",".join(sorted(value)) + "}"
            elif isinstance(value, float):
                value = f"{value:g}"
            extras.append(f"{f.name}={value}")
        suffix = f" {' '.join(extras)}" if extras else ""
        return (
            f"{type(self).__name__}[{self.start_ms:.0f}, {self.end_ms:.0f})"
            f"{suffix}"
        )


def _matches(ids: Optional[FrozenSet[str]], query_id: str) -> bool:
    return ids is None or query_id in ids


@dataclass(frozen=True)
class SourceStall(Fault):
    """Affected sources deliver nothing until the episode ends."""

    query_ids: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "query_ids", _normalize_ids(self.query_ids))


@dataclass(frozen=True)
class WatermarkStraggler(Fault):
    """Watermarks generated during the episode arrive extra late."""

    extra_delay_ms: float = 1_000.0
    query_ids: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra_delay_ms <= 0:
            raise ValueError(f"straggler delay must be positive: {self.extra_delay_ms}")
        object.__setattr__(self, "query_ids", _normalize_ids(self.query_ids))


@dataclass(frozen=True)
class WatermarkDrop(Fault):
    """Watermarks generated during the episode are lost."""

    query_ids: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "query_ids", _normalize_ids(self.query_ids))


@dataclass(frozen=True)
class OperatorSlowdown(Fault):
    """Matching operators cost ``factor`` x their declared per-event CPU."""

    factor: float = 2.0
    query_ids: Optional[FrozenSet[str]] = None
    #: None matches every operator of the matched queries.
    operator_names: Optional[FrozenSet[str]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor < 1.0:
            raise ValueError(f"slowdown factor must be >= 1: {self.factor}")
        object.__setattr__(self, "query_ids", _normalize_ids(self.query_ids))
        object.__setattr__(
            self, "operator_names", _normalize_ids(self.operator_names)
        )


@dataclass(frozen=True)
class MemoryPressureSpike(Fault):
    """An external tenant occupies ``extra_bytes`` of the memory budget."""

    extra_bytes: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra_bytes <= 0:
            raise ValueError(f"spike must occupy bytes: {self.extra_bytes}")


@dataclass(frozen=True)
class NodeFailure(Fault):
    """The node is down (no execution, source ingestion suspended)."""

    node: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.node < 0:
            raise ValueError(f"negative node index: {self.node}")


class FaultPlan:
    """An immutable, deterministic schedule of fault episodes.

    The engine consults the plan once per cycle through the query methods
    below; all of them are pure functions of (identity, time), so two runs
    with the same plan see byte-identical perturbations.
    """

    def __init__(self, faults: Sequence[Fault] = (), *, seed: Optional[int] = None):
        for f in faults:
            if not isinstance(f, Fault):
                raise TypeError(f"not a fault episode: {f!r}")
        self.faults: Tuple[Fault, ...] = tuple(
            sorted(faults, key=lambda f: (f.start_ms, f.end_ms))
        )
        #: seed the plan was generated from (None for hand-written plans)
        self.seed = seed
        self._stalls = [f for f in self.faults if isinstance(f, SourceStall)]
        self._stragglers = [
            f for f in self.faults if isinstance(f, WatermarkStraggler)
        ]
        self._drops = [f for f in self.faults if isinstance(f, WatermarkDrop)]
        self._slowdowns = [
            f for f in self.faults if isinstance(f, OperatorSlowdown)
        ]
        self._spikes = [
            f for f in self.faults if isinstance(f, MemoryPressureSpike)
        ]
        self._failures = [f for f in self.faults if isinstance(f, NodeFailure)]
        # queries whose sources a stall, straggler or drop episode targets
        # (None: an episode targets every query)
        source_faults = (*self._stalls, *self._stragglers, *self._drops)
        self._source_victims: Optional[FrozenSet[str]] = (
            None
            if any(f.query_ids is None for f in source_faults)
            else frozenset().union(*(f.query_ids for f in source_faults))
        )

    # -- engine-facing queries (pure functions of identity and time) ---------

    def source_hold_until(self, query_id: str, t: float) -> float:
        """Earliest time a record generated at ``t`` may be delivered.

        Covers both source stalls and node failures of the source's node
        (node granularity is resolved by the caller for distributed runs);
        returns 0.0 when no stall applies.
        """
        hold = 0.0
        for f in self._stalls:
            if f.active(t) and _matches(f.query_ids, query_id):
                hold = max(hold, f.end_ms)
        return hold

    def watermark_extra_delay(self, query_id: str, t: float) -> float:
        """Additional network delay for a watermark generated at ``t``."""
        extra = 0.0
        for f in self._stragglers:
            if f.active(t) and _matches(f.query_ids, query_id):
                extra += f.extra_delay_ms
        return extra

    def drops_watermark(self, query_id: str, t: float) -> bool:
        """True when a watermark generated at ``t`` is lost."""
        return any(
            f.active(t) and _matches(f.query_ids, query_id) for f in self._drops
        )

    def perturbs_source(self, query_id: str) -> bool:
        """True when some episode can hold, delay or drop a record of
        ``query_id``'s sources; otherwise every source hook above is a
        no-op for that query."""
        victims = self._source_victims
        return victims is None or query_id in victims

    def slowdown_factor(self, query_id: str, operator_name: str, t: float) -> float:
        """Cost multiplier for one operator at time ``t`` (>= 1.0)."""
        factor = 1.0
        for f in self._slowdowns:
            if (
                f.active(t)
                and _matches(f.query_ids, query_id)
                and _matches(f.operator_names, operator_name)
            ):
                factor *= f.factor
        return factor

    def extra_memory_bytes(self, t: float) -> float:
        """Bytes of the memory budget held by external tenants at ``t``."""
        return sum(f.extra_bytes for f in self._spikes if f.active(t))

    def node_down(self, node: int, t: float) -> bool:
        """True when ``node`` is failed at time ``t``."""
        return any(f.active(t) and f.node == node for f in self._failures)

    # -- introspection ---------------------------------------------------------

    @property
    def has_slowdowns(self) -> bool:
        return bool(self._slowdowns)

    def active_at(self, t: float) -> List[Fault]:
        return [f for f in self.faults if f.active(t)]

    def end_ms(self) -> float:
        """Time by which every episode has ended (0.0 for an empty plan)."""
        return max((f.end_ms for f in self.faults), default=0.0)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def describe(self) -> str:
        if not self.faults:
            return "FaultPlan(empty)"
        lines = [f"FaultPlan({len(self.faults)} episodes"
                 + (f", seed={self.seed}" if self.seed is not None else "")
                 + ")"]
        lines.extend(f"  {f.describe()}" for f in self.faults)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan(n={len(self.faults)}, seed={self.seed})"

    # -- generation -------------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        duration_ms: float,
        *,
        query_ids: Optional[Sequence[str]] = None,
        n_nodes: int = 1,
        episodes: int = 6,
        mean_episode_ms: float = 2_000.0,
        straggler_delay_ms: float = 1_500.0,
        slowdown_factor: float = 3.0,
        spike_bytes: float = 256 * 1024 * 1024,
        allow_node_failures: bool = True,
    ) -> "FaultPlan":
        """Generate a randomized but fully reproducible fault schedule.

        The same ``(seed, duration_ms, options)`` always yields the same
        plan. Episode starts are spread uniformly over the run, durations
        are exponential with mean ``mean_episode_ms`` (clamped into the
        run), and each episode independently picks a fault kind and —
        when ``query_ids`` is given — a single victim query.
        """
        if seed < 0:
            raise ValueError(f"fault seed must be non-negative: {seed}")
        if duration_ms <= 0:
            raise ValueError(f"duration must be positive: {duration_ms}")
        if episodes < 0:
            raise ValueError(f"negative episode count: {episodes}")
        rng = np.random.default_rng(seed)
        kinds = ["stall", "straggler", "drop", "slowdown", "spike"]
        if allow_node_failures:
            kinds.append("failure")
        faults: List[Fault] = []
        for _ in range(episodes):
            start = float(rng.uniform(0.0, duration_ms * 0.9))
            length = float(
                min(max(rng.exponential(mean_episode_ms), 100.0),
                    duration_ms - start)
            )
            end = start + length
            kind = kinds[int(rng.integers(len(kinds)))]
            victims: Optional[FrozenSet[str]] = None
            if query_ids:
                victims = frozenset({query_ids[int(rng.integers(len(query_ids)))]})
            if kind == "stall":
                faults.append(SourceStall(start, end, query_ids=victims))
            elif kind == "straggler":
                faults.append(
                    WatermarkStraggler(
                        start, end,
                        extra_delay_ms=straggler_delay_ms,
                        query_ids=victims,
                    )
                )
            elif kind == "drop":
                faults.append(WatermarkDrop(start, end, query_ids=victims))
            elif kind == "slowdown":
                faults.append(
                    OperatorSlowdown(
                        start, end, factor=slowdown_factor, query_ids=victims
                    )
                )
            elif kind == "spike":
                faults.append(
                    MemoryPressureSpike(start, end, extra_bytes=spike_bytes)
                )
            else:
                faults.append(
                    NodeFailure(start, end, node=int(rng.integers(n_nodes)))
                )
        return cls(faults, seed=seed)
