"""Host-time spans and work counters around the simulator's layers.

The benchmark times each layer from outside the program. It replaces
callables on the objects one run builds — the engine, its scheduler(s),
operators, memory model, observers and checkpoint coordinator — with
wrappers stored as instance attributes, which shadow the class methods of
that one object only. The wrappers read the host clock and counters the
simulator already keeps and change no argument or result, so a traced
run's simulated output equals an untraced one (run.py checks this by
summary digest).

Spans nest on a stack. A span's self time is its duration minus the time
of the spans it encloses; every layer time below is a sum of self times.
A hook whose target no longer exists is skipped with a warning, and each
metric computed from it reports ``None``.
"""

from __future__ import annotations

import heapq
import time
import types
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

KINDS = ("stateless", "windowed", "join", "sink")

#: Per-layer metrics of a traced run: (name, unit, hook keys it is
#: computed from). Layers are named after the simulator's modules.
LAYER_METRICS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("setup.import_s", "s", ()),
    ("setup.build_queries_s", "s", ("setup.build_queries",)),
    ("setup.validate_s", "s", ("setup.validate",)),
    ("setup.engine_init_s", "s", ("setup.engine_init", "setup.validate")),
    ("cycle.count", "count", ("cycle",)),
    ("cycle.self_s", "s", ("cycle",)),
    ("generate.s", "s", ("generate",)),
    ("generate.records", "count", ("generate.records",)),
    ("generate.ns_per_record", "ns", ("generate", "generate.records")),
    ("deliver.s", "s", ("deliver",)),
    ("deliver.rows", "count", ("deliver.records",)),
    ("deliver.control_records", "count", ("deliver.records",)),
    ("deliver.ns_per_record", "ns", ("deliver", "deliver.records")),
    ("schedule.plan_s", "s", ("schedule",)),
    ("schedule.plan_calls", "count", ("schedule",)),
    ("schedule.slack_evals", "count", ("schedule.slack_evals",)),
    ("schedule.us_per_slack_eval", "us", ("schedule", "schedule.slack_evals")),
    ("schedule.share", "ratio", ("schedule", "execute")),
    *(
        (f"execute.{kind}.{what}", unit, ("execute",))
        for kind in KINDS
        for what, unit in (("s", "s"), ("steps", "count"), ("events_in", "event_mass"))
    ),
    ("execute.windowed.panes_fired", "count", ("execute",)),
    ("execute.useful_step_frac", "ratio", ("execute",)),
    ("memory.s", "s", ("memory",)),
    ("memory.calls", "count", ("memory",)),
    ("memory.backpressure_cycles", "count", ()),
    ("observer.audit.s", "s", ("observer.audit",)),
    ("observer.invariants.s", "s", ("observer.invariants",)),
    ("observer.lineage.s", "s", ("observer.lineage",)),
    ("observer.lineage.calls", "count", ("observer.lineage",)),
    ("checkpoint.s", "s", ("checkpoint",)),
    ("checkpoint.taken", "count", ()),
    ("checkpoint.ms_per_snapshot", "ms", ("checkpoint",)),
    ("checkpoint.bytes", "B", ()),
    ("recovery.s", "s", ("recovery",)),
    ("recovery.count", "count", ()),
    ("distributed.publish_s", "s", ("distributed.publish",)),
    ("distributed.board_publishes", "count", ("distributed.board_publishes",)),
)

MEMORY_METHODS = ("backpressured", "utilization", "used_bytes", "pressure_tax", "query_stalled")
LINEAGE_METHODS = ("on_ingested", "on_swm_ingested", "on_consumed", "on_pane_fire")
FORECAST_METHODS = ("on_prediction", "on_actual")


#: cycles between two timings of the reference work (20 per 1000-cycle run)
REFERENCE_EVERY = 50


def reference_work(table: Dict[int, float], n: int = 6000) -> float:
    """A fixed piece of interpreter work of the simulator's kind: heap
    pushes and pops, dict updates over a table that grows through the run,
    and float arithmetic. Its time measures how fast the host runs Python
    at that moment; it touches nothing of the simulator."""
    heap: List[Tuple[int, int]] = []
    total = 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        k = (i * 2654435761) % 200003
        table[k] = table.get(k, 0.0) + i * 0.5
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    return total


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


class Recorder:
    """Times one run: every cycle and ``Engine.run`` always, and with
    ``traced`` every layer as spans and counters. Every
    :data:`REFERENCE_EVERY` cycles it also times :func:`reference_work`,
    between cycles and outside the run's wall time, so run.py can scale
    timings to a fixed host speed.

    ``keep_spans`` also keeps each span (name, start, end, parent) for a
    Chrome trace; otherwise only per-name totals are kept.
    """

    def __init__(self, traced: bool, keep_spans: bool = False) -> None:
        self.traced = traced
        self.cycle_s: List[float] = []
        self.reference_s: List[float] = []
        self.run_started: Optional[float] = None  # time.monotonic()
        self.run_wall_s = 0.0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: set = set()
        self.warnings: List[str] = []
        self.spans: Optional[List[Tuple[str, float, float, Optional[str]]]] = (
            [] if keep_spans else None
        )
        self._stack: List[list] = []
        self._module_patches: List[Tuple[Any, str, Any]] = []

    # -- wrapping -------------------------------------------------------------

    def _missing(self, key: str, target: str) -> None:
        self.missing.add(key)
        self.warnings.append(f"hook target {target} not found; {key} metrics report null")

    def patch(self, obj: Any, attr: str, value: Any) -> None:
        """Set ``obj.attr``; a module attribute is put back by :meth:`restore`."""
        if isinstance(obj, types.ModuleType):
            self._module_patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        """Undo module-level patches (instance wrappers die with the run)."""
        while self._module_patches:
            obj, attr, original = self._module_patches.pop()
            setattr(obj, attr, original)

    def timed(
        self,
        fn: Callable,
        span: str,
        deltas: Sequence[Tuple[str, Callable[[], float]]] = (),
        nonzero: Optional[str] = None,
    ) -> Callable:
        """``fn`` inside a span. Each ``(key, get)`` in ``deltas`` adds the
        change of ``get()`` across the call to counter ``key``; ``nonzero``
        counts calls that return a positive value."""
        stack, self_s, calls = self._stack, self.self_s, self.calls
        counts, spans, clock = self.counts, self.spans, time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            marks = [get() for _, get in deltas]
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_s[span] += elapsed - frame[0]
                calls[span] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += elapsed
                if spans is not None:
                    spans.append((span, start, end, parent[1] if parent else None))
            for (key, get), mark in zip(deltas, marks):
                counts[key] += get() - mark
            if nonzero is not None and result > 0:
                counts[nonzero] += 1
            return result

        return wrapper

    def wrap(
        self, obj: Any, attr: str, span: str, *, key: Optional[str] = None,
        required: bool = True, **options: Any,
    ) -> bool:
        """Replace ``obj.attr`` with a timed wrapper. A missing target marks
        ``key`` (default ``span``) missing when ``required``."""
        fn = getattr(obj, attr, None)
        if not callable(fn):
            if required:
                self._missing(key or span, f"{type(obj).__name__}.{attr}")
            return False
        self.patch(obj, attr, self.timed(fn, span, **options))
        return True

    def count(self, obj: Any, attr: str, key: str, *, required: bool = True) -> None:
        """Count calls of ``obj.attr`` in counter ``key`` without timing."""
        fn = getattr(obj, attr, None)
        if not callable(fn):
            if required:
                self._missing(key, f"{type(obj).__name__}.{attr}")
            return
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            return fn(*args, **kwargs)

        self.patch(obj, attr, counted)

    def call(self, span: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)``, inside a span when tracing."""
        if self.traced:
            fn = self.timed(fn, span)
        return fn(*args, **kwargs)

    # -- the engine -----------------------------------------------------------

    def attach_engine(self, engine: Any) -> None:
        """Hook a freshly built engine before its first ``run``."""
        if self.traced:
            self._instrument(engine)
        step = engine.step_cycle
        samples, reference, clock = self.cycle_s, self.reference_s, time.perf_counter
        table: Dict[int, float] = {}

        def step_cycle() -> None:
            if len(samples) % REFERENCE_EVERY == REFERENCE_EVERY // 2:
                start = clock()
                reference_work(table)
                reference.append(clock() - start)
            start = clock()
            step()
            samples.append(clock() - start)

        engine.step_cycle = step_cycle
        run = engine.run

        def timed_run(duration_ms: float) -> Any:
            if self.run_started is None:
                self.run_started = time.monotonic()
            start, done = clock(), sum(reference)
            try:
                return run(duration_ms)
            finally:
                self.run_wall_s += clock() - start - (sum(reference) - done)

        engine.run = timed_run

    def _count_source_pushes(self, channel: Any, payload_type: type) -> None:
        """Count records the engine delivers into a source channel. ``push``
        and ``push_row`` may call each other; only the outer call counts."""
        push = getattr(channel, "push", None)
        push_row = getattr(channel, "push_row", None)
        if not (callable(push) and callable(push_row)):
            if "deliver.records" not in self.missing:
                self._missing("deliver.records", "Channel.push/push_row")
            return
        counts = self.counts
        depth = [0]

        def counted_push(record: Any, now: float) -> Any:
            if not depth[0]:
                if type(record) is payload_type:
                    counts["deliver.rows"] += 1
                else:
                    counts["deliver.control_records"] += 1
            depth[0] += 1
            try:
                return push(record, now)
            finally:
                depth[0] -= 1

        def counted_push_row(*args: Any) -> Any:
            if not depth[0]:
                counts["deliver.rows"] += 1
            depth[0] += 1
            try:
                return push_row(*args)
            finally:
                depth[0] -= 1

        channel.push = counted_push
        channel.push_row = counted_push_row

    def _instrument(self, engine: Any) -> None:
        from repro.core.klink import KlinkScheduler
        from repro.distributed import DistributedEngine
        from repro.spe.events import EventBatch
        from repro.spe.operators import (
            CountWindowedAggregate,
            SinkOperator,
            WindowedAggregate,
            WindowedJoin,
        )

        wrap = self.wrap
        distributed = isinstance(engine, DistributedEngine)
        wrap(engine, "step_cycle", "cycle")
        deltas = ()
        if hasattr(engine, "_seq"):
            # Every generated record takes one sequence number (and one
            # delay draw) as it is filed into the network.
            deltas = (("generate.records", lambda: engine._seq),)
        else:
            self._missing("generate.records", "Engine._seq")
        wrap(engine, "_generate_until", "generate", deltas=deltas)
        wrap(engine, "_deliver_ingestions", "deliver")
        for query in engine.queries:
            for binding in query.bindings:
                self._count_source_pushes(binding.channel, EventBatch)

        schedulers = getattr(engine, "node_schedulers", None) or [engine.scheduler]
        for scheduler in {id(s): s for s in schedulers}.values():
            wrap(scheduler, "plan", "schedule")
            self.count(
                scheduler, "query_slack", "schedule.slack_evals",
                required=isinstance(scheduler, KlinkScheduler),
            )
            if engine.audit is not None:
                wrap(scheduler, "explain_plan", "observer.audit")

        for query in engine.queries:
            for op in query.operators:
                if isinstance(op, SinkOperator):
                    kind = "sink"
                elif isinstance(op, WindowedJoin):
                    kind = "join"
                elif isinstance(op, (WindowedAggregate, CountWindowedAggregate)):
                    kind = "windowed"
                else:
                    kind = "stateless"
                stats = op.stats
                wrap(
                    op, "step", f"execute.{kind}", key="execute",
                    deltas=(
                        (f"execute.{kind}.events_in", lambda s=stats: s.events_in),
                        (f"execute.{kind}.panes_fired", lambda s=stats: s.panes_fired),
                    ),
                    nonzero="execute.useful_steps",
                )

        for name in MEMORY_METHODS:
            wrap(engine.memory, name, "memory")

        if engine.audit is not None:
            wrap(engine.audit, "on_cycle", "observer.audit")
        if engine.invariants is not None:
            wrap(engine.invariants, "on_cycle", "observer.invariants")
        lineage = engine.lineage
        if lineage is not None:
            for name in LINEAGE_METHODS:
                wrap(lineage, name, "observer.lineage")
            forecast = getattr(lineage, "forecast", None)
            for name in FORECAST_METHODS:
                wrap(forecast, name, "observer.lineage")
        if engine.checkpoints is not None:
            wrap(engine.checkpoints, "ensure_baseline", "checkpoint")
            wrap(engine.checkpoints, "maybe_checkpoint", "checkpoint")
        if engine.recovery is not None:
            wrap(engine.recovery, "on_cycle", "recovery")

        wrap(engine, "_publish_info", "distributed.publish", required=distributed)
        self.count(
            getattr(engine, "board", None), "publish",
            "distributed.board_publishes", required=distributed,
        )

    # -- results --------------------------------------------------------------

    def layer_metrics(self, run: Dict[str, float]) -> Dict[str, Optional[float]]:
        """Every metric of :data:`LAYER_METRICS`. ``run`` carries what the
        run itself reports: ``import_s``, ``backpressure_cycles``,
        ``checkpoints_taken``, ``checkpoint_bytes`` and ``recoveries``."""
        s, n, c = self.self_s, self.calls, self.counts
        execute_s = sum(s[f"execute.{k}"] for k in KINDS)
        steps = sum(n[f"execute.{k}"] for k in KINDS)
        delivered = c["deliver.rows"] + c["deliver.control_records"]
        values: Dict[str, Optional[float]] = {
            "setup.import_s": run["import_s"],
            "setup.build_queries_s": s["setup.build_queries"],
            "setup.validate_s": s["setup.validate"],
            "setup.engine_init_s": s["setup.engine_init"],
            "cycle.count": n["cycle"],
            "cycle.self_s": s["cycle"],
            "generate.s": s["generate"],
            "generate.records": c["generate.records"],
            "generate.ns_per_record": _ratio(s["generate"], c["generate.records"], 1e9),
            "deliver.s": s["deliver"],
            "deliver.rows": c["deliver.rows"],
            "deliver.control_records": c["deliver.control_records"],
            "deliver.ns_per_record": _ratio(s["deliver"], delivered, 1e9),
            "schedule.plan_s": s["schedule"],
            "schedule.plan_calls": n["schedule"],
            "schedule.slack_evals": c["schedule.slack_evals"],
            "schedule.us_per_slack_eval": _ratio(s["schedule"], c["schedule.slack_evals"], 1e6),
            "schedule.share": _ratio(s["schedule"], s["schedule"] + execute_s),
            "execute.windowed.panes_fired": c["execute.windowed.panes_fired"],
            "execute.useful_step_frac": _ratio(c["execute.useful_steps"], steps),
            "memory.s": s["memory"],
            "memory.calls": n["memory"],
            "memory.backpressure_cycles": run["backpressure_cycles"],
            "observer.audit.s": s["observer.audit"],
            "observer.invariants.s": s["observer.invariants"],
            "observer.lineage.s": s["observer.lineage"],
            "observer.lineage.calls": n["observer.lineage"],
            "checkpoint.s": s["checkpoint"],
            "checkpoint.taken": run["checkpoints_taken"],
            "checkpoint.ms_per_snapshot": _ratio(s["checkpoint"], run["checkpoints_taken"], 1e3),
            "checkpoint.bytes": run["checkpoint_bytes"],
            "recovery.s": s["recovery"],
            "recovery.count": run["recoveries"],
            "distributed.publish_s": s["distributed.publish"],
            "distributed.board_publishes": c["distributed.board_publishes"],
        }
        for kind in KINDS:
            values[f"execute.{kind}.s"] = s[f"execute.{kind}"]
            values[f"execute.{kind}.steps"] = n[f"execute.{kind}"]
            values[f"execute.{kind}.events_in"] = c[f"execute.{kind}.events_in"]
        return {
            name: None if self.missing.intersection(keys) else values[name]
            for name, _, keys in LAYER_METRICS
        }

    def chrome_trace(self) -> Dict[str, Any]:
        """Kept spans as Chrome trace-event JSON (microseconds)."""
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": name, "ph": "X", "pid": 1, "tid": 1,
                    "ts": start * 1e6, "dur": (end - start) * 1e6,
                    "args": {"parent": parent},
                }
                for name, start, end, parent in self.spans or ()
            ],
        }
