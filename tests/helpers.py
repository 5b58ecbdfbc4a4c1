"""Builders for small deterministic test pipelines."""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.net.delays import ConstantDelay
from repro.spe.engine import CycleEvent, NodeCycle
from repro.spe.operators import (
    FilterOperator,
    MapOperator,
    SinkOperator,
    WindowedAggregate,
    WindowedJoin,
)
from repro.spe.query import Query, SourceBinding, SourceSpec, chain
from repro.spe.windows import SlidingEventTimeWindows, TumblingEventTimeWindows


def make_simple_query(
    query_id: str = "q0",
    *,
    rate_eps: float = 1000.0,
    window_ms: float = 1000.0,
    watermark_period_ms: float = 500.0,
    delay_ms: float = 0.0,
    deployed_at: float = 0.0,
    cost_ms: float = 0.01,
    selectivity: float = 0.5,
    outputs_per_pane: float = 10.0,
    burst_factor: float = 1.0,
    seed: int = 0,
) -> Query:
    """source -> filter -> tumbling window -> sink, fully deterministic."""
    delay_model = ConstantDelay(delay_ms)
    spec = SourceSpec(
        name=f"{query_id}.src",
        rate_eps=rate_eps,
        watermark_period_ms=watermark_period_ms,
        lateness_ms=delay_model.bound,
        delay_model=delay_model,
        burst_factor=burst_factor,
    )
    filt = FilterOperator(f"{query_id}.filter", cost_ms, selectivity=selectivity)
    window = WindowedAggregate(
        f"{query_id}.window",
        TumblingEventTimeWindows(window_ms, offset=deployed_at),
        cost_per_event_ms=cost_ms,
        output_events_per_pane=outputs_per_pane,
        key_by="key",
    )
    sink = SinkOperator(f"{query_id}.sink")
    operators = chain(filt, window, sink)
    binding = SourceBinding(spec, filt, seed=seed)
    return Query(query_id, [binding], operators, sink, deployed_at=deployed_at)


def make_join_query(
    query_id: str = "jq0",
    *,
    n_inputs: int = 2,
    rate_eps: float = 500.0,
    window_ms: float = 1000.0,
    slide_ms: float | None = None,
    watermark_period_ms: float = 500.0,
    delays_ms: tuple = (0.0, 0.0),
    deployed_at: float = 0.0,
) -> Query:
    """n parsers -> windowed join -> sink."""
    join = WindowedJoin(
        f"{query_id}.join",
        SlidingEventTimeWindows(window_ms, slide_ms, offset=deployed_at),
        cost_per_event_ms=0.01,
        n_inputs=n_inputs,
        join_selectivity=0.1,
    )
    sink = SinkOperator(f"{query_id}.sink")
    join.connect(sink)
    parsers = []
    bindings = []
    for i in range(n_inputs):
        delay_model = ConstantDelay(delays_ms[i % len(delays_ms)])
        spec = SourceSpec(
            name=f"{query_id}.src{i}",
            rate_eps=rate_eps,
            watermark_period_ms=watermark_period_ms,
            lateness_ms=delay_model.bound,
            delay_model=delay_model,
        )
        parser = MapOperator(f"{query_id}.parse{i}", 0.005)
        parser.connect(join, input_index=i)
        parsers.append(parser)
        bindings.append(SourceBinding(spec, parser, source_id=i))
    return Query(
        query_id, bindings, parsers + [join, sink], sink, deployed_at=deployed_at
    )


def cycle_event(
    engine: Any = None,
    *,
    now: Optional[float] = None,
    cycle: int = 0,
    ctx: Any = None,
    backpressured: bool = False,
    nodes: Sequence[NodeCycle] = (),
    used: float = 0.0,
    overhead: float = 0.0,
) -> CycleEvent:
    """A :class:`CycleEvent` for driving one observer by hand; ``now``
    defaults to the engine's clock."""
    if now is None:
        now = engine.clock.now if engine is not None else 0.0
    return CycleEvent(
        engine, now, cycle, ctx, backpressured, frozenset(), tuple(nodes),
        used, overhead,
    )
