"""Watermark generation strategies.

Sec. 2.2: watermarks "are injected into the stream either (i) at the
source, or (ii) by a specific operator that periodically emits them. In
both cases, applications decide on their implementation logic for
generating watermarks."

The engine's built-in generation (per :class:`~repro.spe.query.SourceSpec`)
covers case (i) — periodic watermarks at the source carrying
``generation - lateness``. This module provides case (ii):

* :class:`WatermarkStrategy` implementations describing *when* a
  watermark is due and *what timestamp* it carries, based on the event
  stream actually observed;
* :class:`WatermarkGeneratorOperator`, a pipeline operator that applies a
  strategy to the records flowing through it, injecting watermarks
  downstream (and optionally notifying the stream's
  :class:`~repro.spe.query.StreamProgress` tracker, which is how Klink's
  runtime data acquisition observes mid-pipeline watermark generation —
  the Sec. 4 forwarding case where "the watermark is generated by an
  operator in the pipeline").

A source feeding such a pipeline should be configured with
``SourceSpec(emit_watermarks=False, ...)`` so watermarks are generated in
exactly one place.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

from repro.spe.events import RecordBatch, Watermark
from repro.spe.operators import Operator
from repro.spe.query import StreamProgress
from repro.spe.state import FLOAT, INT, RAW, STATE, TAG


class WatermarkStrategy(abc.ABC):
    """Decides when to emit a watermark and with what timestamp."""

    @abc.abstractmethod
    def on_batch(self, t_end: float, now: float) -> Optional[float]:
        """Observe a batch whose events end at event time ``t_end``;
        return a watermark timestamp to emit, or None."""

    def on_idle(self, now: float) -> Optional[float]:
        """Called once per cycle even without data; may emit (default: no)."""
        return None


class BoundedOutOfOrderness(WatermarkStrategy):
    """Flink's standard strategy: watermark = max event-time seen − bound.

    Emitted periodically (every ``period_ms`` of processing time), which
    matches Flink's ``forMonotonousTimestamps``/``forBoundedOutOfOrderness``
    generators with a periodic emit interval.
    """

    kind = "bounded"
    CHECKPOINT = (
        ("kind", "kind", TAG),
        ("max_event_time", "max_event_time", RAW),
        ("next_emit", "_next_emit", RAW),
    )

    def __init__(self, bound_ms: float, period_ms: float = 200.0) -> None:
        if bound_ms < 0:
            raise ValueError(f"negative bound: {bound_ms}")
        if period_ms <= 0:
            raise ValueError(f"period must be positive: {period_ms}")
        self.bound_ms = float(bound_ms)
        self.period_ms = float(period_ms)
        self.max_event_time = -math.inf
        self._next_emit = 0.0

    def on_batch(self, t_end: float, now: float) -> Optional[float]:
        self.max_event_time = max(self.max_event_time, t_end)
        return self.on_idle(now)

    def on_idle(self, now: float) -> Optional[float]:
        if now < self._next_emit or math.isinf(self.max_event_time):
            return None
        self._next_emit = now + self.period_ms
        return self.max_event_time - self.bound_ms


class PunctuatedWatermarks(WatermarkStrategy):
    """Emit a watermark with every batch (punctuation-style, [49, 52]).

    The timestamp trails the max observed event-time by ``bound_ms``.
    High watermark frequency buys finer progress signalling at the cost
    of more control records.
    """

    kind = "punctuated"
    CHECKPOINT = (("kind", "kind", TAG), ("max_event_time", "max_event_time", RAW))

    def __init__(self, bound_ms: float) -> None:
        if bound_ms < 0:
            raise ValueError(f"negative bound: {bound_ms}")
        self.bound_ms = float(bound_ms)
        self.max_event_time = -math.inf

    def on_batch(self, t_end: float, now: float) -> Optional[float]:
        self.max_event_time = max(self.max_event_time, t_end)
        return self.max_event_time - self.bound_ms


class WatermarkGeneratorOperator(Operator):
    """Assigns watermarks mid-pipeline from the observed event stream.

    Incoming watermarks (if any) are *absorbed* — this operator is the
    single watermark authority for everything downstream. Generated
    watermarks are monotone by construction (regressions are suppressed).
    """

    CHECKPOINT = (
        ("wm_gen.last_emitted", "last_emitted", FLOAT),
        ("wm_gen.watermarks_emitted", "watermarks_emitted", INT),
        ("wm_gen.regressions_suppressed", "regressions_suppressed", INT),
        ("wm_gen.strategy", "strategy", STATE),
    )

    def __init__(
        self,
        name: str,
        strategy: WatermarkStrategy,
        cost_per_event_ms: float = 0.001,
        progress: Optional[StreamProgress] = None,
    ) -> None:
        super().__init__(name, cost_per_event_ms, selectivity=1.0)
        self.strategy = strategy
        self.progress = progress
        self.last_emitted = -math.inf
        self.watermarks_emitted = 0
        #: candidate timestamps suppressed because they would have moved
        #: the watermark backwards (observability for monotonicity tests).
        self.regressions_suppressed = 0

    def attach_progress(self, progress: StreamProgress) -> None:
        """Point the stream's progress tracker at this generator (Sec. 4:
        the node hosting the generating operator owns the delay info)."""
        self.progress = progress  # klink: transient[rebound at wiring; the tracker's contents are captured via the binding]

    def _maybe_emit(self, timestamp: Optional[float], now: float) -> None:
        if timestamp is None:
            return
        if timestamp <= self.last_emitted:
            self.regressions_suppressed += 1
            return
        self.last_emitted = timestamp
        self.watermarks_emitted += 1
        if self.progress is not None:
            self.progress.observe_watermark(timestamp, now)
        self._emit(Watermark(timestamp), now)

    def _on_row(
        self,
        rb: RecordBatch,
        index: int,
        count: float,
        input_index: int,
        now: float,
    ) -> None:
        super()._on_row(rb, index, count, input_index, now)  # forward the data
        self._maybe_emit(self.strategy.on_batch(rb.t_ends[index], now), now)

    def _on_watermark(self, wm: Watermark, input_index: int, now: float) -> None:
        # Absorb upstream watermarks: this operator re-generates progress.
        self._maybe_emit(self.strategy.on_idle(now), now)
