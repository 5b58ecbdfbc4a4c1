"""In-order processing (IOP) support.

Sec. 2.1 of the paper contrasts two architectures for handling
out-of-order streams:

* **IOP** — the SPE enforces event-time order before processing, which
  "typically imposes large performance overheads as in-order processing
  can perilously delay the processing of events";
* **OOP** — operators process events as they arrive and watermarks
  guarantee completeness (the architecture Klink assumes).

:class:`ReorderBuffer` implements the IOP building block: it holds every
arriving batch until a watermark certifies that no earlier event can
still arrive, then releases the buffered batches sorted by event-time
(followed by the watermark). Inserting it after a source turns that
stream into an in-order stream at the cost of buffering memory and an
added delay of up to the watermark period plus the lateness allowance —
the overhead the paper attributes to IOP, measurable with the
``test_ablation_iop_vs_oop`` bench.
"""

from __future__ import annotations

from typing import Any, List

from repro.spe.events import EventBatch, RecordBatch, Watermark
from repro.spe.operators import Operator
from repro.spe.state import FLOAT, CheckpointError, Codec, decode_record, encode_record


def _decode_batches(state: List[Any], live: Any, mode: str) -> List[EventBatch]:
    batches = [decode_record(encoded) for encoded in state]
    for record in batches:
        if not isinstance(record, EventBatch):  # pragma: no cover - defensive
            raise CheckpointError(f"reorder buffer holds a non-batch record: {record!r}")
    return batches  # type: ignore[return-value]


#: the buffered batches, each as its record encoding
BATCHES = Codec(lambda buffer: [encode_record(b) for b in buffer], _decode_batches)


class ReorderBuffer(Operator):
    """Buffers and sorts events until watermarks certify completeness."""

    CHECKPOINT = (
        ("reorder.buffer", "_buffer", BATCHES),
        ("reorder.buffered_events", "_buffered_events", FLOAT),
        ("reorder.buffered_bytes", "_buffered_bytes", FLOAT),
        ("reorder.released_events", "released_events", FLOAT),
    )

    def __init__(
        self,
        name: str,
        cost_per_event_ms: float = 0.002,
        state_bytes_per_event: int | None = None,
    ) -> None:
        super().__init__(name, cost_per_event_ms, selectivity=1.0)
        self._buffer: List[EventBatch] = []
        self._buffered_events = 0.0
        self._buffered_bytes = 0.0
        self._state_bytes_per_event = state_bytes_per_event
        self.released_events = 0.0

    @property
    def state_events(self) -> float:
        return self._buffered_events

    @property
    def state_bytes(self) -> float:
        if self._state_bytes_per_event is not None:
            return self._buffered_events * self._state_bytes_per_event
        return self._buffered_bytes

    def _on_row(
        self,
        rb: RecordBatch,
        index: int,
        count: float,
        input_index: int,
        now: float,
    ) -> None:
        batch = EventBatch(
            count=count,
            t_start=rb.t_starts[index],
            t_end=rb.t_ends[index],
            delay=rb.delays[index],
            bytes_per_event=rb.bytes_per_event,
        )
        self._buffer.append(batch)
        self._buffered_events += count
        self._buffered_bytes += batch.bytes

    def _on_watermark(self, wm: Watermark, input_index: int, now: float) -> None:
        ready = [b for b in self._buffer if b.t_end <= wm.timestamp]
        if ready:
            # Release complete batches in event-time order: the defining
            # property of IOP. Batches straddling the watermark stay
            # buffered in full (splitting them would reorder their mass).
            ready.sort(key=lambda b: (b.t_start, b.t_end))
            for batch in ready:
                self._buffered_events -= batch.count
                self._buffered_bytes -= batch.bytes
                self.released_events += batch.count
                # Pass bytes through unchanged: reordering transforms
                # nothing.
                self._emit_row(
                    batch.count, batch.t_start, batch.t_end, batch.delay,
                    batch.bytes_per_event, now,
                )
            remaining = [b for b in self._buffer if b.t_end > wm.timestamp]
            self._buffer = remaining
        self._emit(wm, now)

    def pending_batches(self) -> int:
        """Number of batches still awaiting a certifying watermark."""
        return len(self._buffer)
