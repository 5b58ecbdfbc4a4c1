"""Stream records flowing between operators.

To keep a pure-Python simulation tractable at the paper's event rates
(10,000+ events per second per query), payload events are represented as
*rows*: one row stands for ``count`` events generated over the event-time
interval ``[t_start, t_end]`` that experienced the same network delay. All
scheduling-relevant quantities — queue sizes, processing cost,
selectivity, memory footprint, window assignment — are functions of
counts and timestamp ranges, so grouping events this way preserves the
behaviour the paper measures while cutting interpreter overhead by orders
of magnitude.

A source generates each row as an :class:`EventBatch`, the record the
network carries. Every channel stores payload as the columns of a
:class:`RecordBatch`. Watermarks and latency markers remain individual
records because their per-record semantics (progress signalling, latency
probing) are the object of study.
"""

from __future__ import annotations

import struct
from itertools import count as _counter

_marker_ids = _counter()

#: the IEEE-754 bit pattern of an event time, as :func:`record_identity`
#: encodes it
pack_event_time = struct.Struct("<d").pack


def record_identity(query_id: str, source_id: int, t_end: float) -> bytes:
    """Stable byte identity of a generated batch's final event.

    Used by the lineage sampler to decide — deterministically across
    reruns, worker processes, and ``PYTHONHASHSEED`` values — whether a
    record is traced. The event-time boundary is encoded via its IEEE-754
    bit pattern (not ``repr``), so two floats compare equal here exactly
    when they are the same value bit-for-bit.
    """
    return record_identity_prefix(query_id, source_id) + pack_event_time(t_end)


def record_identity_prefix(query_id: str, source_id: int) -> bytes:
    """The part of :func:`record_identity` fixed per source stream, so a
    caller hashing many records of one stream can build it once."""
    return query_id.encode("utf-8") + b"|" + str(source_id).encode("ascii") + b"|"


class EventBatch:
    """A group of payload events sharing generation interval and delay.

    A plain ``__slots__`` class (not a dataclass): record construction is
    the hottest allocation in the simulator, and slots cut both the
    per-instance memory and the attribute access cost.

    Attributes:
        count: Number of events represented (may be fractional mid-pipeline
            after selectivity scaling; sources always emit integral counts).
        t_start: Earliest event-time in the batch (ms).
        t_end: Latest event-time in the batch (ms), ``>= t_start``. Event
            times are treated as uniformly spread over ``[t_start, t_end]``
            when a batch must be split across window panes.
        delay: Network delay the events experienced between generation at
            the source and ingestion by the engine (ms). Klink's runtime
            data acquisition reads this to build its delay history.
        bytes_per_event: Serialized size used by the memory model.
    """

    __slots__ = ("count", "t_start", "t_end", "delay", "bytes_per_event")

    def __init__(
        self,
        count: float,
        t_start: float,
        t_end: float,
        delay: float = 0.0,
        bytes_per_event: int = 100,
    ) -> None:
        if count < 0:
            raise ValueError(f"negative batch count: {count}")
        if t_end < t_start:
            raise ValueError(f"batch interval inverted: [{t_start}, {t_end}]")
        self.count = count
        self.t_start = t_start
        self.t_end = t_end
        self.delay = delay
        self.bytes_per_event = bytes_per_event

    # dataclass-equivalent value semantics (eq without hash)
    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventBatch):
            return NotImplemented
        return (
            self.count == other.count
            and self.t_start == other.t_start
            and self.t_end == other.t_end
            and self.delay == other.delay
            and self.bytes_per_event == other.bytes_per_event
        )

    def __repr__(self) -> str:
        return (
            f"EventBatch(count={self.count!r}, t_start={self.t_start!r}, "
            f"t_end={self.t_end!r}, delay={self.delay!r}, "
            f"bytes_per_event={self.bytes_per_event!r})"
        )

    @property
    def bytes(self) -> float:
        """Total memory footprint of the batch."""
        return self.count * self.bytes_per_event


class RecordBatch:
    """A columnar run of payload rows: the one form payload takes in a
    channel queue.

    Consecutive payload pushes are appended as *rows* of one
    ``RecordBatch`` (up to the channel's ``batch_size``): parallel columns
    hold each row's count, event-time interval, and network delay, plus
    the engine time at which the row was enqueued. Operators drain rows in
    order with the same per-row arithmetic whatever the row cap (the
    batch-equivalence gate holds byte-for-byte); a larger cap only
    amortizes the queue entry, dispatch, and budget-loop round over more
    rows.

    Control records (watermarks, latency markers) are never coalesced,
    and a control push seals the current tail batch, so FIFO order across
    record kinds is preserved exactly.

    A batch is created holding its first row (a queued batch is never
    empty: a drained one leaves the queue). ``head`` indexes the first
    unconsumed row: partially drained batches advance it instead of
    shifting the columns.
    """

    __slots__ = (
        "counts",
        "t_starts",
        "t_ends",
        "delays",
        "enqueued_ats",
        "bytes_per_event",
        "head",
    )

    def __init__(
        self,
        bytes_per_event: int,
        count: float,
        t_start: float,
        t_end: float,
        delay: float,
        enqueued_at: float,
    ) -> None:
        self.counts: list = [count]
        self.t_starts: list = [t_start]
        self.t_ends: list = [t_end]
        self.delays: list = [delay]
        self.enqueued_ats: list = [enqueued_at]
        self.bytes_per_event = int(bytes_per_event)
        self.head = 0

    def append_row(
        self,
        count: float,
        t_start: float,
        t_end: float,
        delay: float,
        enqueued_at: float,
    ) -> None:
        self.counts.append(count)
        self.t_starts.append(t_start)
        self.t_ends.append(t_end)
        self.delays.append(delay)
        self.enqueued_ats.append(enqueued_at)

    @property
    def n_rows(self) -> int:
        """Unconsumed rows remaining."""
        return len(self.counts) - self.head

    @property
    def count(self) -> float:
        """Total payload events across unconsumed rows (diagnostics)."""
        return sum(self.counts[self.head:])

    def compact(self) -> None:
        """Drop the consumed prefix before ``head`` (rebases ``head`` to 0).

        Deletes in place, so callers holding the column lists keep valid
        references.
        """
        h = self.head
        del self.counts[:h]
        del self.t_starts[:h]
        del self.t_ends[:h]
        del self.delays[:h]
        del self.enqueued_ats[:h]
        self.head = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RecordBatch(rows={self.n_rows}, events={self.count:.0f}, "
            f"bpe={self.bytes_per_event})"
        )


class Watermark:
    """Progress event: no event with event-time ``<= timestamp`` follows.

    ``source_id`` identifies which input stream of a multi-input (join)
    operator carried the watermark; single-input pipelines leave it 0.
    ``is_swm`` is set by a window operator when this watermark unblocked at
    least one pane — it is then a *sweeping watermark* for downstream
    operators, and the sink measures output latency on it (Sec. 2.2).

    Value-semantic ``__slots__`` class (construction-hot: every operator
    forwards a fresh watermark per hop); treat instances as immutable.
    """

    __slots__ = ("timestamp", "source_id", "is_swm")

    def __init__(
        self, timestamp: float, source_id: int = 0, is_swm: bool = False
    ) -> None:
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "source_id", source_id)
        object.__setattr__(self, "is_swm", is_swm)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Watermark is immutable (tried to set {name!r})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Watermark):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.source_id == other.source_id
            and self.is_swm == other.is_swm
        )

    def __hash__(self) -> int:
        return hash((self.timestamp, self.source_id, self.is_swm))

    def __repr__(self) -> str:
        return (
            f"Watermark(timestamp={self.timestamp!r}, "
            f"source_id={self.source_id!r}, is_swm={self.is_swm!r})"
        )


class LatencyMarker:
    """Probe injected at the source to measure propagation delay.

    The paper injects one marker per source every 200 ms; the sink records
    ``clock.now - created_at`` on arrival. Treat instances as immutable.
    """

    __slots__ = ("created_at", "marker_id")

    def __init__(self, created_at: float, marker_id: int | None = None) -> None:
        object.__setattr__(self, "created_at", created_at)
        object.__setattr__(
            self, "marker_id", next(_marker_ids) if marker_id is None else marker_id
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"LatencyMarker is immutable (tried to set {name!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyMarker):
            return NotImplemented
        return (
            self.created_at == other.created_at
            and self.marker_id == other.marker_id
        )

    def __hash__(self) -> int:
        return hash((self.created_at, self.marker_id))

    def __repr__(self) -> str:
        return (
            f"LatencyMarker(created_at={self.created_at!r}, "
            f"marker_id={self.marker_id!r})"
        )


