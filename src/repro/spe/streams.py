"""Inter-operator channels.

A :class:`Channel` is the FIFO queue connecting two operators (or a source
to its first operator). It tracks the aggregate statistics the schedulers
consume: number of queued events, queued bytes, and the engine-clock time
at which the head record arrived (FCFS orders queries by this).

Payload enters a channel only as rows (:meth:`Channel.push_row`), which
coalesce into columnar :class:`~repro.spe.events.RecordBatch` entries of
up to ``batch_size`` rows; ``batch_size=1`` puts one row in each entry on
the same code path. Control records (watermarks, latency markers) are
queued one per entry and seal the tail batch, so FIFO order across record
kinds is exact. All aggregate accounting is applied *per row* in push
order, so queue statistics (and thus every scheduler decision derived
from them) are byte-identical whatever the batch size.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, Optional

from repro.spe.events import EventBatch, RecordBatch
from repro.spe.state import FLOAT, Codec, decode_record, encode_record

#: rows per channel queue entry unless the caller says otherwise; the
#: engine, ``ExperimentConfig`` and the CLI all read it
DEFAULT_BATCH_SIZE = 64

#: rows a partially drained tail batch may accumulate before its consumed
#: prefix is compacted away (purely a memory bound; never observable)
_COMPACT_THRESHOLD = 256


class _Entry:
    __slots__ = ("record", "enqueued_at")

    def __init__(self, record: object, enqueued_at: float) -> None:
        self.record = record
        self.enqueued_at = enqueued_at


#: a queue of entries as ``[[record, enqueued_at], ...]``
ENTRIES = Codec(
    lambda queue: [[encode_record(e.record), e.enqueued_at] for e in queue],
    lambda state, live, mode: deque(_Entry(decode_record(r), at) for r, at in state),
)


class Channel:
    """Bounded-accounting FIFO queue between operators.

    A channel whose endpoints live on different nodes carries a transfer
    ``latency_ms``: pushed records stay in a pending buffer, stamped with
    their arrival time, until the engine calls :meth:`release` once the
    latency has elapsed (the RPC / network hop of a distributed
    deployment, Sec. 4). Pending rows coalesce like queued ones.
    """

    CHECKPOINT = (
        ("entries", "_entries", ENTRIES),
        ("pending", "_pending", ENTRIES),
        ("queued_events", "_queued_events", FLOAT),
        ("queued_bytes", "_queued_bytes", FLOAT),
        ("pushed", "events_pushed", FLOAT),
        ("returned", "events_returned", FLOAT),
        ("popped", "events_popped", FLOAT),
    )

    def __init__(
        self, name: str = "", latency_ms: float = 0.0, owner: object = None
    ) -> None:
        if latency_ms < 0:
            raise ValueError(f"negative channel latency: {latency_ms}")
        self.name = name
        self.latency_ms = latency_ms
        #: payload rows coalesced per queue entry; the engine sets it on
        #: every input channel at wiring time.
        self.batch_size = 1
        #: consuming operator (if any); its memoized queue aggregates are
        #: invalidated whenever this channel's payload accounting changes.
        self._owner = owner
        #: position of this channel in the consumer's ``inputs`` list
        #: (set by the owning operator; saves a list.index per dispatch).
        self._consumer_index = 0  # klink: transient[build-time wiring, fixed for the life of the topology]
        self._entries: Deque[_Entry] = deque()
        self._pending: Deque[_Entry] = deque()  # in-flight cross-node records
        self._queued_events: float = 0.0
        self._queued_bytes: float = 0.0
        # Cumulative flow counters (never reset) — the invariant monitor
        # asserts pushed + returned - popped == queued after every cycle.
        self.events_pushed: float = 0.0
        self.events_returned: float = 0.0
        self.events_popped: float = 0.0

    def after_restore(self) -> None:
        """The queues were replaced: the owner's queue memo is stale."""
        if self._owner is not None:
            self._owner._queues_dirty = True

    # -- producer side -----------------------------------------------------

    def push(self, record: object, now: float) -> None:
        """Enqueue ``record`` at engine time ``now``.

        An :class:`EventBatch` is forwarded to :meth:`push_row`; control
        records are queued as they are.
        """
        if isinstance(record, EventBatch):
            self.push_row(
                record.count,
                record.t_start,
                record.t_end,
                record.delay,
                record.bytes_per_event,
                now,
            )
        elif self.latency_ms > 0.0:
            self._pending.append(_Entry(record, now + self.latency_ms))
        else:
            self._entries.append(_Entry(record, now))

    def push_row(
        self,
        count: float,
        t_start: float,
        t_end: float,
        delay: float,
        bytes_per_event: int,
        now: float,
    ) -> None:
        """Enqueue one payload row, coalescing into the tail batch."""
        if self.latency_ms > 0.0:
            self._append_row(
                self._pending, count, t_start, t_end, delay, bytes_per_event,
                now + self.latency_ms,
            )
            return
        self._append_row(
            self._entries, count, t_start, t_end, delay, bytes_per_event, now
        )
        self._queued_events += count
        self._queued_bytes += count * bytes_per_event
        self.events_pushed += count
        if self._owner is not None:
            self._owner._queues_dirty = True  # klink: transient[back-pointer; only invalidates the owner's queue memo]

    def _append_row(
        self,
        queue: Deque[_Entry],
        count: float,
        t_start: float,
        t_end: float,
        delay: float,
        bytes_per_event: int,
        at: float,
    ) -> None:
        """Append a row stamped ``at`` to ``queue``'s tail batch, or to a
        new one when the tail is a control record, full, or of another
        row size."""
        tail = queue[-1].record if queue else None
        if (
            type(tail) is RecordBatch
            and tail.bytes_per_event == bytes_per_event
            and len(tail.counts) - tail.head < self.batch_size
        ):
            if tail.head > _COMPACT_THRESHOLD:
                tail.compact()
            # RecordBatch.append_row inlined (one call per row saved)
            tail.counts.append(count)
            tail.t_starts.append(t_start)
            tail.t_ends.append(t_end)
            tail.delays.append(delay)
            tail.enqueued_ats.append(at)
        else:
            queue.append(
                _Entry(
                    RecordBatch(bytes_per_event, count, t_start, t_end, delay, at),
                    at,
                )
            )

    def release(self, now: float) -> int:
        """Deliver in-flight records whose transfer completed, in FIFO
        order, booking rows one by one; returns how many rows and control
        records arrived."""
        pending = self._pending
        released = 0
        while pending and pending[0].enqueued_at <= now:
            entry = pending[0]
            rb = entry.record
            if type(rb) is not RecordBatch:
                self._entries.append(pending.popleft())
                released += 1
                continue
            arrivals = rb.enqueued_ats
            n = len(arrivals)
            head = stop = rb.head
            while stop < n and arrivals[stop] <= now:
                stop += 1
            counts = rb.counts
            bpe = rb.bytes_per_event
            for i in range(head, stop):
                count = counts[i]
                self._queued_events += count
                self._queued_bytes += count * bpe
                self.events_pushed += count
            released += stop - head
            if self._owner is not None:
                self._owner._queues_dirty = True
            if stop == n:
                # every row has arrived: the batch moves as it is
                self._entries.append(pending.popleft())
                continue
            # only a prefix has arrived: it moves row by row
            for i in range(head, stop):
                self._append_row(
                    self._entries, counts[i], rb.t_starts[i], rb.t_ends[i],
                    rb.delays[i], bpe, arrivals[i],
                )
            rb.head = stop
            entry.enqueued_at = arrivals[stop]
            break
        return released

    def push_front(self, record: object, enqueued_at: float) -> None:
        """Return a popped record to the head of the queue."""
        self._entries.appendleft(_Entry(record, enqueued_at))
        if type(record) is RecordBatch:
            bpe = record.bytes_per_event
            for i in range(record.head, len(record.counts)):
                count = record.counts[i]
                self._queued_events += count
                self._queued_bytes += count * bpe
                self.events_returned += count
            if self._owner is not None:
                self._owner._queues_dirty = True

    # -- consumer side -----------------------------------------------------

    def pop(self) -> Optional[_Entry]:
        """Dequeue the head entry, or ``None`` when empty."""
        if not self._entries:
            return None
        entry = self._entries.popleft()
        record = entry.record
        if type(record) is RecordBatch:
            # Row-by-row accounting in row order: the same float sequence
            # the operator drains apply as they consume each row.
            bpe = record.bytes_per_event
            for i in range(record.head, len(record.counts)):
                count = record.counts[i]
                self._queued_events -= count
                self._queued_bytes -= count * bpe
                self.events_popped += count
                # Guard against float drift accumulating into negatives.
                if self._queued_events < 1e-9:
                    self._queued_events = 0.0
                if self._queued_bytes < 1e-6:
                    self._queued_bytes = 0.0
            if self._owner is not None:
                self._owner._queues_dirty = True
        return entry

    def peek(self) -> Optional[_Entry]:
        """Return (without removing) the head entry, or ``None``."""
        return self._entries[0] if self._entries else None

    def discard_head(self) -> None:
        """Remove the head entry without payload accounting.

        Used by the operator drains once every row of the head
        :class:`RecordBatch` has been consumed (row accounting already
        applied as each row was consumed).
        """
        self._entries.popleft()

    # -- introspection -----------------------------------------------------

    def transfer_interval(self, enqueued_at: float) -> Optional[tuple]:
        """``(push_time, arrival)`` of a record's cross-node transfer.

        For a latency channel, a record enqueued (arrived) at
        ``enqueued_at`` was pushed ``latency_ms`` earlier — the interval is
        the *emit* leg of the lineage waterfall. Local channels transfer
        instantaneously and return ``None``. Pure arithmetic over the
        channel's fixed latency; shares its boundary floats with the
        adjacent queue span so the lineage chain stays exactly contiguous.
        """
        if self.latency_ms <= 0.0:
            return None
        return (enqueued_at - self.latency_ms, enqueued_at)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[_Entry]:
        return iter(self._entries)

    @property
    def queued_events(self) -> float:
        """Number of payload events currently queued."""
        return self._queued_events

    @property
    def queued_bytes(self) -> float:
        """Memory footprint of queued payload events."""
        return self._queued_bytes

    @property
    def head_arrival(self) -> Optional[float]:
        """Engine time at which the oldest queued record arrived."""
        return self._entries[0].enqueued_at if self._entries else None

    def clear(self) -> None:
        """Drop all queued records (used by tests and teardown)."""
        # Dropped records count as consumed so the cumulative flow
        # counters stay consistent with the (now empty) queue.
        for entry in self._entries:
            record = entry.record
            if type(record) is RecordBatch:
                for i in range(record.head, len(record.counts)):
                    self.events_popped += record.counts[i]
        self._entries.clear()
        self._queued_events = 0.0
        self._queued_bytes = 0.0
        if self._owner is not None:
            self._owner._queues_dirty = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Channel({self.name!r}, records={len(self._entries)}, "
            f"events={self._queued_events:.0f})"
        )
