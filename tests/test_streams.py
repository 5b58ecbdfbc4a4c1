"""Unit tests for inter-operator channels."""

import pytest

from repro.spe.events import EventBatch, LatencyMarker, RecordBatch, Watermark
from repro.spe.streams import Channel


def batch(count=10, t0=0.0, t1=100.0, bpe=100):
    return EventBatch(count=count, t_start=t0, t_end=t1, bytes_per_event=bpe)


def rows(record):
    """The (count, t_start, t_end, delay, bpe, enqueued_at) rows of a
    queued RecordBatch."""
    assert type(record) is RecordBatch
    return [
        (record.counts[i], record.t_starts[i], record.t_ends[i],
         record.delays[i], record.bytes_per_event, record.enqueued_ats[i])
        for i in range(record.head, len(record.counts))
    ]


def assert_flow_balanced(ch):
    assert ch.events_pushed + ch.events_returned - ch.events_popped == (
        pytest.approx(ch.queued_events, abs=1e-9)
    )


class TestFifoSemantics:
    def test_push_pop_preserves_order(self):
        ch = Channel()
        records = [batch(), Watermark(50.0), batch(count=5)]
        for i, r in enumerate(records):
            ch.push(r, now=float(i))
        popped = [ch.pop().record for _ in range(3)]
        assert rows(popped[0]) == [(10, 0.0, 100.0, 0.0, 100, 0.0)]
        assert popped[1] == records[1]
        assert rows(popped[2]) == [(5, 0.0, 100.0, 0.0, 100, 2.0)]

    @pytest.mark.parametrize("batch_size", [1, 2, 64])
    def test_rows_coalesce_up_to_the_cap(self, batch_size):
        ch = Channel()
        ch.batch_size = batch_size
        for i in range(5):
            ch.push_row(1.0, 0.0, 1.0, 0.0, 100, float(i))
        ch.push(Watermark(1.0), 5.0)
        ch.push_row(1.0, 1.0, 2.0, 0.0, 100, 6.0)
        payload = [e.record for e in ch if type(e.record) is RecordBatch]
        assert [len(rows(r)) for r in payload[:-1]] == (
            [min(batch_size, 5 - k) for k in range(0, 5, batch_size)]
        )
        # a control record seals the tail batch
        assert len(rows(payload[-1])) == 1
        assert ch.queued_events == 6.0

    def test_pop_empty_returns_none(self):
        assert Channel().pop() is None

    def test_peek_does_not_remove(self):
        ch = Channel()
        ch.push(batch(), 0.0)
        assert ch.peek() is not None
        assert len(ch) == 1

    def test_push_front_restores_head(self):
        ch = Channel()
        ch.push(batch(count=1), 0.0)
        ch.push(batch(count=2), 1.0)
        head = ch.pop()
        ch.push_front(head.record, head.enqueued_at)
        assert ch.pop().record.count == 1


class TestAccounting:
    def test_queued_events_tracks_batches(self):
        ch = Channel()
        ch.push(batch(count=10), 0.0)
        ch.push(batch(count=5), 0.0)
        assert ch.queued_events == 15

    def test_queued_bytes_tracks_batches(self):
        ch = Channel()
        ch.push(batch(count=10, bpe=50), 0.0)
        assert ch.queued_bytes == 500

    def test_control_records_occupy_no_event_accounting(self):
        ch = Channel()
        ch.push(Watermark(0.0), 0.0)
        ch.push(LatencyMarker(created_at=0.0), 0.0)
        assert ch.queued_events == 0
        assert ch.queued_bytes == 0
        assert len(ch) == 2

    def test_pop_releases_accounting(self):
        ch = Channel()
        ch.push(batch(count=10), 0.0)
        ch.pop()
        assert ch.queued_events == 0
        assert ch.queued_bytes == 0

    def test_clear_resets_everything(self):
        ch = Channel()
        ch.push(batch(), 0.0)
        ch.clear()
        assert len(ch) == 0
        assert ch.queued_events == 0


class TestIntrospection:
    def test_head_arrival(self):
        ch = Channel()
        assert ch.head_arrival is None
        ch.push(batch(), 17.0)
        assert ch.head_arrival == 17.0

    def test_bool_reflects_emptiness(self):
        ch = Channel()
        assert not ch
        ch.push(batch(), 0.0)
        assert ch


class TestTransferLatency:
    def test_latent_channel_holds_until_release(self):
        ch = Channel(latency_ms=100.0)
        ch.push(batch(count=4), now=0.0)
        assert len(ch) == 0
        assert ch.queued_events == 0
        assert ch.release(now=50.0) == 0
        assert ch.release(now=100.0) == 1
        assert ch.queued_events == 4

    def test_release_preserves_order(self):
        ch = Channel(latency_ms=10.0)
        ch.push(batch(count=1), 0.0)
        ch.push(Watermark(5.0), 1.0)
        ch.release(now=20.0)
        assert isinstance(ch.pop().record, RecordBatch)
        assert isinstance(ch.pop().record, Watermark)

    @pytest.mark.parametrize("batch_size", [1, 3, 64])
    def test_rows_release_in_fifo_order_at_push_plus_latency(self, batch_size):
        latency = 10.0
        ch = Channel(latency_ms=latency)
        ch.batch_size = batch_size
        pushed = []  # (record or row, arrival) in push order
        for step in range(8):
            now = 4.0 * step
            ch.push_row(step + 1.0, now, now + 1.0, 0.5, 100, now)
            pushed.append(((step + 1.0, now, now + 1.0, 0.5, 100), now + latency))
            if step == 3:
                wm = Watermark(now)
                ch.push(wm, now)
                pushed.append((wm, now + latency))
            ch.release(now)
            queued = []
            for e in ch:
                if type(e.record) is RecordBatch:
                    queued.extend((row[:5], row[5]) for row in rows(e.record))
                else:
                    queued.append((e.record, e.enqueued_at))
            # nothing is queued before its push time + latency, and what
            # is queued keeps push order
            assert queued == [item for item in pushed if item[1] <= now]
            assert_flow_balanced(ch)
        ch.release(1e9)
        assert not ch._pending
        assert ch.head_arrival == pushed[0][1]
        while ch:
            ch.pop()
            assert_flow_balanced(ch)

    def test_zero_latency_is_immediate(self):
        ch = Channel()
        ch.push(batch(), 0.0)
        assert len(ch) == 1

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            Channel(latency_ms=-1.0)
