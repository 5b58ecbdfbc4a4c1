"""Unit tests for stream records (batches, watermarks, markers)."""

import pytest

from repro.spe.events import EventBatch, LatencyMarker, RecordBatch, Watermark


class TestEventBatch:
    def test_bytes_scale_with_count(self):
        batch = EventBatch(count=10, t_start=0, t_end=100, bytes_per_event=50)
        assert batch.bytes == 500

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            EventBatch(count=-1, t_start=0, t_end=1)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            EventBatch(count=1, t_start=10, t_end=5)

    def test_zero_length_interval_is_allowed(self):
        batch = EventBatch(count=1, t_start=10, t_end=10)
        assert batch.t_start == batch.t_end

    def test_fractional_counts_supported_mid_pipeline(self):
        batch = EventBatch(count=0.5, t_start=0, t_end=1)
        assert batch.count == 0.5


class TestRecordBatch:
    def test_compact_drops_consumed_prefix(self):
        rb = RecordBatch(10, 1.0, 0.0, 1.0, 0.0, 0.0)
        for i in range(1, 4):
            rb.append_row(float(i + 1), 0.0, 1.0, 0.0, float(i))
        counts = rb.counts
        rb.head = 3
        rb.compact()
        assert rb.head == 0
        assert rb.counts is counts  # deleted in place
        assert rb.counts == [4.0] and rb.enqueued_ats == [3.0]
        assert rb.n_rows == 1 and rb.count == 4.0


class TestWatermark:
    def test_defaults(self):
        wm = Watermark(100.0)
        assert wm.source_id == 0
        assert wm.is_swm is False

    def test_is_frozen(self):
        wm = Watermark(100.0)
        with pytest.raises(Exception):
            wm.timestamp = 200.0

    def test_swm_flag_carried(self):
        assert Watermark(5.0, is_swm=True).is_swm


class TestLatencyMarker:
    def test_ids_are_unique(self):
        a, b = LatencyMarker(created_at=0.0), LatencyMarker(created_at=0.0)
        assert a.marker_id != b.marker_id
