"""Unit tests for StreamProgress: epoch demarcation, SWM detection, and
the per-epoch delay statistics feeding Eqs. 3-6."""

import math

import pytest

from repro.spe.query import StreamProgress
from repro.spe.windows import TumblingEventTimeWindows


def make_progress(window_ms=1000.0, period=500.0, history=400, start=0.0):
    return StreamProgress(
        TumblingEventTimeWindows(window_ms),
        watermark_period_ms=period,
        history=history,
        start_time=start,
    )


class TestSwmDetection:
    def test_watermark_below_deadline_is_not_swm(self):
        p = make_progress()
        assert p.observe_watermark(500.0, now=600.0) is False
        assert p.epoch_index == 0

    def test_watermark_covering_deadline_is_swm(self):
        p = make_progress()
        assert p.observe_watermark(1000.0, now=1100.0) is True
        assert p.epoch_index == 1
        assert p.last_swm_ingest_time == 1100.0

    def test_deadline_advances_after_swm(self):
        p = make_progress()
        p.observe_watermark(1000.0, now=1100.0)
        assert p.next_deadline == 2000.0

    def test_watermark_skipping_multiple_deadlines(self):
        p = make_progress()
        assert p.observe_watermark(3500.0, now=3600.0) is True
        # One ingestion = one epoch, even if it swept several deadlines.
        assert p.epoch_index == 1
        assert p.next_deadline == 4000.0

    def test_late_watermark_dropped(self):
        p = make_progress()
        p.observe_watermark(1000.0, now=1100.0)
        assert p.observe_watermark(900.0, now=1200.0) is False
        assert p.last_watermark_ts == 1000.0

    def test_duplicate_watermark_dropped(self):
        p = make_progress()
        p.observe_watermark(1000.0, now=1100.0)
        assert p.observe_watermark(1000.0, now=1200.0) is False

    def test_no_assigner_means_no_swms(self):
        p = StreamProgress(None, watermark_period_ms=500.0)
        assert p.observe_watermark(1e9, now=0.0) is False

    def test_start_time_offsets_first_deadline(self):
        p = make_progress(start=2500.0)
        assert p.next_deadline == 3000.0


class TestDelayStatistics:
    def test_epoch_stats_capture_mean_and_chi(self):
        p = make_progress()
        p.observe_delay(10.0)
        p.observe_delay(20.0)
        p.observe_watermark(1000.0, now=1100.0)
        assert list(p.epochs) == [(15.0, (100.0 + 400.0) / 2, 1100.0, 1000.0)]

    def test_weighted_delays(self):
        p = make_progress()
        p.observe_delay(10.0, weight=3.0)
        p.observe_delay(50.0, weight=1.0)
        p.observe_watermark(1000.0, now=1100.0)
        assert p.epochs.mu[-1] == pytest.approx(20.0)

    def test_accumulators_reset_between_epochs(self):
        p = make_progress()
        p.observe_delay(10.0)
        p.observe_watermark(1000.0, now=1100.0)
        p.observe_delay(30.0)
        p.observe_watermark(2000.0, now=2100.0)
        assert p.epochs.mu[-1] == pytest.approx(30.0)

    def test_empty_epoch_carries_last_profile(self):
        p = make_progress()
        p.observe_delay(10.0)
        p.observe_watermark(1000.0, now=1100.0)
        p.observe_watermark(2000.0, now=2100.0)  # idle epoch, no events
        assert p.epochs.mu[-1] == pytest.approx(10.0)

    def test_history_bounded_by_h(self):
        p = make_progress(history=3)
        for i in range(10):
            p.observe_delay(float(i))
            p.observe_watermark((i + 1) * 1000.0, now=(i + 1) * 1000.0 + 50)
        assert len(p.epochs) == 3
        assert list(p.epochs.mu) == [7.0, 8.0, 9.0]
        assert [row[0] for row in p.epochs] == [7.0, 8.0, 9.0]

    def test_current_epoch_mean_prefers_fresh_data(self):
        p = make_progress()
        p.observe_delay(10.0)
        p.observe_watermark(1000.0, now=1100.0)
        p.observe_delay(90.0)
        mu, chi = p.current_epoch_mean()
        assert mu == pytest.approx(90.0)

    def test_current_epoch_mean_falls_back_to_history(self):
        # The "otherwise" branch of Eqs. 3-4: no data yet this epoch.
        p = make_progress()
        p.observe_delay(10.0)
        p.observe_watermark(1000.0, now=1100.0)
        mu, chi = p.current_epoch_mean()
        assert mu == pytest.approx(10.0)

    def test_current_epoch_mean_zero_without_any_data(self):
        assert make_progress().current_epoch_mean() == (0.0, 0.0)
