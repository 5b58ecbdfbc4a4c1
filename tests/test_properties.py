"""Property-based tests (hypothesis) on the core invariants:

* window assignment conserves event mass (scaled by pane membership);
* watermark deadline arithmetic is consistent with assignment;
* channels conserve queued counts/bytes under arbitrary push/pop traces;
* mid-pipeline watermark generation is monotone under arbitrary
  batch/watermark interleavings;
* expected slack is monotone in cost and in time, and non-negative when
  the queue is empty and the SWM interval lies entirely ahead;
* the Gaussian interval probabilities form a distribution;
* the burst state machine's quiet factor keeps the mean rate;
* the memory pressure tax is monotone and bounded.
"""

import math

import pytest
from hypothesis import assume, given, settings

settings.register_profile("repro", deadline=None)
settings.load_profile("repro")
from hypothesis import strategies as st

from repro.core.estimator import SwmEstimate, z_for_confidence
from repro.core.slack import expected_slack, interval_probability, survival
from repro.spe.events import EventBatch, RecordBatch, Watermark
from repro.spe.memory import MemoryConfig, MemoryModel
from repro.spe.query import SourceSpec
from repro.spe.streams import Channel
from repro.spe.windows import SlidingEventTimeWindows
from repro.net.delays import ConstantDelay

sizes = st.floats(min_value=10.0, max_value=10_000.0, allow_nan=False)
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
counts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def assigners(draw):
    size = draw(sizes)
    divisor = draw(st.integers(min_value=1, max_value=8))
    offset = draw(st.floats(min_value=0.0, max_value=10_000.0))
    return SlidingEventTimeWindows(size, size / divisor, offset=offset)


class TestWindowProperties:
    @given(assigners(), times, st.floats(min_value=0.0, max_value=50_000.0), counts)
    @settings(max_examples=200)
    def test_assign_range_conserves_mass(self, assigner, t0, span, count):
        assume(count > 0)
        t1 = t0 + span
        assignments = assigner.assign_range(t0, t1, count)
        total = sum(c for _, c in assignments)
        memberships = assigner.size / assigner.slide
        if span < 1e-9:
            # A point exactly on a pane boundary can belong to one pane
            # more or fewer (measure-zero edge); mass per pane is exact.
            assert abs(total / count - memberships) <= 1.0 + 1e-6
        else:
            assert total == pytest.approx(count * memberships, rel=1e-6)
        assert all(c >= 0 for _, c in assignments)

    @given(assigners(), times)
    @settings(max_examples=200)
    def test_every_pane_covers_its_events(self, assigner, t):
        for pane in assigner.assign(t):
            assert pane.start <= t < pane.end
            assert pane.end - pane.start == pytest.approx(assigner.size)

    @given(assigners(), times)
    @settings(max_examples=200)
    def test_next_deadline_strictly_ahead_and_aligned(self, assigner, t):
        deadline = assigner.next_deadline(t)
        assert deadline > t
        # The deadline is a pane end: some pane assigned just before it
        # ends exactly there.
        panes = assigner.assign(deadline - 1e-3)
        assert any(abs(p.end - deadline) < 1e-2 for p in panes)

    @given(
        assigners(),
        times,
        st.floats(min_value=10.0, max_value=5_000.0),
        st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_assign_range_mass_conserved_within_1e9(
        self, assigner, t0, span, count
    ):
        # Mass conservation at tight tolerance: the per-pane counts sum
        # to count x (panes per event). The assigner strategy always
        # builds integer size/slide ratios, so the membership count is
        # constant over the span (measure-zero boundaries aside) and the
        # identity holds exactly in real arithmetic; 1e-9 relative
        # allows only float roundoff of the overlap telescoping sum.
        # Spans are bounded below at 10 ms (a generation batch is ~50 ms):
        # as the span shrinks toward zero the overlap subtraction cancels
        # catastrophically and no fixed relative tolerance can hold.
        t1 = t0 + span
        assignments = assigner.assign_range(t0, t1, count)
        total = sum(c for _, c in assignments)
        memberships = round(assigner.size / assigner.slide)
        assert total == pytest.approx(count * memberships, rel=1e-9)

    @given(assigners(), times, st.floats(min_value=1e-3, max_value=1e6))
    @settings(max_examples=200)
    def test_point_interval_agrees_with_assign(self, assigner, t, count):
        # A zero-width interval must delegate to the exact per-event
        # assignment: same panes, the full mass in each (no uniform
        # splitting against a ~zero span).
        point = assigner.assign_range(t, t, count)
        direct = assigner.assign(t)
        assert [p for p, _ in point] == direct
        assert all(c == count for _, c in point)

    @given(assigners(), times)
    @settings(max_examples=100)
    def test_assign_is_special_case_of_assign_range(self, assigner, t):
        point = {
            (p.start, round(c, 6))
            for p, c in assigner.assign_range(t, t, 1.0)
        }
        direct = {(p.start, 1.0) for p in assigner.assign(t)}
        assert {s for s, _ in point} == {s for s, _ in direct}


class TestChannelProperties:
    @given(
        st.lists(
            st.tuples(counts.filter(lambda c: c > 0), st.integers(16, 512)),
            max_size=30,
        ),
        st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=100)
    def test_accounting_matches_contents(self, pushes, pops):
        ch = Channel()
        for count, bpe in pushes:
            ch.push(
                EventBatch(count=count, t_start=0, t_end=1, bytes_per_event=bpe),
                0.0,
            )
        for _ in range(pops):
            ch.pop()
        expected_events = sum(
            e.record.count for e in ch if isinstance(e.record, RecordBatch)
        )
        assert ch.queued_events == pytest.approx(expected_events, abs=1e-6)


class TestWatermarkGeneratorProperties:
    """ISSUE satellite: generated watermarks never regress, whatever the
    interleaving of data batches and (absorbed) upstream watermarks."""

    @st.composite
    @staticmethod
    def traces(draw):
        n = draw(st.integers(min_value=1, max_value=40))
        records = []
        for _ in range(n):
            if draw(st.booleans()):
                t0 = draw(st.floats(min_value=0.0, max_value=1e5))
                span = draw(st.floats(min_value=0.0, max_value=1e4))
                records.append(EventBatch(count=10.0, t_start=t0, t_end=t0 + span))
            else:
                ts = draw(st.floats(min_value=0.0, max_value=1e5))
                records.append(Watermark(ts))
        return records

    @staticmethod
    def _drive(strategy, records):
        from repro.spe.operators import SinkOperator
        from repro.spe.watermarks import WatermarkGeneratorOperator

        gen = WatermarkGeneratorOperator("wmgen", strategy)
        sink = SinkOperator("sink")
        gen.connect(sink)
        now = 0.0
        for record in records:
            gen.inputs[0].push(record, now)
            gen.step(1e9, now)
            now += 100.0
        emitted = [
            e.record.timestamp
            for e in sink.inputs[0]
            if isinstance(e.record, Watermark)
        ]
        return gen, emitted

    @given(traces())
    @settings(max_examples=200)
    def test_punctuated_generator_monotone(self, records):
        from repro.spe.watermarks import PunctuatedWatermarks

        gen, emitted = self._drive(PunctuatedWatermarks(bound_ms=50.0), records)
        assert emitted == sorted(emitted)
        assert len(emitted) == len(set(emitted))  # strictly increasing
        assert gen.watermarks_emitted == len(emitted)
        if emitted:
            assert gen.last_emitted == emitted[-1]

    @given(traces(), st.floats(min_value=0.0, max_value=2000.0),
           st.floats(min_value=50.0, max_value=500.0))
    @settings(max_examples=100)
    def test_bounded_generator_monotone(self, records, bound, period):
        from repro.spe.watermarks import BoundedOutOfOrderness

        gen, emitted = self._drive(
            BoundedOutOfOrderness(bound_ms=bound, period_ms=period), records
        )
        assert emitted == sorted(emitted)
        assert len(emitted) == len(set(emitted))
        # Every candidate either was emitted or counted as a suppressed
        # regression — none silently vanish.
        assert gen.watermarks_emitted == len(emitted)
        assert gen.regressions_suppressed >= 0


class TestSlackProperties:
    @st.composite
    @staticmethod
    def estimates(draw):
        mean = draw(st.floats(min_value=100.0, max_value=1e5))
        std = draw(st.floats(min_value=1.0, max_value=1e3))
        z = 2.0
        return SwmEstimate(
            mean=mean, std=std, t_min=mean - z * std, t_max=mean + z * std,
            deadline=mean, swm_generation=mean,
        )

    @given(estimates(), st.floats(min_value=0.0, max_value=1e4),
           st.floats(min_value=0.0, max_value=1e4))
    @settings(max_examples=200)
    def test_slack_monotone_decreasing_in_cost(self, est, cost_a, cost_b):
        lo, hi = sorted([cost_a, cost_b])
        sl_lo = expected_slack(est, now=0.0, cost_ms=lo, cycle_ms=50.0)
        sl_hi = expected_slack(est, now=0.0, cost_ms=hi, cycle_ms=50.0)
        assert sl_hi <= sl_lo + 1e-9

    @given(estimates())
    @settings(max_examples=200)
    def test_slack_attenuates_with_time(self, est):
        early = expected_slack(est, now=0.0, cost_ms=0.0, cycle_ms=50.0)
        mid = expected_slack(est, now=est.mean / 2, cost_ms=0.0, cycle_ms=50.0)
        assert mid <= early + 50.0  # one cycle of discretization slop

    @given(estimates(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_slack_non_negative_with_empty_queue_ahead_of_interval(
        self, est, frac
    ):
        # ISSUE satellite: with nothing queued (cost = 0) and the whole
        # confidence interval still ahead (now <= t_min), the expected
        # slack is a mean of non-negative arrival margins — never negative.
        now = frac * max(est.t_min, 0.0)
        assume(now <= est.t_min)
        slack = expected_slack(est, now=now, cost_ms=0.0, cycle_ms=50.0)
        assert slack >= -1e-9

    @given(estimates(), st.floats(min_value=0.0, max_value=2e5))
    @settings(max_examples=200)
    def test_survival_in_unit_interval(self, est, t):
        s = survival(est, t)
        assert 0.0 <= s <= 1.0

    @given(estimates(), st.floats(min_value=-1e4, max_value=2e5),
           st.floats(min_value=0.0, max_value=1e4))
    @settings(max_examples=200)
    def test_interval_probability_in_unit_interval(self, est, lo, width):
        p = interval_probability(est, lo, lo + width)
        assert -1e-12 <= p <= 1.0 + 1e-12


class TestConfidenceProperties:
    @given(st.floats(min_value=1.0, max_value=99.99))
    @settings(max_examples=100)
    def test_z_monotone_in_confidence(self, f):
        # Monotone up to the tabulated overrides: Algorithm 1 rounds the
        # 95% z-score up to 2.0 ("two sigma"), which sits 0.04 above the
        # exact quantile, so allow that much slop at the table boundaries.
        assume(f + 0.005 < 100.0)
        assert z_for_confidence(f + 0.005) >= z_for_confidence(f) - 0.05


class TestBurstProperties:
    @given(
        st.floats(min_value=1.0, max_value=5.0),
        st.floats(min_value=0.05, max_value=0.6),
    )
    @settings(max_examples=100)
    def test_quiet_factor_preserves_mean(self, factor, duty):
        assume(factor * duty < 0.999)
        spec = SourceSpec(
            name="s",
            rate_eps=100.0,
            watermark_period_ms=500.0,
            lateness_ms=0.0,
            delay_model=ConstantDelay(0.0),
            burst_factor=factor,
            burst_duty=duty,
        )
        mean = duty * factor + (1 - duty) * spec.quiet_factor
        assert mean == pytest.approx(1.0, rel=1e-9)
        assert spec.quiet_factor >= 0.0


class TestMemoryProperties:
    @given(
        st.floats(min_value=0.0, max_value=0.9),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
    )
    @settings(max_examples=200)
    def test_tax_monotone_and_bounded(self, start, u1, u2):
        cfg = MemoryConfig(
            pressure_tax_start=start,
            pressure_tax_full=min(start + 0.3, 1.0),
            pressure_tax_max=0.4,
        )
        model = MemoryModel(cfg)
        lo, hi = sorted([u1, u2])
        assert model.pressure_tax(lo) <= model.pressure_tax(hi) + 1e-12
        assert 0.0 <= model.pressure_tax(hi) <= 0.4
