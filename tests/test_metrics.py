"""Unit tests for metrics aggregation."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.spe.metrics import (
    RunMetrics,
    cdf_points,
    mean_with_ci,
    percentile,
)


class TestPercentileHelpers:
    def test_percentile_basic(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_percentile_empty_is_nan(self):
        assert math.isnan(percentile([], 50))

    def test_cdf_points_structure(self):
        pts = cdf_points([1.0, 2.0, 3.0, 4.0], [25, 50, 75])
        assert [p for p, _ in pts] == [25, 50, 75]
        assert pts[1][1] == pytest.approx(2.5)

    def test_cdf_points_empty(self):
        pts = cdf_points([], [50])
        assert math.isnan(pts[0][1])

    def test_percentile_accepts_numpy_array(self):
        # regression: `if not values` raises "truth value of an array is
        # ambiguous" for numpy arrays with more than one element
        assert percentile(np.array([1.0, 2.0, 3.0]), 50) == 2.0

    def test_percentile_empty_numpy_array_is_nan(self):
        assert math.isnan(percentile(np.array([]), 50))

    def test_percentile_accepts_tuple_and_generator_backed_input(self):
        assert percentile((5.0, 1.0, 3.0), 50) == 3.0

    def test_cdf_points_accepts_numpy_array(self):
        pts = cdf_points(np.array([1.0, 2.0, 3.0, 4.0]), [50])
        assert pts[0][1] == pytest.approx(2.5)

    def test_cdf_points_empty_numpy_array(self):
        pts = cdf_points(np.array([]), [25, 75])
        assert [p for p, _ in pts] == [25, 75]
        assert all(math.isnan(v) for _, v in pts)

    def test_cdf_points_no_percentiles(self):
        assert cdf_points([1.0, 2.0], []) == []

    def test_cdf_points_matches_percentile(self):
        values = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        pts = cdf_points(values, [10, 50, 90])
        for pct, v in pts:
            assert v == pytest.approx(percentile(values, pct))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


#: arrays with many duplicates: a few distinct doubles (any sign, NaN and
#: infinities included), each drawn many times
_arrays = st.lists(st.floats(width=64), min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=40)
)
_pcts = st.one_of(st.sampled_from([0, 100, 0.0, 100.0, 50, 90, 99]), st.floats(0.0, 100.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, on inf - inf
class TestPercentileMatchesNumpy:
    """``percentile`` and ``cdf_points`` sort once and interpolate without
    ``np.percentile`` (whose ``np.unique`` call imports ``numpy.ma``), and
    must give the very double ``np.percentile`` gives."""

    @settings(max_examples=400, deadline=None)
    @given(values=_arrays, pct=_pcts)
    def test_percentile_is_bit_identical(self, values, pct):
        expected = float(np.percentile(np.asarray(values, dtype=float), pct))
        got = percentile(values, pct)
        assert _bits(got) == _bits(expected) or (math.isnan(got) and math.isnan(expected))

    @settings(max_examples=200, deadline=None)
    @given(values=_arrays, pcts=st.lists(_pcts, min_size=1, max_size=5))
    def test_cdf_points_are_bit_identical(self, values, pcts):
        expected = np.percentile(np.asarray(values, dtype=float), [float(p) for p in pcts])
        for (pct, got), want in zip(cdf_points(values, pcts), expected):
            assert pct == float(pct)
            assert _bits(got) == _bits(float(want)) or (math.isnan(got) and math.isnan(want))

    def test_single_element_and_nan(self):
        assert percentile([7.5], 0) == percentile([7.5], 100) == 7.5
        assert math.isnan(percentile([1.0, math.nan, 3.0], 50))
        assert math.isnan(cdf_points([math.nan], [50])[0][1])

    @pytest.mark.parametrize("values", [[1.0, 2.0], [1.0, math.nan]])
    @pytest.mark.parametrize("pct", [-1.0, 100.5, math.nan])
    def test_out_of_range_percentile_raises_like_numpy(self, values, pct):
        with pytest.raises(ValueError):
            np.percentile(values, pct)
        with pytest.raises(ValueError):
            percentile(values, pct)
        with pytest.raises(ValueError):
            cdf_points(values, [50, pct])


class TestRunMetrics:
    def make(self):
        m = RunMetrics(duration_ms=10_000.0)
        m.swm_latencies = [100.0, 200.0, 300.0, 400.0]
        m.slowdowns = [10.0, 20.0]
        m.total_events_processed = 50_000.0
        for t, b, c in [(0, 100, 0.5), (1, 200, 0.7), (2, 300, 0.9)]:
            m.samples.append(t, b, c, 0.0)
        return m

    def test_mean_latency(self):
        assert self.make().mean_latency_ms == pytest.approx(250.0)

    def test_mean_latency_empty_is_nan(self):
        assert math.isnan(RunMetrics().mean_latency_ms)

    def test_latency_percentile(self):
        assert self.make().latency_percentile(100) == 400.0

    def test_throughput(self):
        assert self.make().throughput_eps == pytest.approx(5000.0)

    def test_throughput_zero_duration(self):
        assert RunMetrics().throughput_eps == 0.0

    def test_mean_slowdown(self):
        assert self.make().mean_slowdown == pytest.approx(15.0)

    def test_memory_stats(self):
        m = self.make()
        assert m.mean_memory_bytes == pytest.approx(200.0)
        assert m.memory_percentile(100) == 300.0

    def test_cpu_stats(self):
        m = self.make()
        assert m.mean_cpu_fraction == pytest.approx(0.7)
        assert m.cpu_percentile(0) == pytest.approx(0.5)

    def test_overhead_fraction_zero_when_no_overhead(self):
        assert self.make().overhead_fraction == 0.0

    def test_overhead_fraction_bounded(self):
        m = self.make()
        m.busy_cpu_ms = 10_000.0
        m.scheduler_overhead_ms = 700.0
        assert 0.0 < m.overhead_fraction < 1.0
        assert m.overhead_fraction == pytest.approx(700.0 / 10_700.0)

    def test_summary_keys(self):
        summary = self.make().summary()
        for key in (
            "mean_latency_ms",
            "p90_latency_ms",
            "p99_latency_ms",
            "throughput_eps",
            "mean_slowdown",
            "mean_memory_gb",
            "mean_cpu_pct",
            "overhead_pct",
        ):
            assert key in summary


class TestMeanWithCI:
    def test_single_value(self):
        mean, half = mean_with_ci([5.0])
        assert mean == 5.0 and half == 0.0

    def test_empty(self):
        mean, half = mean_with_ci([])
        assert math.isnan(mean) and math.isnan(half)

    def test_interval_contains_truth_for_tight_samples(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(100.0, 5.0, size=30)
        mean, half = mean_with_ci(samples)
        assert abs(mean - 100.0) < half + 3.0
        assert half > 0

    def test_wider_confidence_widens_interval(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        _, half95 = mean_with_ci(samples, confidence=0.95)
        _, half99 = mean_with_ci(samples, confidence=0.99)
        assert half99 > half95

    def test_half_width_is_student_t(self):
        # Pin the documented contract: the half-width is the standard
        # error scaled by the Student-t critical value with n-1 degrees
        # of freedom, not the normal z. For [1..5]: sem = sqrt(0.5) and
        # t.ppf(0.975, 4) = 2.7764451..., so half = 1.96324...; the
        # normal approximation (z = 1.95996) would give 1.38590.
        from scipy import stats

        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        mean, half = mean_with_ci(samples, confidence=0.95)
        sem = float(stats.sem(np.asarray(samples, dtype=float)))
        expected = sem * float(stats.t.ppf(0.975, 4))
        assert mean == 3.0
        assert half == expected
        assert half == pytest.approx(1.9632431615, abs=1e-9)
        z_half = sem * float(stats.norm.ppf(0.975))
        assert half > z_half * 1.4  # clearly t, not the normal z
