"""Unit tests for the expected-slack computation (Sec. 3.2, Alg. 1)."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from repro.core.estimator import SwmEstimate
from repro.core.slack import (
    _OVERDUE_EPS,
    expected_slack,
    expected_slack_scalars,
    gaussian_q,
    interval_probability,
    interval_steps,
    survival,
)


def estimate(mean=1000.0, std=100.0, z=2.0):
    return SwmEstimate(
        mean=mean,
        std=std,
        t_min=mean - z * std,
        t_max=mean + z * std,
        deadline=mean,
        swm_generation=mean,
    )


class TestGaussianQ:
    def test_q_at_zero_is_half(self):
        assert gaussian_q(0.0) == pytest.approx(0.5)

    def test_q_is_decreasing(self):
        assert gaussian_q(-2.0) > gaussian_q(0.0) > gaussian_q(2.0)

    def test_q_tails(self):
        assert gaussian_q(10.0) == pytest.approx(0.0, abs=1e-9)
        assert gaussian_q(-10.0) == pytest.approx(1.0, abs=1e-9)


class TestIntervalProbability:
    def test_symmetric_interval_around_mean(self):
        e = estimate(mean=0.0, std=1.0)
        # +-1 sigma captures ~68%
        assert interval_probability(e, -1.0, 1.0) == pytest.approx(0.6827, abs=1e-3)

    def test_empty_interval_is_zero(self):
        e = estimate()
        assert interval_probability(e, 100.0, 100.0) == 0.0
        assert interval_probability(e, 200.0, 100.0) == 0.0

    def test_partition_sums_to_one(self):
        e = estimate(mean=0.0, std=1.0)
        total = sum(
            interval_probability(e, x, x + 0.5) for x in
            [i * 0.5 for i in range(-20, 20)]
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestSurvival:
    def test_survival_at_mean_is_half(self):
        assert survival(estimate(mean=500.0), 500.0) == pytest.approx(0.5)

    def test_survival_decreasing_in_time(self):
        e = estimate(mean=500.0, std=50.0)
        assert survival(e, 400.0) > survival(e, 500.0) > survival(e, 600.0)


class TestExpectedSlack:
    def test_far_future_swm_with_empty_queue(self):
        # SWM expected at 1000 +- small; now = 0, no queued work: slack
        # should be close to the time until ingestion.
        e = estimate(mean=1000.0, std=10.0)
        sl = expected_slack(e, now=0.0, cost_ms=0.0, cycle_ms=10.0)
        assert sl == pytest.approx(1000.0, rel=0.05)

    def test_cost_reduces_slack_proportionally(self):
        # The cost term is weighted by the interval's probability mass
        # (Alg. 1 truncates the integral to the >= f% interval), so 300 ms
        # of queued work removes ~0.95 * 300 ms of slack at f = 95.
        e = estimate(mean=1000.0, std=10.0)
        sl0 = expected_slack(e, now=0.0, cost_ms=0.0, cycle_ms=10.0)
        sl300 = expected_slack(e, now=0.0, cost_ms=300.0, cycle_ms=10.0)
        assert sl0 - sl300 == pytest.approx(300.0, rel=0.06)
        assert sl0 - sl300 <= 300.0 + 1e-9

    def test_slack_attenuates_as_time_progresses(self):
        e = estimate(mean=1000.0, std=50.0)
        slacks = [
            expected_slack(e, now=t, cost_ms=0.0, cycle_ms=10.0)
            for t in (0.0, 400.0, 800.0)
        ]
        assert slacks[0] > slacks[1] > slacks[2]

    def test_overdue_swm_gives_negative_slack_with_cost(self):
        e = estimate(mean=1000.0, std=10.0)
        sl = expected_slack(e, now=2000.0, cost_ms=500.0, cycle_ms=10.0)
        assert sl < 0
        # Overdue branch: (t_max - now) - cost
        assert sl == pytest.approx((e.t_max - 2000.0) - 500.0)

    def test_mid_interval_conditioning(self):
        # When now is inside the interval, probabilities are renormalized
        # by P(w > now); slack stays positive for zero cost.
        e = estimate(mean=1000.0, std=100.0)
        sl = expected_slack(e, now=1000.0, cost_ms=0.0, cycle_ms=10.0)
        assert sl > 0
        assert sl < 300.0  # bounded by the remaining interval

    def test_rejects_nonpositive_cycle(self):
        with pytest.raises(ValueError):
            expected_slack(estimate(), now=0.0, cost_ms=0.0, cycle_ms=0.0)

    def test_smaller_cycle_converges_to_analytic_mean(self):
        # With cost 0 and now far before the interval, slack -> E[w] - now
        # (+ half a cycle of discretization); finer cycles converge.
        e = estimate(mean=1000.0, std=50.0)
        coarse = expected_slack(e, now=0.0, cost_ms=0.0, cycle_ms=100.0)
        fine = expected_slack(e, now=0.0, cost_ms=0.0, cycle_ms=1.0)
        assert abs(fine - 1000.0) < abs(coarse - 1000.0) + 60.0
        assert fine == pytest.approx(1000.0, rel=0.05)


class TestIntervalSteps:
    def test_counts_slides_across_interval(self):
        e = estimate(mean=1000.0, std=100.0, z=2.0)  # width 400
        assert interval_steps(e, now=0.0, cycle_ms=100.0) == 4

    def test_interval_in_past_is_zero(self):
        e = estimate(mean=1000.0, std=10.0)
        assert interval_steps(e, now=2000.0, cycle_ms=100.0) == 0

    def test_now_inside_interval_truncates(self):
        e = estimate(mean=1000.0, std=100.0, z=2.0)  # [800, 1200]
        assert interval_steps(e, now=1100.0, cycle_ms=100.0) == 1


class TestExpectedSlackOracle:
    """Algorithm 1 against the continuous expectation it discretizes.

    On the branch that is not overdue, the loop slides cells
    ``[x, x + r]`` from ``lo = max(now, t_min)`` while ``x <= t_max`` and
    charges each cell's conditional mass at the cell's *end*. The exact
    expectation ``E[(T - now - cost) 1{T in grid} | T > now]`` over the
    same cells, taken with ``scipy.integrate.quad``, charges each arrival
    at its own time, so Algorithm 1 exceeds it by between 0 and
    ``r`` x the grid's conditional mass.
    """

    #: z of the 95% confidence interval the estimator reports
    Z = 1.96

    @staticmethod
    def grid(lo, t_max, cycle_ms):
        """The cells the loop slides, built with its own float steps."""
        cells = []
        x = lo
        while x <= t_max:
            cells.append((x, x + cycle_ms))
            x = x + cycle_ms
        return cells

    @given(
        mean=st.floats(0.0, 20_000.0),
        std=st.floats(1.0, 3_000.0),
        offset=st.floats(-4.0, 1.9),  # now = mean + offset * std
        cost=st.floats(0.0, 5_000.0),
        cycle_ms=st.sampled_from([50.0, 120.0, 250.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_discretization_overestimates_by_at_most_one_cycle(
        self, mean, std, offset, cost, cycle_ms
    ):
        now = mean + offset * std
        t_min, t_max = mean - self.Z * std, mean + self.Z * std
        alive = stats.norm.sf(now, mean, std)  # P(T > now)
        assume(alive >= _OVERDUE_EPS and t_max > now)  # not overdue
        slack = expected_slack_scalars(mean, std, t_min, t_max, now, cost, cycle_ms)

        def weighted(t):
            return (t - now - cost) * stats.norm.pdf(t, mean, std) / alive

        exact = mass = quad_error = 0.0
        cells = self.grid(max(now, t_min), t_max, cycle_ms)
        for a, b in cells:
            value, error = integrate.quad(weighted, a, b)
            exact += value
            quad_error += error
            mass += (stats.norm.cdf(b, mean, std) - stats.norm.cdf(a, mean, std)) / alive
        # Tolerance: quad's own error estimates, plus float rounding of
        # sums whose terms are at most the times involved.
        tol = quad_error + 1e-9 * (abs(now) + cost + cycle_ms * len(cells))
        gap = slack - exact
        assert -tol <= gap <= cycle_ms * mass + tol, (gap, cycle_ms * mass, tol)
