"""Unit tests for the gradient-descent linear-regression estimator (LR)."""

import numpy as np
import pytest

from repro.core.lr import GradientDescentLinearRegression, LinearRegressionEstimator
from repro.net.delays import ConstantDelay
from repro.spe.operators import MapOperator
from repro.spe.query import SourceBinding, SourceSpec
from repro.spe.windows import TumblingEventTimeWindows


class TestGradientDescentFit:
    def test_fits_constant_sequence(self):
        lr = GradientDescentLinearRegression().fit([5.0] * 20)
        assert lr.a == pytest.approx(0.0, abs=1e-6)
        assert lr.b == pytest.approx(5.0, abs=1e-6)

    def test_fits_linear_trend(self):
        ys = [2.0 * i + 1.0 for i in range(20)]
        lr = GradientDescentLinearRegression(iterations=2000).fit(ys)
        assert lr.a == pytest.approx(2.0, rel=0.1)

    def test_predict_extrapolates(self):
        ys = [float(i) for i in range(10)]
        lr = GradientDescentLinearRegression(iterations=2000).fit(ys)
        assert lr.predict(10, 10) == pytest.approx(10.0, rel=0.2)

    def test_single_point_fit(self):
        lr = GradientDescentLinearRegression().fit([7.0])
        assert lr.a == 0.0
        assert lr.b == 7.0

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            GradientDescentLinearRegression().fit([])

    def test_residual_std_zero_for_perfect_line(self):
        ys = [3.0 * i for i in range(10)]
        lr = GradientDescentLinearRegression(iterations=5000).fit(ys)
        assert lr.residual_std(ys) < 1.5

    def test_residual_std_floor_for_tiny_samples(self):
        lr = GradientDescentLinearRegression().fit([1.0])
        assert lr.residual_std([1.0]) == 1.0

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            GradientDescentLinearRegression(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientDescentLinearRegression(iterations=0)


class TestLinearRegressionEstimator:
    def make_binding(self, delay=50.0):
        model = ConstantDelay(delay)
        spec = SourceSpec(
            name="s",
            rate_eps=100.0,
            watermark_period_ms=500.0,
            lateness_ms=model.bound,
            delay_model=model,
        )
        op = MapOperator("probe", 0.0)
        binding = SourceBinding(spec, op)
        binding.bind_progress(TumblingEventTimeWindows(1000.0))
        return binding

    def _advance_epochs(self, binding, swm_delays):
        progress = binding.progress
        lateness = binding.spec.lateness_ms
        for i, d in enumerate(swm_delays):
            progress.observe_delay(d)
            deadline = progress.next_deadline
            generation = deadline + lateness
            # round generation up to the watermark grid
            period = binding.spec.watermark_period_ms
            import math

            generation = math.ceil(generation / period) * period
            progress.observe_watermark(generation - lateness, generation + d)

    def test_swm_delay_history_extraction(self):
        binding = self.make_binding()
        self._advance_epochs(binding, [10.0, 20.0, 30.0])
        ys = LinearRegressionEstimator.swm_delay_history(binding, 10)
        assert ys == pytest.approx([10.0, 20.0, 30.0])

    def test_estimate_tracks_constant_delay(self):
        binding = self.make_binding()
        self._advance_epochs(binding, [50.0] * 10)
        est = LinearRegressionEstimator()
        e = est.estimate(binding)
        assert e is not None
        assert e.mean == pytest.approx(e.swm_generation + 50.0, abs=5.0)

    def test_estimate_without_window_is_none(self):
        binding = self.make_binding()
        binding.bind_progress(None)
        assert LinearRegressionEstimator().estimate(binding) is None

    def test_band_is_at_least_one_ms(self):
        binding = self.make_binding()
        self._advance_epochs(binding, [50.0] * 10)
        e = LinearRegressionEstimator().estimate(binding)
        assert e.t_max - e.t_min >= 2.0 * 1.0 - 1e-9

    def test_interval_narrower_than_klink_under_noise(self):
        # LR's residual band on a short window underestimates the spread
        # relative to Klink's population std — the Fig. 9c mechanism.
        from repro.core.estimator import SwmIngestionEstimator

        rng = np.random.default_rng(0)
        binding = self.make_binding()
        delays = list(rng.uniform(0, 100, size=50))
        self._advance_epochs(binding, delays)
        lr = LinearRegressionEstimator().estimate(binding)
        klink = SwmIngestionEstimator().estimate(binding)
        assert (lr.t_max - lr.t_min) < 2.0 * (klink.t_max - klink.t_min)

    def test_klink_slack_uses_the_lr_estimate(self):
        """Klink's slack loop reads ``estimate_scalars``; with an LR
        estimator it must schedule on LR's numbers, not the base
        estimator's moments."""
        from repro.core.klink import KlinkScheduler
        from repro.core.scheduler import SchedulerContext
        from repro.core.slack import expected_slack
        from tests.helpers import make_simple_query

        query = make_simple_query("q0")
        binding = query.bindings[0]
        self._advance_epochs(binding, [10.0, 40.0, 25.0, 60.0, 80.0])
        lr = LinearRegressionEstimator()
        now = binding.progress.next_deadline
        ctx = SchedulerContext(now=now, cycle_ms=120.0, cores=1, queries=[query])
        slack, _ = KlinkScheduler(estimator=lr).query_slack(query, ctx)
        estimate = lr.estimate(binding, phase=query.deployed_at)
        assert slack == expected_slack(estimate, now, query.pending_cost_ms(), 120.0)
        assert slack != KlinkScheduler().query_slack(query, ctx)[0]
