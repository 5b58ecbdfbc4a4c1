"""Linear-regression SWM ingestion estimator (the LR baseline of Fig. 9c).

The paper compares Klink's distribution-based estimator against "gradient
descent, a simple linear regression technique (LR)". This baseline fits
``delay ~ a * epoch_index + b`` over the recent epoch delay means using
batch gradient descent, predicts the next epoch's delay by extrapolation,
and brackets it with a fixed band of two residual standard deviations.

Why it loses to Klink: a straight line chases transient trends in the
delay sequence and its residual band is estimated from the same small
window, so under heavy-tailed (Zipf) delays the point prediction drifts
and the band under-covers — exactly the degradation Fig. 9c reports.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.core.estimator import SwmIngestionEstimator
from repro.spe.query import SourceBinding


class GradientDescentLinearRegression:
    """Batch gradient descent fit of y = a*x + b."""

    def __init__(self, learning_rate: float = 0.05, iterations: int = 200):
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive: {learning_rate}")
        if iterations < 1:
            raise ValueError(f"need at least one iteration: {iterations}")
        self.learning_rate = learning_rate
        self.iterations = iterations
        self.a = 0.0
        self.b = 0.0

    def fit(self, ys: Sequence[float]) -> "GradientDescentLinearRegression":
        """Fit against x = 0..n-1. Features are scaled to [0, 1] internally
        so a single learning rate behaves across history lengths."""
        y = np.asarray(ys, dtype=float)
        n = len(y)
        if n == 0:
            raise ValueError("cannot fit with no data")
        if n == 1:
            self.a, self.b = 0.0, float(y[0])
            return self
        x = np.linspace(0.0, 1.0, n)
        a, b = 0.0, float(y.mean())
        lr = self.learning_rate
        for _ in range(self.iterations):
            pred = a * x + b
            err = pred - y
            grad_a = 2.0 * float((err * x).mean())
            grad_b = 2.0 * float(err.mean())
            a -= lr * grad_a
            b -= lr * grad_b
        # Convert back from the scaled feature to per-index slope.
        self.a = a / (n - 1)
        self.b = b
        return self

    def predict(self, index: int, n_fit: int) -> float:
        """Predict y at integer index given the fit covered ``n_fit`` points."""
        return self.a * index + self.b

    def residual_std(self, ys: Sequence[float]) -> float:
        y = np.asarray(ys, dtype=float)
        n = len(y)
        if n < 2:
            return 1.0
        x = np.arange(n, dtype=float)
        pred = self.a * x + self.b
        return float(np.std(y - pred)) or 1.0


class LinearRegressionEstimator(SwmIngestionEstimator):
    """Drop-in replacement for :class:`SwmIngestionEstimator` using LR.

    Shares the deterministic base (watermark grid) with Klink's estimator —
    both know the SPE's watermark configuration — and differs in how the
    stochastic delay component is predicted and bounded: a gradient-descent
    line is fit through the last ``history`` observed SWM ingestion delays
    (one sample per epoch) and extrapolated one epoch ahead, bracketed by
    two standard deviations of the fit's residuals. With a short window
    the slope chases transient trends and the residual band is itself a
    noisy estimate, which is what costs LR coverage — most severely under
    heavy-tailed (Zipf) delays whose tail rarely appears in a small
    window (Fig. 9c).
    """

    def __init__(
        self,
        history: int = 8,
        band_sigmas: float = 2.0,
        learning_rate: float = 0.05,
        iterations: int = 200,
    ) -> None:
        super().__init__(history=history, confidence=95.0)
        self.band_sigmas = band_sigmas
        self._lr = GradientDescentLinearRegression(learning_rate, iterations)

    @staticmethod
    def swm_delay_history(binding: SourceBinding, limit: int) -> list:
        """Observed per-epoch SWM ingestion delays (ingest - generation)."""
        progress = binding.progress
        if progress is None:
            return []
        lateness = binding.spec.lateness_ms
        return [
            e.swm_ingest_time - (e.swm_timestamp + lateness)
            for e in list(progress.epochs)[-limit:]
        ]

    def estimate_scalars(
        self,
        binding: SourceBinding,
        *,
        phase: float = 0.0,
        deadline: Optional[float] = None,
    ) -> Optional[tuple]:
        """``(mean, std, t_min, t_max, deadline, generation)`` from the
        extrapolated line and its residual band. Klink's slack loop reads
        these scalars; :meth:`estimate` wraps them in a
        :class:`~repro.core.estimator.SwmEstimate`."""
        progress = binding.progress
        if progress is None or progress.next_deadline is None:
            return None
        ddl = progress.next_deadline if deadline is None else deadline
        spec = binding.spec
        generation = self.swm_generation_time(
            ddl, spec.watermark_period_ms, spec.lateness_ms, phase
        )
        ys = self.swm_delay_history(binding, self.history)
        if not ys:
            cur_mu, _ = progress.current_epoch_mean()
            ys = [cur_mu]
        self._lr.fit(ys)
        predicted_delay = self._lr.predict(len(ys), len(ys))
        band = self.band_sigmas * self._lr.residual_std(ys)
        band = max(band, 1.0)
        mean = generation + predicted_delay
        return (
            mean,
            band / self.band_sigmas,
            mean - band,
            mean + band,
            ddl,
            generation,
        )
