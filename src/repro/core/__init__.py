"""Klink and baseline scheduling policies (the paper's contribution)."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.baselines import (
        ALL_BASELINES,
        DefaultScheduler,
        FCFSScheduler,
        HighestRateScheduler,
        RoundRobinScheduler,
        StreamBoxScheduler,
    )
    from repro.core.classes import ClassBasedScheduler
    from repro.core.estimator import (
        SwmEstimate,
        SwmIngestionEstimator,
        Z_SCORES,
        z_for_confidence,
    )
    from repro.core.klink import KlinkScheduler
    from repro.core.lr import GradientDescentLinearRegression, LinearRegressionEstimator
    from repro.core.memory_policy import PrefixPlan, best_prefix
    from repro.core.scheduler import Allocation, Plan, Scheduler, SchedulerContext
    from repro.core.slack import expected_slack, gaussian_q, interval_probability, survival

#: public name -> the module that defines it, imported on first use
_EXPORTS = {
    "KlinkScheduler": "repro.core.klink",
    "DefaultScheduler": "repro.core.baselines",
    "FCFSScheduler": "repro.core.baselines",
    "RoundRobinScheduler": "repro.core.baselines",
    "HighestRateScheduler": "repro.core.baselines",
    "StreamBoxScheduler": "repro.core.baselines",
    "ALL_BASELINES": "repro.core.baselines",
    "ClassBasedScheduler": "repro.core.classes",
    "Scheduler": "repro.core.scheduler",
    "SchedulerContext": "repro.core.scheduler",
    "Plan": "repro.core.scheduler",
    "Allocation": "repro.core.scheduler",
    "SwmEstimate": "repro.core.estimator",
    "SwmIngestionEstimator": "repro.core.estimator",
    "LinearRegressionEstimator": "repro.core.lr",
    "GradientDescentLinearRegression": "repro.core.lr",
    "Z_SCORES": "repro.core.estimator",
    "z_for_confidence": "repro.core.estimator",
    "expected_slack": "repro.core.slack",
    "gaussian_q": "repro.core.slack",
    "interval_probability": "repro.core.slack",
    "survival": "repro.core.slack",
    "PrefixPlan": "repro.core.memory_policy",
    "best_prefix": "repro.core.memory_policy",
}

__all__ = [
    "KlinkScheduler",
    "DefaultScheduler",
    "FCFSScheduler",
    "RoundRobinScheduler",
    "HighestRateScheduler",
    "StreamBoxScheduler",
    "ALL_BASELINES",
    "ClassBasedScheduler",
    "Scheduler",
    "SchedulerContext",
    "Plan",
    "Allocation",
    "SwmEstimate",
    "SwmIngestionEstimator",
    "LinearRegressionEstimator",
    "GradientDescentLinearRegression",
    "Z_SCORES",
    "z_for_confidence",
    "expected_slack",
    "gaussian_q",
    "interval_probability",
    "survival",
    "PrefixPlan",
    "best_prefix",
]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
