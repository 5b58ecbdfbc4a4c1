"""Expected-slack computation (Sec. 3.2, Algorithm 1, Eqs. 7-10).

Slack is the idle time a query can absorb without missing its next window
deadline: ``sl_q(t) = (w_{n+1} - t) - cost_q(t)`` (Eq. 1). Because the SWM
ingestion time ``w_{n+1}`` is a random variable, Algorithm 1 computes the
*expected* slack by sliding a window of the scheduling-cycle length ``r``
across the estimator's confidence interval, weighting each candidate
ingestion range by its conditional probability given that the SWM has not
arrived yet (Eq. 9), with probabilities taken from the normal distribution
via the Gaussian Q-function (Eq. 10).
"""

from __future__ import annotations

import math

from repro.core.estimator import SwmEstimate

#: below this survival probability the SWM is treated as overdue
_OVERDUE_EPS = 1e-6


def gaussian_q(z: float) -> float:
    """Gaussian Q-function: P(Z > z) for standard normal Z."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def interval_probability(estimate: SwmEstimate, lo: float, hi: float) -> float:
    """P(lo <= w <= hi) under the estimate's normal distribution (Eq. 10)."""
    if hi <= lo:
        return 0.0
    sigma = max(estimate.std, 1e-12)
    return gaussian_q((lo - estimate.mean) / sigma) - gaussian_q(
        (hi - estimate.mean) / sigma
    )


def survival(estimate: SwmEstimate, t: float) -> float:
    """P(w >= t): probability the SWM has not yet been ingested at time t."""
    sigma = max(estimate.std, 1e-12)
    return gaussian_q((t - estimate.mean) / sigma)


def expected_slack(
    estimate: SwmEstimate,
    now: float,
    cost_ms: float,
    cycle_ms: float,
) -> float:
    """Expected slack of one stream (Algorithm 1, ComputeExpectedSlack).

    Args:
        estimate: next-SWM ingestion distribution with its confidence
            interval [t_min, t_max] (Algorithm 1 lines 1-8).
        now: current engine time ``t``.
        cost_ms: ``cost_q(t)`` — CPU time to process the query's queued
            events end-to-end.
        cycle_ms: the scheduling cycle length ``r`` (slide of the window).

    Returns:
        Expected slack in milliseconds; negative values mean the query is
        already behind (its SWM is due or overdue and its queue cannot be
        drained in the remaining time).
    """
    return expected_slack_scalars(
        estimate.mean,
        estimate.std,
        estimate.t_min,
        estimate.t_max,
        now,
        cost_ms,
        cycle_ms,
    )


def expected_slack_scalars(
    mean: float,
    std: float,
    t_min: float,
    t_max: float,
    now: float,
    cost_ms: float,
    cycle_ms: float,
) -> float:
    """Allocation-free core of :func:`expected_slack`.

    Takes the estimate's fields as scalars so the scheduler's fused fast
    path (``SwmIngestionEstimator.estimate_scalars``) can skip building a
    :class:`SwmEstimate` per (query, binding) per cycle. The arithmetic —
    including operation order — is byte-for-byte the historical loop.
    """
    if cycle_ms <= 0:
        raise ValueError(f"cycle must be positive: {cycle_ms}")
    sigma = max(std, 1e-12)
    rt2 = math.sqrt(2.0)
    erfc = math.erfc
    # survival(estimate, now), inlined with the same expression shape.
    denom = 0.5 * erfc(((now - mean) / sigma) / rt2)
    if denom < _OVERDUE_EPS or t_max <= now:
        # SWM overdue (or virtually certain to have arrived): the remaining
        # margin is whatever is left of the interval, minus the queued work.
        return (t_max - now) - cost_ms
    slack = 0.0
    x = max(now, t_min)
    # Adjacent grid intervals share a boundary, so each Q-function value is
    # carried from one slide to the next instead of recomputed (the hottest
    # transcendental in the scheduler); the arithmetic per boundary is
    # exactly interval_probability's.
    q_lo = 0.5 * erfc(((x - mean) / sigma) / rt2)
    while x <= t_max:
        hi = x + cycle_ms
        q_hi = 0.5 * erfc(((hi - mean) / sigma) / rt2)
        pr = (q_lo - q_hi) / denom
        # Expectation over the interval grid, not a time cursor: the sum is
        # recomputed from scratch every call, so no drift accumulates.
        slack += pr * ((hi - now) - cost_ms)  # klink: allow[KL005]
        x = hi
        q_lo = q_hi
    return slack


def interval_steps(estimate: SwmEstimate, now: float, cycle_ms: float) -> int:
    """Number of window slides Algorithm 1 performs (overhead model input)."""
    return interval_steps_scalars(estimate.t_min, estimate.t_max, now, cycle_ms)


def interval_steps_scalars(
    t_min: float, t_max: float, now: float, cycle_ms: float
) -> int:
    """Scalar-argument core of :func:`interval_steps` (fused fast path).

    Counts the grid points ``max(now, t_min) + k * cycle_ms <= t_max``
    (``k >= 0``) that
    :func:`expected_slack_scalars`' loop slides over, so an interval
    that is an exact multiple of the cycle counts its closing boundary.
    (The loop also returns early for an SWM that is virtually certain to
    have arrived, which needs the mean; only ``t_max <= now`` is modelled.)
    """
    if t_max <= now or t_max < t_min:
        return 0
    lo = max(now, t_min)
    steps = int(math.ceil((t_max - lo) / cycle_ms))
    return steps + 1 if lo + steps * cycle_ms <= t_max else steps
