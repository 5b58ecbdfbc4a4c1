"""SWM ingestion estimation (Sec. 3.1).

Klink predicts when the next sweeping watermark (SWM) of each input stream
will be ingested. The prediction decomposes into:

* a deterministic part — the generation time of the watermark that will
  sweep the next window deadline, known from the SPE's watermark
  configuration (period ``p_q`` and lateness allowance, Sec. 2.2); and
* a stochastic part — the network delay ``d_n`` that watermark will
  experience, estimated from the per-epoch delay statistics collected by
  the runtime data-acquisition module (Eqs. 3-4).

Following Eq. 5, the expected ingestion time adds the expected delay to
the deterministic base; following Eq. 6 (which, under the per-epoch mean
definitions of Eqs. 3-4, reduces to the population variance of the delay:
``E[d^2] - E[d]^2`` with both moments averaged over the last ``h``
epochs), the spread of the ingestion time is the delay's standard
deviation. Algorithm 1 then takes a ``>= f%`` confidence interval around
the mean (lines 4-6 use two standard deviations for f = 95).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.spe.query import SourceBinding, StreamProgress

#: z-scores for the confidence values the paper evaluates (Figs. 9c, 9d).
Z_SCORES = {
    100.0: 3.5,   # "all" — practically the full support of a normal
    99.0: 2.576,
    95.0: 2.0,    # Algorithm 1 line 4 uses 2 sigma for >= 95%
    90.0: 1.645,
    67.0: 0.974,
}

#: variance floor (ms^2) so a zero-variance history still yields an interval
_MIN_STD_MS = 1.0


def z_for_confidence(confidence: float) -> float:
    """z-score for a confidence value in percent (interpolating if needed)."""
    if confidence in Z_SCORES:
        return Z_SCORES[confidence]
    if not 0 < confidence <= 100:
        raise ValueError(f"confidence must be in (0, 100]: {confidence}")
    # Inverse normal CDF via scipy for non-tabulated values.
    from scipy.stats import norm

    return float(norm.ppf(0.5 + confidence / 200.0))


class SwmEstimate:
    """Distribution of the next SWM's ingestion time (engine clock ms).

    A ``__slots__`` value class (the scheduler builds one per stream per
    cycle): ``mean``/``std`` parameterize the normal distribution,
    ``[t_min, t_max]`` is Algorithm 1's confidence interval,
    ``deadline`` is the window deadline this SWM sweeps and
    ``swm_generation`` the deterministic base (generation time).
    """

    __slots__ = ("mean", "std", "t_min", "t_max", "deadline", "swm_generation")

    def __init__(
        self,
        mean: float,
        std: float,
        t_min: float,
        t_max: float,
        deadline: float,
        swm_generation: float,
    ) -> None:
        self.mean = mean
        self.std = std
        self.t_min = t_min
        self.t_max = t_max
        self.deadline = deadline
        self.swm_generation = swm_generation

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SwmEstimate):
            return NotImplemented
        return (
            self.mean == other.mean
            and self.std == other.std
            and self.t_min == other.t_min
            and self.t_max == other.t_max
            and self.deadline == other.deadline
            and self.swm_generation == other.swm_generation
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"SwmEstimate(mean={self.mean!r}, std={self.std!r}, "
            f"t_min={self.t_min!r}, t_max={self.t_max!r}, "
            f"deadline={self.deadline!r}, swm_generation={self.swm_generation!r})"
        )

    def contains(self, ingestion_time: float) -> bool:
        """True when an observed ingestion falls inside the interval."""
        return self.t_min <= ingestion_time <= self.t_max


class SwmIngestionEstimator:
    """Estimates next-SWM ingestion for one input stream (Sec. 3.1)."""

    def __init__(self, history: int = 400, confidence: float = 95.0) -> None:
        if history < 1:
            raise ValueError(f"history must be >= 1: {history}")
        self.history = history
        self.confidence = confidence
        self.z = z_for_confidence(confidence)

    # -- delay moments (Eqs. 3-6) -------------------------------------------

    def delay_moments(self, progress: StreamProgress) -> tuple:
        """(mu, chi) averaged over the last ``h`` epochs plus the in-flight
        epoch's observations (the two branches of Eqs. 3-4).

        Cold start: before the stream has produced a single delay
        observation or finalized epoch there is no history to average
        (previously this degenerated to a meaningless all-zero estimate).
        The defined contract is to fall back to the stream's watermark
        period as the expected delay — a watermark can be at most one
        period "fresher" than the state it sweeps, making the period a
        sensible pessimistic prior — with zero spread, which
        :meth:`delay_std` floors at ``_MIN_STD_MS``. The fallback is
        replaced by measured moments as soon as the first observation
        arrives.
        """
        if not progress.has_observations:
            period = progress.watermark_period_ms
            return period, period * period
        # Memoized on the progress tracker: planning, slack estimation,
        # and the audit trail all re-read the moments between ingestions.
        # The tracker bumps its version on every mutation, so a hit is
        # exactly what a fresh recomputation would return.
        memo = progress._moments_memo
        if (
            memo is not None
            and memo[0] == progress._version
            and memo[1] == self.history
        ):
            return memo[2], memo[3]
        # The finalized-epoch side of the average only changes when an
        # epoch closes; its sums are memoized per (epoch_index, history).
        # ``sum(mus + [cur_mu])`` is a left fold, so it equals
        # ``sum(mus) + cur_mu`` bit-for-bit — appending the in-flight
        # epoch to the cached history sum reproduces the full
        # recomputation exactly.
        hist = progress._hist_sums_memo
        if (
            hist is None
            or hist[0] != progress.epoch_index
            or hist[1] != self.history
        ):
            mus = progress.epochs.mu[-self.history:]
            chis = progress.epochs.chi[-self.history:]
            hist = (
                progress.epoch_index,
                self.history,
                len(mus),
                sum(mus),
                sum(chis),
            )
            progress._hist_sums_memo = hist
        cur_mu, cur_chi = progress.current_epoch_mean()
        n = hist[2] + 1
        mu = (hist[3] + cur_mu) / n
        chi = (hist[4] + cur_chi) / n
        progress._moments_memo = (progress._version, self.history, mu, chi)
        return mu, chi

    def delay_std(self, progress: StreamProgress) -> float:
        """Standard deviation of the delay per Eq. 6's reduced form."""
        mu, chi = self.delay_moments(progress)
        var = max(chi - mu * mu, 0.0)
        return max(math.sqrt(var), _MIN_STD_MS)

    # -- next-SWM prediction (Eq. 5 + Alg. 1 lines 1-8) ------------------------

    @staticmethod
    def swm_generation_time(
        deadline: float,
        watermark_period: float,
        lateness: float,
        phase: float = 0.0,
    ) -> float:
        """Generation time of the first watermark whose timestamp covers
        ``deadline``: the earliest grid point ``g`` (period ``p``, offset
        ``phase``) with ``g - lateness >= deadline``."""
        if watermark_period <= 0:
            raise ValueError(f"period must be positive: {watermark_period}")
        target = deadline + lateness
        k = math.ceil((target - phase) / watermark_period)
        g = phase + k * watermark_period
        if g < target - 1e-9:  # guard float rounding
            g += watermark_period
        return g

    def estimate_scalars(
        self,
        binding: SourceBinding,
        *,
        phase: float = 0.0,
        deadline: Optional[float] = None,
    ) -> Optional[tuple]:
        """``(mean, std, t_min, t_max, deadline, generation)`` for the next
        SWM, or ``None`` for streams with no downstream window operator.

        The allocation-free core of :meth:`estimate`: the scheduler's hot
        loop evaluates every (query, binding) pair each cycle and only
        needs the scalars, not a :class:`SwmEstimate` object.
        """
        progress = binding.progress
        if progress is None or progress.next_deadline is None:
            return None
        ddl = progress.next_deadline if deadline is None else deadline
        spec = binding.spec
        generation = self.swm_generation_time(
            ddl, spec.watermark_period_ms, spec.lateness_ms, phase
        )
        # Compute both moments once; the std expression below is the
        # same arithmetic as delay_std (Eq. 6's reduced form).
        mu, chi = self.delay_moments(progress)
        var = max(chi - mu * mu, 0.0)
        std = max(math.sqrt(var), _MIN_STD_MS)
        mean = generation + mu
        return (
            mean,
            std,
            mean - self.z * std,
            mean + self.z * std,
            ddl,
            generation,
        )

    def estimate(
        self,
        binding: SourceBinding,
        *,
        phase: float = 0.0,
        deadline: Optional[float] = None,
    ) -> Optional[SwmEstimate]:
        """Predict the next SWM ingestion for ``binding``'s stream.

        Returns ``None`` for streams with no downstream window operator
        (no deadlines, hence no SWMs).
        """
        scalars = self.estimate_scalars(binding, phase=phase, deadline=deadline)
        if scalars is None:
            return None
        mean, std, t_min, t_max, ddl, generation = scalars
        return SwmEstimate(
            mean=mean,
            std=std,
            t_min=t_min,
            t_max=t_max,
            deadline=ddl,
            swm_generation=generation,
        )
