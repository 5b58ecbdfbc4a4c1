"""Network delay distributions.

The paper evaluates Klink under synthetic network delays drawn from Uniform
and Zipf distributions ("We also generate Zipf distributed network delays
with a distribution constant of 0.99", Sec. 6.2). These models perturb the
time between an event's generation at the source and its ingestion by the
SPE. Each model exposes a hard ``bound`` — the maximum delay it can
produce — which workloads use to set the watermark lateness allowance so
that watermark semantics (no event older than the watermark follows it)
hold by construction.
"""

from __future__ import annotations

import abc
from array import array

import numpy as np


class DelayModel(abc.ABC):
    """Samples per-batch network delays (milliseconds)."""

    #: draws prefetched per :meth:`sample_amortized` refill. One numpy
    #: batch call amortizes over this many scalar draws.
    AMORTIZE_BLOCK = 256

    def __init__(self, rng: np.random.Generator | None = None, seed: int | None = None):
        if rng is not None and seed is not None:
            raise ValueError("pass either rng or seed, not both")
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        # Prefetch buffer for sample_amortized(): values already drawn
        # from the generator but not yet handed to a caller.
        self._draw_buf = array("d")
        self._draw_pos = 0
        # Bit-generator state captured immediately before the last
        # prefetch refill; lets checkpoint_rng_state() reconstruct the
        # *logical* generator position while draws are pending.
        self._refill_state: object = None

    @abc.abstractmethod
    def sample(self) -> float:
        """Draw one delay value in milliseconds."""

    def sample_amortized(self) -> float:
        """``sample()`` with block-prefetched draws (same value stream).

        Returns exactly the values ``sample()`` would return, in the same
        order — the refill is one :meth:`sample_batch` call, whose pinned
        contract is bit-identity with sequential ``sample()`` draws. The
        only observable difference is the *generator's internal state*,
        which runs ahead of the consumed values by up to a block. The
        engine draws every delay this way; checkpoints capture the
        logical position through :meth:`checkpoint_rng_state`, and a
        restore discards the prefetch. Do not interleave direct
        ``sample``/``sample_batch`` calls on the same model with this
        method: they would read values the buffer already holds.
        """
        pos = self._draw_pos
        buf = self._draw_buf
        if pos < len(buf):
            self._draw_pos = pos + 1
            return buf[pos]
        self._refill_state = self._rng.bit_generator.state
        # the float64 batch's raw bytes: the same doubles, 8 B each
        self._draw_buf = buf = array("d", self.sample_batch(self.AMORTIZE_BLOCK).tobytes())
        self._draw_pos = 1
        return buf[0]

    def sample_batch(self, n: int) -> np.ndarray:
        """Draw ``n`` delays as a float64 array.

        Contract: bit-identical to ``[self.sample() for _ in range(n)]``,
        consuming the underlying generator identically. numpy ``Generator``
        draws for uniform/exponential/choice are sequential, so subclasses
        can vectorize; this fallback loops ``sample()`` and is always
        correct for third-party subclasses.
        """
        if n <= 0:
            return np.empty(0, dtype=np.float64)
        return np.array([self.sample() for _ in range(n)], dtype=np.float64)

    @property
    @abc.abstractmethod
    def bound(self) -> float:
        """Upper bound on delays this model can produce (ms)."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Expected delay (ms)."""

    def reseed(self, seed: int) -> None:
        """Reset the random stream (used to make experiment repetitions vary)."""
        self._rng = np.random.default_rng(seed)
        self._draw_buf = array("d")
        self._draw_pos = 0
        self._refill_state = None

    def checkpoint_rng_state(self) -> dict:
        """Bit-generator state at the model's *logical* draw position.

        With no pending prefetched draws this is simply the live state.
        While :meth:`sample_amortized` draws are pending, the live
        generator has run a whole block ahead of the values consumed so
        far; replaying only the consumed prefix from the pre-refill
        state yields the state a plain-``sample()`` twin would hold at
        this exact point — so checkpoint bytes are independent of
        whether draws were amortized, and a restore resumes the same
        value stream. The live generator and buffer are untouched.
        """
        if self._draw_pos >= len(self._draw_buf):
            return self._rng.bit_generator.state
        live = self._rng
        replay = np.random.default_rng()  # klink: allow[KL002] state overwritten next line
        replay.bit_generator.state = self._refill_state
        self._rng = replay
        try:
            self.sample_batch(self._draw_pos)
        finally:
            self._rng = live
        return replay.bit_generator.state

    def restore_rng_state(self, state: dict) -> None:
        """Install a checkpointed logical state; discards any prefetch."""
        self._rng.bit_generator.state = state
        self._draw_buf = array("d")
        self._draw_pos = 0
        self._refill_state = None

    def describe(self) -> dict:
        """Analytic summary of the model, for observability records.

        The SWM-forecast audit annotates each source's calibration row
        with the delay model it faced, so a reader can judge prediction
        error against the delay spread that produced it.
        """
        return {
            "model": type(self).__name__,
            "mean_ms": float(self.mean),
            "bound_ms": float(self.bound),
        }


class ConstantDelay(DelayModel):
    """Every event is delayed by exactly ``delay_ms``. Useful in tests."""

    def __init__(self, delay_ms: float):
        super().__init__(seed=0)
        if delay_ms < 0:
            raise ValueError(f"negative delay: {delay_ms}")
        self._delay = float(delay_ms)

    def sample(self) -> float:
        return self._delay

    def sample_batch(self, n: int) -> np.ndarray:
        if n <= 0:
            return np.empty(0, dtype=np.float64)
        return np.full(n, self._delay, dtype=np.float64)

    @property
    def bound(self) -> float:
        return self._delay

    @property
    def mean(self) -> float:
        return self._delay


class UniformDelay(DelayModel):
    """Delays uniform over ``[low_ms, high_ms]`` (the paper's Uniform case)."""

    def __init__(self, low_ms: float = 0.0, high_ms: float = 500.0, *, seed: int | None = None):
        super().__init__(seed=seed)
        if not 0 <= low_ms <= high_ms:
            raise ValueError(f"invalid uniform range [{low_ms}, {high_ms}]")
        self._low = float(low_ms)
        self._high = float(high_ms)

    def sample(self) -> float:
        return float(self._rng.uniform(self._low, self._high))

    def sample_batch(self, n: int) -> np.ndarray:
        if n <= 0:
            return np.empty(0, dtype=np.float64)
        return self._rng.uniform(self._low, self._high, size=n)

    @property
    def bound(self) -> float:
        return self._high

    @property
    def mean(self) -> float:
        return (self._low + self._high) / 2.0


class ZipfDelay(DelayModel):
    """Zipf-distributed delays with exponent ``a`` (paper uses 0.99).

    Delay ranks ``1..n_ranks`` are drawn with probability proportional to
    ``rank**-a`` and mapped onto ``[0, max_ms]`` by a power curve
    (``shape`` > 1 compresses the bulk towards small delays and stretches
    the rare high ranks towards the bound). Rank 1 — the most probable —
    maps to the smallest delay, giving the heavy right tail that "injects
    higher unpredictability into network delay" and stresses the SWM
    ingestion estimator in Fig. 9c.
    """

    def __init__(
        self,
        a: float = 0.99,
        max_ms: float = 500.0,
        n_ranks: int = 100,
        shape: float = 2.0,
        *,
        seed: int | None = None,
    ):
        super().__init__(seed=seed)
        if a <= 0:
            raise ValueError(f"zipf exponent must be positive: {a}")
        if n_ranks < 2:
            raise ValueError(f"need at least 2 ranks: {n_ranks}")
        if shape <= 0:
            raise ValueError(f"shape must be positive: {shape}")
        self._max = float(max_ms)
        self._n_ranks = n_ranks
        ranks = np.arange(1, n_ranks + 1, dtype=float)
        weights = ranks ** (-a)
        self._probs = weights / weights.sum()
        self._delays = ((ranks - 1) / (n_ranks - 1)) ** shape * self._max

    def sample(self) -> float:
        idx = self._rng.choice(self._n_ranks, p=self._probs)
        return float(self._delays[idx])

    def sample_batch(self, n: int) -> np.ndarray:
        if n <= 0:
            return np.empty(0, dtype=np.float64)
        idx = self._rng.choice(self._n_ranks, size=n, p=self._probs)
        return self._delays[idx]

    @property
    def bound(self) -> float:
        return self._max

    @property
    def mean(self) -> float:
        return float(np.dot(self._probs, self._delays))


class ExponentialDelay(DelayModel):
    """Exponential delays truncated at ``cap_ms`` (extra model for ablations)."""

    def __init__(self, mean_ms: float = 100.0, cap_ms: float | None = None, *, seed: int | None = None):
        super().__init__(seed=seed)
        if mean_ms <= 0:
            raise ValueError(f"mean must be positive: {mean_ms}")
        self._mean = float(mean_ms)
        self._cap = float(cap_ms) if cap_ms is not None else 10.0 * mean_ms

    def sample(self) -> float:
        return min(float(self._rng.exponential(self._mean)), self._cap)

    def sample_batch(self, n: int) -> np.ndarray:
        if n <= 0:
            return np.empty(0, dtype=np.float64)
        return np.minimum(self._rng.exponential(self._mean, size=n), self._cap)

    @property
    def bound(self) -> float:
        return self._cap

    @property
    def mean(self) -> float:
        # Analytic mean of min(X, cap) for exponential X: m * (1 - e^{-cap/m}).
        import math

        return self._mean * (1.0 - math.exp(-self._cap / self._mean))
