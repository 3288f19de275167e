"""Arrival-process models.

Traffic enters the simulator through arrival processes that generate
inter-arrival gaps one event at a time (the event-driven contract) while
staying cheap enough for thousand-requests-per-second floods.  Three
families cover everything in the paper:

* :class:`PoissonProcess` — memoryless legitimate traffic at a fixed
  rate;
* :class:`ConstantRateProcess` — attack tools like ApacheBench that
  pace requests deterministically;
* :class:`ModulatedPoissonProcess` — Poisson arrivals whose rate tracks
  an arbitrary envelope ``λ(t)`` (the Alibaba trace), implemented with
  Lewis–Shedler thinning so the envelope can be any bounded function;
* :class:`MMPPProcess` — a 2-state Markov-modulated Poisson process for
  bursty sources.

Jitter is drawn as ``lo + (hi - lo) * rng.random()`` rather than
``rng.uniform(lo, hi)``: numpy's C distribution computes the named call
as exactly this expression, so the values and the bit-generator stream
are identical (``tests/test_rng_forms.py`` pins this), and the direct
form skips about a microsecond of argument handling per draw.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .._validation import check_non_negative, check_positive

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "ConstantRateProcess",
    "ModulatedPoissonProcess",
    "MMPPProcess",
]


class ArrivalProcess:
    """Interface: produce the gap to the next arrival after time *t*."""

    def next_interarrival(self, rng: np.random.Generator, t: float) -> float:
        """Seconds from *t* until the next arrival (``inf`` = no more)."""
        raise NotImplementedError

    def mean_rate(self) -> float:
        """Long-run average arrival rate in requests/second."""
        raise NotImplementedError


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals at *rate* requests/second."""

    def __init__(self, rate: float) -> None:
        check_non_negative("rate", rate)
        self.rate = float(rate)

    def next_interarrival(self, rng: np.random.Generator, t: float) -> float:
        """Exponential gap at the configured rate (``inf`` for rate 0)."""
        if self.rate <= 0:
            return math.inf
        return float(rng.exponential(1.0 / self.rate))

    def mean_rate(self) -> float:
        """The configured rate."""
        return self.rate


class ConstantRateProcess(ArrivalProcess):
    """Deterministic pacing at *rate* requests/second with optional jitter.

    Models load generators (http-load, ApacheBench) that hold a fixed
    concurrency/rate.  ``jitter`` is the relative half-width of a
    uniform perturbation; zero gives exactly periodic arrivals.
    """

    def __init__(self, rate: float, jitter: float = 0.0) -> None:
        check_non_negative("rate", rate)
        check_non_negative("jitter", jitter)
        if jitter >= 1.0:
            raise ValueError(f"jitter must be < 1, got {jitter}")
        self.rate = float(rate)
        self.jitter = float(jitter)

    def next_interarrival(self, rng: np.random.Generator, t: float) -> float:
        """Fixed gap (optionally jittered) at the configured rate."""
        if self.rate <= 0:
            return math.inf
        gap = 1.0 / self.rate
        jitter = self.jitter
        if jitter > 0:
            low = -jitter
            gap *= 1.0 + (low + (jitter - low) * rng.random())
        return gap

    def mean_rate(self) -> float:
        """The configured rate (jitter is zero-mean)."""
        return self.rate


class ModulatedPoissonProcess(ArrivalProcess):
    """Non-homogeneous Poisson arrivals with envelope ``λ(t)``.

    Uses Lewis–Shedler thinning: candidate gaps are drawn at the
    envelope's upper bound ``rate_max`` and accepted with probability
    ``λ(t)/rate_max``, which is exact for any measurable rate function
    bounded by ``rate_max``.
    """

    def __init__(
        self,
        rate_fn: Callable[[float], float],
        rate_max: float,
        horizon: Optional[float] = None,
    ) -> None:
        check_positive("rate_max", rate_max)
        if horizon is not None:
            check_positive("horizon", horizon)
        self.rate_fn = rate_fn
        self.rate_max = float(rate_max)
        self.horizon = horizon

    def next_interarrival(self, rng: np.random.Generator, t: float) -> float:
        """Thinning draw: exact for any envelope bounded by rate_max."""
        clock = t
        while True:
            gap = float(rng.exponential(1.0 / self.rate_max))
            clock += gap
            if self.horizon is not None and clock > self.horizon:
                return math.inf
            rate = float(self.rate_fn(clock))
            if rate < 0:
                raise ValueError(f"rate_fn returned negative rate {rate} at t={clock}")
            if rate > self.rate_max * (1 + 1e-9):
                raise ValueError(
                    f"rate_fn({clock})={rate} exceeds rate_max={self.rate_max}"
                )
            if rng.random() * self.rate_max <= rate:
                return clock - t

    def mean_rate(self) -> float:
        """Numerical average of the envelope over the horizon (or 1 h)."""
        # Numerical average of the envelope over the horizon (or 1 h).
        end = self.horizon if self.horizon is not None else 3600.0
        ts = np.linspace(0.0, end, 1000)
        return float(np.mean([self.rate_fn(float(x)) for x in ts]))


class MMPPProcess(ArrivalProcess):
    """Two-state Markov-modulated Poisson process.

    The process alternates between a *calm* state (rate ``rate_low``)
    and a *burst* state (rate ``rate_high``); sojourn times in each
    state are exponential.  Used to model flash-crowd-like legitimate
    bursts the paper's oversubscription assumption tolerates.
    """

    def __init__(
        self,
        rate_low: float,
        rate_high: float,
        mean_low_duration_s: float,
        mean_high_duration_s: float,
    ) -> None:
        check_non_negative("rate_low", rate_low)
        check_positive("rate_high", rate_high)
        check_positive("mean_low_duration_s", mean_low_duration_s)
        check_positive("mean_high_duration_s", mean_high_duration_s)
        if rate_high < rate_low:
            raise ValueError("rate_high must be >= rate_low")
        self.rate_low = float(rate_low)
        self.rate_high = float(rate_high)
        self.mean_low = float(mean_low_duration_s)
        self.mean_high = float(mean_high_duration_s)
        self._in_burst = False
        self._state_until = 0.0

    def next_interarrival(self, rng: np.random.Generator, t: float) -> float:
        """Gap under the current Markov state, advancing sojourns lazily."""
        clock = t
        total = 0.0
        while True:
            if clock >= self._state_until:
                # Draw the next sojourn.
                self._in_burst = not self._in_burst if self._state_until > 0 else False
                mean = self.mean_high if self._in_burst else self.mean_low
                self._state_until = clock + float(rng.exponential(mean))
            rate = self.rate_high if self._in_burst else self.rate_low
            window = self._state_until - clock
            if rate <= 0:
                clock = self._state_until
                total += window
                continue
            gap = float(rng.exponential(1.0 / rate))
            if gap <= window:
                return total + gap
            clock = self._state_until
            total += window

    def mean_rate(self) -> float:
        """Stationary mean rate of the two-state chain."""
        p_burst = self.mean_high / (self.mean_low + self.mean_high)
        return self.rate_low * (1 - p_burst) + self.rate_high * p_burst
