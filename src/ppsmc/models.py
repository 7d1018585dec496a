"""Sequence models: history-conditional inter-arrival distributions.

A sequence model describes a point process through the recursion
``x_i = x_{i-1} + d_i`` with ``d_i`` drawn from a distribution that may depend
on the whole history ``x_{<i}``.  Restricting to a horizon T means sampling
until the first point at or beyond T and keeping everything up to T.
``propose_segment`` is the one forward walk: it extends a path to a barrier,
or to the horizon for the filter's open tail and ``sample_restricted``.

A model carries what it needs of the history as a state:
``initial_state(history)`` builds it once, ``advance(state, t)`` extends it by
one event and ``gap_law(state)`` gives the law of the next gap.  States are
never mutated, because resampled particles share them.

Gap distributions expose ``pdf``, ``cdf`` (P(gap <= d)), ``survival``
(P(gap >= d)) and ``sample``.  For continuous laws survival and 1-cdf agree;
discrete models must override ``survival`` so that the mass at d itself is
retained — the importance weight at a clipped barrier divides by P(gap >= d).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import IterationLimitError, SaturatedCdfError

SURVIVAL_FLOOR = 1e-300
MAX_EVENTS = 10 ** 6


class InterArrivalDistribution:
    """One-step gap law conditioned on a fixed history."""

    def pdf(self, d):
        raise NotImplementedError

    def cdf(self, d):
        raise NotImplementedError

    def survival(self, d):
        """P(gap >= d).  Default suits continuous laws; floored to avoid 0/0."""
        return max(1.0 - self.cdf(d), SURVIVAL_FLOOR)

    def sample(self, rng: np.random.Generator):
        raise NotImplementedError

    def hazard(self, d) -> float:
        """f(d) / P(gap >= d); 0 where the density is 0.

        Raises SaturatedCdfError when the survival probability has underflowed,
        making the hazard numerically undefined.
        """
        p = self.pdf(d)
        if p == 0:
            return 0.0
        s = self.survival(d)
        if s <= SURVIVAL_FLOOR:
            raise SaturatedCdfError(f"survival underflowed at gap {d!r}")
        return p / s


class SequenceModel:
    """Maps a history of event times to the distribution of the next gap,
    through an immutable state that is advanced one event at a time."""

    def initial_state(self, history: Sequence[float]):
        """The state after ``history``."""
        raise NotImplementedError

    def advance(self, state, t):
        """The state after appending time ``t`` to the history of ``state``."""
        raise NotImplementedError

    def gap_law(self, state) -> InterArrivalDistribution:
        """Law of the gap that follows the history of ``state``."""
        raise NotImplementedError

    def gap_distribution(self, history: Sequence[float]) -> InterArrivalDistribution:
        """Law of the gap that follows ``history``; models do not override it."""
        return self.gap_law(self.initial_state(history))


class RenewalModel(SequenceModel):
    """Independent gaps from one fixed law: the state is None."""

    def __init__(self, gap: InterArrivalDistribution):
        self._gap = gap

    def initial_state(self, history):
        return None

    def advance(self, state, t):
        return None

    def gap_law(self, state):
        return self._gap


class ExponentialGap(InterArrivalDistribution):
    def __init__(self, rate: float):
        self.rate = rate

    def pdf(self, d):
        if d < 0:
            return 0.0
        return self.rate * math.exp(-self.rate * d)

    def cdf(self, d):
        if d < 0:
            return 0.0
        return -math.expm1(-self.rate * d)

    def survival(self, d):
        if d < 0:
            return 1.0
        return math.exp(-self.rate * d)

    def sample(self, rng):
        return rng.exponential(1.0 / self.rate)


class WeibullGap(InterArrivalDistribution):
    def __init__(self, shape: float, scale: float):
        self.shape = shape
        self.scale = scale

    def pdf(self, d):
        if d < 0:
            return 0.0
        if d == 0:
            return 1.0 / self.scale if self.shape == 1 else (math.inf if self.shape < 1 else 0.0)
        u = (d / self.scale) ** self.shape
        return (self.shape / d) * u * math.exp(-u)

    def cdf(self, d):
        if d <= 0:
            return 0.0
        return -math.expm1(-((d / self.scale) ** self.shape))

    def survival(self, d):
        if d <= 0:
            return 1.0
        return math.exp(-((d / self.scale) ** self.shape))

    def sample(self, rng):
        return self.scale * rng.weibull(self.shape)


class UniformGap(InterArrivalDistribution):
    """Gaps uniform on [low, high]; zero density outside.

    Useful as a stress model: a barrier whose clipped gap falls outside the
    support kills the particle outright.
    """

    def __init__(self, low: float, high: float):
        if not 0 <= low < high:
            raise ValueError("need 0 <= low < high")
        self.low = low
        self.high = high

    def pdf(self, d):
        return 1.0 / (self.high - self.low) if self.low <= d <= self.high else 0.0

    def cdf(self, d):
        return min(max((d - self.low) / (self.high - self.low), 0.0), 1.0)

    def survival(self, d):
        return min(max((self.high - d) / (self.high - self.low), 0.0), 1.0)

    def sample(self, rng):
        return rng.uniform(self.low, self.high)


class PoissonProcessModel(RenewalModel):
    """Homogeneous Poisson process: memoryless exponential gaps."""

    def __init__(self, rate: float):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = rate
        super().__init__(ExponentialGap(rate))


class WeibullRenewalModel(RenewalModel):
    """Renewal process with Weibull gaps (hazard k/c * (d/c)^(k-1))."""

    def __init__(self, shape: float, scale: float):
        if shape <= 0 or scale <= 0:
            raise ValueError("shape and scale must be positive")
        self.shape = shape
        self.scale = scale
        super().__init__(WeibullGap(shape, scale))


class UniformRenewalModel(RenewalModel):
    """Renewal process with uniform gaps on [low, high]."""

    def __init__(self, low: float, high: float):
        super().__init__(UniformGap(low, high))
        self.low = low
        self.high = high


def _log_density(law: InterArrivalDistribution, d) -> float:
    p = law.pdf(d)
    return math.log(p) if p > 0 else -math.inf


def propose_segment(model: SequenceModel, state, last: float, z: float,
                    b_prev: bool, rng, horizon: float = 1.0,
                    score: bool = False) -> tuple[list, float | None, object, list | None]:
    """Extend one path, in model state ``state`` with its last event at
    ``last``, up to barrier ``z`` (math.inf for the open tail, which stops at
    the first time at or past ``horizon``).

    Returns ``(segment, gap, state, steps)``: the appended times, the final
    gap (None if nothing was appended), the state it was drawn in (the given
    state if nothing was appended) and, if ``score``, each appended time's
    log density under the law it was drawn from (else None).  That state is
    not advanced past the last element: a clipped barrier may be a time the
    model cannot reach, and only a path that is kept needs the step.  With
    ``b_prev`` False the barrier is appended directly.
    """
    if not b_prev:
        return [z], z - last, state, [_log_density(model.gap_law(state), z - last)] if score else None
    segment = []
    steps = [] if score else None
    prev = last
    while not (last == z or last >= horizon):
        if len(segment) >= MAX_EVENTS:
            target = f"barrier {z!r}" if z < math.inf else f"horizon {horizon!r}"
            raise IterationLimitError(f"segment did not reach {target} within {MAX_EVENTS} draws")
        if segment:
            state = model.advance(state, last)
        law = model.gap_law(state)
        d = law.sample(rng)
        if d <= 0:
            raise ValueError(f"model produced a non-positive gap: {d!r}")
        candidate = last + d
        prev, last = last, (candidate if candidate < z else z)
        segment.append(last)
        if score:  # the appended time, not d: (last + d) - last may differ from d
            steps.append(_log_density(law, last - prev))
    return segment, (last - prev if segment else None), state, steps


def _extend_to_horizon(model: SequenceModel, state, seq: Sequence[float], rng,
                       horizon: float, score: bool = False) -> tuple[tuple, list | None]:
    """``seq``, in model state ``state``, walked to the first time at or past
    the horizon without the times beyond it, and the steps of the times it keeps."""
    seg, _, _, steps = propose_segment(model, state, seq[-1] if len(seq) else 0.0, math.inf,
                                       True, rng, horizon=horizon, score=score)
    out = [*seq, *seg]
    while out and out[-1] > horizon:  # a walk that ran started below the horizon,
        out.pop()                     # so it drops only its own times
    return tuple(out), steps and steps[:len(out) - len(seq)]


def sample_restricted(model: SequenceModel, rng: np.random.Generator,
                      horizon: float = 1.0, initial_history: Sequence[float] = ()) -> tuple:
    """Sample the process restricted to (0, horizon].

    Draws gaps forward from the end of ``initial_history`` until the first
    point at or beyond the horizon and, like the filter's open tail, drops
    every time beyond it, history included.  Raises IterationLimitError if
    the horizon is not reached within ``MAX_EVENTS`` draws.
    """
    return _extend_to_horizon(model, model.initial_state(initial_history), initial_history,
                              rng, horizon)[0]


def step_log_probabilities(model: SequenceModel, seq: Sequence[float],
                           initial_history: Sequence[float] = ()) -> list[float]:
    """Log density/mass of each gap in ``seq`` under the model, in order.

    A zero-density step yields -inf at its index; no exception is raised.
    The state is never advanced past the last time, which may be one the
    model cannot reach.
    """
    state = model.initial_state(initial_history)
    out = []
    last = initial_history[-1] if len(initial_history) else 0.0
    for i, t in enumerate(seq):
        d = t - last
        if d <= 0:
            raise ValueError(f"times must strictly increase, got {t!r} after {last!r}")
        if i:
            state = model.advance(state, last)
        out.append(_log_density(model.gap_law(state), d))
        last = t
    return out


def log_probability(model: SequenceModel, seq: Sequence[float],
                    initial_history: Sequence[float] = ()) -> float:
    """Total log probability of a sequence: sum of its step log densities."""
    return sum(step_log_probabilities(model, seq, initial_history), 0.0)


def conditional_intensity(model: SequenceModel, history: Sequence[float], t) -> float:
    """Hazard of the next event at time t given the history: f(d) / P(gap >= d).

    Raises SaturatedCdfError when the survival probability has underflowed,
    making the hazard numerically undefined.
    """
    last = history[-1] if len(history) else 0.0
    d = t - last
    if d <= 0:
        raise ValueError(f"t={t!r} does not lie beyond the history end {last!r}")
    return model.gap_distribution(history).hazard(d)
