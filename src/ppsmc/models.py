"""Sequence models: history-conditional inter-arrival distributions.

A sequence model describes a point process through the recursion
``x_i = x_{i-1} + d_i`` with ``d_i`` drawn from a distribution that may depend
on the whole history ``x_{<i}``.  Restricting to a horizon T means sampling
until the first point at or beyond T and keeping everything up to T.

A model's state is the law of its next gap, an ``InterArrivalDistribution``
that holds what the model needs of the history: ``initial_state(history)``
builds it once and ``advance(state, t)`` extends it by one event.  States are
never mutated, because resampled particles share them.

Gap distributions expose ``pdf``, ``cdf`` (P(gap <= d)), ``survival``
(P(gap >= d)) and ``sample``.  For continuous laws survival and 1-cdf agree;
discrete models must override ``survival`` so that the mass at d itself is
retained — the importance weight at a clipped barrier divides by P(gap >= d).

The renewal laws define ``quantile(u)``, the gap at which the cdf reaches u
in [0, 1); ``sample(rng)`` is then ``quantile(rng.random())``.  The
exponential is -log1p(-u)/rate and the Weibull scale·(-log1p(-u))**(1/shape),
inverse cdfs of ``random()`` rather than numpy's ziggurat draws; the uniform
is low + (high - low)·u, bit for bit what ``Generator.uniform`` draws.

A path clipped at a required time weighs ``barrier_weight`` of its last gap
(the hazard f(d)/P(gap >= d) in a free segment, the density f(d) in a
forbidden one); a law's ``weights`` gives it for many gaps at once.

``propose_segment`` walks one path on one generator, for
``sample_restricted``.  The filter and the beam walk many lanes at once
(``ppsmc.smc``) and ask a law only for ``draws``, the gaps of all its lanes
in one call, given each lane's next uniforms.  By default it applies
``quantiles``, the ``quantile`` of each; the renewal laws map only
``math.log1p`` and ``pow`` in Python and leave the rest to numpy, which
rounds each operation as Python does.  A law without a quantile overrides
``draws`` and declares ``draw_width``, as the grid and music laws do; their
``sample`` draws the same gap from the same uniforms, one ``random()`` at a
time.
"""

from __future__ import annotations

import math
import operator
from itertools import repeat
from typing import Sequence

import numpy as np

SURVIVAL_FLOOR = 1e-300
MAX_EVENTS = 10 ** 6


class SaturatedCdfError(ArithmeticError):
    """1 - F underflowed to zero where a positive density remains.

    The hazard f/(1-F) is undefined past this point; callers should treat the
    model as numerically exhausted rather than silently producing inf.
    """


class IterationLimitError(RuntimeError):
    """A sampling loop exceeded its iteration cap without crossing the horizon."""


class InterArrivalDistribution:
    """One-step gap law conditioned on a fixed history."""

    def pdf(self, d):
        raise NotImplementedError

    def cdf(self, d):
        raise NotImplementedError

    def survival(self, d):
        """P(gap >= d).  Default suits continuous laws; floored to avoid 0/0."""
        return max(1.0 - self.cdf(d), SURVIVAL_FLOOR)

    def quantile(self, u: float):
        """The gap at which the cdf reaches u in [0, 1)."""
        raise NotImplementedError(f"{type(self).__name__} needs quantile(u) or its own draws(u)")

    def sample(self, rng: np.random.Generator):
        return self.quantile(rng.random())

    draw_width = 1  # uniforms one draw takes at most, handed to ``draws`` up front

    def draws(self, u: np.ndarray) -> tuple[np.ndarray, object]:
        """Gaps of many lanes in this state, and the uniforms each took.

        Row k of ``u`` holds lane k's next ``draw_width`` (or more) uniforms.
        The quantile of each column is a gap, a row of gaps per lane if ``u``
        has several.
        """
        gaps = self.quantiles(u.ravel())
        return (gaps if u.shape[1] == 1 else gaps.reshape(u.shape)), u.shape[1]

    def quantiles(self, u: np.ndarray) -> np.ndarray:
        """``quantile`` of each uniform in the 1-d array ``u``, bit for bit."""
        return np.array(list(map(self.quantile, u.tolist())))

    def weights(self, d: np.ndarray, b_prev: bool) -> np.ndarray:
        """``barrier_weight`` of each gap in the 1-d array ``d``, once per distinct gap."""
        gaps, which = np.unique(d, return_inverse=True)
        weights = map(barrier_weight, repeat(self), gaps.tolist(), repeat(b_prev))
        return np.array(list(weights), dtype=float)[which]

    def log_pdfs(self, d: np.ndarray) -> np.ndarray:
        """``_log_density`` of each gap in the 1-d array ``d``, bit for bit."""
        p = self.weights(d, False)
        logs = np.fromiter(map(math.log, np.where(p > 0, p, 1.0).tolist()), float, p.size)
        return np.where(p > 0, logs, -math.inf)

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


def barrier_weight(state: InterArrivalDistribution, gap, b_prev: bool) -> float:
    """Importance weight of one particle whose last element is the barrier,
    reached by ``gap`` drawn from ``state``, the law of the gap after the
    particle's history.

    Free segment: f(d)/P(gap >= d) — the hazard at the clipped gap.  Forbidden
    segment: f(d), the density of the forced append.  A zero density gives
    weight 0 (a dead particle is legal); an underflowed survival raises
    SaturatedCdfError.
    """
    return state.hazard(gap) if b_prev else state.pdf(gap)


class SequenceModel:
    """Maps a history of event times to the law of the next gap, which is
    the model's immutable state and is advanced one event at a time."""

    def initial_state(self, history: Sequence[float]) -> InterArrivalDistribution:
        """Law of the gap that follows ``history``."""
        raise NotImplementedError

    def advance(self, state: InterArrivalDistribution, t) -> InterArrivalDistribution:
        """Law of the gap that follows the history of ``state`` and time ``t``."""
        raise NotImplementedError


class RenewalModel(SequenceModel):
    """Independent gaps from one fixed law, which is every state."""

    def __init__(self, gap: InterArrivalDistribution):
        self._gap = gap

    def initial_state(self, history):
        return self._gap

    def advance(self, state, t):
        return state


class ExponentialGap(InterArrivalDistribution):
    def __init__(self, rate: float):
        if not 0 < rate < math.inf:
            raise ValueError(f"rate must be finite and positive, got {rate!r}")
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

    def hazard(self, d):
        """The rate, also where pdf and survival underflow."""
        return self.rate if d >= 0 else 0.0

    def quantile(self, u):
        return -math.log1p(-u) / self.rate

    def quantiles(self, u):
        return -np.fromiter(map(math.log1p, (-u).tolist()), float, u.size) / self.rate

    def weights(self, d, b_prev):
        if b_prev:
            return np.where(d >= 0, self.rate, 0.0)
        exps = map(math.exp, (-self.rate * np.maximum(d, 0.0)).tolist())  # no overflow below 0
        return np.where(d < 0, 0.0, self.rate * np.fromiter(exps, float, d.size))


class WeibullGap(InterArrivalDistribution):
    def __init__(self, shape: float, scale: float):
        if not (0 < shape < math.inf and 0 < scale < math.inf):
            raise ValueError(f"shape and scale must be finite and positive, "
                             f"got shape={shape!r}, scale={scale!r}")
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

    def hazard(self, d):
        """(k/c)(d/c)^(k-1) for d > 0, also where pdf and survival underflow."""
        if d <= 0:
            return super().hazard(d)
        return (self.shape / self.scale) * (d / self.scale) ** (self.shape - 1)

    def quantile(self, u):
        return self.scale * (-math.log1p(-u)) ** (1.0 / self.shape)

    def quantiles(self, u):
        e = map(operator.neg, map(math.log1p, (-u).tolist()))
        return self.scale * np.fromiter(map(pow, e, repeat(1.0 / self.shape)), float, u.size)


class UniformGap(InterArrivalDistribution):
    """Gaps uniform on [low, high]; zero density outside.

    Useful as a stress model: a barrier whose clipped gap falls outside the
    support kills the particle outright.
    """

    def __init__(self, low: float, high: float):
        if not 0 <= low < high < math.inf:
            raise ValueError(f"need finite 0 <= low < high, got low={low!r}, high={high!r}")
        self.low = low
        self.high = high

    def pdf(self, d):
        return 1.0 / (self.high - self.low) if self.low <= d <= self.high else 0.0

    def cdf(self, d):
        return min(max((d - self.low) / (self.high - self.low), 0.0), 1.0)

    def survival(self, d):
        return min(max((self.high - d) / (self.high - self.low), 0.0), 1.0)

    def quantile(self, u):
        return self.low + (self.high - self.low) * u

    quantiles = quantile  # the same affine map, rounded alike, on an array


class PoissonProcessModel(RenewalModel):
    """Homogeneous Poisson process: memoryless exponential gaps."""

    def __init__(self, rate: float):
        super().__init__(ExponentialGap(rate))


class WeibullRenewalModel(RenewalModel):
    """Renewal process with Weibull gaps (hazard k/c * (d/c)^(k-1))."""

    def __init__(self, shape: float, scale: float):
        super().__init__(WeibullGap(shape, scale))


class UniformRenewalModel(RenewalModel):
    """Renewal process with uniform gaps on [low, high]."""

    def __init__(self, low: float, high: float):
        super().__init__(UniformGap(low, high))


def _log_density(law: InterArrivalDistribution, d) -> float:
    p = law.pdf(d)
    return math.log(p) if p > 0 else -math.inf


def propose_segment(model: SequenceModel, state, last: float, z: float,
                    b_prev: bool, rng, horizon: float = 1.0) -> tuple[list, float | None, object]:
    """Extend one path, in model state ``state`` with its last event at
    ``last``, up to barrier ``z`` (math.inf for the open tail, which stops at
    the first time at or past ``horizon``).

    Returns ``(segment, gap, state)``: the appended times, the final gap
    (None if nothing was appended) and the state it was drawn in (the given
    state if nothing was appended).  That state is not advanced past the last
    element: a clipped barrier may be a time the model cannot reach, and only
    a path that is kept needs the step.  With ``b_prev`` False the barrier is
    appended directly.
    """
    if not b_prev:
        return [z], z - last, state
    segment = []
    prev = last
    while not (last == z or last >= horizon):
        if len(segment) >= MAX_EVENTS:
            target = f"barrier {z!r}" if z < math.inf else f"horizon {horizon!r}"
            raise IterationLimitError(f"segment did not reach {target} within {MAX_EVENTS} draws")
        if segment:
            state = model.advance(state, last)
        d = state.sample(rng)
        if d <= 0:
            raise ValueError(f"model produced a non-positive gap: {d!r}")
        candidate = last + d
        prev, last = last, (candidate if candidate < z else z)
        segment.append(last)
    return segment, (last - prev if segment else None), state


def history_end(times: Sequence[float]) -> float:
    """The last of ``times``, 0.0 if there are none; raises unless they strictly increase."""
    for a, b in zip(times, times[1:]):
        if b <= a:
            raise ValueError(f"times must strictly increase, got {b!r} after {a!r}")
    return times[-1] if len(times) else 0.0


def sample_restricted(model: SequenceModel, rng: np.random.Generator,
                      horizon: float = 1.0, initial_history: Sequence[float] = ()) -> tuple:
    """Sample the process restricted to (0, horizon].

    Draws gaps forward from the end of ``initial_history`` until the first
    point at or beyond the horizon and, like the filter's open tail, drops
    every time beyond it, history included.  Raises IterationLimitError if
    the horizon is not reached within ``MAX_EVENTS`` draws.
    """
    seg, *_ = propose_segment(model, model.initial_state(initial_history),
                              history_end(initial_history), math.inf, True, rng, horizon=horizon)
    return tuple(trim_at_horizon([*initial_history, *seg], horizon))


def trim_at_horizon(path: list, horizon: float) -> list:
    """Drop from the end of a finished path, in place, every time past ``horizon``."""
    while path and path[-1] > horizon:
        path.pop()
    return path


def step_log_probabilities(model: SequenceModel, seq: Sequence[float],
                           initial_history: Sequence[float] = ()) -> list[float]:
    """Log density/mass of each gap in ``seq`` under the model, in order.

    A zero-density step yields -inf at its index, and so does every later
    step; no exception is raised.  The state is never advanced past a time
    the model cannot reach, nor past the last time.
    """
    state = model.initial_state(initial_history)
    out = []
    last = history_end(initial_history)
    history_end((last, *seq))  # seq goes on from the history's end
    for t in seq:
        if out and out[-1] == -math.inf:
            out.append(-math.inf)
        else:
            if out:
                state = model.advance(state, last)
            out.append(_log_density(state, t - last))
        last = t
    return out


def log_probability(model: SequenceModel, seq: Sequence[float],
                    initial_history: Sequence[float] = ()) -> float:
    """Total log probability of a sequence: sum of its step log densities."""
    return sum(step_log_probabilities(model, seq, initial_history), 0.0)
