"""Exact small-scale ground truth on a Bernoulli occupancy grid.

Divide (0, 1] into N cells; cell i is occupied with probability
g(v_{<i}) given the occupancy bits of all earlier cells.  For N <= 20 the
conditional law given "these cells are occupied" can be enumerated exactly,
which gives an independent check of the particle filter: view each occupied
cell i as an event at integer time i+1 and each observed index as a required
event, run the filter with horizon N, and compare distributions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .models import InterArrivalDistribution, SequenceModel
from .smc import ConstraintSet

MAX_ENUMERABLE_CELLS = 20


@dataclass(frozen=True)
class GridModel:
    """Occupancy-grid chain: n cells, g maps a bit prefix to P(next occupied)."""

    n: int
    g: Callable[[tuple], float]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one cell")


def chain_probability(model: GridModel, bits: Sequence[int]) -> float:
    """Probability of one full occupancy vector under the chain."""
    p = 1.0
    for i, v in enumerate(bits):
        q = model.g(tuple(bits[:i]))
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"g returned {q!r}, not a probability")
        p *= q if v else 1.0 - q
    return p


def sample_bits(model: GridModel, rng) -> tuple:
    """Direct forward simulation of the occupancy vector."""
    bits = []
    for _ in range(model.n):
        bits.append(1 if rng.random() < model.g(tuple(bits)) else 0)
    return tuple(bits)


def enumerate_conditional(model: GridModel, observed: Iterable[int]) -> dict[tuple, float]:
    """Exact law of the occupancy vector given 1s at the observed indices.

    Returns {bits: probability} over all consistent vectors, renormalized.
    """
    if model.n > MAX_ENUMERABLE_CELLS:
        raise ValueError(f"enumeration limited to {MAX_ENUMERABLE_CELLS} cells, got {model.n}")
    observed = sorted(set(observed))
    if observed and not 0 <= observed[0] <= observed[-1] < model.n:
        raise ValueError(f"observed indices out of range for n={model.n}")
    table = {}
    total = 0.0
    for bits in itertools.product((0, 1), repeat=model.n):
        if any(bits[j] == 0 for j in observed):
            continue
        p = chain_probability(model, bits)
        if p > 0:
            table[bits] = p
            total += p
    if total == 0:
        raise ValueError("conditioning event has probability zero under this model")
    return {bits: p / total for bits, p in table.items()}


@dataclass(frozen=True)
class _GridGap(InterArrivalDistribution):
    """Gap law from the current position: geometric-like over remaining cells."""

    model: GridModel
    prefix: tuple  # occupancy bits of all decided cells

    def _occupancy(self, m: int) -> tuple[float, float]:
        # (P(first m-1 cells ahead vacant), g at the m-th cell ahead)
        bits = list(self.prefix)
        vacant = 1.0
        for _ in range(m - 1):
            vacant *= 1.0 - self.model.g(tuple(bits))
            bits.append(0)
        return vacant, self.model.g(tuple(bits))

    def pdf(self, d):
        m = int(d)
        if m != d or m < 1 or len(self.prefix) + m > self.model.n:
            return 0.0
        vacant, g = self._occupancy(m)
        return vacant * g

    def cdf(self, d):
        if d < 1:
            return 0.0
        m = min(int(d), self.model.n - len(self.prefix))
        total = 0.0
        bits = list(self.prefix)
        vacant = 1.0
        for _ in range(m):
            g = self.model.g(tuple(bits))
            total += vacant * g
            vacant *= 1.0 - g
            bits.append(0)
        return total

    def survival(self, d):
        if d <= 1:
            return 1.0
        m = int(math.ceil(d))
        if m > self.model.n - len(self.prefix) + 1:
            return 0.0  # even the beyond-horizon gap is shorter than d
        bits = list(self.prefix)
        vacant = 1.0
        for _ in range(m - 1):
            vacant *= 1.0 - self.model.g(tuple(bits))
            bits.append(0)
        return vacant

    def sample(self, rng):
        bits = list(self.prefix)
        for j in range(len(self.prefix), self.model.n):
            if rng.random() < self.model.g(tuple(bits)):
                return j - len(self.prefix) + 1
            bits.append(0)
        return self.model.n - len(self.prefix) + 1  # beyond the horizon


class GridSequenceModel(SequenceModel):
    """Point-process view of a grid chain: occupied cell i = event at time i+1.

    Integer times keep barrier equality exact; use ``horizon=model.n``.  The
    state is the gap law from the occupancy bits of the cells up to the last
    event.
    """

    def __init__(self, model: GridModel):
        self.model = model

    def initial_state(self, history):
        last = int(history[-1]) if len(history) else 0
        present = set(history)
        return _GridGap(self.model, tuple(1 if (j + 1) in present else 0 for j in range(last)))

    def advance(self, state, t):
        # the cells after the previous event stay vacant up to t's own cell,
        # which is occupied if t is a cell time
        skipped = int(t) - len(state.prefix)
        if skipped < 1:
            return state
        bits = state.prefix + (0,) * (skipped - 1) + (1 if t == int(t) else 0,)
        return _GridGap(self.model, bits)


def observed_constraints(observed: Iterable[int]) -> ConstraintSet:
    """Required-event view of observed cells: z = index + 1, all gaps free."""
    z = tuple(sorted(j + 1 for j in set(observed)))
    return ConstraintSet(z=z, b=(True,) * len(z))


def bits_from_times(times: Sequence[float], n: int) -> tuple:
    present = set()
    for t in times:
        if t != int(t) or not (1 <= t <= n):
            raise ValueError(f"time {t!r} is not an integer cell time in [1, {n}]")
        present.add(int(t))
    return tuple(1 if (j + 1) in present else 0 for j in range(n))


def total_variation(p: Mapping, q: Mapping) -> float:
    """0.5 * sum over the union support of |p - q|."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def normalize_counts(counts: Mapping) -> dict:
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("empty count table")
    return {k: v / total for k, v in counts.items()}
