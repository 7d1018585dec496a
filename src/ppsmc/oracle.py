"""Exact small-scale ground truth on a Bernoulli occupancy grid.

Divide (0, 1] into N cells; cell i is occupied with probability
g(v_{<i}) given the occupancy bits of all earlier cells.  For N <= 20 the
conditional law given "these cells are occupied" can be enumerated exactly,
which gives an independent check of the particle filter.  The chain is itself
the sequence model the filter runs (occupied cell i = event at integer time
i+1, observed index = required event, horizon N), and the laws are compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .models import InterArrivalDistribution, SequenceModel
from .smc import ConstraintSet

MAX_ENUMERABLE_CELLS = 20


@dataclass(frozen=True)
class GridModel(SequenceModel):
    """Occupancy-grid chain: n cells, g maps a bit prefix to P(next occupied).

    As a sequence model, occupied cell i is an event at integer time i+1, which
    keeps barrier equality exact (use ``horizon=n``); the state is the gap law
    after the occupancy bits of the cells up to the last event."""

    n: int
    g: Callable[[tuple], float]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one cell")

    def initial_state(self, history):
        return reduce(self.advance, history, _GridGap(self, ()))

    def advance(self, state, t):
        # the cells after the previous event stay vacant up to t's own cell,
        # which is occupied if t is a cell time
        skipped = int(t) - len(state.prefix)
        if skipped < 1:
            return state
        bits = state.prefix + (0,) * (skipped - 1) + (1 if t == int(t) else 0,)
        return _GridGap(self, bits)


def _occupied(model: GridModel, prefix: tuple) -> float:
    """g of ``prefix``; raises ValueError unless it is a probability."""
    q = model.g(prefix)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"g returned {q!r}, not a probability")
    return q


def chain_probability(model: GridModel, bits: Sequence[int]) -> float:
    """Probability of one full occupancy vector under the chain."""
    qs = (_occupied(model, tuple(bits[:i])) for i in range(len(bits)))
    return math.prod((q if v else 1.0 - q for q, v in zip(qs, bits)), start=1.0)


def enumerate_conditional(model: GridModel, observed: Iterable[int]) -> dict[tuple, float]:
    """Exact law of the occupancy vector given 1s at the observed indices.

    Returns {bits: probability} over all consistent vectors, renormalized.
    """
    if model.n > MAX_ENUMERABLE_CELLS:
        raise ValueError(f"enumeration limited to {MAX_ENUMERABLE_CELLS} cells, got {model.n}")
    observed = sorted(set(observed))
    if observed and not 0 <= observed[0] <= observed[-1] < model.n:
        raise ValueError(f"observed indices out of range for n={model.n}")
    table = {(): 1.0}  # each consistent prefix's probability, grown a cell at a time
    for i in range(model.n):
        table = {bits + (v,): p * (q if v else 1.0 - q)
                 for bits, p in table.items() for q in (_occupied(model, bits),)
                 for v in ((1,) if i in observed else (0, 1))}
    total = reduce(add, table.values(), 0.0)  # left to right (sum() compensates from 3.12)
    if total == 0:
        raise ValueError("conditioning event has probability zero under this model")
    return {bits: p / total for bits, p in table.items() if p > 0}


@dataclass(frozen=True)
class _GridGap(InterArrivalDistribution):
    """Gap law from the current position: geometric-like over remaining cells."""

    model: GridModel
    prefix: tuple  # occupancy bits of all decided cells

    @cached_property
    def _ahead(self) -> tuple:
        """g at each cell ahead, the cells before it vacant."""
        return tuple(_occupied(self.model, self.prefix + (0,) * k) for k in range(self.draw_width))

    @cached_property
    def _vacant(self) -> tuple:
        """P(the first m cells ahead are vacant), for m = 0 ... cells ahead."""
        out = [1.0]
        for g in self._ahead:
            out.append(out[-1] * (1.0 - g))
        return tuple(out)

    def pdf(self, d):
        m = int(d)
        if m != d or not 1 <= m <= self.draw_width:
            return 0.0
        return self._vacant[m - 1] * self._ahead[m - 1]

    def cdf(self, d):
        return 1.0 - self._vacant[min(max(math.floor(d), 0), self.draw_width)]

    def survival(self, d):
        m = max(math.ceil(d), 1)  # past the table even the beyond-horizon gap is shorter than d
        return self._vacant[m - 1] if m <= len(self._vacant) else 0.0

    def _beyond(self) -> int:
        """The gap to time n + 1, just past the last cell."""
        gap = self.model.n - len(self.prefix) + 1
        if gap < 1:
            raise ValueError(f"a path passed the last of the grid's {self.model.n} cells: "
                             f"the horizon must not exceed n + 1 = {self.model.n + 1}")
        return gap

    def sample(self, rng):
        for j, g in enumerate(self._ahead):
            if rng.random() < g:
                return j + 1
        return self._beyond()

    @property
    def draw_width(self) -> int:
        return max(self.model.n - len(self.prefix), 0)

    def draws(self, u):
        """Each lane's first cell ahead whose uniform falls below its g, one
        uniform per cell tried, as ``sample`` finds it."""
        cells = self.draw_width
        if not cells:
            return np.full(len(u), self._beyond()), 0
        hit = u[:, :cells] < self._ahead
        found = hit.any(axis=1)
        first = hit.argmax(axis=1) + 1
        return np.where(found, first, cells + 1), np.where(found, first, cells)


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
    """0.5 * sum over the union support of |p - q|, added left to right over
    ``p``'s keys in order and then ``q``'s not in ``p``, however keys hash."""
    keys = dict.fromkeys([*p, *q])
    return 0.5 * reduce(add, (abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys), 0.0)


def normalize_counts(counts: Mapping) -> dict:
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("empty count table")
    return {k: v / total for k, v in counts.items()}
