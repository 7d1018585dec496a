"""Particle-filter sampling of a point process conditioned on required events.

A constraint set fixes times z_1 < ... < z_r that must appear in the sampled
sequence.  Flag b_i says whether free events are allowed in the open interval
(z_i, z_{i+1}); b_0 = True by convention (events before z_1 are always
allowed), and b_r = False forces the sequence to end exactly at z_r.

Sampling proceeds barrier to barrier.  In a free segment each particle runs
the model forward, clipping the first crossing to the barrier itself; the
particle's weight is the hazard f(d)/P(gap >= d) of the clipped gap, which
corrects for the clip.  In a forbidden segment the barrier is appended
directly with weight f(d).  After each interior barrier the ensemble is
systematically resampled.  The final open segment carries unit weights and is
not resampled.  ``run_barriers`` owns the run: it proposes every segment,
scores each child, draws the open tail, collects each barrier's diagnostics
row and returns the ``EnsembleResult``.  The filter and the beam baseline
(``ppsmc.beam``) differ only in their selection rule: the filter resamples
by barrier weight, the beam keeps the best path log probabilities.

A lane is one child at one barrier: a particle, or a beam candidate.  Every
model is walked by one grouped walk (``_Walk``): lanes in equal states draw
their gaps together through their law's ``draws``, from uniforms taken in
order from their Philox blocks (``rng.block``), the draws their ``stream()``
would give.  Paths are stored as each barrier's segments plus the indices of
the children kept (Jacob, Murray & Rubenthaler 2015, "Path storage in the
particle filter"), and each sample is built once, at the end.

All randomness is drawn from per-(barrier, particle) Philox streams derived
from one master seed, so a run is a deterministic function of its seed.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import models
from .errors import IterationLimitError
from .models import (InterArrivalDistribution, RenewalModel, SequenceModel, _log_density,
                     trim_at_horizon)
from .rng import KIND_PROPOSAL, KIND_RESAMPLE, block, doubles

FORMAT_VERSION = 1


@dataclass(frozen=True)
class ConstraintSet:
    """Required event times plus per-gap freedom flags.

    ``b[i]`` governs the open interval after ``z[i]``: True allows free
    events between z_i and the next constraint (or the horizon for the last
    flag), False forbids them.
    """

    z: tuple
    b: tuple

    def __post_init__(self):
        z = tuple(self.z)
        b = tuple(bool(v) for v in self.b)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "b", b)
        if len(z) != len(b):
            raise ValueError(f"expected one flag per constraint, got {len(z)} times and {len(b)} flags")
        for i, t in enumerate(z):
            if isinstance(t, float) and not math.isfinite(t):
                raise ValueError(f"constraint time must be finite, got {t!r}")
            if t <= (z[i - 1] if i else 0):
                raise ValueError("constraint times must be strictly increasing and positive")

    @property
    def r(self) -> int:
        return len(self.z)

    def to_dict(self) -> dict:
        return {"version": FORMAT_VERSION, "z": list(self.z), "b": list(self.b)}

    @classmethod
    def from_dict(cls, d: dict) -> "ConstraintSet":
        """Parse a decoded constraint file; ValueError on any malformed field."""
        if not isinstance(d, dict):
            raise ValueError(f"constraints must be a JSON object, got {type(d).__name__}")
        version = d.get("version", 1)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported constraint file version: {version}")
        z, b = d.get("z"), d.get("b")
        if not isinstance(z, list) or not all(
                isinstance(t, numbers.Real) and not isinstance(t, bool) for t in z):
            raise ValueError("constraint field 'z' is missing or not a list of numbers")
        if not isinstance(b, list) or not all(isinstance(v, bool) for v in b):
            raise ValueError("constraint field 'b' is missing or not a list of booleans")
        return cls(z=tuple(z), b=tuple(b))


def read_constraint_file(path) -> tuple[ConstraintSet, dict]:
    """Load a constraint file, returning the core set plus any extra fields
    (e.g. a conditioning prefix or a horizon recorded by extraction)."""
    payload = json.loads(Path(path).read_text())
    return ConstraintSet.from_dict(payload), payload


def satisfies(seq: Sequence[float], constraints: ConstraintSet) -> bool:
    """Exact indicator: every z present, no events inside forbidden gaps."""
    present = set(seq)
    if any(z not in present for z in constraints.z):
        return False
    zs = constraints.z
    for i, allowed in enumerate(constraints.b):
        if allowed:
            continue
        lo = zs[i]
        hi = zs[i + 1] if i + 1 < len(zs) else math.inf
        if any(lo < t < hi for t in seq):
            return False
    return True


@dataclass(frozen=True)
class BarrierDiagnostics:
    barrier_index: int  # 1-based
    ess: float
    min_weight: float
    max_weight: float
    dead_count: int

    to_dict = asdict


@dataclass
class EnsembleResult:
    samples: list
    survived: bool
    failed_barrier: int | None
    diagnostics: list
    log_probs: list | None = field(default=None)  # filled by beam search


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


def _checked(weights: Sequence[float]) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    bad = ~(np.isfinite(w) & (w >= 0))
    if bad.any():
        raise ValueError(f"weights must be finite and non-negative, got {float(w[bad.argmax()])!r}")
    return w


def effective_sample_size(weights: Sequence[float]) -> float:
    """(sum w)^2 / sum(w^2); ranges from 1 (degenerate) to len(weights).

    Both sums are cumulative sums, which add left to right and so round as a
    Python loop does (``np.sum`` adds pairwise and does not).  When every
    square underflows to 0 the ratio is taken on ``w / max(w)`` instead, which
    it does not depend on in exact arithmetic.
    """
    w = _checked(weights)
    if not w.any():
        raise ValueError("all weights are zero")
    with np.errstate(over="ignore"):  # squares may overflow to inf, as in a loop
        total_sq = float(np.cumsum(w * w)[-1])
        if total_sq == 0.0:
            w = w / w.max()
            total_sq = float(np.cumsum(w * w)[-1])
        total = float(np.cumsum(w)[-1])
    return total * total / total_sq


def systematic_indices(weights: Sequence[float], u: float) -> tuple[int, ...]:
    """Offspring indices for systematic resampling at offset u in (0, 1].

    One deterministic pass: the l-th of S evenly spaced pointers
    (u + l)/S picks the first index whose cumulative normalized weight
    reaches it.  Uniform weights reproduce the identity; every index's
    offspring count differs from S*w_normalized by strictly less than 1.

    Each pick is the one exact arithmetic makes, so neither guarantee can
    flip on an unlucky rounding boundary.  A numpy pass picks index k for
    pointer p_l = (u + l)·T/S by searching the float cumsum, and its pick is
    kept only when every pointer clears both neighbouring boundaries by more
    than B = 2(S + 2)·eps·T̂; otherwise the exact-integer pass decides.  The
    bound: with unit roundoff eps/2 and nonnegative weights, the sequential
    cumsum ĉ_j is off its exact c_j by at most j·(eps/2)·c_j/(1 - j·eps/2)
    (sums that underflow into subnormals are exact), so by at most about
    S·(eps/2)·T, and so is the float total T̂ from T.  The pointer
    fl(fl(u + l)·fl(T̂/S)) adds three roundings, under 2·eps·T̂, and, if it
    underflows, at most (S + 1)·2**-1075, which is below (S + 1)·(eps/2)·T̂
    once T̂ is a normal float.  So ĉ_j - p̂_l is within (3S/2 + 3)·eps·T̂ of
    c_j - p_l, and a gap computed above B (itself rounded by at most eps/2)
    has the sign of the exact one.  A total that is not a finite normal
    float, and any pointer closer than B to a boundary (uniform weights at
    u = 1 put every pointer on one), take the exact pass.
    """
    w = _checked(weights)
    if not (0.0 < u <= 1.0):
        raise ValueError(f"offset u must lie in (0, 1], got {u!r}")
    n = len(w)
    with np.errstate(over="ignore"):  # an infinite total takes the exact pass
        cum = np.cumsum(w)
    if n == 0 or cum[-1] == 0:
        raise ValueError("all weights are zero")

    total = float(cum[-1])
    if sys.float_info.min <= total < math.inf:
        pointers = (u + np.arange(n)) * (total / n)
        picks = np.minimum(np.searchsorted(cum, pointers), n - 1)
        # edges[k] and edges[k + 1] bound pick k: the cumsum before it, or
        # -inf, and its own, or +inf for the last index, which the pass
        # takes whenever no earlier boundary reaches the pointer
        edges = np.concatenate(((-math.inf,), cum[:-1], (math.inf,)))
        bound = 2 * (n + 2) * sys.float_info.epsilon * total
        if min((pointers - edges[picks]).min(), (edges[picks + 1] - pointers).min()) > bound:
            return tuple(picks.tolist())
    return _exact_systematic_indices(w.tolist(), u)


def _exact_systematic_indices(weights: list[float], u: float) -> tuple[int, ...]:
    """``systematic_indices`` for checked weights, compared in exact integer
    arithmetic: floats decompose losslessly via as_integer_ratio."""
    n = len(weights)
    ratios = [w.as_integer_ratio() for w in weights]
    scale = max(den for _, den in ratios)  # dens are powers of two
    scaled = [num * (scale // den) for num, den in ratios]
    total = sum(scaled)

    # Pointer l sits at mass (u + l) * total / n; with u = p/q the
    # comparison n*cum < (u + l) * total becomes q*n*cum < (p + l*q) * total.
    p, q = u.as_integer_ratio()
    out = []
    j = 0
    cum = q * n * scaled[0]
    step = q * n
    for l in range(n):
        pointer = (p + l * q) * total
        while cum < pointer and j < n - 1:
            j += 1
            cum += step * scaled[j]
        out.append(j)
    return tuple(out)


# keys per Philox block call: a call costs ~0.5 ms however few its keys, so
# the first blocks of several barriers are drawn at once
_BLOCK_KEYS = 4096
# gaps a renewal lane draws one at a time before it draws runs of them,
# each as long as all before it, up to _MAX_RUN gaps per step in all
_SINGLE_STEPS = 4
_MAX_RUN = 1 << 16


class _Lane:
    """One lane as a generator: ``random()`` draws its next uniform."""

    def __init__(self, key: tuple, at: int):
        self.key, self.at, self.used, self.words = key, at, 0, {}

    def random(self) -> float:
        n, self.used = self.at + self.used, self.used + 1
        if n >> 2 not in self.words:
            self.words[n >> 2] = doubles(block(*self.key, (n >> 2) + 1)).tolist()
        return self.words[n >> 2][n & 3]


class _Walk:
    """The paths of one run, and the times their children appended.

    The lanes of a level (a barrier or the open tail) step together: at each
    step the lanes still short of the barrier are grouped by state, and each
    group's law draws a gap per lane from the lanes' next uniforms.  Lane l's
    uniforms at barrier i are the doubles of its blocks (seed, KIND_PROPOSAL,
    i, l) at counters 1, 2, 3, ...; the first blocks are drawn ahead for
    several barriers at once, later ones when a lane gets to them.  States
    are interned, so equal states are one object and one group, and
    ``advance`` runs once per distinct (state, time) pair.  A model whose
    ``advance`` is ``RenewalModel``'s keeps its first state, and after
    ``_SINGLE_STEPS`` gaps a lane whose law samples through its quantile
    draws runs of gaps, so a million events take a few dozen steps.

    A level is stored as its free times (those short of the barrier) in lane
    order, and where each child's begin, one more entry for the end; the
    barrier itself, the z object, is put back when ``_rows`` builds samples.
    """

    def __init__(self, model, law, seed, horizon, score, width, lanes, levels):
        self.model, self.seed, self.horizon, self.score = model, seed, horizon, score
        self.fixed = type(model).advance is RenewalModel.advance
        self.table, self.index = [], {}
        self.sids = np.full(width, self._intern(law))  # each path's state
        self.runs = (self.fixed and law.draw_width == 1
                     and type(law).draws is InterArrivalDistribution.draws)
        self.blocks = min(4, (law.draw_width + 6) // 4)  # drawn ahead: a draw fits at any offset
        self.lanes, self.n_levels = lanes, levels
        self.levels = []
        self._ahead = {}  # barrier index: its lanes' first blocks

    def _intern(self, state) -> int:
        """The id of the state equal to ``state`` (the same object if unhashable)."""
        key = state if type(state).__hash__ is not None else ("id", id(state))
        sid = self.index.get(key)
        if sid is None:
            sid = self.index[key] = len(self.table)
            self.table.append(state)
        return sid

    def _uniforms(self, i: int, lanes: np.ndarray, at: np.ndarray, w: int) -> np.ndarray:
        """Each lane's next ``w`` uniforms at barrier i, from uniform ``at`` on."""
        if i not in self._ahead:
            k = self.blocks
            barriers = np.arange(i, min(i + max(1, _BLOCK_KEYS // (k * self.lanes)), self.n_levels))
            words = block(self.seed, KIND_PROPOSAL, barriers[:, None, None],
                          np.arange(self.lanes)[:, None], np.arange(1, k + 1))
            self._ahead = dict(zip(barriers.tolist(),
                                   doubles(words).reshape(len(barriers), self.lanes, 4 * k)))
        u = self._ahead[i]
        if at.max() + w > u.shape[1]:  # past the blocks drawn ahead: drawn for this step
            words = block(self.seed, KIND_PROPOSAL, i, lanes[:, None],
                          (at >> 2)[:, None] + np.arange(1, (w + 6) // 4 + 1))
            u, lanes, at = doubles(words).reshape(len(lanes), -1), np.arange(len(lanes)), at & 3
        return u[lanes[:, None], at[:, None] + np.arange(w)]

    def propose(self, i, last, z, b_prev, branching):
        """Every child's segment from ``last`` to barrier ``z`` (math.inf for
        the open tail).  With ``score``, returns each child's log densities of
        the times it appended; else the distinct (state, final gap) pairs of
        the children, or None for the open tail."""
        n = len(self.sids) * branching
        sids = self.level_sids = self.sids.repeat(branching)
        if not b_prev:  # the barrier is appended directly
            self.levels.append(_by_lane([], n))
            ends = self._pairs(sids, np.full(n, z - last))
            return [[lp] for lp in self._log_densities(*ends).tolist()] if self.score else ends
        stop, clip = min(z, self.horizon), z < math.inf  # a lane walks while below both
        pos = np.full(n, last)  # each lane's last time
        at = np.zeros(n, dtype=np.int64)  # and its next uniform
        active = np.arange(n if last < stop else 0)
        times, logs, drawn = [], [], 0  # what each step appended; gaps each active lane drew
        while active.size:
            s_act = sids[active]
            bounds = [0, len(active)]
            if not self.fixed:  # group the lanes by state
                order = s_act.argsort(kind="stable")
                active, s_act = active[order], s_act[order]
                bounds[1:1] = ((s_act[1:] != s_act[:-1]).nonzero()[0] + 1).tolist()
            groups = [(self.table[s], a, b)
                      for s, a, b in zip(s_act[bounds[:-1]].tolist(), bounds, bounds[1:])]
            count = 1  # gaps each lane draws this step
            if self.runs and drawn >= _SINGLE_STEPS:
                count = min(drawn, max(1, _MAX_RUN // len(active)), models.MAX_EVENTS - drawn)
            u = self._uniforms(i, active, at[active],
                               max(count, *(law.draw_width for law, _, _ in groups)))
            parts = []
            for law, a, b in groups:
                lanes = active[a:b]
                d, used = law.draws(u[a:b, :count if self.runs else law.draw_width],
                                    lambda lanes=lanes: self._lanes(i, lanes, at[lanes]))
                at[lanes] += used
                parts.append(d)
            d, prev = parts[0] if len(parts) == 1 else np.concatenate(parts), pos[active]
            if count == 1:  # one time per lane
                t = prev + d
                going = t < stop  # a nan time ends a lane too
                t_last, end, entry_lanes, entry_states = t[going], ~going, active, s_act
            else:  # a run: each lane's times up to the one that ends it
                path = np.cumsum(np.hstack((prev[:, None], d)), axis=1)
                below = path[:, 1:] < stop
                going = below.all(axis=1)
                first = np.where(going, count, (~below).argmax(axis=1))
                rows, k = (np.arange(count) <= first[:, None]).nonzero()
                stopped, t_last = ~going, path[going, -1]
                d, prev, t, end = d[rows, k], path[rows, k], path[rows, k + 1], k == first[rows]
                entry_lanes, entry_states = active[rows], s_act[rows]
            if np.count_nonzero(d <= 0):
                raise ValueError(f"model produced a non-positive gap: {d[d <= 0][0].item()!r}")
            if t.dtype != pos.dtype:
                pos = pos.astype(t.dtype)
            if count > 1:  # the time before its last gives a stopped lane's final gap
                pos[active[stopped]] = path[stopped, first[stopped]]
            active, drawn = active[going], drawn + count
            pos[active] = t_last
            if not clip and t.dtype.kind == "f":  # as in propose_segment, a nan time becomes z
                t = np.where(t < z, t, z)
            if clip:  # the free times; with one time per lane, those of the lanes going on
                times.append((active, t_last) if count == 1 else (entry_lanes[~end], t[~end]))
            else:
                times.append((entry_lanes, t))
            if self.score:
                logs.append((entry_lanes, entry_states,
                             np.where(end, z - prev, t - prev) if clip else t - prev))
            if active.size and drawn >= models.MAX_EVENTS:
                target = f"barrier {z!r}" if clip else f"horizon {self.horizon!r}"
                raise IterationLimitError(f"segment did not reach {target} within "
                                          f"{models.MAX_EVENTS} draws")
            if not self.fixed and active.size:
                grown, index = {}, []
                for s, time in zip(s_act[going].tolist(), t_last.tolist()):
                    if (s, time) not in grown:
                        grown[s, time] = self._intern(self.model.advance(self.table[s], time))
                    index.append(grown[s, time])
                sids[active] = index
        self.levels.append(_by_lane(times, n))
        if self.score:
            return self._steps(logs, n)
        return self._pairs(sids, z - pos) if clip else None  # the tail's final gaps are not used

    def _lanes(self, i: int, lanes: np.ndarray, at: np.ndarray) -> list:
        return [_Lane((self.seed, KIND_PROPOSAL, i, lane), n)
                for lane, n in zip(lanes.tolist(), at.tolist())]

    def _pairs(self, sids: np.ndarray, values: np.ndarray) -> tuple[list, list, np.ndarray]:
        """The distinct (state, value) pairs of some lanes, as their laws and
        values, and the index of each lane's pair."""
        values, which = np.unique(values, return_inverse=True)
        if sids.min() == sids.max():
            return [self.table[sids[0]]] * len(values), values.tolist(), which
        _, first, pair = np.unique(sids * len(values) + which, return_index=True,
                                   return_inverse=True)
        return [self.table[s] for s in sids[first].tolist()], values[which[first]].tolist(), pair

    @staticmethod
    def _log_densities(laws: list, values: list, which: np.ndarray) -> np.ndarray:
        return np.array(list(map(_log_density, laws, values)), dtype=float)[which]

    def _steps(self, logs: list, n: int) -> list:
        """Each lane's log densities of the times it appended, in order, each
        computed once per distinct (state, step)."""
        if not logs:
            return [[] for _ in range(n)]
        states, steps, begin = _by_lane(logs, n)
        flat, begin = self._log_densities(*self._pairs(states, steps)).tolist(), begin.tolist()
        return [flat[a:b] for a, b in zip(begin, begin[1:])]

    def keep(self, kept, z) -> None:
        """Advance the state of each kept child past the barrier, once per
        distinct state; the copies of a child share that state."""
        if self.fixed:  # every lane keeps the first state
            self.sids = np.zeros(len(kept), dtype=np.int64)
            return
        sids = self.level_sids.tolist()
        grown = {s: self._intern(self.model.advance(self.table[s], z))
                 for s in dict.fromkeys(sids[k] for k in kept)}
        self.sids = np.array([grown[sids[k]] for k in kept])


def _by_lane(entries: list, n: int) -> tuple:
    """The columns each step appended after its lanes, in lane order (each
    lane's steps in order), and where each lane's entries begin."""
    if not entries:
        entries = [(np.empty(0, dtype=np.int64), np.empty(0))]
    lanes, *columns = (np.concatenate(column) for column in zip(*entries))
    order = lanes.argsort(kind="stable")
    begin = np.concatenate(([0], np.bincount(lanes, minlength=n).cumsum()))
    return (*(c[order] for c in columns), begin)


def _rows(levels: list, picks: list, history: list, zs: tuple) -> Iterator[list]:
    """Each path's times: its history, then at every level the free times of
    the child ``picks`` names there and, at a barrier, the barrier's z."""
    counts = [begin[k + 1] - begin[k] for (_, begin), k in zip(levels, picks)]
    sizes = sum(counts) + len(zs)
    ends = np.cumsum(sizes)
    at = ends - sizes  # where each path's next time goes
    out = np.empty(ends[-1], dtype=object)
    for i, ((values, begin), k, n) in enumerate(zip(levels, picks, counts)):
        out[_spans(at, n)] = values[_spans(begin[k], n)]
        at = at + n
        if i < len(zs):
            out[at] = zs[i]
            at = at + 1
    bounds = [0, *ends.tolist()]
    return (history + out[a:b].tolist() for a, b in zip(bounds, bounds[1:]))


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices start, start + 1, ..., start + length - 1 of every span, in order."""
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


def run_barriers(model: SequenceModel, constraints: ConstraintSet, seed: int,
                 width: int, select: Callable, *, horizon: float,
                 initial_history: Sequence[float], branching: int = 1,
                 score: bool = False) -> EnsembleResult:
    """Extend ``width`` copies of the history barrier by barrier and return
    the run's ``EnsembleResult``; the loop shared by the filter and the beam.

    A path is its times, the model state after them and, if ``score``, its
    fold: the log probability of its times past the history, added left to
    right.  At barrier i (0-based) path t spawns ``branching`` children;
    child j draws its segment from the stream (seed, KIND_PROPOSAL, i,
    t*branching + j).  ``select(i, values)`` gets one value per child, in
    lane order: with ``score``, the fold of the child's path (its parent's
    fold, then the log density of each time it appended); else its
    ``barrier_weight``, computed once per distinct (law, final gap) pair.  It
    returns ``(kept, row)``: the indices of the children that become the
    next paths, possibly repeated, or None when none can continue (the run
    then fails at barrier i + 1), and the barrier's diagnostics row.  Only
    the states of kept children are advanced past the barrier, once per
    distinct state, so a dead child clipped at a time the model cannot reach
    is never stepped into.  If b_r is True, path t finally draws its open
    tail to the horizon from stream (seed, KIND_PROPOSAL, r, t).  Each sample
    is then built once, by following its kept indices back through the
    barriers.  With ``score``, ``log_probs`` holds each sample's fold,
    continued through the tail times it keeps.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    start = initial_history[-1] if len(initial_history) else 0.0
    if constraints.z:
        if constraints.z[0] <= start:
            raise ValueError(f"first constraint {constraints.z[0]!r} does not lie beyond "
                             f"the history end {start!r}")
        if constraints.z[-1] > horizon:
            raise ValueError(f"constraint {constraints.z[-1]!r} lies beyond the horizon {horizon!r}")
    flags = [True, *constraints.b]
    law = model.initial_state(initial_history)
    walk = _Walk(model, law, seed, horizon, score, width, width * branching, constraints.r + 1)
    folds = [0.0] * width
    lineage = []  # each level's kept child indices and branching
    diagnostics = []
    last = start
    for i, z in enumerate(constraints.z):
        proposed = walk.propose(i, last, z, flags[i], branching)
        if score:
            values = [sum(steps, folds[k // branching]) for k, steps in enumerate(proposed)]
        else:
            laws, gaps, which = proposed
            values = np.array(list(map(barrier_weight, laws, gaps, repeat(flags[i]))),
                              dtype=float)[which]
        kept, row = select(i, values)
        diagnostics.append(row)
        if kept is None:
            return EnsembleResult(samples=[], survived=False, failed_barrier=i + 1,
                                  diagnostics=diagnostics)
        walk.keep(kept, z)
        if score:
            folds = [values[k] for k in kept]
        lineage.append((np.asarray(kept), branching))
        last = z

    if flags[-1]:
        tails = walk.propose(constraints.r, last, math.inf, True, 1)
        lineage.append((np.arange(len(walk.sids)), 1))
    paths = np.arange(len(lineage[-1][0]))  # the final paths
    picks = []
    for kept, b in reversed(lineage):
        picks.append(kept[paths])
        paths = picks[-1] // b
    samples, log_probs = [], [] if score else None
    for p, row in enumerate(_rows(walk.levels, picks[::-1], list(initial_history),
                                  constraints.z)):
        n = len(row)
        if flags[-1]:  # the tail started below the horizon, so it drops only its own times
            trim_at_horizon(row, horizon)
        samples.append(tuple(row))
        if score:
            tail = tails[p] if flags[-1] else []
            log_probs.append(sum(tail[:len(tail) - (n - len(row))], folds[p]))
    return EnsembleResult(samples=samples, survived=True, failed_barrier=None,
                          diagnostics=diagnostics, log_probs=log_probs)


def conditional_sample(model: SequenceModel, constraints: ConstraintSet,
                       num_particles: int, seed: int, *,
                       horizon: float = 1.0,
                       initial_history: Sequence[float] = ()) -> EnsembleResult:
    """Run the particle filter; returns S approximate conditional samples.

    ``survived`` is False when every particle weighted zero at some barrier;
    ``failed_barrier`` then holds its 1-based index and ``samples`` is empty.
    The result is a deterministic function of (model, constraints, seed,
    horizon, initial history).
    """
    if num_particles < 1:
        raise ValueError("need at least one particle")

    # each barrier's resampling offset, in (0, 1]: the first uniform of its stream
    offsets = 1.0 - doubles(block(seed, KIND_RESAMPLE, np.arange(constraints.r), 0))[:, 0]

    def resample(i, weights):
        dead = int(np.count_nonzero(weights == 0))
        alive = dead < num_particles
        row = BarrierDiagnostics(
            barrier_index=i + 1, ess=effective_sample_size(weights) if alive else 0.0,
            min_weight=float(weights.min()), max_weight=float(weights.max()), dead_count=dead)
        kept = systematic_indices(weights, float(offsets[i])) if alive else None
        return kept, row

    return run_barriers(model, constraints, seed, num_particles, resample,
                        horizon=horizon, initial_history=initial_history)
