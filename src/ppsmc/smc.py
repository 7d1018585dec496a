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
draws the open tail, collects each barrier's diagnostics row and returns the
``EnsembleResult``.  The filter and the beam baseline (``ppsmc.beam``) differ
only in their selection step and ``score``.

A lane is one child at one barrier: a particle, or a beam candidate.  Lanes
are walked one of two ways, chosen from the model type.  A renewal model
whose law samples through its ``quantile`` (Poisson, Weibull, uniform) has
the free-segment lanes proposed at once as arrays, their uniforms taken from
Philox blocks (``rng.block``); every other lane, and any lane that needs more
draws than its block holds, is walked by ``models.propose_segment`` on its
own ``stream()``.  The two walks append the same times and give the same
bytes.  Paths are stored as each barrier's segments plus the indices of the
children kept (Jacob, Murray & Rubenthaler 2015, "Path storage in the
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

from .models import (InterArrivalDistribution, RenewalModel, SequenceModel, _log_density,
                     propose_segment, trim_at_horizon)
from .rng import KIND_PROPOSAL, KIND_RESAMPLE, block, doubles, stream

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
    Python loop does (``np.sum`` adds pairwise and does not).
    """
    w = _checked(weights)
    if not w.any():
        raise ValueError("all weights are zero")
    with np.errstate(over="ignore"):  # squares may overflow to inf, as in a loop
        total, total_sq = float(np.cumsum(w)[-1]), float(np.cumsum(w * w)[-1])
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


def systematic_resample(weights: Sequence[float], rng) -> tuple[int, ...]:
    """Draw the offset and return offspring indices (ascending)."""
    u = 1.0 - rng.random()  # in (0, 1]: keeps the offspring-count bound strict
    return systematic_indices(weights, u)


# keys per Philox block call: a call costs ~0.5 ms however few its keys, so
# the blocks of several barriers are drawn at once
_BLOCK_KEYS = 4096
# uniforms a lane takes from its block before it is walked on its stream()
_BLOCK_DRAWS = 4


class _Walk:
    """The paths of one run, and the times their children appended.

    A renewal model whose one law samples through its ``quantile`` (Poisson,
    Weibull, uniform) proposes the free segments of all its lanes at once:
    each lane takes its uniforms from its first Philox block, as arrays.
    Every other lane, among them every lane of any other model and every
    lane the block did not take to the barrier, is walked by
    ``propose_segment`` on its own ``stream()``, whose first draws are the
    block's, so a lane goes on exactly where its block stops.

    A level, one barrier or the open tail, is stored as its free times (the
    times its children appended short of the barrier) in lane order, and
    where each child's begin, one more entry for the end.  The barrier itself
    is put back, as the z object, when ``_rows`` builds the samples.
    """

    def __init__(self, model, law, seed, horizon, score, width, lanes, levels):
        self.model, self.seed, self.horizon, self.score = model, seed, horizon, score
        self.states = [law] * width
        arrays = (isinstance(model, RenewalModel) and type(model).advance is RenewalModel.advance
                  and type(law).sample is InterArrivalDistribution.sample)
        self.law = law if arrays else None
        self.lanes, self.n_levels = lanes, levels
        self.levels = []
        self._chunk = {}  # barrier index: its lanes' uniforms

    def _uniforms(self, i: int, n: int) -> np.ndarray:
        if i not in self._chunk:
            barriers = np.arange(i, min(i + max(1, _BLOCK_KEYS // self.lanes), self.n_levels))
            self._chunk = dict(zip(barriers.tolist(), doubles(
                block(self.seed, KIND_PROPOSAL, barriers[:, None], np.arange(self.lanes)))))
        return self._chunk[i][:n]

    def propose(self, i, last, z, b_prev, branching) -> tuple:
        """Every child's segment from ``last`` to barrier ``z`` (math.inf for
        the open tail); returns the columns ``select`` receives."""
        law, n = self.law, len(self.states) * branching
        gaps, counts, times, logs = np.empty(n), np.zeros(n, dtype=np.int32), [], []
        walked = range(n)
        if law is not None and b_prev:
            u = self._uniforms(i, n)
            stop = min(z, self.horizon)  # a lane walks while its last time is below both
            pos = np.full(n, float(last))
            active = np.arange(n)
            for k in range(_BLOCK_DRAWS):
                active = active[pos[active] < stop]
                if not active.size:
                    break
                d = np.array(list(map(law.quantile, u[active, k].tolist())), dtype=float)
                if (d <= 0).any():
                    raise ValueError(f"model produced a non-positive gap: {float(d[d <= 0][0])!r}")
                prev = pos[active]
                cand = prev + d
                pos[active] = new = np.where(cand < z, cand, float(z))
                gaps[active] = step = new - prev
                counts[active] += 1
                times.append(np.empty(n))
                times[-1][active] = new
                if self.score:  # each time's step, as propose_segment scores it
                    logs.append(np.empty(n))
                    logs[-1][active] = list(map(_log_density, repeat(law), step.tolist()))
            walked = np.flatnonzero(pos < stop).tolist()
        times = np.stack(times, axis=1) if times else np.empty((n, 0), dtype=object)
        gaps, laws = gaps.tolist(), [law] * n
        steps = [row[:c] for row, c in zip(np.stack(logs, axis=1).tolist() if logs else [[]] * n,
                                           counts.tolist())] if self.score else None
        segments = {lane: propose_segment(self.model, self.states[lane // branching], last, z,
                                          b_prev, stream(self.seed, KIND_PROPOSAL, i, lane),
                                          horizon=self.horizon, score=self.score)
                    for lane in walked}
        if segments:
            wide = max(len(seg) for seg, *_ in segments.values())
            times = np.pad(times, ((0, 0), (0, wide - times.shape[1])))
            for lane, (seg, gap, lane_law, lane_steps) in segments.items():
                times[lane, :len(seg)] = seg
                counts[lane], gaps[lane], laws[lane] = len(seg), gap, lane_law
                if self.score:
                    steps[lane] = lane_steps
        free = counts - (z < math.inf)  # a barrier's segment ends with its z
        self.levels.append((times[np.arange(times.shape[1]) < free[:, None]],
                            np.concatenate(([0], np.cumsum(free)))))
        return (np.arange(n) // branching).tolist(), gaps, laws, steps

    def keep(self, laws, kept, z) -> None:
        """Advance each distinct kept child past the barrier once; its copies
        share that state.  A renewal model's one law needs no step."""
        if self.law is not None:
            self.states = [self.law] * len(kept)
            return
        grown = {k: self.model.advance(laws[k], z) for k in dict.fromkeys(kept)}
        self.states = [grown[k] for k in kept]


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

    A path is its times, the model state after them and, if ``score``, the
    log probability of the times past the history.  At barrier i (0-based)
    path t spawns ``branching`` children; child j proposes its segment on
    stream (seed, KIND_PROPOSAL, i, t*branching + j).  ``select(i, b_prev,
    parents, gaps, laws, steps)`` receives, for every child in lane order,
    the index of the path it extends, its final gap, the law that gap was
    drawn from and, if ``score``, the log densities of the times it appended
    (else None), but no times.  It returns ``(kept, row)``: the indices of
    the children that become the next paths, possibly repeated, or None when
    none can continue (the run then fails at barrier i + 1), and the
    barrier's diagnostics row.  Only kept children are advanced past the
    barrier, once per distinct index, and the copies of one child share that
    state.  So a dead child clipped at a time the model cannot reach is
    never stepped into.  If b_r is True, path t finally draws its open tail
    to the horizon on stream (seed, KIND_PROPOSAL, r, t).  Each sample is
    then built once, by following its kept indices back through the
    barriers.  With ``score``, ``log_probs`` holds each sample's log
    probability past the history.
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
        parents, gaps, laws, steps = walk.propose(i, last, z, flags[i], branching)
        kept, row = select(i, flags[i], parents, gaps, laws, steps)
        diagnostics.append(row)
        if kept is None:
            return EnsembleResult(samples=[], survived=False, failed_barrier=i + 1,
                                  diagnostics=diagnostics)
        walk.keep(laws, kept, z)
        if score:
            folds = [sum(steps[k], folds[parents[k]]) for k in kept]
        lineage.append((np.asarray(kept), branching))
        last = z

    if flags[-1]:
        _, gaps, _, steps = walk.propose(constraints.r, last, math.inf, True, 1)
        lineage.append((np.arange(len(gaps)), 1))
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
            tail = steps[p] if flags[-1] else []
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

    def resample(i, b_prev, parents, gaps, laws, steps):
        weights = np.array(list(map(barrier_weight, laws, gaps, repeat(b_prev))), dtype=float)
        dead = int(np.count_nonzero(weights == 0))
        alive = dead < num_particles
        row = BarrierDiagnostics(
            barrier_index=i + 1, ess=effective_sample_size(weights) if alive else 0.0,
            min_weight=float(weights.min()), max_weight=float(weights.max()), dead_count=dead)
        kept = systematic_resample(weights, stream(seed, KIND_RESAMPLE, i)) if alive else None
        return kept, row

    return run_barriers(model, constraints, seed, num_particles, resample,
                        horizon=horizon, initial_history=initial_history)
