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
not resampled.  ``run_barriers`` owns the run: it proposes every segment
(``models.propose_segment``), draws the open tail, collects each barrier's
diagnostics row and returns the ``EnsembleResult``.  The filter and the beam
baseline (``ppsmc.beam``) differ only in their selection step and ``score``.

All randomness is drawn from per-(barrier, particle) Philox streams derived
from one master seed, so a run is a deterministic function of its seed.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .models import InterArrivalDistribution, SequenceModel, _extend_to_horizon, propose_segment
from .rng import KIND_PROPOSAL, KIND_RESAMPLE, stream

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


def effective_sample_size(weights: Sequence[float]) -> float:
    """(sum w)^2 / sum(w^2); ranges from 1 (degenerate) to len(weights)."""
    total = 0.0
    total_sq = 0.0
    for w in weights:
        if not (w >= 0) or (isinstance(w, float) and not math.isfinite(w)):
            raise ValueError(f"weights must be finite and non-negative, got {w!r}")
        total += w
        total_sq += w * w
    if total == 0:
        raise ValueError("all weights are zero")
    return total * total / total_sq


def systematic_indices(weights: Sequence[float], u: float) -> tuple[int, ...]:
    """Offspring indices for systematic resampling at offset u in (0, 1].

    One deterministic pass: the l-th of S evenly spaced pointers
    (u + l)/S picks the first index whose cumulative normalized weight
    reaches it.  Uniform weights reproduce the identity; every index's
    offspring count differs from S*w_normalized by strictly less than 1.

    The pointer-vs-cumsum comparisons run in exact integer arithmetic
    (floats decompose losslessly via as_integer_ratio), so neither
    guarantee can flip on an unlucky rounding boundary — float
    accumulation absorbs a small enough u into the pointer positions.
    """
    n = len(weights)
    for w in weights:
        if not (w >= 0) or (isinstance(w, float) and not math.isfinite(w)):
            raise ValueError(f"weights must be finite and non-negative, got {w!r}")
    if not (0.0 < u <= 1.0):
        raise ValueError(f"offset u must lie in (0, 1], got {u!r}")

    ratios = [float(w).as_integer_ratio() for w in weights]
    scale = max(den for _, den in ratios)  # dens are powers of two
    scaled = [num * (scale // den) for num, den in ratios]
    total = sum(scaled)
    if total == 0:
        raise ValueError("all weights are zero")

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
    children)`` receives ``(t, seq, steps, gap, state)`` tuples: path t's
    times extended by the segment, the segment's log densities (None unless
    ``score``), and the final gap and the state it was drawn in.  It returns
    ``(kept, row)``: the indices of the children that become the next paths,
    or None when none can continue (the run then fails at barrier i + 1),
    and the barrier's diagnostics row.  Only kept children are advanced past
    the barrier, so a dead child clipped at a time the model cannot reach is
    never stepped into.  If b_r is True, path t finally draws its open tail
    to the horizon on stream (seed, KIND_PROPOSAL, r, t).  With ``score``,
    ``log_probs`` holds each sample's log probability past the history.
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
    paths = [(list(initial_history), model.initial_state(initial_history), 0.0)] * width
    diagnostics = []
    for i, z in enumerate(constraints.z):
        children = []
        for t, (seq, state, _) in enumerate(paths):
            for j in range(branching):
                g = stream(seed, KIND_PROPOSAL, i, t * branching + j)
                seg, gap, child_state, steps = propose_segment(
                    model, state, seq[-1] if seq else 0.0, z, flags[i], g, horizon=horizon, score=score)
                children.append((t, seq + seg, steps, gap, child_state))
        kept, row = select(i, flags[i], children)
        diagnostics.append(row)
        if kept is None:
            return EnsembleResult(samples=[], survived=False, failed_barrier=i + 1,
                                  diagnostics=diagnostics)
        paths = [(seq, model.advance(state, z), sum(steps, paths[t][2]) if score else None)
                 for t, seq, steps, _, state in (children[k] for k in kept)]

    tails = [_extend_to_horizon(model, state, seq, stream(seed, KIND_PROPOSAL, constraints.r, t),
                                horizon, score)
             if flags[-1] else (tuple(seq), ()) for t, (seq, state, _) in enumerate(paths)]
    log_probs = [sum(steps, fold) for (_, steps), (*_, fold) in zip(tails, paths)] if score else None
    return EnsembleResult(samples=[seq for seq, _ in tails], survived=True, failed_barrier=None,
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

    def resample(i, b_prev, children):
        weights = [barrier_weight(state, gap, b_prev) for *_, gap, state in children]
        dead = sum(1 for w in weights if w == 0)
        alive = dead < num_particles
        row = BarrierDiagnostics(
            barrier_index=i + 1, ess=effective_sample_size(weights) if alive else 0.0,
            min_weight=min(weights), max_weight=max(weights), dead_count=dead)
        kept = systematic_resample(weights, stream(seed, KIND_RESAMPLE, i)) if alive else None
        return kept, row

    return run_barriers(model, constraints, seed, num_particles, resample,
                        horizon=horizon, initial_history=initial_history)
