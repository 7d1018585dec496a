"""The per-lane reference walk: every lane walked by ``propose_segment`` on its own ``stream()``.

``_run`` here is the barrier loop of one run as it was before lanes were
grouped by state and runs walked together (``run_barriers`` makes each
seed's run with it in turn): path t's one child at barrier i proposes its
segment on stream (seed, KIND_PROPOSAL, i, t), each kept child is advanced
past the barrier on its own, and each path carries its whole list of times
and its fold.
``conditional_sample`` and ``beam_search_sample`` run the two samplers on
it, the filter drawing its resampling offset from stream (seed,
KIND_RESAMPLE, i).  The grouped walk of ``ppsmc.smc`` must give the same
bytes.
"""

from __future__ import annotations

import math
from functools import partial

from ppsmc import beam as beam_module
from ppsmc.models import barrier_weight, propose_segment, trim_at_horizon
from ppsmc.rng import KIND_PROPOSAL, KIND_RESAMPLE, stream
from ppsmc.smc import (BarrierDiagnostics, EnsembleResult, effective_sample_size,
                       systematic_indices)


def _segment(model, state, last, z, b_prev, rng, horizon, score):
    """``propose_segment`` and, if ``score``, each appended time's log density
    under the law it was drawn from: the state before the segment, advanced
    by every time but the last."""
    segment, gap, law = propose_segment(model, state, last, z, b_prev, rng, horizon=horizon)
    steps = []
    for k, t in enumerate(segment if score else ()):
        if k:
            state = model.advance(state, segment[k - 1])
        steps.append(state.log_pdf(t - (segment[k - 1] if k else last)))
    return segment, gap, law, steps


def run_barriers(model, constraints, seeds, width, select, **kwargs):
    """Each seed's run on its own, its ``select`` told the seed's index."""
    return (_run(model, constraints, seed, width, partial(select, k), **kwargs)
            for k, seed in enumerate(seeds))


def _run(model, constraints, seed, width, select, *, horizon, initial_history, score=False):
    flags = [True, *constraints.b]
    paths = [(list(initial_history), model.initial_state(initial_history), 0.0)] * width
    diagnostics = []
    for i, z in enumerate(constraints.z):
        children = []
        for t, (seq, state, _) in enumerate(paths):
            rng = stream(seed, KIND_PROPOSAL, i, t)
            children.append((t, *_segment(model, state, seq[-1] if seq else 0.0, z, flags[i],
                                          rng, horizon, score)))
        if score:  # each child's path log probability
            values = [sum(steps, paths[t][2]) for t, _, _, _, steps in children]
        else:  # each child's barrier weight
            values = [barrier_weight(law, gap, flags[i]) for _, _, gap, law, _ in children]
        kept, row = select(i, values)
        diagnostics.append(row)
        if kept is None:
            return EnsembleResult(samples=[], survived=False, failed_barrier=i + 1,
                                  diagnostics=diagnostics)
        grown = {}
        for k in dict.fromkeys(kept):
            t, seg, _, law, _ = children[k]
            grown[k] = (paths[t][0] + seg, model.advance(law, z), values[k] if score else None)
        paths = [grown[k] for k in kept]
    samples, log_probs = [], []
    for t, (seq, state, fold) in enumerate(paths):
        tail = []
        if flags[-1]:
            rng = stream(seed, KIND_PROPOSAL, constraints.r, t)
            seg, _, _, tail = _segment(model, state, seq[-1] if seq else 0.0, math.inf, True,
                                       rng, horizon, score)
            n = len(seq) + len(seg)
            seq = trim_at_horizon(seq + seg, horizon)
            tail = tail[:len(tail) - (n - len(seq))] if score else []
        samples.append(tuple(seq))
        log_probs.append(sum(tail, fold) if score else None)
    return EnsembleResult(samples=samples, survived=True, failed_barrier=None,
                          diagnostics=diagnostics, log_probs=log_probs if score else None)


def conditional_sample(model, constraints, num_particles, seed, *, horizon=1.0,
                       initial_history=()):
    def resample(i, weights):
        dead = sum(1 for w in weights if w == 0)
        alive = dead < num_particles
        row = BarrierDiagnostics(
            barrier_index=i + 1, ess=effective_sample_size(weights) if alive else 0.0,
            min_weight=float(min(weights)), max_weight=float(max(weights)), dead_count=dead)
        u = 1.0 - stream(seed, KIND_RESAMPLE, i).random()
        kept = systematic_indices(weights, u) if alive else None
        return kept, row

    return _run(model, constraints, seed, num_particles, resample,
                        horizon=horizon, initial_history=initial_history)


def beam_search_sample(model, constraints, b, f, seed, **kwargs):
    """``beam_search_sample``, its selection run on this walk."""
    real = beam_module.run_barriers
    beam_module.run_barriers = run_barriers
    try:
        return beam_module.beam_search_sample(model, constraints, b, f, seed, **kwargs)
    finally:
        beam_module.run_barriers = real
