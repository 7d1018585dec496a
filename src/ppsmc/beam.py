"""Stochastic beam search over the same barrier decomposition.

Instead of weighting and resampling, each of f kept trajectories spawns b
sampled continuations per barrier; the b*f candidates are ranked by their
cumulative model log-probability from the start of the sequence (no length
normalization) and the top f survive.  Selection maximizes likelihood, so the
output concentrates on high-probability sequences rather than approximating
the conditional law.  Each candidate is scored in the walk that proposes it
(``run_barriers`` with ``score``), so no model state is walked twice.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .models import SequenceModel
from .smc import ConstraintSet, EnsembleResult, run_barriers


@dataclass(frozen=True)
class BeamBarrierDiagnostics:
    barrier_index: int  # 1-based
    explored: int       # candidates considered at this barrier (= b*f)
    kept_min_logprob: float
    kept_max_logprob: float
    discarded_max_logprob: float  # -inf when nothing was discarded

    to_dict = asdict


def beam_search_sample(model: SequenceModel, constraints: ConstraintSet,
                       b: int, f: int, seed: int, *,
                       horizon: float = 1.0,
                       initial_history: Sequence[float] = ()) -> EnsembleResult:
    """Sample constraint-satisfying sequences by likelihood-ranked search.

    Returns the kept trajectories (f of them, fewer if not that many remained
    viable) in rank order, ties broken by lower trajectory index, with their
    total model log-probabilities in ``log_probs``.  ``survived`` is False
    when every candidate at some barrier scored -inf, i.e. every trajectory
    was forced through a zero-probability event.
    """
    if b < 1 or f < 1:
        raise ValueError("b and f must be at least 1")
    # scores of the kept paths, which start as f copies of the prefix so that
    # every barrier explores b*f candidates
    kept_lps = [0.0] * f

    def keep_best(i, b_prev, parents, ends, steps):
        nonlocal kept_lps
        scores = [kept_lps[t] + sum(lane) for t, lane in zip(parents, steps)]
        order = sorted(range(len(scores)), key=lambda k: -scores[k])
        # a -inf candidate was forced through a zero-probability event; it is
        # not a viable trajectory, so it never enters the kept set
        viable = [k for k in order if scores[k] > -math.inf]
        kept = viable[:f]
        kept_lps = [scores[k] for k in kept]
        row = BeamBarrierDiagnostics(
            barrier_index=i + 1, explored=len(scores),
            kept_min_logprob=min(kept_lps, default=-math.inf),
            kept_max_logprob=max(kept_lps, default=-math.inf),
            discarded_max_logprob=max((scores[k] for k in viable[f:]), default=-math.inf))
        return kept or None, row

    return run_barriers(model, constraints, seed, f, keep_best, branching=b, score=True,
                        horizon=horizon, initial_history=initial_history)
