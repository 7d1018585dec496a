"""Stochastic beam search over the same barrier decomposition.

Instead of weighting and resampling, each of f kept trajectories spawns b
sampled continuations per barrier; the b*f candidates are ranked by their
cumulative model log-probability from the start of the sequence (no length
normalization) and the top f survive.  Selection maximizes likelihood, so the
output concentrates on high-probability sequences rather than approximating
the conditional law.  Each candidate is scored in the walk that proposes it
(``run_barriers`` with ``score``), so no model state is walked twice, and the
score ranked is the one reported.
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
    total model log-probabilities in ``log_probs``, each equal to
    ``log_probability(model, s[len(prefix):], prefix)`` bit for bit.  These
    are the scores ranked, so without an open tail (b_r False) they come in
    rank order; an open tail is drawn after the last ranking.  ``survived``
    is False when every candidate at some barrier scored -inf, i.e. every
    trajectory was forced through a zero-probability event.
    """
    if b < 1 or f < 1:
        raise ValueError("b and f must be at least 1")

    def keep_best(i, scores):
        order = sorted(range(len(scores)), key=lambda k: -scores[k])
        # a -inf candidate was forced through a zero-probability event; it is
        # not a viable trajectory, so it never enters the kept set
        viable = [k for k in order if scores[k] > -math.inf]
        kept = viable[:f]
        row = BeamBarrierDiagnostics(
            barrier_index=i + 1, explored=len(scores),
            kept_min_logprob=min((scores[k] for k in kept), default=-math.inf),
            kept_max_logprob=max((scores[k] for k in kept), default=-math.inf),
            discarded_max_logprob=max((scores[k] for k in viable[f:]), default=-math.inf))
        return kept or None, row

    # the kept paths start as f copies of the prefix, so that every barrier
    # explores b*f candidates
    return run_barriers(model, constraints, seed, f, keep_best, branching=b, score=True,
                        horizon=horizon, initial_history=initial_history)
