"""The array walk of renewal models gives the bytes of the per-lane walk.

A renewal model whose law samples through its ``quantile`` is proposed as
arrays, its lanes' uniforms taken from Philox blocks; wrapped in a model that
only delegates to it, the same model is walked one lane at a time by
``propose_segment`` on ``stream()``.  Every run below is made both ways from
the same keys and must give the same ``EnsembleResult``, compared through
its repr so that a 1 that became 1.0 would show.
"""

from __future__ import annotations

import pytest

from ppsmc import smc
from ppsmc.beam import beam_search_sample
from ppsmc.models import (PoissonProcessModel, SequenceModel, UniformRenewalModel,
                          WeibullRenewalModel)
from ppsmc.smc import ConstraintSet, conditional_sample


class Delegating(SequenceModel):
    """The wrapped model's laws, under a type that is not a renewal model."""

    def __init__(self, inner):
        self.inner = inner

    def initial_state(self, history):
        return self.inner.initial_state(history)

    def advance(self, state, t):
        return self.inner.advance(state, t)


MODELS = {
    "poisson": PoissonProcessModel(rate=12.0),
    "weibull": WeibullRenewalModel(shape=1.5, scale=0.08),
    "uniform": UniformRenewalModel(0.02, 0.3),
}
# a forbidden segment after 0.3, a free one clipped at the integer barrier
# 1 and an open tail cut at the horizon; the walk from 0.55 to 1 needs more
# than 4 draws on many lanes
MIXED = ConstraintSet(z=(0.3, 0.55, 1, 1.4), b=(False, True, True, True)), {"horizon": 1.7}


def _same(text, other):
    """Whether two reprs are equal; the message names where they part, not a
    diff of megabyte strings."""
    at = next((k for k, (a, b) in enumerate(zip(text, other)) if a != b), min(len(text), len(other)))
    return text == other, f"the walks part at character {at}: {text[at - 40:at + 40]!r}"


def _run(model, sampler, size, seed, cs, kwargs):
    if sampler == "filter":
        result = conditional_sample(model, cs, size, seed, **kwargs)
    else:
        result = beam_search_sample(model, cs, 2, size, seed, **kwargs)
    return repr((result.survived, result.failed_barrier, result.samples, result.diagnostics,
                 result.log_probs)), result


@pytest.mark.parametrize("sampler", ["filter", "beam"])
@pytest.mark.parametrize("size", [1, 7, 1000])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_array_walk_equals_the_lane_walk(monkeypatch, name, size, sampler):
    model = MODELS[name]
    for wrapped, arrays in ((model, True), (Delegating(model), False)):
        walk = smc._Walk(wrapped, model.initial_state(()), 0, 1.0, False, 1, 1, 1)
        assert (walk.law is not None) == arrays
    walked = []  # (model, b_prev) of every lane walked on its stream
    real_propose = smc.propose_segment

    def propose(*args, **kwargs):
        walked.append((args[0], args[4]))
        return real_propose(*args, **kwargs)

    monkeypatch.setattr(smc, "propose_segment", propose)
    text, result = _run(model, sampler, size, 5 + size, *MIXED)
    if size == 1000:  # lanes that used up their block on a free segment
        assert (model, True) in walked
    walked.clear()
    same, where = _same(text, _run(Delegating(model), sampler, size, 5 + size, *MIXED)[0])
    assert same, where
    assert all(m is not model for m, _ in walked)
    assert result.survived
    for sample in result.samples:
        clipped = [t for t in sample if t == 1]
        assert clipped == [1] and type(clipped[0]) is int  # the barrier's own z
        assert sample[-1] <= 1.7
        assert all(not 0.3 < t < 0.55 for t in sample)


@pytest.mark.parametrize("sampler", ["filter", "beam"])
@pytest.mark.parametrize("size", [1, 7])
def test_a_dying_ensemble_dies_the_same_way(sampler, size):
    """Gaps of 0.01 to 0.02 need 5 to 10 draws to reach 0.1, where a
    clipped gap below 0.01 kills a lane, and the forced gap of 0.4 has no
    density, so every lane is dead by barrier 2."""
    model = UniformRenewalModel(0.01, 0.02)
    cs = ConstraintSet(z=(0.1, 0.5), b=(False, False))
    text, result = _run(model, sampler, size, 2, cs, {})
    assert not result.survived and result.failed_barrier in (1, 2)
    same, where = _same(text, _run(Delegating(model), sampler, size, 2, cs, {})[0])
    assert same, where


@pytest.mark.parametrize("sampler", ["filter", "beam"])
def test_an_unconstrained_run_from_a_history_matches(sampler):
    """No barriers: only the open tail, from an integer history end, cut at
    the horizon."""
    model = PoissonProcessModel(rate=4.0)
    cs = ConstraintSet(z=(), b=())
    kwargs = {"horizon": 2.5, "initial_history": (1, 2)}
    text, result = _run(model, sampler, 7, 3, cs, kwargs)
    assert all(s[:2] == (1, 2) and s[-1] <= 2.5 for s in result.samples)
    same, where = _same(text, _run(Delegating(model), sampler, 7, 3, cs, kwargs)[0])
    assert same, where
