"""The grouped walk gives the bytes of the per-lane reference walk.

``run_barriers`` walks every lane of a level at once, grouped by state, its
uniforms taken from Philox blocks; ``lane_walk`` walks each lane on its own
``stream()`` with ``propose_segment``.  Every run below is made both ways
from the same keys and must give the same ``EnsembleResult``, compared
through its repr so that a 1 that became 1.0 would show.  The cases cover
every shipped model family, the music model at its full vocabulary too, a
model that only delegates to another (so that nothing keys on the model
type), a law with its own ``draws``, laws of two classes in one step, an
unhashable law whose every state is its own group, lanes that need a third
Philox block, lanes that draw runs of thousands of gaps, and renewal runs
whose chunk of barriers holds a failing row the run never reaches.  The walk
draws only through ``draws_many``; the lane walk draws through each law's
``sample``.
"""

from __future__ import annotations

from dataclasses import dataclass

import lane_walk
import pytest
from exact import order2_grid
from test_acceptance import tiny_music_model
from test_golden import long_prefix
from test_music_adapter import full_size_model

from ppsmc import models, rng
from ppsmc.beam import beam_search_sample
from ppsmc.models import (ExponentialGap, InterArrivalDistribution, PoissonProcessModel,
                          RenewalModel, SequenceModel, UniformGap, UniformRenewalModel,
                          WeibullRenewalModel)
from ppsmc.music.encoding import Vocabulary
from ppsmc.oracle import observed_constraints
from ppsmc.smc import ConstraintSet, conditional_sample


class Delegating(SequenceModel):
    """The wrapped model's laws, under a type that is not a renewal model."""

    def __init__(self, inner):
        self.inner = inner

    def initial_state(self, history):
        return self.inner.initial_state(history)

    def advance(self, state, t):
        return self.inner.advance(state, t)


class MaxOfTwo(InterArrivalDistribution):
    """A law of its own draw: the larger of two uniforms, scaled."""

    draw_width = 2

    def __init__(self, scale: float):
        self.scale = scale

    def sample(self, rng):
        return self.scale * max(rng.random(), rng.random())

    def draws(self, u):
        return self.scale * u[:, :2].max(axis=1), 2

    def pdf(self, d):
        return 2 * d / self.scale ** 2 if 0 <= d <= self.scale else 0.0

    def cdf(self, d):
        return min(max(d / self.scale, 0.0), 1.0) ** 2


@dataclass
class UnhashableGap(ExponentialGap):
    """An exponential law that is a plain dataclass, so ``__hash__`` is None."""

    rate: float


class Quickening(SequenceModel):
    """Exponential gaps whose rate grows by one with each event."""

    def initial_state(self, history):
        return UnhashableGap(10.0 + len(history))

    def advance(self, state, t):
        return UnhashableGap(state.rate + 1.0)


class Alternating(SequenceModel):
    """Laws of two classes, as the hundredths of the last time are odd or
    even, so a walk step holds lanes of both, of draw widths 2 and 1."""

    def initial_state(self, history):
        return UnhashableGap(10.0)

    def advance(self, state, t):
        return MaxOfTwo(0.1) if int(t * 100) % 2 else UnhashableGap(10.0)


MODELS = {
    "poisson": PoissonProcessModel(rate=12.0),
    "weibull": WeibullRenewalModel(shape=1.5, scale=0.08),
    "uniform": UniformRenewalModel(0.02, 0.3),
}
# a forbidden segment after 0.3, a free one clipped at the integer barrier
# 1 and an open tail cut at the horizon; the walk from 0.55 to 1 needs more
# than 8 draws, a third block, on many lanes
MIXED = ConstraintSet(z=(0.3, 0.55, 1, 1.4), b=(False, True, True, True)), {"horizon": 1.7}


def _same(text, other):
    """Whether two reprs are equal; the message names where they part, not a
    diff of megabyte strings."""
    at = next((k for k, (a, b) in enumerate(zip(text, other)) if a != b),
              min(len(text), len(other)))
    return text == other, f"the walks part at character {at}: {text[at - 40:at + 40]!r}"


def _text(result):
    return repr((result.survived, result.failed_barrier, result.samples, result.diagnostics,
                 result.log_probs))


def _both(model, sampler, size, seed, cs, kwargs):
    """The run's result, after checking that the reference walk gives its bytes."""
    if sampler == "filter":
        result = conditional_sample(model, cs, size, seed, **kwargs)
        reference = lane_walk.conditional_sample(model, cs, size, seed, **kwargs)
    else:
        result = beam_search_sample(model, cs, 2, size, seed, **kwargs)
        reference = lane_walk.beam_search_sample(model, cs, 2, size, seed, **kwargs)
    same, where = _same(_text(result), _text(reference))
    assert same, where
    return result


@pytest.mark.parametrize("sampler", ["filter", "beam"])
@pytest.mark.parametrize("size", [1, 7, 1000])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_array_walk_equals_the_lane_walk(name, size, sampler):
    model = MODELS[name]
    result = _both(model, sampler, size, 5 + size, *MIXED)
    _both(Delegating(model), sampler, size, 5 + size, *MIXED)
    assert result.survived
    for sample in result.samples:
        clipped = [t for t in sample if t == 1]
        assert clipped == [1] and type(clipped[0]) is int  # the barrier's own z
        assert sample[-1] <= 1.7
        assert all(not 0.3 < t < 0.55 for t in sample)
    if size == 1000 and name != "uniform":  # lanes that drew from their third block
        assert max(sum(0.55 < t < 1 for t in s) for s in result.samples) >= 8


@pytest.mark.parametrize("sampler", ["filter", "beam"])
@pytest.mark.parametrize("size", [1, 7])
def test_a_dying_ensemble_dies_the_same_way(sampler, size):
    """Gaps of 0.01 to 0.02 need 5 to 10 draws to reach 0.1, where a
    clipped gap below 0.01 kills a lane, and the forced gap of 0.4 has no
    density, so every lane is dead by barrier 2."""
    cs = ConstraintSet(z=(0.1, 0.5), b=(False, False))
    result = _both(UniformRenewalModel(0.01, 0.02), sampler, size, 2, cs, {})
    assert not result.survived and result.failed_barrier in (1, 2)


@pytest.mark.parametrize("sampler", ["filter", "beam"])
def test_an_unconstrained_run_from_a_history_matches(sampler):
    """No barriers: only the open tail, from an integer history end, cut at
    the horizon."""
    kwargs = {"horizon": 2.5, "initial_history": (1, 2)}
    result = _both(PoissonProcessModel(rate=4.0), sampler, 7, 3, ConstraintSet(z=(), b=()), kwargs)
    assert all(s[:2] == (1, 2) and s[-1] <= 2.5 for s in result.samples)


def _music(order):
    def problem():
        prefix = long_prefix(20)
        acts = Vocabulary(a_max=4, s_max=3).actions
        end = (prefix[-1] - 1) // acts
        cs = ConstraintSet(z=((end + 2) * acts + 1, (end + 4) * acts + 3, (end + 5) * acts + 2),
                           b=(True, False, True))
        return tiny_music_model(order), cs, {"horizon": (end + 7) * acts,
                                             "initial_history": tuple(prefix)}

    return problem


def _music_full_size():
    """An order-2 model at the default vocabulary: 256 actions and shifts of
    up to 2400 ticks, most of which the corpus never saw, so the contexts
    after them share one table, which lanes of many states search together."""
    model, pieces = full_size_model(33)
    prefix, acts = pieces[0][:40].tolist(), model.vocab.actions
    end = (prefix[-1] - 1) // acts
    cs = ConstraintSet(z=((end + 2) * acts + 1, (end + 4) * acts + 3, (end + 5) * acts + 2),
                       b=(True, False, True))
    return model, cs, {"horizon": (end + 9) * acts, "initial_history": tuple(prefix)}


FAMILIES = {  # name: a model, its constraints and keyword arguments
    "grid": lambda: (order2_grid(8), observed_constraints([1, 4, 6]), {"horizon": 8}),
    # a lane whose last cell is occupied draws its beyond-the-cells gap
    "grid-tail-past-the-cells": lambda: (order2_grid(8), observed_constraints([2]),
                                         {"horizon": 9}),
    # the open tail holds no cell time, so no lane appends a time there
    "grid-tail-without-cells": lambda: (order2_grid(8),
                                        ConstraintSet(z=(8,), b=(True,)), {"horizon": 8.5}),
    "music-order1": _music(1),
    "music-order2": _music(2),
    "music-order3": _music(3),
    "music-full-size": _music_full_size,
    "own-sample": lambda: (RenewalModel(MaxOfTwo(0.1)),
                           ConstraintSet(z=(0.3, 0.55, 1), b=(True,) * 3), {"horizon": 1.3}),
    "two-classes": lambda: (Alternating(), ConstraintSet(z=(0.3, 0.55, 1), b=(True,) * 3),
                            {"horizon": 1.3}),
    # equal states are distinct objects, interned by identity
    "unhashable": lambda: (Quickening(), ConstraintSet(z=(0.3, 0.55, 1), b=(True,) * 3),
                           {"horizon": 1.3}),
}


@pytest.mark.parametrize("sampler", ["filter", "beam"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_equals_the_lane_walk(name, sampler):
    model, cs, kwargs = FAMILIES[name]()
    for size in (1, 60):
        result = _both(model, sampler, size, 11 + size, cs, kwargs)
        _both(Delegating(model), sampler, size, 11 + size, cs, kwargs)
        assert result.survived


def test_a_law_with_neither_quantile_nor_draws_is_refused():
    class SampleOnly(InterArrivalDistribution):
        def sample(self, rng):
            return 0.1 * rng.random()

    cs = ConstraintSet(z=(0.5,), b=(True,))
    with pytest.raises(NotImplementedError, match=r"SampleOnly needs quantile\(u\) or its own "
                                                   r"draws\(u\)"):
        conditional_sample(RenewalModel(SampleOnly()), cs, 3, 1)


@pytest.mark.parametrize("sampler", ["filter", "beam"])
def test_runs_of_gaps_equal_the_lane_walk(sampler):
    """Thousands of events per lane and barrier: a renewal lane draws runs
    of gaps at once, whose sums must be the times the lane walk adds one by
    one."""
    cs = ConstraintSet(z=(0.5, 1.25), b=(True, True))
    result = _both(PoissonProcessModel(rate=4000.0), sampler, 3, 8, cs, {"horizon": 1.5})
    assert min(len(s) for s in result.samples) > 4000


def test_the_walk_raises_past_the_draw_limit(monkeypatch):
    monkeypatch.setattr(models, "MAX_EVENTS", 500)
    cs = ConstraintSet(z=(0.5,), b=(True,))
    with pytest.raises(models.IterationLimitError, match=r"did not reach barrier 0\.5 within 500"):
        conditional_sample(PoissonProcessModel(rate=1e4), cs, 3, 1)


@pytest.mark.parametrize("sampler", ["filter", "beam"])
@pytest.mark.parametrize("name", ["poisson", "weibull", "uniform", "grid", "music-order2"])
def test_runs_use_neither_propose_segment_nor_stream(monkeypatch, name, sampler):
    def forbidden(*args, **kwargs):
        raise AssertionError("the walk called a per-lane walk or a stream")

    if name in MODELS:
        model, (cs, kwargs) = MODELS[name], MIXED
    else:
        model, cs, kwargs = FAMILIES[name]()
    monkeypatch.setattr(rng, "stream", forbidden)
    monkeypatch.setattr(models, "propose_segment", forbidden)
    if sampler == "filter":
        result = conditional_sample(model, cs, 50, 4, **kwargs)
    else:
        result = beam_search_sample(model, cs, 3, 4, 4, **kwargs)
    assert result.survived and len(result.samples) == (50 if sampler == "filter" else 4)


class Stalling(UniformGap):
    """Gaps 0.01 + 0.01u from uniform u, or 0 where u < ``below``; the
    density is uniform on ``support``, which changes no draw."""

    def __init__(self, support, below):
        super().__init__(*support)
        self.below = below

    def quantile(self, u):
        return 0.0 if u < self.below else 0.01 + 0.01 * u

    quantiles = InterArrivalDistribution.quantiles


# the forced gap of 0.4 after 0.1 has no density on (0.01, 0.02); the free
# segment from 0.5 to 2.5 needs over 100 draws a lane
CUT = ConstraintSet(z=(0.1, 0.5, 2.5), b=(False, True, False)), {"horizon": 3}


@pytest.mark.parametrize("sampler", ["filter", "beam"])
@pytest.mark.parametrize("limit,below,error", [(50, 0.0, models.IterationLimitError),
                                               (models.MAX_EVENTS, 0.01, ValueError)],
                         ids=["draw-limit", "zero-gap"])
def test_a_run_fails_where_it_dies_whatever_later_barriers_draw(monkeypatch, sampler, limit,
                                                                 below, error):
    """Barrier 3, proposed in one chunk with barriers 1 and 2, fails every
    run that reaches it: past the draw limit, or on a zero gap.  The
    ensemble dies at barrier 2 first, so the run fails there, as the lane
    walk does: a chunk ends before its first barrier with a failing row."""
    monkeypatch.setattr(models, "MAX_EVENTS", limit)
    with pytest.raises(error):  # a run that reaches barrier 3
        _both(RenewalModel(Stalling((0.01, 1.0), below)), sampler, 7, 1, *CUT)
    result = _both(RenewalModel(Stalling((0.01, 0.02), below)), sampler, 7, 1, *CUT)
    assert (result.survived, result.failed_barrier) == (False, 2)


def test_a_beam_of_fewer_paths_ignores_the_rows_past_them():
    """A clipped gap below 0.01 has no density, so the beam keeps fewer than
    f paths after barrier 1 and walks fewer candidates at the later barriers
    of its chunk, which was walked at full width.  Some of the rows past its
    width draw a zero gap (a beam whose every candidate lives raises on
    one), and no row past it is valued or raised on."""
    cs = ConstraintSet(z=(0.1, 0.2, 0.3, 0.4, 0.5), b=(True,) * 4 + (False,))
    with pytest.raises(ValueError, match="non-positive gap"):
        beam_search_sample(RenewalModel(Stalling((0.0, 1.0), 0.002)), cs, 2, 7, 0)
    result = _both(RenewalModel(Stalling((0.01, 0.02), 0.002)), "beam", 7, 0, cs, {})
    assert result.survived and min(row.explored for row in result.diagnostics) < 2 * 7
