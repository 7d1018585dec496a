"""Incremental model state: advancing event by event must match decoding the
whole history, and must cost one decode of the history per run.

Every model exposes ``initial_state(history)`` and ``advance(state, t)``; a
state is the law of the next gap.  The filter and the beam walk the state, so
the laws they see must be bit-equal to those built from the full history, draw
for draw.
"""

from __future__ import annotations

import numpy as np
import pytest
from exact import order2_grid
from test_acceptance import TINY, tiny_music_model
from test_golden import long_prefix

from ppsmc import models, oracle, smc
from ppsmc.beam import beam_search_sample
from ppsmc.models import (PoissonProcessModel, SaturatedCdfError, UniformRenewalModel,
                          WeibullRenewalModel)
from ppsmc.music import adapter
from ppsmc.music.encoding import MusicEvent
from ppsmc.oracle import GridModel, observed_constraints
from ppsmc.smc import ConstraintSet, conditional_sample

ACTS = TINY.actions


def _evaluate(fn, d):
    """fn(d), or the type of the exception it raises."""
    try:
        return fn(d)
    except (ValueError, SaturatedCdfError) as exc:
        return type(exc)


MUSIC_GAPS = [0, 0.5, 2.5, *range(1, (TINY.s_max + 2) * ACTS + 2)]
CASES = {  # name: (model, history, gaps at which every law is evaluated)
    "poisson": (PoissonProcessModel(rate=3.0), (0.1, 0.25, 0.7), [0.0, 0.05, 0.3, 1.2]),
    "weibull": (WeibullRenewalModel(shape=2.0, scale=0.5), (0.2, 0.9), [0.0, 0.1, 0.4, 2.0]),
    "uniform": (UniformRenewalModel(0.1, 0.3), (0.15, 0.4), [0.05, 0.1, 0.2, 0.3, 0.35]),
    "grid": (order2_grid(12), (1, 2, 5, 6.5, 9), [0.5, 1, 1.5, 2, 3, 4, 7, 13]),
    "music-order1": (tiny_music_model(1), tuple(long_prefix(20)), MUSIC_GAPS),
    "music-order2": (tiny_music_model(2), tuple(long_prefix(20)), MUSIC_GAPS),
    "music-order3": (tiny_music_model(3), tuple(long_prefix(20)), MUSIC_GAPS),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_advancing_matches_the_full_history(name):
    model, history, gaps = CASES[name]
    state = model.initial_state(())
    for k in range(len(history) + 1):
        walked = state
        full = model.initial_state(history[:k])
        for method in ("pdf", "cdf", "survival", "hazard"):
            for d in gaps:
                assert (_evaluate(getattr(walked, method), d)
                        == _evaluate(getattr(full, method), d)), (k, method, d)
        for seed in range(5):
            assert (walked.sample(np.random.default_rng(seed))
                    == full.sample(np.random.default_rng(seed))), (k, seed)
        assert state == model.initial_state(history[:k])
        if k < len(history):
            state = model.advance(state, history[k])


@pytest.mark.parametrize("order", [1, 2, 3])
def test_advance_raises_where_decoding_the_history_raises(order):
    model = tiny_music_model(order)
    history = list(long_prefix(5))
    last = history[-1]
    state = model.initial_state(history)
    bad = {"repeated action": last + 0.5,  # decodes to the last code again
           "tick gap beyond s_max": last + (TINY.s_max + 1) * ACTS}
    for what, t in bad.items():
        with pytest.raises(ValueError):
            model.initial_state(history + [t])
        with pytest.raises(ValueError, match="strictly increase" if "action" in what else "s_max"):
            model.advance(state, t)
    good = last + TINY.s_max * ACTS
    assert model.advance(state, good) == model.initial_state(history + [good])
    with pytest.raises(ValueError):
        model.advance(model.initial_state(()), 0.5)  # decodes to code 0


@pytest.mark.parametrize("barrier", ["repeated action", "tick gap beyond s_max"])
def test_children_clipped_at_unreachable_codes_die_without_raising(barrier):
    """Every child is clipped at a code the model cannot step into; the run
    reports the death instead of advancing into the code."""
    model = tiny_music_model()
    prefix = long_prefix(5)
    end = prefix[-1]
    if barrier == "repeated action":  # free segment, clipped half a code past the prefix
        cs, failed = ConstraintSet(z=(end + 0.5, end + 3 * ACTS), b=(True, True)), 1
    else:  # forced append more than s_max ticks after the first barrier
        z1 = end + ACTS
        cs, failed = ConstraintSet(z=(z1, z1 + (TINY.s_max + 1) * ACTS), b=(False, True)), 2
    kwargs = {"horizon": cs.z[-1] + 2 * ACTS, "initial_history": prefix}
    filt = conditional_sample(model, cs, 20, 3, **kwargs)
    beam = beam_search_sample(model, cs, 3, 4, 3, **kwargs)
    assert (filt.survived, filt.failed_barrier) == (False, failed)
    assert filt.diagnostics[-1].dead_count == 20
    assert (beam.survived, beam.failed_barrier) == (False, failed)


def test_history_is_decoded_once_per_run(monkeypatch):
    """Codes decoded per filter or beam run are a small multiple of the prefix
    length and do not grow with particles or proposed events."""
    decoded = []
    real = adapter.codes_to_symbols

    def counting(codes, vocab):
        decoded.append(len(codes))
        return real(codes, vocab)

    monkeypatch.setattr(adapter, "codes_to_symbols", counting)
    model = tiny_music_model()
    prefix = long_prefix(100)
    assert len(prefix) == 200
    end = (prefix[-1] - 1) // ACTS
    cs = ConstraintSet(z=((end + 2) * ACTS + 1, (end + 5) * ACTS + 2, (end + 8) * ACTS + 3),
                       b=(True, True, True))
    kwargs = {"horizon": (end + 10) * ACTS, "initial_history": prefix}

    def count(run):
        decoded.clear()
        result = run()
        assert result.survived
        return sum(decoded)

    small = count(lambda: conditional_sample(model, cs, 10, 5, **kwargs))
    large = count(lambda: conditional_sample(model, cs, 60, 5, **kwargs))
    assert small == large <= 2 * len(prefix)
    small = count(lambda: beam_search_sample(model, cs, 2, 3, 5, **kwargs))
    large = count(lambda: beam_search_sample(model, cs, 6, 8, 5, **kwargs))
    assert small == large <= 3 * len(prefix)


def _six_free_barriers():
    """Order-2 music model, a 200-code prefix and six free barriers two ticks
    apart: the scenario of the walk-count guards."""
    model = tiny_music_model(2)
    prefix = long_prefix(100)
    assert len(prefix) == 200
    end = (prefix[-1] - 1) // ACTS
    cs = ConstraintSet(z=tuple((end + 2 * k) * ACTS + 1 for k in range(1, 7)), b=(True,) * 6)
    return model, cs, {"horizon": (end + 14) * ACTS, "initial_history": prefix}


def test_music_runs_build_no_event_objects(monkeypatch):
    """The music model steps on codes: a filter run and a beam run from a
    200-code prefix construct no ``MusicEvent``."""
    model, cs, kwargs = _six_free_barriers()
    made = []
    post_init = MusicEvent.__post_init__
    monkeypatch.setattr(MusicEvent, "__post_init__",
                        lambda ev: (made.append(ev), post_init(ev))[1])
    assert conditional_sample(model, cs, 20, 5, **kwargs).survived
    assert beam_search_sample(model, cs, 3, 4, 5, **kwargs).survived
    assert made == []


def test_beam_walks_each_proposed_event_once(monkeypatch):
    """The beam scores candidates in the walk that proposes them: the model
    state is advanced at most once per proposed event, and no scoring pass
    re-walks a candidate or a kept sample."""
    counts = {"advance": 0, "events": 0}
    real_advance, real_draws = adapter.UnrolledMusicModel.advance, adapter._MusicGap.draws

    def advance(self, state, t):
        counts["advance"] += 1
        return real_advance(self, state, t)

    def draws(self, u):  # one gap, one proposed event, per lane
        counts["events"] += len(u)
        return real_draws(self, u)

    def rewalk(*args, **kwargs):
        raise AssertionError("the beam re-walked a path to score it")

    monkeypatch.setattr(adapter.UnrolledMusicModel, "advance", advance)
    monkeypatch.setattr(adapter._MusicGap, "draws", draws)
    for name in ("step_log_probabilities", "propose_segment"):
        monkeypatch.setattr(models, name, rewalk)
    model, cs, kwargs = _six_free_barriers()
    result = beam_search_sample(model, cs, 10, 10, 7, **kwargs)
    assert result.survived
    assert 0 < counts["advance"] <= counts["events"]


def test_only_kept_children_grow_into_paths(monkeypatch):
    """``select`` sees one weight per child, each distinct (law, final gap)
    pair weighted once; after selection the state of each kept child is
    advanced past the barrier once per distinct law value, and children in
    equal states share one state object."""
    seen = {"distinct": [], "pairs": [], "barrier_advances": 0, "keeping": False}
    real_run, real_keep, real_weight = smc.run_barriers, smc._Walk.keep, smc.barrier_weight
    real_advance = adapter.UnrolledMusicModel.advance

    def run(model, cs, seed, width, select, **kwargs):
        def spy(i, values):
            assert len(values) == width
            assert len(set(seen["pairs"])) == len(seen["pairs"]) > 0  # distinct pairs
            seen["pairs"].clear()
            return select(i, values)
        return real_run(model, cs, seed, width, spy, **kwargs)

    def weight(state, gap, b_prev):
        seen["pairs"].append((id(state), gap))
        return real_weight(state, gap, b_prev)

    def keep(self, kept, z, values):
        laws = [self.table[s] for s in {self.level_sids[k] for k in kept}]
        assert len(set(map(id, laws))) == len(set(laws))  # equal laws are one object
        seen["distinct"].append((len(set(kept)), len(laws)))
        seen["keeping"] = True
        try:
            return real_keep(self, kept, z, values)
        finally:
            seen["keeping"] = False

    def advance(self, state, t):
        seen["barrier_advances"] += seen["keeping"]
        return real_advance(self, state, t)

    monkeypatch.setattr(smc, "run_barriers", run)
    monkeypatch.setattr(smc, "barrier_weight", weight)
    monkeypatch.setattr(smc._Walk, "keep", keep)
    monkeypatch.setattr(adapter.UnrolledMusicModel, "advance", advance)
    model, cs, kwargs = _six_free_barriers()
    result = conditional_sample(model, cs, 100, 7, **kwargs)
    assert result.survived
    children, laws = map(sum, zip(*seen["distinct"]))
    assert seen["barrier_advances"] == laws <= children < 100 * cs.r


@pytest.mark.parametrize("run", ["filter", "beam"])
def test_a_grid_run_advances_each_distinct_pair_once(monkeypatch, run):
    """A grid run advances each distinct (state, time) pair once per walk
    step, and each distinct state of the kept children once at ``keep``.
    States are interned, so equal states are one object and a pair is
    (id(state), t).  A walk step draws its gaps before it advances."""
    batches = [("history", [])]  # the advances of each walk step or keep, in turn
    kept_states = []  # each keep's distinct states
    real_advance, real_draws = GridModel.advance, oracle._GridGap.draws
    real_keep = smc._Walk.keep

    def advance(self, state, t):
        batches[-1][1].append((id(state), t))
        return real_advance(self, state, t)

    def draws(self, u):
        if batches[-1][0] != "step" or batches[-1][1]:  # the first draws of a step
            batches.append(("step", []))
        return real_draws(self, u)

    def keep(self, kept, z, values):
        kept_states.append(len({self.level_sids[k] for k in kept}))
        batches.append(("keep", []))
        return real_keep(self, kept, z, values)

    monkeypatch.setattr(GridModel, "advance", advance)
    monkeypatch.setattr(oracle._GridGap, "draws", draws)
    monkeypatch.setattr(smc._Walk, "keep", keep)
    model, cs = order2_grid(12), observed_constraints([3, 7])
    result = (conditional_sample(model, cs, 400, 5, horizon=12) if run == "filter"
              else beam_search_sample(model, cs, 4, 50, 5, horizon=12))
    assert result.survived
    steps = [pairs for kind, pairs in batches if kind == "step"]
    keeps = [pairs for kind, pairs in batches if kind == "keep"]
    assert all(len(set(pairs)) == len(pairs) for pairs in steps + keeps)
    assert [len(pairs) for pairs in keeps] == kept_states and len(keeps) == cs.r
    assert sum(map(len, steps)) > 0


@pytest.mark.parametrize("run", ["filter", "beam"])
def test_each_gap_law_is_built_once(monkeypatch, run):
    """A state is the law of its next gap: a run builds one law for the
    prefix and one per advance, and no weight or score rebuilds one."""
    counts = {"advance": 0, "laws": 0}
    real_advance, real_init = adapter.UnrolledMusicModel.advance, adapter._MusicGap.__init__

    def advance(self, state, t):
        counts["advance"] += 1
        return real_advance(self, state, t)

    def init(self, *args, **kwargs):
        counts["laws"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(adapter.UnrolledMusicModel, "advance", advance)
    monkeypatch.setattr(adapter._MusicGap, "__init__", init)
    model, cs, kwargs = _six_free_barriers()
    if run == "filter":
        result = conditional_sample(model, cs, 100, 7, **kwargs)
    else:
        result = beam_search_sample(model, cs, 10, 10, 7, **kwargs)
    assert result.survived
    assert 0 < counts["advance"] and counts["laws"] <= counts["advance"] + 1, counts
