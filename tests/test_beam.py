"""Stochastic beam-search baseline."""

from __future__ import annotations

import math

import pytest
from test_acceptance import TINY, tiny_music_model
from test_golden import long_prefix

from ppsmc.beam import beam_search_sample
from ppsmc.models import (PoissonProcessModel, UniformRenewalModel, WeibullRenewalModel,
                          log_probability, propose_segment)
from ppsmc.oracle import GridModel, observed_constraints
from ppsmc.rng import KIND_PROPOSAL, stream
from ppsmc.smc import ConstraintSet, satisfies


class TestBeamSearch:
    def test_survivors_satisfy_constraints(self):
        model = PoissonProcessModel(rate=6.0)
        cs = ConstraintSet(z=(0.25, 0.5, 0.75), b=(True, False, True))
        result = beam_search_sample(model, cs, b=4, f=3, seed=11)
        assert result.survived
        assert 1 <= len(result.samples) <= 3
        assert all(satisfies(s, cs) for s in result.samples)

    def test_reported_scores_match_model_log_probability(self):
        """The scores summed in the proposing walk are exactly the model's
        log probability of each sample past its prefix."""
        end = (long_prefix(20)[-1] - 1) // TINY.actions
        z = ((end + 2) * TINY.actions + 1, (end + 4) * TINY.actions + 3)
        music = (tiny_music_model(), ConstraintSet(z=z, b=(True, True)),
                 {"horizon": (end + 7) * TINY.actions, "initial_history": tuple(long_prefix(20))})
        many = ConstraintSet(z=tuple(k / 100 for k in range(1, 100)), b=(True,) * 99)
        cases = [(PoissonProcessModel(rate=4.0), ConstraintSet(z=(0.5,), b=(True,)), {}),
                 music,
                 (PoissonProcessModel(rate=6.0),
                  ConstraintSet(z=(0.25, 0.5, 0.75), b=(True, False, False)), {}),
                 # scores that cross the walk's chunks (of smc._BLOCK_KEYS // 200 barriers
                 # at 200 lanes, fewer than 99), valued a chunk at a time
                 (PoissonProcessModel(rate=30.0), many, {"b": 20, "f": 10}),
                 # a fixed law without array weights, valued a barrier at a time
                 (WeibullRenewalModel(shape=1.5, scale=0.1),
                  ConstraintSet(z=(0.2, 0.4, 0.6, 0.8), b=(True, False, True, True)), {})]
        for model, cs, kwargs in cases:
            kwargs = {"b": 5, "f": 4, **kwargs}
            result = beam_search_sample(model, cs, seed=3, **kwargs)
            prefix = kwargs.get("initial_history", ())
            assert result.survived
            assert len(result.log_probs) == len(result.samples)
            for seq, lp in zip(result.samples, result.log_probs):
                assert seq[:len(prefix)] == prefix
                assert lp == log_probability(model, seq[len(prefix):], prefix)

    def test_scores_stay_finite_where_the_density_underflows(self):
        """Rate 3 with a forced gap of 300: its density 3·e^-900 underflows
        to 0, but its log density log 3 - 900 is finite in closed form, so
        the beam survives.  Each score is its sample's log probability bit
        for bit, and n·log 3 - 3·t_n for n events up to t_n."""
        model = PoissonProcessModel(rate=3.0)
        cs = ConstraintSet(z=(0.5, 300.5), b=(False, True))
        result = beam_search_sample(model, cs, 3, 3, 1, horizon=301.0)
        assert result.survived and len(result.log_probs) == 3
        for seq, lp in zip(result.samples, result.log_probs):
            assert math.isfinite(lp) and lp == log_probability(model, seq)
            assert lp == pytest.approx(len(seq) * math.log(3) - 3 * seq[-1], rel=1e-9, abs=0)

    @pytest.mark.parametrize("case", ["poisson", "music"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_log_probs_are_the_ranked_scores(self, case, seed):
        """With a forbidden last gap nothing is drawn after the last ranking,
        so the reported log probabilities are the scores the beam ranked:
        non-increasing, and bounded by the last row's kept scores exactly."""
        if case == "poisson":
            z = tuple(round(0.01 * i, 2) for i in range(1, 100))
            model, cs, kwargs = (PoissonProcessModel(rate=30.0),
                                 ConstraintSet(z=z, b=(True,) * 98 + (False,)), {})
        else:
            end = (long_prefix(20)[-1] - 1) // TINY.actions
            model, cs = tiny_music_model(), ConstraintSet(
                z=((end + 2) * TINY.actions + 1, (end + 4) * TINY.actions + 3), b=(True, False))
            kwargs = {"horizon": (end + 7) * TINY.actions,
                      "initial_history": tuple(long_prefix(20))}
        result = beam_search_sample(model, cs, b=10, f=10, seed=seed, **kwargs)
        lps, last = result.log_probs, result.diagnostics[-1]
        assert result.survived and len(lps) == len(result.samples) > 1
        assert all(a >= b for a, b in zip(lps, lps[1:]))
        assert (last.kept_max_logprob, last.kept_min_logprob) == (lps[0], lps[-1])

    def test_single_candidate_beam_matches_chained_proposals(self):
        """b=1, f=1 degenerates to one unresampled proposal path."""
        model = PoissonProcessModel(rate=5.0)
        cs = ConstraintSet(z=(0.3, 0.7), b=(True, False))
        result = beam_search_sample(model, cs, b=1, f=1, seed=21)

        seq: list = []
        state = model.initial_state(seq)
        flags = [True, *cs.b]
        for i, z in enumerate(cs.z):
            seg, _, state = propose_segment(model, state, seq[-1] if seq else 0.0, z,
                                               flags[i], stream(21, KIND_PROPOSAL, i, 0))
            seq += seg
            state = model.advance(state, z)
        if flags[-1]:
            seg, _, _ = propose_segment(model, state, seq[-1], math.inf, True,
                                           stream(21, KIND_PROPOSAL, 2, 0), horizon=1.0)
            seq += seg
        while seq and seq[-1] > 1.0:
            seq.pop()
        assert result.samples == [tuple(seq)]

    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("history", [(), (0.1, 0.3)])
    def test_no_barriers_draws_one_tail_per_kept_path(self, b, history):
        """Without required times nothing is ranked: the f paths each draw
        their open tail, path k from stream (seed, KIND_PROPOSAL, 0, k),
        whatever b is."""
        model, f = PoissonProcessModel(rate=6.0), 4
        result = beam_search_sample(model, ConstraintSet(z=(), b=()), b=b, f=f, seed=9,
                                    initial_history=history)
        assert result.survived and result.diagnostics == []
        assert len(result.samples) == len(result.log_probs) == f
        state = model.initial_state(history)
        for k, (seq, lp) in enumerate(zip(result.samples, result.log_probs)):
            seg, _, _ = propose_segment(model, state, history[-1] if history else 0.0, math.inf,
                                        True, stream(9, KIND_PROPOSAL, 0, k), horizon=1.0)
            assert seq == (*history, *(t for t in seg if t <= 1.0))
            assert lp == log_probability(model, seq[len(history):], history)

    def test_selection_is_monotone_at_each_barrier(self):
        model = PoissonProcessModel(rate=8.0)
        cs = ConstraintSet(z=(0.2, 0.5, 0.8), b=(True, True, True))
        result = beam_search_sample(model, cs, b=6, f=3, seed=9)
        for diag in result.diagnostics:
            assert diag.explored == 18
            assert diag.kept_min_logprob <= diag.kept_max_logprob
            if math.isfinite(diag.discarded_max_logprob):
                assert diag.kept_min_logprob >= diag.discarded_max_logprob

    def test_fully_deterministic_grid_ties_keep_everything_equal(self):
        # Every cell occupied with probability one: all candidates identical.
        grid = GridModel(n=4, g=lambda bits: 1.0)
        cs = observed_constraints([1])
        result = beam_search_sample(grid, cs, b=3, f=2, seed=4, horizon=4)
        assert result.survived
        assert all(s == (1.0, 2.0, 3.0, 4.0) for s in result.samples)
        diag = result.diagnostics[0]
        assert diag.kept_min_logprob == diag.kept_max_logprob == 0.0

    def test_beam_death_is_reported(self):
        model = UniformRenewalModel(0.01, 0.02)
        cs = ConstraintSet(z=(0.1, 0.5), b=(False, False))
        result = beam_search_sample(model, cs, b=4, f=2, seed=6)
        assert not result.survived
        assert result.failed_barrier == 2
        assert result.samples == []

    def test_nonviable_candidates_shrink_the_beam(self):
        # Clipping can land closer to the barrier than the smallest possible
        # gap; those candidates must be discarded even if slots remain.
        model = UniformRenewalModel(0.05, 0.5)
        cs = ConstraintSet(z=(0.3, 0.6), b=(True, False))
        result = beam_search_sample(model, cs, b=1, f=8, seed=2)
        assert result.survived
        assert result.diagnostics[1].explored == 5  # three died at barrier 1
        assert 0 < len(result.samples) < 8
        assert all(math.isfinite(lp) for lp in result.log_probs)
        assert all(satisfies(s, cs) for s in result.samples)

    def test_same_seed_reproduces_output(self):
        model = PoissonProcessModel(rate=6.0)
        cs = ConstraintSet(z=(0.4,), b=(True,))
        a = beam_search_sample(model, cs, b=3, f=2, seed=33)
        b = beam_search_sample(model, cs, b=3, f=2, seed=33)
        assert a.samples == b.samples and a.log_probs == b.log_probs

    def test_rejects_nonpositive_beam_sizes(self):
        model = PoissonProcessModel(rate=1.0)
        cs = ConstraintSet(z=(0.5,), b=(True,))
        with pytest.raises(ValueError):
            beam_search_sample(model, cs, b=0, f=1, seed=1)
        with pytest.raises(ValueError):
            beam_search_sample(model, cs, b=1, f=0, seed=1)
