"""Music step model as an integer inter-arrival process on unrolled codes."""

from __future__ import annotations

import numpy as np
import pytest

from ppsmc.beam import beam_search_sample
from ppsmc.models import barrier_weight
from ppsmc.music.adapter import UnrolledMusicModel
from ppsmc.music.encoding import (MusicEvent, Vocabulary, codes_to_events,
                                  encode_event, events_to_codes,
                                  events_to_symbols)
from ppsmc.music.ngram import train_ngram
from ppsmc.smc import ConstraintSet, conditional_sample, satisfies

TINY = Vocabulary(a_max=4, s_max=3)


@pytest.fixture(scope="module")
def model():
    streams = [
        [1, 3, TINY.shift_symbol(2), 2],
        [2, TINY.shift_symbol(1), 1, 4],
        [1, 2, 3, TINY.shift_symbol(3), 1],
        [4, TINY.shift_symbol(1), 2, 3],
    ]
    return UnrolledMusicModel(train_ngram(streams, TINY, order=2, alpha=0.5))


def enumerate_next_code_pmf(model: UnrolledMusicModel, history: list[int]) -> dict[int, float]:
    """Walk the raw symbol model by hand: one optional shift, then an action."""
    step = model.step_model
    vocab = step.vocab
    events = codes_to_events(history, vocab)
    symbols = events_to_symbols(events, vocab)
    prev = symbols[-1] if symbols else None
    ctx = step.context_of(symbols)
    pmf = step.masked_pmf(ctx, prev)
    last_code = history[-1] if history else 0
    cur_t = events[-1].t if events else 0
    last_action = prev if (prev is not None and vocab.is_action(prev)) else 0

    out: dict[int, float] = {}
    for a in range(last_action + 1, vocab.actions + 1):  # same tick
        out[cur_t * vocab.actions + a - last_code] = float(pmf[a - 1])
    for dt in range(1, vocab.s_max + 1):  # shift, then any action
        shift = vocab.shift_symbol(dt)
        p_shift = float(pmf[shift - 1])
        after = step.masked_pmf(step.context_of(symbols + [shift]), shift)
        for a in range(1, vocab.actions + 1):
            code = (cur_t + dt) * vocab.actions + a
            out[code - last_code] = p_shift * float(after[a - 1])
    return out


HISTORIES = [
    [],
    [encode_event(MusicEvent(0, 2), TINY)],
    [encode_event(MusicEvent(0, 1), TINY), encode_event(MusicEvent(1, 3), TINY)],
    events_to_codes([MusicEvent(0, 4), MusicEvent(2, 1), MusicEvent(2, 2)], TINY),
]


class TestGapDistribution:
    @pytest.mark.parametrize("history", HISTORIES)
    def test_pdf_matches_symbol_level_enumeration(self, model, history):
        expected = enumerate_next_code_pmf(model, history)
        gap = model.initial_state(tuple(history))
        for d in range(1, max(expected) + 3):
            assert gap.pdf(float(d)) == pytest.approx(expected.get(d, 0.0), abs=1e-12)

    @pytest.mark.parametrize("history", HISTORIES)
    def test_pdf_sums_to_one(self, model, history):
        expected = enumerate_next_code_pmf(model, history)
        assert sum(expected.values()) == pytest.approx(1.0, abs=1e-12)
        gap = model.initial_state(tuple(history))
        total = sum(gap.pdf(float(d)) for d in range(1, max(expected) + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("history", HISTORIES)
    def test_cdf_is_the_running_sum(self, model, history):
        expected = enumerate_next_code_pmf(model, history)
        gap = model.initial_state(tuple(history))
        running = 0.0
        for d in range(1, max(expected) + 3):
            running += expected.get(d, 0.0)
            assert gap.cdf(float(d)) == pytest.approx(running, abs=1e-12)

    def test_survival_complements_previous_cdf(self, model):
        gap = model.initial_state(tuple(HISTORIES[1]))
        for d in range(1, 18):
            assert gap.survival(float(d)) == pytest.approx(
                1.0 - gap.cdf(float(d - 1)), abs=1e-12)

    @pytest.mark.parametrize("history", HISTORIES)
    def test_cdf_is_monotone_in_the_target_code(self, model, history):
        gap = model.initial_state(tuple(history))
        values = [gap.cdf(float(d)) for d in range(1, 20)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_a_shift_never_seen_unsmoothed_carries_no_mass(self):
        """With alpha = 0 the corpus's one shift is the only one with mass, so
        a code two ticks ahead has none, as the symbol-level walk says."""
        bare = UnrolledMusicModel(train_ngram([[1, 2, TINY.shift_symbol(1), 3]], TINY,
                                              order=1, alpha=0.0))
        gap = bare.initial_state([])
        exact = enumerate_next_code_pmf(bare, [])
        assert exact[encode_event(MusicEvent(2, 1), TINY)] == 0.0
        for d, p in exact.items():
            assert gap.pdf(d) == pytest.approx(p, rel=1e-12)

    def test_fractional_gaps_carry_no_mass(self, model):
        gap = model.initial_state(())
        assert gap.pdf(1.5) == 0.0
        assert gap.cdf(1.5) == gap.cdf(1.0)

    def test_sampling_frequencies_match_pmf(self, model):
        expected = enumerate_next_code_pmf(model, HISTORIES[1])
        gap = model.initial_state(tuple(HISTORIES[1]))
        rng = np.random.default_rng(31)
        draws = [gap.sample(rng) for _ in range(20000)]
        for d, p in expected.items():
            if p > 0.02:
                assert draws.count(d) / 20000 == pytest.approx(p, abs=0.015)


class TestBarrierWeights:
    def test_clip_weight_is_the_discrete_hazard(self, model):
        history = HISTORIES[1]
        gap = model.initial_state(tuple(history))
        state = model.initial_state(tuple(history))
        for d in (1, 3, 6, 9):
            w = barrier_weight(state, gap=float(d), b_prev=True)
            assert w == pytest.approx(gap.pdf(d) / gap.survival(d), rel=1e-12)

    def test_forbidden_gap_weight_is_the_pmf(self, model):
        history = HISTORIES[1]
        gap = model.initial_state(tuple(history))
        w = barrier_weight(model.initial_state(tuple(history)), gap=4.0, b_prev=False)
        assert w == pytest.approx(gap.pdf(4.0), rel=1e-12)


class TestConditionalMusicSampling:
    def test_all_false_flags_reproduce_the_constraints_exactly(self, model):
        # First event at code 1 leaves no room for free events before it,
        # and every later gap is closed, so the output is fully determined.
        target = events_to_codes(
            [MusicEvent(0, 1), MusicEvent(1, 1), MusicEvent(1, 3)], TINY)
        cs = ConstraintSet(z=tuple(target), b=(False,) * 3)
        result = conditional_sample(model, cs, 12, seed=40, horizon=3 * TINY.actions)
        assert result.survived
        assert all(s == tuple(target) for s in result.samples)

    def test_survivors_decode_to_canonical_event_lists(self, model):
        z = (encode_event(MusicEvent(1, 2), TINY), encode_event(MusicEvent(2, 3), TINY))
        cs = ConstraintSet(z=z, b=(True, True))
        result = conditional_sample(model, cs, 32, seed=41, horizon=4 * TINY.actions)
        assert result.survived
        for s in result.samples:
            assert satisfies(s, cs)
            codes = [int(c) for c in s]
            events_to_symbols(codes_to_events(codes, TINY), TINY)  # raises if invalid

    def test_prefix_history_conditions_the_walk(self, model):
        prefix = tuple(events_to_codes([MusicEvent(0, 1)], TINY))
        z = (encode_event(MusicEvent(2, 2), TINY),)
        cs = ConstraintSet(z=z, b=(False,))
        result = conditional_sample(model, cs, 8, seed=42,
                                    horizon=3 * TINY.actions, initial_history=prefix)
        assert result.survived
        assert all(s[0] == prefix[0] and s[-1] == z[0] for s in result.samples)


    def test_forbidden_gap_longer_than_s_max_kills_both_samplers(self, model):
        """No single shift spans the closed gap, so its density is 0 and every
        path dies at the barrier after it."""
        z = tuple(events_to_codes([MusicEvent(0, 1), MusicEvent(TINY.s_max + 2, 1)], TINY))
        cs = ConstraintSet(z=z, b=(False, True))
        assert model.initial_state(z[:1]).pdf(z[1] - z[0]) == 0.0
        horizon = (TINY.s_max + 3) * TINY.actions
        for result in (conditional_sample(model, cs, 8, seed=43, horizon=horizon),
                       beam_search_sample(model, cs, 3, 2, seed=43, horizon=horizon)):
            assert not result.survived and result.failed_barrier == 2

def test_a_history_with_two_faults_reports_the_first(model):
    """A history is stepped code by code, as ``advance`` steps one more code,
    so a descending code is reported before a later code below 1."""
    with pytest.raises(ValueError, match="^times must strictly increase, got 3 after 5$"):
        model.initial_state((TINY.actions + 1, 3, 0))
