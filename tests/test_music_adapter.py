"""Music step model as an integer inter-arrival process on unrolled codes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from exact import codes_to_events, events_to_codes

from ppsmc.beam import beam_search_sample
from ppsmc.models import SaturatedCdfError, barrier_weight
from ppsmc.music import adapter
from ppsmc.music.adapter import UnrolledMusicModel
from ppsmc.music.encoding import MusicEvent, Vocabulary, codes_to_symbols
from ppsmc.music.ngram import NGramModel, train_ngram
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
    symbols = codes_to_symbols(events_to_codes(events, vocab), vocab)
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


def full_size_model(seed: int, alpha: float = 0.05,
                    order: int = 2) -> tuple[UnrolledMusicModel, list]:
    """A model at the default vocabulary, of order 2 by default, trained on
    eight seeded pieces of 300 codes a few ticks apart, and the pieces."""
    vocab = Vocabulary()
    rng = np.random.default_rng(seed)
    pieces = [np.cumsum(rng.integers(1, 3 * vocab.actions, 300)) for _ in range(8)]
    step = train_ngram([codes_to_symbols(p, vocab) for p in pieces], vocab, order, alpha=alpha)
    return UnrolledMusicModel(step), pieces


HISTORIES = [
    [],
    events_to_codes([MusicEvent(0, 2)], TINY),
    events_to_codes([MusicEvent(0, 1), MusicEvent(1, 3)], TINY),
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
        assert exact[events_to_codes([MusicEvent(2, 1)], TINY)[0]] == 0.0
        for d, p in exact.items():
            assert gap.pdf(d) == pytest.approx(p, rel=1e-12)

    def test_fractional_gaps_carry_no_mass(self, model):
        gap = model.initial_state(())
        assert gap.pdf(1.5) == 0.0
        assert gap.cdf(1.5) == gap.cdf(1.0)

    def test_cdf_is_the_boundary_of_the_draws_at_full_size(self):
        """At the default vocabulary a PMF's sums round apart with summation
        order, so the cdf must read the cumulative table that ``draws``
        searches: a uniform just below cdf(d) draws a gap <= d, and cdf(d)
        itself a larger one, for every gap d inside the current tick."""
        vocab = Vocabulary()
        rng = np.random.default_rng(32)
        pieces = [np.cumsum(rng.integers(1, 3 * vocab.actions, 300)) for _ in range(8)]
        step = train_ngram([codes_to_symbols(p, vocab) for p in pieces], vocab, 2, alpha=0.05)
        model = UnrolledMusicModel(step)
        checked = 0
        for history in [(), *(tuple(p[:k]) for p in pieces[:3] for k in (1, 40, 299))]:
            gap = model.initial_state(history)
            for d in range(1, vocab.actions - (gap.tail or (0,))[-1] + 1):  # inside the tick
                c = gap.cdf(d)
                below, at = gap.draws(np.array([[np.nextafter(c, 0.0), 0.5], [c, 0.5]]))[0]
                assert below <= d < at, (history[-1:], d)
                checked += 1
        assert checked > 500

    def test_lanes_of_many_states_search_one_table_after_unseen_shifts(self, monkeypatch):
        """At the default vocabulary the corpus sees few of the 2400 shifts,
        and every context after one it never saw shares one table: the lanes
        of a step that drew such shifts, from six states, search it once, and
        each lane draws the gap that ``sample`` draws from its uniforms."""
        model, pieces = full_size_model(34)
        laws = [model.initial_state(tuple(p[:k])) for p in pieces[:3] for k in (10, 20)]
        u = np.column_stack((np.linspace(0.999, 0.9999, 12),  # the longest shifts
                             np.linspace(0.05, 0.95, 12)))
        groups = [(law, 2 * k, 2 * k + 2) for k, law in enumerate(laws)]
        alone = [law.sample(type("Lane", (), {"random": iter(u[r].tolist()).__next__})())
                 for law, a, b in groups for r in range(a, b)]
        searched, search = [], adapter.search
        monkeypatch.setattr(adapter, "search",
                            lambda cum, v: (searched.append(cum), search(cum, v))[1])
        gaps, used = adapter._MusicGap.draws_many(groups, u)
        assert (gaps.tolist(), used.tolist()) == (alone, [2] * 12)
        assert len(searched) == 1

    def test_sampling_frequencies_match_pmf(self, model):
        expected = enumerate_next_code_pmf(model, HISTORIES[1])
        gap = model.initial_state(tuple(HISTORIES[1]))
        rng = np.random.default_rng(31)
        draws = [gap.sample(rng) for _ in range(20000)]
        for d, p in expected.items():
            if p > 0.02:
                assert draws.count(d) / 20000 == pytest.approx(p, abs=0.015)


def reference_pdf(law, d) -> float:
    """The per-event pdf of the module docstring, read off ``masked_pmf``."""
    step, vocab = law.model, law.model.vocab
    if d < 1 or d != int(d):
        return 0.0
    t, a_z = divmod(law.last_code + int(d) - 1, vocab.actions)
    pmf, dt = step.masked_pmf(step.context_of(law.tail), (law.tail or (None,))[-1]), t - law.cur_t
    if dt == 0:
        return float(pmf[a_z])
    if dt > vocab.s_max or pmf[vocab.actions + dt - 1] == 0:
        return 0.0
    shift = vocab.shift_symbol(dt)
    after = step.masked_pmf(step.context_of(law.tail + (shift,)), shift)
    return float(pmf[shift - 1]) * float(after[a_z])


class TestBatchHooks:
    """The music law's ``values_many`` and the model's ``advance_many`` give
    the scalar rules bit for bit, and a batch raises its first failing pair's error."""

    @pytest.mark.parametrize("alpha", [0.05, 0.0])  # unsmoothed, most shifts carry no mass
    def test_values_many_gives_the_scalar_weights_and_log_densities(self, alpha):
        model, pieces = full_size_model(35, alpha)
        acts, s_max = model.vocab.actions, model.vocab.s_max
        laws = [model.initial_state(()),  # the first event: last code 0, empty tail
                *(model.initial_state(tuple(p[:k])) for p in pieces[:3] for k in (1, 40, 299))]
        gaps = [-3, 0, 0.5, 1, 2, 2.5, 7, 40, acts - 1,  # below 1, fractional, inside the tick
                *(dt * acts + k for dt in (1, 2, 3, 11, 600, s_max) for k in (-5, 0, 1, 9)),
                (s_max + 1) * acts + 1, (s_max + 3) * acts]  # past s_max
        pairs = [(law, d) for law in laws for d in gaps]
        pdfs = [reference_pdf(law, d) for law, d in pairs]

        def kind(law, d):
            dt = (law.last_code + int(d) - 1) // acts - law.cur_t
            step = model.step_model
            pmf = step.masked_pmf(step.context_of(law.tail), (law.tail or (None,))[-1])
            return ("below 1" if d < 1 or d != int(d) else "in the tick" if dt == 0
                    else "past s_max" if dt > s_max else "zero-mass shift"
                    if pmf[acts + dt - 1] == 0 else "shift")
        kinds = {kind(law, d) for law, d in pairs}
        assert kinds == {"below 1", "in the tick", "past s_max", "shift",
                         *(["zero-mass shift"] if alpha == 0 else [])}
        assert sum(p > 0 for p in pdfs[:len(gaps)]) > 5  # from the first-event state
        laws, gaps = zip(*pairs)  # int and float gaps
        hooks = adapter._MusicGap.values_many
        bits = lambda values: [float(v).hex() for v in values]  # noqa: E731
        assert bits(hooks(laws, gaps, False)) == bits(pdfs) == bits(
            barrier_weight(law, d, False) for law, d in zip(laws, gaps))
        assert bits(hooks(laws, gaps, True)) == bits(
            barrier_weight(law, d, True) for law, d in zip(laws, gaps))
        assert bits(hooks(laws, gaps, None)) == bits(
            math.log(p) if p > 0 else -math.inf for p in pdfs)

    def test_values_many_raises_where_the_hazard_does(self):
        """The mass after the last action sums to 1 before the rarest symbol,
        so the survival at that symbol's gap underflows."""
        law = UnrolledMusicModel(NGramModel(TINY, 2, 0.0, {(1,): {2: 10 ** 20, 3: 1}})
                                 ).initial_state([1])
        with pytest.raises(SaturatedCdfError) as scalar:
            barrier_weight(law, 2, True)
        with pytest.raises(SaturatedCdfError) as batch:
            adapter._MusicGap.values_many([law, law], [1, 2], True)
        assert str(batch.value) == str(scalar.value) == "survival underflowed at gap 2"

    @pytest.mark.parametrize("order", [2, 3])  # order 3 keeps the shift in the tail
    def test_advance_many_gives_advance_state_for_state(self, order):
        model, pieces = full_size_model(35, order=order)
        acts, s_max = model.vocab.actions, model.vocab.s_max
        states = [model.initial_state(()),
                  *(model.initial_state(tuple(p[:k])) for p in pieces[:3] for k in (1, 40, 299))]
        pairs = [(state, t) for state in states for t in (
            state.last_code + 1, float(state.last_code + 2), state.last_code + 3 * acts + 5,
            (state.cur_t + s_max) * acts + 1)]
        got = model.advance_many(*zip(*pairs))
        want = [model.advance(state, t) for state, t in pairs]
        assert list(map(repr, got)) == list(map(repr, want))
        assert all(a.table is b.table for a, b in zip(got, want))

    def test_advance_many_raises_the_first_failing_pairs_error(self):
        model, pieces = full_size_model(35)
        state = model.initial_state(tuple(pieces[0][:40]))
        last, far = state.last_code, (state.cur_t + model.vocab.s_max + 1) * model.vocab.actions
        times = [last + 1, last, last + 2, far + 1]  # an order error, then a tick gap over s_max
        with pytest.raises(ValueError, match=f"^times must strictly increase, got {last} after "
                                             f"{last}$"):
            model.advance_many([state] * 4, times)
        with pytest.raises(ValueError, match="^tick gap 2401 exceeds s_max=2400"):
            model.advance_many([state] * 2, times[2:])


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
        z = tuple(events_to_codes([MusicEvent(1, 2), MusicEvent(2, 3)], TINY))
        cs = ConstraintSet(z=z, b=(True, True))
        result = conditional_sample(model, cs, 32, seed=41, horizon=4 * TINY.actions)
        assert result.survived
        for s in result.samples:
            assert satisfies(s, cs)
            codes = [int(c) for c in s]
            codes_to_symbols(events_to_codes(codes_to_events(codes, TINY), TINY), TINY)  # or raises

    def test_prefix_history_conditions_the_walk(self, model):
        prefix = tuple(events_to_codes([MusicEvent(0, 1)], TINY))
        z = tuple(events_to_codes([MusicEvent(2, 2)], TINY))
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
