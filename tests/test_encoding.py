"""Unrolled event codes, symbol streams, and the canonical-order mask."""

from __future__ import annotations

import numpy as np
import pytest

from ppsmc.music.encoding import (MusicEvent, Vocabulary, allowed_symbols, code_symbols,
                                  codes_to_events, codes_to_symbols, decode_event,
                                  encode_event, events_to_codes, events_to_symbols,
                                  symbols_to_events)

VOCAB = Vocabulary()  # 256 note actions, shifts up to one whole note at 2400 ticks
TINY = Vocabulary(a_max=4, s_max=3)


class TestEventCodes:
    def test_frozen_example(self):
        assert encode_event(MusicEvent(t=3, a=5), VOCAB) == 773

    def test_decode_at_block_boundary(self):
        # Code 512 is the last action of tick 1, not the zeroth of tick 2.
        assert decode_event(512, VOCAB) == MusicEvent(t=1, a=256)

    def test_round_trip_random_events(self):
        rng = np.random.default_rng(8)
        for _ in range(3000):
            ev = MusicEvent(t=int(rng.integers(0, 10000)),
                            a=int(rng.integers(1, 257)))
            assert decode_event(encode_event(ev, VOCAB), VOCAB) == ev

    def test_multi_part_offsets(self):
        vocab = Vocabulary(parts=2)
        ev = MusicEvent(t=1, a=10, part=1)
        assert encode_event(ev, vocab) == 512 + 256 + 10
        assert decode_event(778, vocab) == ev

    def test_codes_are_strictly_increasing_in_time_and_action(self):
        events = [MusicEvent(0, 3), MusicEvent(0, 7), MusicEvent(2, 1)]
        codes = events_to_codes(events, VOCAB)
        assert codes == [3, 7, 513]
        assert codes_to_events(codes, VOCAB) == events

    def test_rejects_code_zero(self):
        with pytest.raises(ValueError):
            decode_event(0, VOCAB)


class TestSymbolStreams:
    def test_same_tick_chord_then_shift(self):
        events = [MusicEvent(0, 1), MusicEvent(0, 3), MusicEvent(2, 2)]
        symbols = events_to_symbols(events, TINY)
        assert symbols == [1, 3, TINY.shift_symbol(2), 2]
        assert symbols_to_events(symbols, TINY) == events

    def test_first_event_after_tick_zero_needs_a_shift(self):
        events = [MusicEvent(1, 2)]
        assert events_to_symbols(events, TINY) == [TINY.shift_symbol(1), 2]

    def test_oversized_gap_suggests_larger_vocabulary(self):
        events = [MusicEvent(0, 1), MusicEvent(9, 1)]
        with pytest.raises(ValueError, match="s_max"):
            events_to_symbols(events, TINY)

    def test_rejects_same_tick_descending_actions(self):
        events = [MusicEvent(0, 3), MusicEvent(0, 1)]
        with pytest.raises(ValueError):
            events_to_symbols(events, TINY)

    def test_rejects_an_event_before_the_current_tick(self):
        events = [MusicEvent(2, 1), MusicEvent(1, 4)]
        with pytest.raises(ValueError, match="^times must strictly increase, got 8 after 9$"):
            events_to_symbols(events, TINY)

    def test_the_step_rejects_a_code_below_1(self):
        for code in (0, -3):
            with pytest.raises(ValueError,
                               match=f"^times must strictly increase, got {code} after 0$"):
                code_symbols(code, 0, TINY)

    def test_the_step_rejects_a_repeated_code(self):
        """A code equal to the last one is its action again at the same tick."""
        code = encode_event(MusicEvent(1, 3), TINY)
        assert code_symbols(code, 0, TINY) == (1, (TINY.shift_symbol(1), 3))
        with pytest.raises(ValueError, match=r"^times must strictly increase, got 7 after 7$"):
            code_symbols(code, code, TINY)

    def test_the_one_order_rule(self):
        """For seeded (last, code) pairs the step raises the order error exactly
        when code <= last; otherwise, after the stream of ``last``, its symbols
        decode back to the code."""
        rng = np.random.default_rng(30)
        top = (TINY.s_max + 1) * TINY.actions  # the stream of any last code below top is one step
        for last, code in zip(rng.integers(0, top, 400).tolist(),
                              rng.integers(-3, 2 * top, 400).tolist()):
            if code <= last:
                with pytest.raises(ValueError, match=f"^times must strictly increase, "
                                                     f"got {code} after {last}$"):
                    code_symbols(code, last, TINY)
                continue
            head = [last] if last else []
            dt = (code - 1) // TINY.actions - (last - 1) // TINY.actions * bool(last)
            if dt > TINY.s_max:
                with pytest.raises(ValueError, match=f"^tick gap {dt} exceeds s_max=3"):
                    code_symbols(code, last, TINY)
                continue
            tick, step = code_symbols(code, last, TINY)
            events = symbols_to_events(codes_to_symbols(head, TINY) + list(step), TINY)
            assert events_to_codes(events, TINY) == [*head, code] and events[-1].t == tick

    def test_rejects_consecutive_shifts(self):
        shift = TINY.shift_symbol(1)
        with pytest.raises(ValueError):
            symbols_to_events([shift, shift, 1], TINY)

    def test_rejects_dangling_shift(self):
        with pytest.raises(ValueError):
            symbols_to_events([1, TINY.shift_symbol(2)], TINY)

    def test_rejects_a_symbol_outside_the_vocabulary_or_a_descending_action(self):
        for symbols, message in [([1, TINY.size + 1], f"symbol {TINY.size + 1} outside"),
                                 ([3, 1], "times must strictly increase, got 1 after 3")]:
            with pytest.raises(ValueError, match=message):
                symbols_to_events(symbols, TINY)


    @pytest.mark.parametrize("fault", ["none", "below-1", "repeat", "earlier-tick",
                                       "descending", "gap-over-s-max"])
    def test_array_pass_equals_the_step_loop(self, fault):
        """Seeded code sequences, as lists and int64 arrays, give the stream
        or the error that stepping them one code at a time gives."""
        rng = np.random.default_rng(len(fault))
        for _ in range(50):
            ticks = np.cumsum(rng.choice([0, 0, 1, 2, 3], size=int(rng.integers(1, 12))))
            codes = sorted({int(t) * TINY.actions + int(rng.integers(1, 5)) for t in ticks})
            k = int(rng.integers(len(codes)))
            if fault == "below-1":
                codes[k] = int(rng.choice([0, -1, -2 ** 62]))
            elif fault == "repeat" and k:
                codes[k] = codes[k - 1]
            elif fault == "earlier-tick" and k:
                codes[k] = codes[k - 1] - TINY.actions
            elif fault == "descending" and k:
                codes[k] = codes[k - 1] - 1
            elif fault == "gap-over-s-max":
                codes[k:] = [c + TINY.s_max * TINY.actions for c in codes[k:]]
            expected = step_by_step(codes, TINY)
            for given in (codes, np.array(codes, dtype=np.int64)):
                try:
                    got = codes_to_symbols(given, TINY)
                except ValueError as exc:
                    got = str(exc)
                assert got == expected and type(got) is type(expected)
                assert all(type(s) is int for s in got) if isinstance(got, list) else True

    def test_other_sequences_are_stepped(self):
        """Codes past int64, floats and generators take the step loop."""
        with pytest.raises(ValueError) as exc:
            codes_to_symbols([2 ** 70], TINY)
        assert str(exc.value) == step_by_step([2 ** 70], TINY)
        assert codes_to_symbols([1.0, 6.0], TINY) == [1, TINY.shift_symbol(1), 2]
        assert codes_to_symbols((c for c in [1, 6]), TINY) == [1, TINY.shift_symbol(1), 2]
        assert codes_to_symbols([], TINY) == []


def step_by_step(codes, vocab: Vocabulary):
    """The stream of ``codes``, one ``code_symbols`` step each, or the error
    text of the first step that fails."""
    symbols, last = [], 0
    try:
        for code in map(int, codes):
            symbols.extend(code_symbols(code, last, vocab)[1])
            last = code
    except ValueError as exc:
        return str(exc)
    return symbols


class TestCanonicalMask:
    def test_start_allows_everything(self):
        assert allowed_symbols(None, TINY).all()

    def test_after_shift_only_actions_remain(self):
        allowed = allowed_symbols(TINY.shift_symbol(2), TINY)
        assert allowed[:TINY.actions].all()
        assert not allowed[TINY.actions:].any()

    def test_after_action_lower_actions_are_blocked(self):
        allowed = allowed_symbols(2, TINY)
        np.testing.assert_array_equal(
            allowed, [False, False, True, True, True, True, True])


class TestVocabulary:
    def test_symbol_ranges(self):
        assert TINY.size == 7
        assert TINY.is_action(4) and not TINY.is_action(5)
        assert TINY.is_shift(5) and TINY.is_shift(7)
        assert TINY.shift_amount(TINY.shift_symbol(3)) == 3

    def test_rejects_a_shift_out_of_range(self):
        for dt in (0, TINY.s_max + 1):
            with pytest.raises(ValueError, match=rf"^shift of {dt} ticks outside \[1, 3\]$"):
                TINY.shift_symbol(dt)
        with pytest.raises(ValueError, match="^symbol 4 is not a shift$"):
            TINY.shift_amount(4)

    def test_rejects_invalid_event_fields(self):
        with pytest.raises(ValueError):
            MusicEvent(t=-1, a=1)
        with pytest.raises(ValueError):
            MusicEvent(t=0, a=0)
