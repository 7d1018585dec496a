"""Unrolled event codes, symbol streams, and the canonical-order mask."""

from __future__ import annotations

import numpy as np
import pytest

from exact import codes_to_events, events_to_codes

from ppsmc.music import encoding
from ppsmc.music.encoding import (MusicEvent, Vocabulary, allowed_symbols, code_symbols,
                                  codes_to_columns, codes_to_symbols, columns_to_codes)

VOCAB = Vocabulary()  # 256 note actions, shifts up to one whole note at 2400 ticks
TINY = Vocabulary(a_max=4, s_max=3)


def symbols_to_events(symbols, vocab: Vocabulary) -> list[MusicEvent]:
    """Decode a symbol stream; ValueError unless it is the canonical stream
    of the events it decodes to."""
    symbols, codes, t = list(symbols), [], 0
    for sym in symbols:
        if vocab.is_shift(sym):
            t += sym - vocab.actions
        elif vocab.is_action(sym):
            codes.append(t * vocab.actions + sym)
        else:
            raise ValueError(f"symbol {sym} outside vocabulary of size {vocab.size}")
    if codes_to_symbols(codes, vocab) != symbols:
        raise ValueError("symbol stream is not canonical: a shift after a shift or at the end")
    return codes_to_events(codes, vocab)


def events_to_symbols(events, vocab: Vocabulary) -> list[int]:
    return codes_to_symbols(columns_to_codes(events, vocab), vocab)


class TestEventCodes:
    def test_frozen_example(self):
        assert events_to_codes([MusicEvent(t=3, a=5)], VOCAB) == [773]

    def test_decode_at_block_boundary(self):
        # Code 512 is the last action of tick 1, not the zeroth of tick 2.
        assert codes_to_events([512], VOCAB) == [MusicEvent(t=1, a=256)]

    def test_round_trip_random_events(self):
        """Seeded events, in code order as a piece holds them, through int64
        arrays and through Python ints."""
        rng = np.random.default_rng(8)
        events = sorted({MusicEvent(t=int(rng.integers(0, 10000)), a=int(rng.integers(1, 257)))
                         for _ in range(3000)})
        assert codes_to_events(events_to_codes(events, VOCAB), VOCAB) == events
        codes = columns_to_codes(np.array(events, dtype=np.int64), VOCAB)
        assert codes.dtype == np.int64 and codes.tolist() == events_to_codes(events, VOCAB)
        assert codes_to_columns(codes, VOCAB).tolist() == [list(ev) for ev in events]

    def test_multi_part_offsets(self):
        vocab = Vocabulary(parts=2)
        ev = MusicEvent(t=1, a=10, part=1)
        assert events_to_codes([ev], vocab) == [512 + 256 + 10]
        assert codes_to_events([778], vocab) == [ev]

    def test_codes_past_int64_are_exact(self):
        """Rows and codes given as Python ints stay Python ints."""
        events = [MusicEvent(0, 1), MusicEvent(10 ** 30, 2, part=1)]
        vocab = Vocabulary(parts=2)
        assert events_to_codes(events, vocab) == [1, 10 ** 30 * 512 + 258]
        assert codes_to_events([1, 10 ** 30 * 512 + 258], vocab) == events

    def test_codes_are_strictly_increasing_in_time_and_action(self):
        events = [MusicEvent(0, 3), MusicEvent(0, 7), MusicEvent(2, 1)]
        codes = events_to_codes(events, VOCAB)
        assert codes == [3, 7, 513]
        assert codes_to_events(codes, VOCAB) == events

    def test_rejects_code_zero(self):
        with pytest.raises(ValueError, match="^codes are positive, got 0$"):
            codes_to_columns([5, 0], VOCAB)

    @pytest.mark.parametrize("events, message", [
        ([(0, 300), (0, 0)], "invalid event (0, 0, part=0)"),
        ([(0, 2), (0, 300), (0, 1, 1)], "action 300 exceeds a_max=256"),
        ([(0, 2), (0, 1, 1), (0, 300)], "part 1 exceeds part count 1"),
        ([(0, 300, 1), (1, 1)], "action 300 exceeds a_max=256"),
        ([(1, 3), (1, 2), (0, 300)], "action 300 exceeds a_max=256"),
        ([(1, 3), (1, 2)], "times must strictly increase, got 258 after 259"),
    ], ids=["invalid-before-range", "action", "part", "action-before-part",
            "range-before-order", "order"])
    def test_checks_come_in_their_order(self, events, message):
        """Every row's invalid event, then the first range error, then the order."""
        with pytest.raises(ValueError) as exc:
            columns_to_codes([MusicEvent(*ev) for ev in events], VOCAB)
        assert str(exc.value) == message


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
        [code] = events_to_codes([MusicEvent(1, 3)], TINY)
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
        """Codes past int64, floats and generators are unrolled as Python ints,
        and a code past int64 that fails a check raises ``code_symbols``' error."""
        with pytest.raises(ValueError) as exc:
            codes_to_symbols([2 ** 70], TINY)
        assert str(exc.value) == step_by_step([2 ** 70], TINY)
        assert codes_to_symbols([1.0, 6.0], TINY) == [1, TINY.shift_symbol(1), 2]
        assert codes_to_symbols((c for c in [1, 6]), TINY) == [1, TINY.shift_symbol(1), 2]
        assert codes_to_symbols([], TINY) == []

    def test_no_code_is_stepped_unless_it_fails_a_check(self, monkeypatch):
        """Every kind of sequence is unrolled in one array pass: ``code_symbols``
        runs only to raise the first failed check's error, once."""
        calls = []

        def spy(*args):
            calls.append(args)
            return code_symbols(*args)

        monkeypatch.setattr(encoding, "code_symbols", spy)
        codes, shift = [1, 6, 7, 16], TINY.shift_symbol
        for given in (np.array(codes, dtype=np.int64), codes, np.array(codes, dtype=object),
                      (c for c in codes)):
            assert codes_to_symbols(given, TINY) == [1, shift(1), 2, 3, shift(2), 4]
        assert calls == []
        with pytest.raises(ValueError, match="^times must strictly increase, got 6 after 7$"):
            codes_to_symbols([1, 7, 6, 16], TINY)
        assert calls == [(6, 7, TINY)]


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

    def test_rejects_a_shift_out_of_range(self):
        for dt in (0, TINY.s_max + 1):
            with pytest.raises(ValueError, match=rf"^shift of {dt} ticks outside \[1, 3\]$"):
                TINY.shift_symbol(dt)

    def test_rejects_invalid_event_fields(self):
        with pytest.raises(ValueError, match=r"^invalid event \(-1, 1, part=0\)$"):
            columns_to_codes([MusicEvent(t=-1, a=1)], VOCAB)
        with pytest.raises(ValueError, match=r"^invalid event \(0, 0, part=0\)$"):
            columns_to_codes([MusicEvent(t=0, a=0)], VOCAB)
