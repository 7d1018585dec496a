"""Event encoding, symbol streams, and the canonical-order mask.

An event is (tick t, action a, part): actions 1..128 are note-ons of pitch a,
129..256 note-offs of pitch a-128; ticks run at 2400 per quarter note.  With
P parts the action space expands to A = P*256, ordering part 0's actions
before part 1's within a tick.  The unrolled code of an event is

    e = t*A + a'        (a' the expanded action, 1-based)

so codes order events by (tick, part, action), and the one order rule is that
a piece's codes strictly increase from 0: as a' lies in 1..A, codes are then
positive, ticks never go back and actions within a tick strictly ascend, and
``models.history_end`` raises the one error of codes that do not.  Decoding
uses the residue convention: e % A == 0 means a' = A at tick e//A - 1;
``_split_code`` is the one place that applies it.

A piece is generated as a symbol stream over a vocabulary of A actions and
s_max time shifts.  Canonical form: shifts never follow shifts, and within a
tick actions strictly ascend.  The mask encodes exactly that — after a shift
all shifts are forbidden; after action a' all actions <= a' are forbidden; at
the very start nothing is forbidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..models import history_end

TICKS_PER_QUARTER = 2400
NOTE_ACTIONS = 256  # per part: 128 note-ons then 128 note-offs
MAX_SYMBOLS = 2 ** 20  # a PMF over the vocabulary is an array of this many floats at most


@dataclass(frozen=True)
class Vocabulary:
    """Symbol layout: actions 1..A, then shifts A+1..A+s_max."""

    a_max: int = NOTE_ACTIONS
    s_max: int = TICKS_PER_QUARTER
    parts: int = 1

    def __post_init__(self):
        if self.a_max < 1 or self.s_max < 1 or self.parts < 1:
            raise ValueError("a_max, s_max and parts must all be positive")
        if self.a_max * self.parts + self.s_max > MAX_SYMBOLS:
            raise ValueError(f"a vocabulary of a_max*parts + s_max = {self.a_max}*{self.parts} "
                             f"+ {self.s_max} symbols is over the limit of {MAX_SYMBOLS}")

    @cached_property  # read in the adapter's inner loop; not a field, so eq/repr ignore it
    def actions(self) -> int:
        return self.a_max * self.parts

    @property
    def size(self) -> int:
        return self.actions + self.s_max

    def is_action(self, sym: int) -> bool:
        return 1 <= sym <= self.actions

    def is_shift(self, sym: int) -> bool:
        return self.actions < sym <= self.size

    def shift_symbol(self, dt: int) -> int:
        if not 1 <= dt <= self.s_max:
            raise ValueError(f"shift of {dt} ticks outside [1, {self.s_max}]")
        return self.actions + dt

    def shift_amount(self, sym: int) -> int:
        if not self.is_shift(sym):
            raise ValueError(f"symbol {sym} is not a shift")
        return sym - self.actions


@dataclass(frozen=True)
class MusicEvent:
    t: int
    a: int
    part: int = 0

    def __post_init__(self):
        if self.t < 0 or self.a < 1 or self.part < 0:
            raise ValueError(f"invalid event ({self.t}, {self.a}, part={self.part})")


def encode_event(ev: MusicEvent, vocab: Vocabulary) -> int:
    """Unrolled code e = t*A + a' (always >= 1)."""
    if ev.a > vocab.a_max:
        raise ValueError(f"action {ev.a} exceeds a_max={vocab.a_max}")
    if ev.part >= vocab.parts:
        raise ValueError(f"part {ev.part} exceeds part count {vocab.parts}")
    return ev.t * vocab.actions + ev.part * vocab.a_max + ev.a


def _split_code(code: int, vocab: Vocabulary) -> tuple[int, int]:
    """(tick, expanded action) of a positive code; a residue of 0 means the
    last action of the previous tick."""
    t, rest = divmod(code - 1, vocab.actions)
    return t, rest + 1


def decode_event(code: int, vocab: Vocabulary) -> MusicEvent:
    """Inverse of encode_event."""
    if code < 1:
        raise ValueError(f"codes are positive, got {code}")
    t, a_prime = _split_code(code, vocab)
    part, a = divmod(a_prime - 1, vocab.a_max)
    return MusicEvent(t=t, a=a + 1, part=part)


def events_to_codes(events, vocab: Vocabulary) -> list[int]:
    codes = [encode_event(ev, vocab) for ev in events]
    history_end(codes)
    return codes


def codes_to_events(codes, vocab: Vocabulary) -> list[MusicEvent]:
    return [decode_event(int(c), vocab) for c in codes]


def code_symbols(code: int, last: int, vocab: Vocabulary) -> tuple[int, tuple[int, ...]]:
    """The canonical step: the tick of ``code`` and the symbols that append it
    to a stream whose last code is ``last`` (0 before any), a shift if the tick
    moves, then the action.  Rejects a code not above ``last`` and a tick gap
    beyond s_max."""
    if code <= last:
        history_end((last, code))  # raises the one order rule's error
    t, a_prime = _split_code(code, vocab)
    dt = t - (_split_code(last, vocab)[0] if last else 0)  # a stream starts at tick 0
    if dt == 0:
        return t, (a_prime,)
    if dt > vocab.s_max:
        raise ValueError(f"tick gap {dt} exceeds s_max={vocab.s_max}; "
                         "re-ingest with a larger s_max")
    return t, (vocab.shift_symbol(dt), a_prime)


def codes_to_symbols(codes, vocab: Vocabulary) -> list[int]:
    """Canonical symbol stream of a code sequence (shift-then-action unrolling):
    one array pass over an integer sequence, every check of ``code_symbols`` a
    mask; any other input (a generator is 0-d) or a failed check steps code by
    code, so that the first failed check raises its error."""
    e = np.asarray(codes)
    if e.ndim == 1 and e.dtype.kind == "i":
        t, a = np.divmod(e - 1, vocab.actions)  # a: the expanded action less 1
        dt = np.diff(t, prepend=0)
        # codes are compared, not subtracted, so that no difference overflows
        if not ((e <= np.concatenate(([0], e[:-1]))) | (dt > vocab.s_max)).any():
            step = np.column_stack((vocab.actions + dt, a + 1)).ravel()
            return step[np.column_stack((dt > 0, np.ones_like(a, dtype=bool))).ravel()].tolist()
    symbols, last = [], 0
    for code in map(int, codes):
        symbols.extend(code_symbols(code, last, vocab)[1])
        last = code
    return symbols


def events_to_symbols(events, vocab: Vocabulary) -> list[int]:
    """Canonical symbol stream of an event list, encoded lazily so that errors
    come in stream order."""
    return codes_to_symbols((encode_event(ev, vocab) for ev in events), vocab)


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


def allowed_symbols(prev: int | None, vocab: Vocabulary) -> np.ndarray:
    """Boolean mask (index sym-1) of symbols permitted after ``prev``.

    None (start of stream) permits everything.
    """
    mask = np.ones(vocab.size, dtype=bool)
    if prev is None:
        return mask
    if vocab.is_shift(prev):
        mask[vocab.actions:] = False
    elif vocab.is_action(prev):
        mask[:prev] = False  # actions <= prev, i.e. indices 0..prev-1
    else:
        raise ValueError(f"symbol {prev} outside vocabulary of size {vocab.size}")
    return mask

