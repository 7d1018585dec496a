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
uses the residue convention: e % A == 0 means a' = A at tick e//A - 1, as
``_split_code`` applies it to one code.

A piece in memory is one integer array of (t, a, part) rows, one per event
(``MusicEvent`` names a row).  ``columns_to_codes`` and ``codes_to_columns``
convert a whole piece in one array pass each.

A piece is generated as a symbol stream over a vocabulary of A actions and
s_max time shifts.  Canonical form: shifts never follow shifts, and within a
tick actions strictly ascend.  The mask encodes exactly that — after a shift
all shifts are forbidden; after action a' all actions <= a' are forbidden; at
the very start nothing is forbidden.  ``codes_to_symbols`` unrolls any code
sequence in one array pass; ``code_symbols`` is the one scalar step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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


class MusicEvent(NamedTuple):
    """One row of a piece: tick, action (1..256 within its part) and part."""
    t: int
    a: int
    part: int = 0


def _split_code(code: int, vocab: Vocabulary) -> tuple[int, int]:
    """(tick, expanded action) of a positive code; a residue of 0 means the
    last action of the previous tick."""
    t, rest = divmod(code - 1, vocab.actions)
    return t, rest + 1


def _check_events(t, a, part) -> None:
    """Raise on the first event with t < 0, a < 1 or part < 0."""
    bad = (t < 0) | (a < 1) | (part < 0)
    if bad.any():
        i = bad.argmax()
        raise ValueError(f"invalid event ({t[i]}, {a[i]}, part={part[i]})")


def columns_to_codes(rows, vocab: Vocabulary) -> np.ndarray:
    """The codes in ``vocab`` of a piece's (t, a, part) rows, in one array pass:
    an int64 array's in int64 (its ticks must keep them in range), any other
    rows' as Python ints, which never overflow.  Raises the first row's invalid
    event, then the first row's action over a_max or part past the part count,
    then the order rule's error."""
    rows = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    t, a, part = rows.reshape(-1, 3).T
    _check_events(t, a, part)
    over = (a > vocab.a_max) | (part >= vocab.parts)
    if over.any():
        i = over.argmax()
        if a[i] > vocab.a_max:
            raise ValueError(f"action {a[i]} exceeds a_max={vocab.a_max}")
        raise ValueError(f"part {part[i]} exceeds part count {vocab.parts}")
    codes = t * vocab.actions + part * vocab.a_max + a
    if (codes[1:] <= codes[:-1]).any():
        history_end(codes.tolist())  # raises the one order rule's error
    return codes


def codes_to_columns(codes, vocab: Vocabulary) -> np.ndarray:
    """The (t, a, part) rows of positive codes in ``vocab``, by ``_split_code``'s
    residue rule in one array pass; other than an int64 array, as Python ints."""
    e = codes if isinstance(codes, np.ndarray) else np.array(codes, dtype=object)
    if (e < 1).any():
        raise ValueError(f"codes are positive, got {e[(e < 1).argmax()]}")
    t, rest = (e - 1) // vocab.actions, (e - 1) % vocab.actions
    return np.column_stack((t, rest % vocab.a_max + 1, rest // vocab.a_max))


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
    """Canonical symbol stream of a code sequence (shift-then-action unrolling)
    in one array pass, each check of ``code_symbols`` a mask: in int64 if
    ``np.asarray`` gives int64, else in Python ints.  The first code that fails
    a check goes to ``code_symbols``, which raises its error."""
    e = np.asarray(codes)
    if e.ndim != 1 or e.dtype.kind != "i":  # codes past int64, floats, a generator (0-d)
        e = np.array([int(c) for c in codes], dtype=object)
    t, a = (e - 1) // vocab.actions, (e - 1) % vocab.actions  # a: the expanded action less 1
    dt = np.diff(t, prepend=0)
    # codes are compared, not subtracted, so that no difference overflows
    bad = (e <= np.concatenate(([0], e[:-1]))) | (dt > vocab.s_max)
    if bad.any():
        i = bad.argmax()
        code_symbols(int(e[i]), int(e[i - 1]) if i else 0, vocab)  # raises that check's error
    step = np.column_stack((vocab.actions + dt, a + 1)).ravel()
    return step[np.column_stack((dt > 0, np.ones_like(a, dtype=bool))).ravel()].tolist()


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

