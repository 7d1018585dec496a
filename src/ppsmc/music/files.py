"""Event files, corpora, constraint extraction and constraint files.

Event files are JSON lines: a header object, then one object per event in
canonical code order.  A constraint file is one JSON object: the required
times z and their flags b (``smc.ConstraintSet``), and, for music, the
conditioning prefix (codes before the split) and a tick horizon.  This module
reads and writes both formats.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from ..models import history_end
from ..smc import ConstraintSet, check_span
from .encoding import (NOTE_ACTIONS, TICKS_PER_QUARTER, MusicEvent, Vocabulary, _split_code,
                       codes_to_events, codes_to_symbols, events_to_codes, events_to_symbols)

FORMAT_VERSION = 1  # of event files and constraint files


def write_codes(path, codes: Sequence[int], vocab: Vocabulary) -> None:
    """Write the event file of a piece given as codes.

    Raises ValueError unless the codes strictly increase from 0.  Each event
    line is the bytes ``json.dumps`` gives its ``t``, ``a`` and ``part`` with
    sorted keys.
    """
    codes = [int(code) for code in codes]
    history_end((0, *codes))
    lines = [json.dumps({"version": FORMAT_VERSION, "kind": "events",
                         "ppq": TICKS_PER_QUARTER, "parts": vocab.parts}, sort_keys=True)]
    for code in codes:
        t, a_prime = _split_code(code, vocab)
        part, a = divmod(a_prime - 1, vocab.a_max)
        lines.append(f'{{"a": {a + 1}, "part": {part}, "t": {t}}}')
    Path(path).write_text("\n".join(lines) + "\n")


def write_events(path, events: Sequence[MusicEvent], vocab: Vocabulary) -> None:
    write_codes(path, events_to_codes(events, vocab), vocab)


# an event line exactly as ``write_codes`` writes it, with values of at most 12
# digits, so that no valid event's code overflows int64; json reads any other
_EVENT = r'\{"a": N, "part": N, "t": N\}'.replace("N", "(?:0|[1-9][0-9]{0,11})")
_EVENT_LINE, _EVENT_LINES = re.compile(_EVENT), re.compile(f"(?:{_EVENT}\n)*")
_NOT_DIGITS = str.maketrans('{}":,aprt', " " * 9)  # all such a line holds but digits


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object repeats key {key!r}")
        obj[key] = value
    return obj


def loads(text: str):
    """``json.loads``, but an object that repeats a key raises ValueError
    instead of keeping the last value; every JSON input is read through it."""
    return json.loads(text, object_pairs_hook=_unique_keys)


@contextmanager
def in_file(path):
    """Prefix ``{path}: `` to a ValueError raised inside, JSON errors included."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _header_parts(line: str | None) -> int:
    """The part count in the header ``line``, a file's first non-blank line
    (None if it has none); raises ValueError if it is no event file's header."""
    if line is None:
        raise ValueError("empty event file")
    header = loads(line)
    kind = header.get("kind") if isinstance(header, dict) else None
    if kind != "events":
        raise ValueError(f"not an event file (kind={kind!r})")
    if header.get("version", 1) != FORMAT_VERSION:
        raise ValueError(f"unsupported event file version {header.get('version')!r}")
    parts = header.get("parts", 1)
    if type(parts) is not int:
        raise ValueError(f"header field 'parts' must be an integer, got {parts!r}")
    return parts


def read_parts(path) -> int:
    """The part count in an event file's header, reading no line past it."""
    with in_file(path), open(path) as lines:  # split as read_events splits the whole text
        pieces = (piece for line in lines for piece in line.splitlines())
        return _header_parts(next(filter(str.strip, pieces), None))


def read_events(path) -> tuple[list[MusicEvent], int]:
    """Read an event file; returns (events, part count from the header).
    Every ValueError names the file."""
    with in_file(path):
        raw = list(filter(str.strip, Path(path).read_text().splitlines()))  # the non-blank lines
        parts = _header_parts(raw[0] if raw else None)
        events, exact = [], _EVENT_LINE.fullmatch
        for k, line in enumerate(raw[1:], start=1):
            if exact(line):
                a, part, t = map(int, line.translate(_NOT_DIGITS).split())
            else:
                d = loads(line)
                if not isinstance(d, dict):
                    d = {}
                t, a, part = d.get("t"), d.get("a"), d.get("part", 0)
                if not (type(t) is int and type(a) is int and type(part) is int):  # no bools
                    raise ValueError(f"event {k} needs integer 't', 'a' and 'part' fields, "
                                     f"got {line.strip()[:80]!r}")
            events.append(MusicEvent(t=t, a=a, part=part))
        events_to_codes(events, Vocabulary(parts=max(parts, 1)))  # canonical order check
    return events, parts


def _exact_codes(text: str, vocab: Vocabulary) -> np.ndarray | None:
    """The codes in ``vocab`` of an event file in ``write_codes``' spelling that
    passes every check of ``read_events`` and ``vocab``, else None."""
    raw = list(filter(str.strip, text.splitlines()))  # the non-blank lines, as read_events
    parts = _header_parts(raw[0] if raw else None)
    body = "\n".join([*raw[1:], ""])
    if not _EVENT_LINES.fullmatch(body):
        return None
    a, part, t = np.fromstring(body.translate(_NOT_DIGITS), np.int64, sep=" ").reshape(-1, 3).T
    codes = t * vocab.actions + part * vocab.a_max + a
    # MusicEvent's a >= 1 and both layouts' ranges; codes then order events as both do
    fits = ((a >= 1) & (a <= min(NOTE_ACTIONS, vocab.a_max))
            & (part < min(max(parts, 1), vocab.parts)))
    if not fits.all() or (codes[1:] <= codes[:-1]).any():
        return None
    Vocabulary(parts=max(parts, 1))  # raises as read_events does on too many parts
    return codes


def read_corpus(directory, vocab: Vocabulary) -> list[list[int]]:
    """Symbol streams of every event file (*.jsonl) in a directory.  A file in
    ``write_codes``' spelling is read as arrays, building no ``MusicEvent``;
    any other, or one that fails a check, is read by ``read_events``."""
    paths = sorted(Path(directory).glob("*.jsonl"))
    if not paths:
        raise ValueError(f"no event files (*.jsonl) found in {directory}")
    streams = []
    for p in paths:
        with in_file(p):
            codes = _exact_codes(Path(p).read_text(), vocab)
            if codes is not None:
                streams.append(codes_to_symbols(codes, vocab))
                continue
        events, _ = read_events(p)
        with in_file(p):
            streams.append(events_to_symbols(events, vocab))
    return streams


def extract_constraints(events: Sequence[MusicEvent], split_tick: int, part: int,
                        vocab: Vocabulary,
                        hold_fixed: bool = False) -> tuple[list[int], ConstraintSet]:
    """Conditioning data from a reference piece.

    Events before ``split_tick`` become the prefix (as codes); the chosen
    part's events from the split onward become required times.  Other parts'
    events after the split are discarded — they are what sampling regenerates.
    ``hold_fixed`` forbids free events between (and after) the constraints.
    """
    prefix = events_to_codes([ev for ev in events if ev.t < split_tick], vocab)
    kept = [ev for ev in events if ev.t >= split_tick and ev.part == part]
    if not kept:
        warnings.warn(f"part {part} has no events at or after tick {split_tick}; "
                      "constraint set is empty", stacklevel=2)
    z = tuple(events_to_codes(kept, vocab))
    b = (not hold_fixed,) * len(z)
    return prefix, ConstraintSet(z=z, b=b)


def write_constraint_file(path, constraints: ConstraintSet, prefix: Sequence[int] = (),
                          horizon_ticks: int | None = None,
                          vocab: Vocabulary | None = None) -> None:
    """Write a constraint file; with the ``vocab`` its codes are in, the file
    records their layout, ``a_max`` and ``parts``."""
    payload = {"version": FORMAT_VERSION, "z": list(constraints.z), "b": list(constraints.b),
               "prefix": [int(c) for c in prefix]}
    if horizon_ticks is not None:
        if horizon_ticks < 1:  # every reader refuses it
            raise ValueError(f"constraint field 'horizon_ticks' must be positive, "
                             f"got {horizon_ticks}")
        payload["horizon_ticks"] = int(horizon_ticks)
    if vocab is not None:
        payload.update(a_max=vocab.a_max, parts=vocab.parts)
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def _as_code(value) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"music constraint fields must hold integer codes, got {value!r}")
    return value


def read_constraint_file(path, vocab: Vocabulary | None = None
                         ) -> tuple[ConstraintSet, list[int], int | None]:
    """Load a constraint file: the constraint set, the prefix as codes ([] if
    absent) and the tick horizon, positive (None if absent).  Every field is
    checked, whatever model reads the file; ValueError on any malformed one,
    or on a prefix that does not strictly increase.

    With the ``vocab`` of a music model, z holds codes too, which must begin
    after the prefix and end by the file's tick horizon (if any, even when a
    run overrides it), and codes written under another layout (the file's
    ``a_max`` and ``parts``) are re-encoded into ``vocab``'s; a file without
    them is read in ``vocab``'s.
    """
    with in_file(path):
        d = loads(Path(path).read_text())
        if not isinstance(d, dict):
            raise ValueError(f"constraints must be a JSON object, got {type(d).__name__}")
        version = d.get("version", 1)
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported constraint file version: {version}")
        z, b = d.get("z"), d.get("b")
        if not isinstance(z, list) or not all(
                isinstance(t, (int, float)) and not isinstance(t, bool) for t in z):
            raise ValueError("constraint field 'z' is missing or not a list of numbers")
        if not isinstance(b, list) or not all(isinstance(v, bool) for v in b):
            raise ValueError("constraint field 'b' is missing or not a list of booleans")
        constraints = ConstraintSet(z=tuple(z), b=tuple(b))
        prefix, ticks = d.get("prefix", []), d.get("horizon_ticks")
        if not isinstance(prefix, list):
            raise ValueError("constraint field 'prefix' must be a list of codes")
        prefix, ticks = [_as_code(c) for c in prefix], None if ticks is None else _as_code(ticks)
        if ticks is not None and ticks < 1:
            raise ValueError(f"constraint field 'horizon_ticks' must be positive, got {ticks}")
        layout = d.get("a_max"), d.get("parts")
        if layout != (None, None) and not all(type(v) is int and v > 0 for v in layout):
            raise ValueError("constraint fields 'a_max' and 'parts' must both be positive integers")
        if vocab is not None:
            z = [_as_code(t) for t in z]
            if None not in layout and layout != (vocab.a_max, vocab.parts):
                written = Vocabulary(a_max=layout[0], parts=layout[1])
                prefix, z = (events_to_codes(codes_to_events(c, written), vocab)
                             for c in (prefix, z))
            constraints = ConstraintSet(z=tuple(z), b=constraints.b)
        horizon = math.inf if vocab is None or ticks is None else ticks * vocab.actions
        check_span(constraints.z if vocab is not None else (), prefix, horizon)
        return constraints, prefix, ticks
