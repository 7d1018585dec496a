"""Exact answers for the tests: the order-2 grid, its exact laws, and pooled distances to them.

``order2_grid(n)`` is criterion 1's grid: each cell is occupied with the
probability ``ORDER2`` gives the two cells before it, the cells before the
first counting as vacant.  ``grid_problem`` gives an observed set's exact
conditional law on it, with the model and the constraints that sample that
law.  ``grid_bits`` turns seeded runs into the outcomes that law is over,
and ``pooled_tv`` takes the total variation between an exact law and the
outcomes pooled in the order given, which fixes its bits.

``read_events_by_json`` is the reference reader of event files, independent
of the program's array reader: it parses every line with ``files.loads`` and
checks each event as it reads it, and ``stream_by_events`` steps its events
into a symbol stream one at a time.  ``events_to_codes``, ``codes_to_events``
and ``write_events`` give the tests pieces as lists of ``MusicEvent`` rows.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from ppsmc.models import history_end
from ppsmc.music.encoding import (MusicEvent, Vocabulary, code_symbols, codes_to_columns,
                                  columns_to_codes)
from ppsmc.music.files import code_writer, loads
from ppsmc.oracle import (GridModel, bits_from_times, enumerate_conditional,
                          normalize_counts, observed_constraints, total_variation)

# (cell i - 2, cell i - 1): P(cell i occupied)
ORDER2 = {(0, 0): 0.55, (0, 1): 0.25, (1, 0): 0.7, (1, 1): 0.1}


def _order2(bits: tuple) -> float:
    return ORDER2[(bits[-2] if len(bits) >= 2 else 0, bits[-1] if bits else 0)]


def order2_grid(n: int) -> GridModel:
    return GridModel(n=n, g=_order2)


def grid_problem(n: int, observed: list) -> tuple:
    """``(exact, model, constraints)``: the law of ``order2_grid(n)``'s occupancy
    bits given 1s at ``observed``, and the sequence model and constraints whose
    conditional samples follow it at ``horizon=n``."""
    grid = order2_grid(n)
    return enumerate_conditional(grid, observed), grid, observed_constraints(observed)


def grid_bits(runs, n: int):
    """The occupancy bits over ``n`` cells of every sample of ``runs``, run by
    run in sample order; every run must have survived."""
    for result in runs:
        assert result.survived
        yield from (bits_from_times(s, n) for s in result.samples)


def pooled_tv(exact: dict, outcomes) -> float:
    """The total variation between ``exact`` and the empirical law of ``outcomes``."""
    return total_variation(exact, normalize_counts(Counter(outcomes)))


def events_to_codes(events, vocab: Vocabulary) -> list[int]:
    return columns_to_codes(events, vocab).tolist()


def codes_to_events(codes, vocab: Vocabulary) -> list[MusicEvent]:
    return [MusicEvent(*row) for row in codes_to_columns(codes, vocab).tolist()]


def write_events(path, events, vocab: Vocabulary) -> None:
    code_writer(vocab)(path, events_to_codes(events, vocab))


def _code(event: MusicEvent, vocab: Vocabulary) -> int:
    """The code of one event, checked against ``vocab``'s ranges."""
    if event.a > vocab.a_max:
        raise ValueError(f"action {event.a} exceeds a_max={vocab.a_max}")
    if event.part >= vocab.parts:
        raise ValueError(f"part {event.part} exceeds part count {vocab.parts}")
    return event.t * vocab.actions + event.part * vocab.a_max + event.a


def read_events_by_json(path) -> tuple[list[MusicEvent], int]:
    """``read_events`` with every line parsed by ``files.loads`` (``json.loads``
    refusing repeated keys) and every check made event by event: the first
    line's parse error or invalid event, then the header's layout, then the
    first range error, then the order error.  Every ValueError, JSON errors
    included, is prefixed with the path."""
    try:
        raw = [line for line in Path(path).read_text().splitlines() if line.strip()]
        if not raw:
            raise ValueError("empty event file")
        header = loads(raw[0])
        kind = header.get("kind") if isinstance(header, dict) else None
        if kind != "events":
            raise ValueError(f"not an event file (kind={kind!r})")
        if header.get("version", 1) != 1:
            raise ValueError(f"unsupported event file version {header.get('version')!r}")
        parts = header.get("parts", 1)
        if type(parts) is not int:
            raise ValueError(f"header field 'parts' must be an integer, got {parts!r}")
        if parts < 1:
            raise ValueError(f"header field 'parts' must be a positive integer, got {parts}")
        events = []
        for k, line in enumerate(raw[1:], start=1):
            d = loads(line)
            if not isinstance(d, dict):
                d = {}
            t, a, part = d.get("t"), d.get("a"), d.get("part", 0)
            if not (type(t) is int and type(a) is int and type(part) is int):  # no bools
                raise ValueError(f"event {k} needs integer 't', 'a' and 'part' fields, "
                                 f"got {line.strip()[:80]!r}")
            if t < 0 or a < 1 or part < 0:
                raise ValueError(f"invalid event ({t}, {a}, part={part})")
            events.append(MusicEvent(t=t, a=a, part=part))
        vocab = Vocabulary(parts=parts)
        history_end([_code(event, vocab) for event in events])  # canonical order check
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return events, parts


def stream_by_events(events, vocab: Vocabulary) -> list[int]:
    """The symbol stream of ``events`` in ``vocab``, one ``code_symbols`` step
    per event: each event's range error or step error comes in stream order."""
    symbols, last = [], 0
    for event in events:
        code = _code(event, vocab)
        symbols.extend(code_symbols(code, last, vocab)[1])
        last = code
    return symbols
