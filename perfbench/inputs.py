"""Seeded inputs of the benchmark: a synthetic music corpus and a held-out piece.

Nothing here imports ppsmc.  Pieces are written as event files in the format
the program reads (a header line, then one {"t", "a", "part"} object per event
in code order), so reading and training them is the program's own set-up.

A piece is a single-part melody at 2400 ticks per quarter: a pitch random walk
over 48..84, note lengths of a sixteenth, an eighth or a quarter, an
occasional rest and an occasional major third above the melody note.  Every
note contributes a note-on (action = pitch) and a note-off (action =
128 + pitch), so no tick step exceeds a quarter (s_max = 2400).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ACTIONS = 256          # default Vocabulary(): one part of 128 note-ons + 128 note-offs
S_MAX = 2400           # default Vocabulary().s_max
CORPUS_PIECES = 24
CORPUS_EVENTS = 600    # events per corpus piece


def piece(rng: random.Random, n_events: int) -> list[tuple[int, int]]:
    """``n_events`` (tick, action) pairs in code order."""
    events: set[tuple[int, int]] = set()
    t = 0
    pitch = 60
    while len(events) < n_events:
        dur = rng.choice((600, 1200, 1200, 2400))
        pitch = min(84, max(48, pitch + rng.choice((-4, -2, -2, -1, 0, 1, 2, 2, 4))))
        pitches = [pitch, pitch + 4] if rng.random() < 0.25 else [pitch]
        for p in pitches:
            events.add((t, p))
            events.add((t + dur, 128 + p))
        t += dur + (600 if rng.random() < 0.1 else 0)
    return sorted(events)[:n_events]


def write_piece(path: Path, events: list[tuple[int, int]]) -> None:
    lines = [json.dumps({"kind": "events", "parts": 1, "ppq": 2400, "version": 1})]
    lines += [json.dumps({"a": a, "part": 0, "t": t}) for t, a in events]
    path.write_text("\n".join(lines) + "\n")


def code(t: int, a: int) -> int:
    return t * ACTIONS + a


def write_music_inputs(directory: Path, prefix_events: int, required: int) -> dict:
    """The corpus and the held-out piece; returns the expected constraints.

    Both come from fixed seeds, so every run trains the same model and asks
    for the same work; the benchmark's seed picks the sampler seeds instead.

    The split is the tick of event ``prefix_events``, so the prefix holds at
    most that many events (fewer when the split tick opens with a chord).  The
    held-out piece file keeps the prefix and the next ``required`` note-ons,
    so extracting part-0 constraints at the split yields exactly those.  With
    note-offs and other free events left between them, the filter has room to
    differ from the beam.
    """
    corpus = directory / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    for i in range(CORPUS_PIECES):
        write_piece(corpus / f"piece_{i:02d}.jsonl",
                    piece(random.Random(f"corpus/{i}"), CORPUS_EVENTS))
    held = piece(random.Random("heldout"), prefix_events + 8 * required)
    split_tick = held[prefix_events][0]
    prefix = [ev for ev in held if ev[0] < split_tick]
    kept = [ev for ev in held[len(prefix):] if ev[1] <= 128][:required]
    write_piece(directory / "heldout.jsonl", prefix + kept)
    return {"prefix": [code(t, a) for t, a in prefix],
            "z": [code(t, a) for t, a in kept],
            "split_tick": split_tick,
            "horizon": (kept[-1][0] + 1) * ACTIONS}
