"""Symbolic-music event domain: unrolled codes, canonical symbol streams,
n-gram step models, and the adapter that exposes them as a sequence model."""

from .encoding import (MusicEvent, Vocabulary, allowed_symbols,
                       codes_to_events, decode_event, encode_event,
                       events_to_codes, events_to_symbols, symbols_to_events)
from .ngram import NGramModel, train_ngram
from .adapter import UnrolledMusicModel
from .files import (extract_constraints, read_corpus, read_events,
                    write_codes, write_constraint_file, write_events)
from .midi import read_midi, write_midi

__all__ = [
    "MusicEvent", "Vocabulary", "allowed_symbols",
    "codes_to_events", "decode_event", "encode_event", "events_to_codes",
    "events_to_symbols", "symbols_to_events",
    "NGramModel", "train_ngram",
    "UnrolledMusicModel",
    "extract_constraints", "read_corpus", "read_events",
    "write_codes", "write_constraint_file", "write_events",
    "read_midi", "write_midi",
]
