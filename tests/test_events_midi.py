"""Event files, constraint extraction, and the MIDI subset."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from exact import (codes_to_events, events_to_codes, read_events_by_json, stream_by_events,
                   write_events)

from ppsmc import cli
from ppsmc.music import files
from ppsmc.music.encoding import MusicEvent, Vocabulary
from ppsmc.music.files import (code_writer, extract_constraints, in_file, read_constraint_file,
                               read_corpus, read_events, write_constraint_file)
from ppsmc.music.midi import read_midi, write_midi
from ppsmc.music.ngram import train_ngram

VOCAB = Vocabulary()

PIECE = [
    MusicEvent(0, 61),        # C4 on
    MusicEvent(0, 65),        # E4 on
    MusicEvent(2400, 68),     # G4 on (same-tick actions ascend)
    MusicEvent(2400, 189),    # C4 off
    MusicEvent(2400, 193),    # E4 off
    MusicEvent(4800, 196),    # G4 off
]


class TestEventFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "piece.jsonl"
        write_events(path, PIECE, VOCAB)
        events, parts = read_events(path)
        assert events == PIECE and parts == 1

    def test_header_records_resolution(self, tmp_path):
        path = tmp_path / "piece.jsonl"
        write_events(path, PIECE, VOCAB)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["ppq"] == 2400 and header["kind"] == "events"

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"version": 9, "kind": "events", "ppq": 2400, "parts": 1}\n')
        with pytest.raises(ValueError, match="version"):
            read_events(path)

    def test_rejects_non_canonical_order(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_events(path, PIECE, VOCAB)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[2], lines[1]] + lines[3:]) + "\n")
        with pytest.raises(ValueError):
            read_events(path)

    def test_multi_part_bytes_are_unchanged(self, tmp_path):
        piece = [MusicEvent(0, 61, 0), MusicEvent(0, 60, 1), MusicEvent(1200, 189, 0),
                 MusicEvent(1200, 64, 1), MusicEvent(2400, 188, 1), MusicEvent(2400, 192, 1)]
        path = tmp_path / "piece.jsonl"
        write_events(path, piece, Vocabulary(parts=2))
        assert path.read_text() == (
            '{"kind": "events", "parts": 2, "ppq": 2400, "version": 1}\n'
            '{"a": 61, "part": 0, "t": 0}\n{"a": 60, "part": 1, "t": 0}\n'
            '{"a": 189, "part": 0, "t": 1200}\n{"a": 64, "part": 1, "t": 1200}\n'
            '{"a": 188, "part": 1, "t": 2400}\n{"a": 192, "part": 1, "t": 2400}\n')

    @pytest.mark.parametrize("vocab", [VOCAB, Vocabulary(parts=3), Vocabulary(a_max=4, s_max=3)])
    def test_codes_read_back_as_their_events(self, tmp_path, vocab):
        acts = vocab.actions  # codes at multiples of A are the last action of a tick
        codes = [1, 2, acts - 1, acts, acts + 1, 3 * acts, 3 * acts + 2, 7 * acts]
        path = tmp_path / "piece.jsonl"
        code_writer(vocab)(path, codes)
        assert read_events(path) == (codes_to_events(codes, vocab), vocab.parts)

    @pytest.mark.parametrize("codes, fault", [
        ([0, 5], "positive"), ([-3], "positive"), ([5, 5], "ascending"), ([5, 9, 7], "ascending"),
    ])
    def test_writer_rejects_bad_codes(self, tmp_path, codes, fault):
        """A code below 1 and a code that does not ascend break the one rule:
        0 and the codes must strictly increase; the first pair that does not is named."""
        last, code = next((a, b) for a, b in zip([0, *codes], codes) if b <= a)
        with pytest.raises(ValueError, match=f"^times must strictly increase, "
                                             f"got {code} after {last}$"):
            code_writer(VOCAB)(tmp_path / "bad.jsonl", codes)

    @pytest.mark.parametrize("sample, message", [
        ((5, 9, 7), "times must strictly increase, got 7 after 9"),
        ((0, 5), "times must strictly increase, got 0 after 0"),
    ], ids=["sample0-descending", "sample1-code-0"])
    def test_cli_reports_bad_codes_as_an_error_line(self, tmp_path, monkeypatch, capsys,
                                                    sample, message):
        model, cs = tmp_path / "model.json", tmp_path / "cs.json"
        train_ngram([[61, 65]], VOCAB, order=1, alpha=0.1).save(model)
        write_constraint_file(cs, extract_constraints(PIECE, 2400, 0, VOCAB)[1])

        class Result:
            survived, failed_barrier, diagnostics, log_probs = True, None, [], None
            samples = [sample]

        monkeypatch.setattr(cli, "conditional_runs", lambda *args, **kwargs: [Result])
        monkeypatch.setattr(cli, "satisfies", lambda *args: True)
        assert cli.main(["sample", "--model", str(model), "--constraints", str(cs),
                         "--seed", "1", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_corpus_reader_collects_symbol_streams(self, tmp_path):
        write_events(tmp_path / "a.jsonl", PIECE[:2], VOCAB)
        write_events(tmp_path / "b.jsonl", PIECE, VOCAB)
        streams = read_corpus(tmp_path, VOCAB)
        assert len(streams) == 2
        assert streams[0] == [61, 65]

    def test_corpus_reader_requires_files(self, tmp_path):
        with pytest.raises(ValueError):
            read_corpus(tmp_path, VOCAB)

    def test_corpus_errors_name_the_file(self, tmp_path, capsys):
        """A piece the vocabulary cannot encode is named in the error, and
        the corpus's other piece is not."""
        write_events(tmp_path / "a.jsonl", PIECE[:2], VOCAB)
        write_events(tmp_path / "b.jsonl", PIECE, VOCAB)
        with pytest.raises(ValueError, match=r"b\.jsonl: tick gap 2400 exceeds s_max=1000"):
            read_corpus(tmp_path, Vocabulary(s_max=1000))
        assert cli.main(["train", "--corpus", str(tmp_path), "--s-max", "1000",
                         "--out", str(tmp_path / "model.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'b.jsonl'}: tick gap") and "a.jsonl" not in err

    @pytest.mark.parametrize("parts", [(), ("--parts", "2")])
    def test_train_on_an_empty_corpus_exits_1(self, tmp_path, capsys, parts):
        assert cli.main(["train", "--corpus", str(tmp_path), *parts,
                         "--out", str(tmp_path / "model.json")]) == 1
        assert capsys.readouterr().err == f"error: no event files (*.jsonl) found in {tmp_path}\n"


WRITTEN = Vocabulary(parts=2)  # the layout of the corpus files below
# the files' layout, then models with a smaller a_max, fewer parts and a shorter
# s_max; with a larger a_max and fewer parts; with a larger a_max and more parts
LAYOUTS = [WRITTEN, Vocabulary(a_max=200, s_max=600), Vocabulary(a_max=300),
           Vocabulary(a_max=300, parts=3)]
MUTATIONS = ["none", "swap", "tick-minus-1", "action-0", "action-over-a-max", "part",
             "gap-over-s-max", "descending-actions", "19-digit-tick", "18-digit-ticks",
             "13-digit-tick", "12-digit-tick", "json-respelled", "blank-lines",
             "huge-header-parts"]


def mutated_piece(rng, path, kind: str) -> None:
    """A seeded piece in ``code_writer``'s spelling, written to ``path`` with
    one fault of the given kind."""
    ticks = np.cumsum(rng.choice([0, 0, 1, 300, 1200], size=30))
    code_writer(WRITTEN)(path, sorted({int(t) * WRITTEN.actions + int(rng.integers(1, 513))
                                       for t in ticks}))
    header, *lines = path.read_text().splitlines()
    events = [json.loads(line) for line in lines]
    k = int(rng.integers(1, len(events)))
    event, before = events[k], events[k - 1]
    if kind == "swap":
        events[k - 1], events[k] = event, before
    elif kind == "tick-minus-1":
        event["t"] = -1
    elif kind == "action-0":
        event["a"] = 0
    elif kind == "action-over-a-max":
        event["a"] = int(rng.choice([201, 256, 257, 1000]))
    elif kind == "part":
        event["part"] = int(rng.choice([1, 2, 7]))
    elif kind == "gap-over-s-max":
        gap = int(rng.choice([601, 2401]))
        for later in events[k:]:
            later["t"] += gap
    elif kind == "descending-actions":
        event.update(t=before["t"], part=before["part"], a=max(before["a"] - 1, 1))
    elif kind.endswith("-digit-tick"):
        for later in events[k:]:
            later["t"] += 10 ** (int(kind.split("-")[0]) - 1)
    elif kind == "18-digit-ticks":  # every code past int64
        for later in events:
            later["t"] += 10 ** 17
    elif kind == "huge-header-parts":
        header = json.dumps({"kind": "events", "parts": 5000, "ppq": 2400, "version": 1})
    lines = ['{"a": %(a)s, "part": %(part)s, "t": %(t)s}' % e for e in events]
    if kind == "json-respelled":
        lines[k] = json.dumps({"t": event["t"], "a": event["a"], "part": event["part"]})
    if kind == "blank-lines":
        for i in rng.choice(len(lines), size=3):
            lines.insert(int(i), str(rng.choice(["", " ", "\t "])))
    path.write_text("\n".join([header, *lines]) + "\n")


def stream_or_error(read, *args):
    try:
        return read(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def read_by_events(path, vocab: Vocabulary) -> list[int]:
    """A corpus file's stream read by the reference reader and stepped event
    by event."""
    events, _ = read_events_by_json(path)
    with in_file(path):
        return stream_by_events(events, vocab)


@pytest.mark.parametrize("kind", MUTATIONS)
def test_corpus_arrays_read_as_events_do(tmp_path, monkeypatch, kind):
    """Each file of a corpus gives the stream, or the error, that reading
    its events one by one gives, under each model layout, and ``read_events``
    gives the events or the error of the reference reader; a well-formed file
    puts no event line through ``files.loads``."""
    made = []  # the lines files.loads reads, but for the headers
    loads = files.loads
    monkeypatch.setattr(files, "loads", lambda text: ('"kind"' in text or made.append(text),
                                                      loads(text))[1])
    rng = np.random.default_rng(MUTATIONS.index(kind))
    read = set()  # whether a stream was read, over every file and layout
    for i in range(8):
        corpus = tmp_path / f"{i}"
        corpus.mkdir()
        mutated_piece(rng, corpus / "p.jsonl", kind)
        for vocab in LAYOUTS:
            made.clear()
            got = stream_or_error(read_corpus, corpus, vocab)
            if kind in ("none", "blank-lines") and vocab == WRITTEN:
                assert made == []
            expected = stream_or_error(read_by_events, corpus / "p.jsonl", vocab)
            assert got == ([expected] if isinstance(expected, list) else expected)
            read.add(isinstance(expected, list))
        path = corpus / "p.jsonl"
        assert stream_or_error(read_events, path) == stream_or_error(read_events_by_json, path)
    assert (True in read) if kind in ("none", "blank-lines", "json-respelled") else (False in read)


class TestConstraintExtraction:
    def test_split_separates_prefix_from_required_times(self):
        prefix, cs = extract_constraints(PIECE, split_tick=2400, part=0, vocab=VOCAB)
        assert prefix == events_to_codes(PIECE[:2], VOCAB)
        assert cs.z == tuple(events_to_codes(PIECE[2:], VOCAB))
        assert cs.b == (True, True, True, True)

    def test_hold_fixed_closes_every_gap(self):
        _, cs = extract_constraints(PIECE, split_tick=2400, part=0,
                                    vocab=VOCAB, hold_fixed=True)
        assert cs.b == (False, False, False, False)

    def test_part_filter_keeps_other_parts_out_of_constraints(self):
        vocab = Vocabulary(parts=2)
        events = sorted([MusicEvent(0, 10, 0), MusicEvent(1200, 20, 1),
                         MusicEvent(2400, 30, 0), MusicEvent(2400, 40, 1)],
                        key=lambda e: (e.t, e.part, e.a))
        _, cs = extract_constraints(events, split_tick=1200, part=1, vocab=vocab)
        codes = events_to_codes([MusicEvent(1200, 20, 1), MusicEvent(2400, 40, 1)],
                                vocab)
        assert cs.z == tuple(codes)

    def test_a_piece_the_layout_cannot_encode_is_refused(self):
        """Every event is encoded before the split, so one the vocabulary
        lacks is an error even where it would be discarded."""
        events = [MusicEvent(0, 10, 0), MusicEvent(1200, 20, 1)]
        with pytest.raises(ValueError, match="^part 1 exceeds part count 1$"):
            extract_constraints(events, split_tick=600, part=0, vocab=VOCAB)

    def test_part_with_no_events_yields_empty_constraints(self):
        vocab = Vocabulary(parts=2)
        events = [MusicEvent(0, 10, 0), MusicEvent(1200, 30, 0)]
        _, cs = extract_constraints(events, split_tick=600, part=1, vocab=vocab)
        assert cs.z == ()
        assert cs.b == ()

    def test_constraint_file_round_trip(self, tmp_path):
        prefix, cs = extract_constraints(PIECE, split_tick=2400, part=0, vocab=VOCAB)
        path = tmp_path / "cs.json"
        write_constraint_file(path, cs, prefix, horizon_ticks=4801)
        loaded, loaded_prefix, horizon_ticks = read_constraint_file(path)
        assert loaded == cs
        assert loaded_prefix == prefix
        assert horizon_ticks == 4801


class TestMidiRoundTrip:
    def test_events_survive_write_and_read(self, tmp_path):
        path = tmp_path / "piece.mid"
        write_midi(path, PIECE)
        assert read_midi(path) == PIECE

    def test_multi_channel_events_map_to_parts(self, tmp_path):
        events = sorted([MusicEvent(0, 61, 0), MusicEvent(0, 73, 1),
                         MusicEvent(2400, 189, 0), MusicEvent(2400, 201, 1)],
                        key=lambda e: (e.t, e.part, e.a))
        path = tmp_path / "duo.mid"
        write_midi(path, events)
        assert read_midi(path) == events

    def test_resolution_is_rescaled(self, tmp_path):
        # 480 ppq source: a quarter note becomes 2400 ticks.
        track = (b"\x00\x90\x3c\x40"      # C4 on at 0
                 b"\x83\x60\x80\x3c\x40")  # off 480 ticks later
        track += b"\x00\xff\x2f\x00"
        data = (b"MThd" + struct.pack(">IHHH", 6, 0, 1, 480)
                + b"MTrk" + struct.pack(">I", len(track)) + track)
        path = tmp_path / "source.mid"
        path.write_bytes(data)
        events = read_midi(path)
        assert events == [MusicEvent(0, 61), MusicEvent(2400, 189)]

    def test_running_status_and_velocity_zero_off(self, tmp_path):
        # Second message reuses the note-on status; velocity 0 means off.
        track = b"\x00\x90\x3c\x40" + b"\x60\x3c\x00" + b"\x00\xff\x2f\x00"
        data = (b"MThd" + struct.pack(">IHHH", 6, 0, 1, 2400)
                + b"MTrk" + struct.pack(">I", len(track)) + track)
        path = tmp_path / "running.mid"
        path.write_bytes(data)
        assert read_midi(path) == [MusicEvent(0, 61), MusicEvent(96, 189)]

    @pytest.mark.parametrize("events, message", [
        # action 257 would be the off of pitch 128, and no note-on opens that pitch
        ([MusicEvent(0, 257)], "pitch 128 on part 0 released at tick 0 without a matching note-on"),
        ([MusicEvent(5, 61), MusicEvent(2, 189)], "events must be in canonical order"),
        # ticks never go backwards, but a tick's actions or parts do: the reader
        # would return these events re-sorted
        ([MusicEvent(0, 62), MusicEvent(0, 61), MusicEvent(5, 190), MusicEvent(5, 189)],
         "events must be in canonical order"),
        ([MusicEvent(0, 61, 1), MusicEvent(0, 61, 0), MusicEvent(5, 189, 0),
          MusicEvent(5, 189, 1)], "events must be in canonical order"),
    ], ids=["action-257", "ticks-backwards", "actions-descend", "parts-descend"])
    def test_writer_rejects_what_no_track_can_hold(self, tmp_path, events, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            write_midi(tmp_path / "bad.mid", events)

    def test_rejects_smpte_division(self, tmp_path):
        data = (b"MThd" + struct.pack(">IHH", 6, 0, 1) + b"\xe2\x50"
                + b"MTrk" + struct.pack(">I", 4) + b"\x00\xff\x2f\x00")
        path = tmp_path / "smpte.mid"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="SMPTE"):
            read_midi(path)


class TestNotePairing:
    def write_and_read(self, tmp_path, track: bytes):
        data = (b"MThd" + struct.pack(">IHHH", 6, 0, 1, 2400)
                + b"MTrk" + struct.pack(">I", len(track)) + track)
        path = tmp_path / "pairing.mid"
        path.write_bytes(data)
        return read_midi(path)

    def test_zero_length_note_is_rejected(self, tmp_path):
        track = b"\x00\x90\x3c\x40" + b"\x00\x80\x3c\x40" + b"\x00\xff\x2f\x00"
        with pytest.raises(ValueError, match="zero-length|retriggered"):
            self.write_and_read(tmp_path, track)

    def test_overlapping_note_is_rejected(self, tmp_path):
        track = (b"\x00\x90\x3c\x40" + b"\x10\x90\x3c\x40"
                 + b"\x10\x80\x3c\x40" + b"\x00\xff\x2f\x00")
        with pytest.raises(ValueError):
            self.write_and_read(tmp_path, track)

    def test_hanging_note_is_rejected(self, tmp_path):
        track = b"\x00\x90\x3c\x40" + b"\x00\xff\x2f\x00"
        with pytest.raises(ValueError, match="released"):
            self.write_and_read(tmp_path, track)

    def test_off_without_on_is_rejected(self, tmp_path):
        track = b"\x00\x80\x3c\x40" + b"\x00\xff\x2f\x00"
        with pytest.raises(ValueError):
            self.write_and_read(tmp_path, track)

    def test_writer_rejects_what_the_reader_would(self, tmp_path):
        # write_midi must never produce a file read_midi refuses.
        unreleased = [MusicEvent(0, 61, 0)]
        with pytest.raises(ValueError, match="never released"):
            write_midi(tmp_path / "bad.mid", unreleased)
        off_only = [MusicEvent(0, 61 + 128, 0)]
        with pytest.raises(ValueError, match="without a matching"):
            write_midi(tmp_path / "bad.mid", off_only)
