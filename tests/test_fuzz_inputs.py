"""Seeded fuzzing of the files the command line reads.

Malformed constraint files, times files, event files, MIDI files, trained
model files and grid specs must end in exit code 1 with an ``error:`` line on
stderr, never in an uncaught exception; so must a model that cannot reach a
barrier within the draw limit.  Inputs are mangled
by a seeded ``numpy.random.default_rng``, as in acceptance criterion 4, so
every run tries the same cases.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from test_acceptance import TINY, tiny_music_model

from ppsmc.cli import main
from ppsmc.music.encoding import MusicEvent
from ppsmc.music.midi import write_midi

NOT_A_LIST = [None, "ab", 1.5, 3, True, {"x": 1}]
NOT_A_NUMBER = [None, "ab", True, [], {}, [0.3], float("nan"), float("inf")]
NOT_A_BOOL = [None, "ab", 0, 1, 0.5, [], {}]
NOT_AN_INT = [None, "ab", 1.5, True, [], {}, [1], float("inf")]
NOT_AN_OBJECT = [[0.3, 0.6], "constraints", 3, None]
NOT_COUNTS = [None, "ab", 3, [], {"1": 3}, {"": [1]}, {"": {"1": 1.5}}, {"": {"1": "a"}},
              {"": {"1": True}}, {"": {"1": -1}}, {"": {"0": 1}}, {"": {"99999": 1}},
              {"x": {"1": 1}}]


def pick(rng, options):
    return options[int(rng.integers(len(options)))]


def assert_error_exit(code, capsys, context):
    err = capsys.readouterr().err
    assert code == 1, f"{context}: exit {code}, stderr {err!r}"
    assert any(line.startswith("error:") for line in err.splitlines()), f"{context}: {err!r}"


def mangle_object(rng, payload: dict, fields: dict) -> str:
    """JSON text of ``payload`` with one field made invalid.

    ``fields`` maps each required field to the values its entries must not
    take; the result drops a field, retypes it, spoils one entry, replaces the
    whole object or cuts the text short.
    """
    payload = json.loads(json.dumps(payload))
    key = pick(rng, sorted(fields))
    how = int(rng.integers(5))
    if how == 0:
        del payload[key]
    elif how == 1:
        payload[key] = pick(rng, NOT_A_LIST)
    elif how == 2:
        payload[key][int(rng.integers(len(payload[key])))] = pick(rng, fields[key])
    elif how == 3:
        payload = pick(rng, NOT_AN_OBJECT)
    else:
        text = json.dumps(payload)
        return text[:int(rng.integers(1, len(text) - 1))]
    return json.dumps(payload)


class TestConstraintFiles:
    def test_mangled_constraints_exit_1(self, tmp_path, capsys):
        rng = np.random.default_rng(4101)
        base = {"version": 1, "kind": "constraints", "z": [0.3, 0.6], "b": [True, False]}
        path = tmp_path / "cs.json"
        for trial in range(120):
            text = mangle_object(rng, base, {"z": NOT_A_NUMBER, "b": NOT_A_BOOL})
            path.write_text(text)
            code = main(["sample", "--model", "poisson:rate=3", "--constraints", str(path),
                         "--seed", "1", "--out", str(tmp_path / "out")])
            assert_error_exit(code, capsys, f"trial {trial}: {text}")

    def test_mangled_music_fields_exit_1(self, tmp_path, capsys):
        rng = np.random.default_rng(4102)
        model_path = tmp_path / "model.json"
        tiny_music_model().step_model.save(model_path)
        acts = TINY.actions
        base = {"version": 1, "kind": "constraints", "z": [2 * acts + 1], "b": [True],
                "prefix": [1, 3], "horizon_ticks": 4}
        path = tmp_path / "cs.json"
        for trial in range(60):
            payload = json.loads(json.dumps(base))
            if rng.integers(2):  # a null horizon_ticks means "not given"
                payload["horizon_ticks"] = pick(rng, NOT_AN_INT[1:])
            elif rng.integers(2):
                payload["prefix"] = pick(rng, NOT_A_LIST)
            else:
                payload["prefix"][int(rng.integers(2))] = pick(rng, NOT_AN_INT)
            path.write_text(json.dumps(payload))
            code = main(["sample", "--model", str(model_path), "--constraints", str(path),
                         "--seed", "1", "--particles", "4", "--out", str(tmp_path / "out")])
            assert_error_exit(code, capsys, f"trial {trial}: {payload}")

    def test_segment_over_the_draw_limit_exits_1(self, tmp_path, capsys):
        """A rate so high that the first barrier needs over a million draws."""
        path = tmp_path / "cs.json"
        path.write_text(json.dumps({"z": [0.5], "b": [True]}))
        code = main(["sample", "--model", "poisson:rate=1e7", "--constraints", str(path),
                     "--particles", "1", "--seed", "1", "--out", str(tmp_path / "out")])
        assert_error_exit(code, capsys, "poisson:rate=1e7")


class TestTimesFiles:
    def test_mangled_times_exit_1(self, tmp_path, capsys):
        rng = np.random.default_rng(4105)
        base = {"version": 1, "kind": "times", "times": [0.2, 0.5, 0.9]}
        path = tmp_path / "times.json"
        for trial in range(120):
            text = mangle_object(rng, base, {"times": [*NOT_A_NUMBER, 10 ** 400]})
            path.write_text(text)
            code = main(["logprob", "--model", "poisson:rate=3",
                         "--out", str(tmp_path / "scores.json"), str(path)])
            assert_error_exit(code, capsys, f"trial {trial}: {text}")


class TestModelFiles:
    def test_mangled_model_exit_1(self, tmp_path, capsys):
        """Each required field of a trained model dropped or spoiled, the
        whole payload replaced, or the text cut short."""
        rng = np.random.default_rng(4106)
        base = tiny_music_model().step_model.to_dict()
        fields = {"order": NOT_AN_INT, "a_max": NOT_AN_INT, "s_max": NOT_AN_INT,
                  "parts": NOT_AN_INT, "alpha": [*NOT_A_NUMBER, 10 ** 400], "counts": NOT_COUNTS}
        cs_path = tmp_path / "cs.json"
        cs_path.write_text(json.dumps({"z": [2 * TINY.actions + 1], "b": [True], "prefix": [1, 3],
                                       "horizon_ticks": 4}))
        path = tmp_path / "model.json"
        for trial in range(120):
            payload = json.loads(json.dumps(base))
            key = pick(rng, sorted(fields))
            how = int(rng.integers(4))
            if how == 0:
                del payload[key]
            elif how == 1:
                payload[key] = pick(rng, fields[key])
            elif how == 2:
                payload = pick(rng, NOT_AN_OBJECT)
            text = json.dumps(payload)
            if how == 3:
                text = text[:int(rng.integers(1, len(text) - 1))]
            path.write_text(text)
            code = main(["sample", "--model", str(path), "--constraints", str(cs_path),
                         "--seed", "1", "--particles", "4", "--out", str(tmp_path / "out")])
            assert_error_exit(code, capsys, f"trial {trial}: {text[:200]}")


GRID_SPECS = {"const": {"p": 0.4}, "order2": {"p00": 0.55, "p01": 0.25, "p10": 0.7, "p11": 0.1}}


@pytest.mark.parametrize("name,dropped", [(name, key) for name, params in GRID_SPECS.items()
                                          for key in params])
def test_grid_spec_missing_a_parameter_exits_1(tmp_path, capsys, name, dropped):
    spec = name + ":" + ",".join(f"{k}={v}" for k, v in GRID_SPECS[name].items() if k != dropped)
    code = main(["oracle", "--grid", spec, "--cells", "4", "--observed", "1", "--particles", "10",
                 "--runs", "1", "--seed", "1", "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert f"error: grid spec {spec!r} is missing parameter '{dropped}'" in err


PIECE = [(0, 61), (0, 65), (2400, 68), (2400, 189), (2400, 193), (4800, 196)]


class TestEventFiles:
    def test_mangled_events_exit_1(self, tmp_path, capsys):
        rng = np.random.default_rng(4103)
        header = {"version": 1, "kind": "events", "ppq": 2400, "parts": 1}
        events = [{"t": t, "a": a, "part": 0} for t, a in PIECE]
        path = tmp_path / "piece.jsonl"
        for trial in range(150):
            lines = [json.dumps(header)] + [json.dumps(ev) for ev in events]
            k = int(rng.integers(len(lines)))
            if k == 0:
                bad = pick(rng, [{**header, "kind": pick(rng, ["times", None, 1])},
                                 {**header, "parts": pick(rng, NOT_AN_INT)},
                                 pick(rng, NOT_AN_OBJECT)])
                lines[0] = pick(rng, [json.dumps(bad), lines[0][:int(rng.integers(1, 10))]])
            else:
                ev = dict(events[k - 1])
                field = pick(rng, ["t", "a", "part"])
                if rng.integers(2) and field != "part":
                    del ev[field]
                else:
                    ev[field] = pick(rng, NOT_AN_INT)
                lines[k] = pick(rng, [json.dumps(ev), json.dumps(pick(rng, NOT_AN_OBJECT)),
                                      json.dumps(ev)[:int(rng.integers(1, 10))]])
            path.write_text("\n".join(lines) + "\n")
            code = main(["convert", "--to-midi", str(path), str(tmp_path / "out.mid")])
            assert_error_exit(code, capsys, f"trial {trial}: {lines}")


def sample_midi() -> bytes:
    """Format 1, two tracks at 480 ppq with the event kinds the reader meets:
    meta, sysex, program change, running status and velocity-zero offs."""
    first = (b"\x00\xff\x51\x03\x07\xa1\x20"       # tempo meta
             b"\x00\xc0\x05"                       # program change (one data byte)
             b"\x00\x90\x3c\x40" b"\x60\x40\x40"   # two note-ons, running status
             b"\x00\xf0\x03\x7e\x7f\xf7"           # sysex
             b"\x83\x60\x90\x3c\x00" b"\x00\x40\x00"  # velocity-zero offs
             b"\x00\xff\x2f\x00")
    second = (b"\x00\x91\x43\x50" b"\x81\x70\x81\x43\x40" b"\x00\xff\x2f\x00")
    out = b"MThd" + struct.pack(">IHHH", 6, 1, 2, 480)
    for track in (first, second):
        out += b"MTrk" + struct.pack(">I", len(track)) + track
    return out


class TestMidiFiles:
    def convert(self, tmp_path, data: bytes) -> int:
        path = tmp_path / "in.mid"
        path.write_bytes(data)
        return main(["convert", "--to-events", str(path), str(tmp_path / "out.jsonl")])

    def test_sample_file_is_readable(self, tmp_path, capsys):
        assert self.convert(tmp_path, sample_midi()) == 0
        assert "6 events" in capsys.readouterr().out

    @pytest.mark.parametrize("cut", [6, 1])
    def test_file_written_by_the_program_cut_short_exits_1(self, tmp_path, capsys, cut):
        write_midi(tmp_path / "two.mid", [MusicEvent(0, 61), MusicEvent(0, 62),
                                          MusicEvent(100, 189), MusicEvent(100, 190)])
        data = (tmp_path / "two.mid").read_bytes()
        assert_error_exit(self.convert(tmp_path, data[:-cut]), capsys, f"cut {cut}")

    def test_every_truncation_exits_1(self, tmp_path, capsys):
        data = sample_midi()
        for end in range(len(data)):
            assert_error_exit(self.convert(tmp_path, data[:end]), capsys, f"first {end} bytes")

    def test_bit_flips_never_escape(self, tmp_path, capsys):
        """A flipped file may still be valid; it must never raise."""
        rng = np.random.default_rng(4104)
        data = sample_midi()
        failed = 0
        for trial in range(300):
            flipped = bytearray(data)
            for bit in rng.integers(0, 8 * len(data), size=int(rng.integers(1, 4))):
                flipped[bit // 8] ^= 1 << (bit % 8)
            code = self.convert(tmp_path, bytes(flipped))
            if code != 0:
                assert_error_exit(code, capsys, f"trial {trial}: {bytes(flipped).hex()}")
                failed += 1
            capsys.readouterr()
        assert failed > 100  # most flips break the file
