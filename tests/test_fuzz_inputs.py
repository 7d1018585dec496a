"""Seeded fuzzing of the files the command line reads.

Malformed constraint files, times files, event files, MIDI files, trained
model files and grid specs must end in exit code 1 with an ``error:`` line on
stderr, never in an uncaught exception; so must a model that cannot reach a
barrier within the draw limit, and a run count below one.  Event lines in
``write_codes``' form, read without ``json``, must read as ``json`` reads
them.  Inputs are mangled by a seeded ``numpy.random.default_rng``, as in
acceptance criterion 4, so every run tries the same cases.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
import pytest
from test_acceptance import TINY, tiny_music_model

from ppsmc.cli import main
from ppsmc.music.encoding import MusicEvent, Vocabulary, codes_to_events, events_to_codes
from ppsmc.music.files import loads, read_events, read_parts, write_events
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


def assert_error_exit(code, capsys, context) -> str:
    err = capsys.readouterr().err
    assert code == 1, f"{context}: exit {code}, stderr {err!r}"
    assert any(line.startswith("error:") for line in err.splitlines()), f"{context}: {err!r}"
    return err


def json_error(text: str) -> str:
    """The message ``json`` gives for text it cannot read."""
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} reads as JSON")


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

    def test_truncated_constraints_name_the_file(self, tmp_path, capsys):
        """A constraint file cut short prints json's own message after the path."""
        rng = np.random.default_rng(4107)
        text = json.dumps({"version": 1, "kind": "constraints", "z": [0.3, 0.6],
                           "b": [True, False]})
        path = tmp_path / "cs.json"
        for trial in range(20):
            cut = text[:int(rng.integers(0, len(text) - 1))]
            path.write_text(cut)
            code = main(["sample", "--model", "poisson:rate=3", "--constraints", str(path),
                         "--seed", "1", "--out", str(tmp_path / "out")])
            err = assert_error_exit(code, capsys, f"trial {trial}: {cut}")
            assert f"error: {path}: {json_error(cut)}" in err.splitlines()

    def test_mangled_music_fields_exit_1(self, tmp_path, capsys):
        """A music model's file, then a continuous model's, whose z and b are
        valid at horizon 1: every model refuses a malformed prefix or tick
        horizon, although only music models use them."""
        rng = np.random.default_rng(4102)
        model_path = tmp_path / "model.json"
        tiny_music_model().step_model.save(model_path)
        acts = TINY.actions
        path = tmp_path / "cs.json"
        for model, z in [(str(model_path), [2 * acts + 1]), ("poisson:rate=3", [0.5])]:
            base = {"version": 1, "kind": "constraints", "z": z, "b": [True],
                    "prefix": [1, 3], "horizon_ticks": 4}
            for trial in range(60):
                payload = json.loads(json.dumps(base))
                if rng.integers(2):  # a null horizon_ticks means "not given"
                    payload["horizon_ticks"] = pick(rng, NOT_AN_INT[1:])
                elif rng.integers(2):
                    payload["prefix"] = pick(rng, NOT_A_LIST)
                else:
                    payload["prefix"][int(rng.integers(2))] = pick(rng, NOT_AN_INT)
                path.write_text(json.dumps(payload))
                code = main(["sample", "--model", model, "--constraints", str(path),
                             "--seed", "1", "--particles", "4", "--out", str(tmp_path / "out")])
                assert_error_exit(code, capsys, f"{model} trial {trial}: {payload}")

    def test_mangled_layout_fields_exit_1(self, tmp_path, capsys):
        """Every model refuses an 'a_max' or 'parts' that is not a positive
        integer, or one without the other."""
        model_path = tmp_path / "model.json"
        tiny_music_model().step_model.save(model_path)
        path = tmp_path / "cs.json"
        for model, z in [(str(model_path), [2 * TINY.actions + 1]), ("poisson:rate=3", [0.5])]:
            for field in ("a_max", "parts"):
                for value in [*NOT_AN_INT[1:], 0, -1, "drop"]:
                    payload = {"z": z, "b": [True], "a_max": TINY.a_max, "parts": 1}
                    if value == "drop":
                        del payload[field]
                    else:
                        payload[field] = value
                    path.write_text(json.dumps(payload))
                    code = main(["sample", "--model", model, "--constraints", str(path),
                                 "--seed", "1", "--particles", "4", "--out", str(tmp_path / "o")])
                    err = assert_error_exit(code, capsys, f"{model}: {payload}")
                    assert err == (f"error: {path}: constraint fields 'a_max' and 'parts' "
                                   "must both be positive integers\n")

    @pytest.mark.parametrize("data, message", [
        (b'{"z": [0.5, 0.2], "b": [true, true]}',
         "constraint times must be strictly increasing and positive\n"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0"),
    ], ids=["descending-z", "utf-16-mark"])
    def test_errors_past_the_json_name_the_file(self, tmp_path, capsys, data, message):
        """Not only json's own errors: every check on the file names it."""
        path = tmp_path / "cs.json"
        path.write_bytes(data)
        code = main(["sample", "--model", "poisson:rate=3", "--constraints", str(path),
                     "--seed", "1", "--out", str(tmp_path / "out")])
        assert assert_error_exit(code, capsys, data).startswith(f"error: {path}: {message}")

    @pytest.mark.parametrize("model, payload, message", [
        ("music", {"z": [13], "b": [True], "prefix": [5, 3]},
         "cs.json: times must strictly increase, got 3 after 5"),
        ("music", {"z": [13], "b": [True], "prefix": [5, 14]},
         "cs.json: first constraint 13 does not lie beyond the history end 14"),
        ("poisson:rate=3", {"z": [0.5, 3.0], "b": [True, True]},
         "constraint 3.0 lies beyond the horizon 1.0"),
    ], ids=["prefix-descends", "z-inside-the-prefix", "z-past-the-horizon"])
    def test_constraints_the_run_cannot_reach_write_nothing(self, tmp_path, capsys,
                                                            monkeypatch, model, payload,
                                                            message):
        """The file's own errors name it, and no run leaves an empty --out."""
        monkeypatch.chdir(tmp_path)
        if model == "music":
            model = "model.json"
            tiny_music_model().step_model.save(model)
        Path("cs.json").write_text(json.dumps(payload))
        code = main(["sample", "--model", model, "--constraints", "cs.json",
                     "--seed", "1", "--particles", "4", "--out", "out"])
        assert assert_error_exit(code, capsys, payload) == f"error: {message}\n"
        assert not Path("out").exists()

    def test_segment_over_the_draw_limit_exits_1(self, tmp_path, capsys):
        """A rate so high that the first barrier needs over a million draws."""
        path = tmp_path / "cs.json"
        path.write_text(json.dumps({"z": [0.5], "b": [True]}))
        code = main(["sample", "--model", "poisson:rate=1e7", "--constraints", str(path),
                     "--particles", "1", "--seed", "1", "--out", str(tmp_path / "out")])
        assert_error_exit(code, capsys, "poisson:rate=1e7")

    def test_saturated_survival_exits_1(self, tmp_path, capsys):
        """A drawn gap rounds up to ``high``, so the barrier's clipped gap
        sits where the survival is 0 and its hazard is undefined."""
        path = tmp_path / "cs.json"
        path.write_text(json.dumps({"z": [0.5000000000000001], "b": [True]}))
        code = main(["sample", "--model", "uniform:low=0.5,high=0.5000000000000001",
                     "--constraints", str(path), "--seed", "1", "--out", str(tmp_path / "out")])
        err = assert_error_exit(code, capsys, "uniform:low=0.5,high=0.5000000000000001")
        assert "survival underflowed" in err


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


    @pytest.mark.parametrize("name, text, message", [
        ("times.json", '{"kind": "times", "times": [0.5, 0.2]}',
         "times must strictly increase, got 0.2 after 0.5"),
        ("times.json", '{"kind": "times", "times": [1%s]}' % ("0" * 400),
         "field 'times' is missing or not a list of finite numbers"),
        ("piece.jsonl", '{"kind": "events", "parts": 2}\n{"a": 1, "part": 1, "t": 0}\n',
         "part 1 exceeds part count 1"),
    ], ids=["decreasing", "huge-integer", "part-the-model-lacks"])
    def test_scoring_error_names_the_file_once(self, tmp_path, capsys, name, text, message):
        model = tmp_path / "model.json"
        tiny_music_model().step_model.save(model)
        (tmp_path / name).write_text(text)
        code = main(["logprob", "--model", "poisson:rate=3" if name == "times.json" else str(model),
                     "--out", str(tmp_path / "scores.json"), str(tmp_path / name)])
        err = assert_error_exit(code, capsys, name)
        assert err == f"error: {tmp_path / name}: {message}\n"

    def test_step_past_an_unreachable_one_scores_minus_inf(self, tmp_path):
        """A rest longer than s_max mid-piece is the offending step, as it is
        at the end of a piece; the steps after it are not taken."""
        tiny_music_model().step_model.save(tmp_path / "model.json")
        for name, ticks in [("end", (0, 5)), ("mid", (0, 5, 6))]:
            write_events(tmp_path / f"{name}.jsonl", [MusicEvent(t, 1) for t in ticks], TINY)
        assert main(["logprob", "--model", str(tmp_path / "model.json"), "--out",
                     str(tmp_path / "scores.json"), str(tmp_path / "end.jsonl"),
                     str(tmp_path / "mid.jsonl")]) == 0
        entries = json.loads((tmp_path / "scores.json").read_text())["entries"]
        assert [(e["log_prob"], e["offending_step"]) for e in entries] == [(None, 1)] * 2


class TestCorpusFiles:
    HEADER = json.dumps({"version": 1, "kind": "events", "ppq": 2400, "parts": 1})
    GOOD = [HEADER, '{"a": 61, "part": 0, "t": 0}', '{"a": 189, "part": 0, "t": 2400}']

    def train(self, tmp_path, *files, options=()) -> int:
        """``ppsmc train`` on a corpus of the given files' lines, a.jsonl, b.jsonl, ..."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, lines in zip("abc", files):
            (corpus / f"{name}.jsonl").write_text("\n".join(lines) + "\n")
        return main(["train", "--corpus", str(corpus), *options,
                     "--out", str(tmp_path / "model.json")])

    @pytest.mark.parametrize("lines,message", [
        ([HEADER, '{"a": 189, "part": 0, "t": 2400}', '{"a": 61, "part": 0, "t": 0}'],
         "times must strictly increase, got 61 after 614589"),
        ([HEADER, '{"a": 5, "part": 0, "t": -1}'], "invalid event (-1, 5, part=0)"),
        ([HEADER, '{"a": 300, "part": 0, "t": 0}'], "action 300 exceeds a_max=256"),
        ([HEADER, '{"a": 61, "part": 0, "t": 0}}'], "Extra data: line 1 column 29 (char 28)")],
        ids=["order", "tick", "action", "json"])
    def test_bad_file_is_named_once(self, tmp_path, capsys, lines, message):
        """The second of two event files is bad: the error names it, once."""
        code = self.train(tmp_path, self.GOOD, lines)
        err = assert_error_exit(code, capsys, message)
        assert err == f"error: {tmp_path / 'corpus' / 'b.jsonl'}: {message}\n"
        assert not (tmp_path / "model.json").exists()

    def test_event_file_read_as_times_is_named(self, tmp_path, capsys):
        path = tmp_path / "piece.jsonl"
        path.write_text("\n".join(self.GOOD) + "\n")
        code = main(["logprob", "--model", "poisson:rate=3", "--out", str(tmp_path / "r.json"),
                     str(path)])
        err = assert_error_exit(code, capsys, "logprob")
        assert err == f"error: {path}: Extra data: line 2 column 1 (char 58)\n"

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_writes_no_model(self, tmp_path, capsys, alpha):
        code = self.train(tmp_path, self.GOOD, options=["--alpha", alpha])
        assert "alpha must be finite and >= 0" in assert_error_exit(code, capsys, alpha)
        assert not (tmp_path / "model.json").exists()

    def test_header_with_too_many_parts_is_refused(self, tmp_path, capsys):
        """A PMF over a_max·parts + s_max symbols would need terabytes."""
        header = {"version": 1, "kind": "events", "parts": 10 ** 9}
        code = self.train(tmp_path, [json.dumps(header)])
        err = assert_error_exit(code, capsys, "parts 10**9")
        assert "a_max*parts + s_max = 256*1000000000 + 2400" in err
        assert not (tmp_path / "model.json").exists()


class TestModelFiles:
    def test_vocabulary_too_large_for_a_pmf_exits_1(self, tmp_path, capsys):
        payload = {**tiny_music_model().step_model.to_dict(), "s_max": 10 ** 12}
        path, cs_path = tmp_path / "model.json", tmp_path / "cs.json"
        path.write_text(json.dumps(payload))
        cs_path.write_text(json.dumps({"z": [2 * TINY.actions + 1], "b": [True]}))
        code = main(["sample", "--model", str(path), "--constraints", str(cs_path),
                     "--seed", "1", "--particles", "4", "--out", str(tmp_path / "out")])
        err = assert_error_exit(code, capsys, "s_max 10**12")
        assert "s_max = 4*1 + 1000000000000 symbols" in err
        assert not (tmp_path / "out").exists()

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

    def test_field_error_names_the_file(self, tmp_path, capsys):
        path, cs_path = tmp_path / "model.json", tmp_path / "cs.json"
        path.write_text(json.dumps({**tiny_music_model().step_model.to_dict(), "order": "two"}))
        cs_path.write_text(json.dumps({"z": [2 * TINY.actions + 1], "b": [True]}))
        code = main(["sample", "--model", str(path), "--constraints", str(cs_path),
                     "--seed", "1", "--particles", "4", "--out", str(tmp_path / "out")])
        err = assert_error_exit(code, capsys, "order 'two'")
        assert err == f"error: {path}: model field 'order' is missing or not an integer\n"

    def test_truncated_model_names_the_file(self, tmp_path, capsys):
        """A trained model file cut short prints json's own message after the path."""
        rng = np.random.default_rng(4108)
        text = json.dumps(tiny_music_model().step_model.to_dict())
        cs_path, path = tmp_path / "cs.json", tmp_path / "model.json"
        cs_path.write_text(json.dumps({"z": [2 * TINY.actions + 1], "b": [True]}))
        for trial in range(20):
            cut = text[:int(rng.integers(0, len(text) - 1))]
            path.write_text(cut)
            code = main(["sample", "--model", str(path), "--constraints", str(cs_path),
                         "--seed", "1", "--particles", "4", "--out", str(tmp_path / "out")])
            err = assert_error_exit(code, capsys, f"trial {trial}: {cut[:200]}")
            assert f"error: {path}: {json_error(cut)}" in err.splitlines()

    @pytest.mark.parametrize("context", ["", "1 3", "0 0 0", "-1", str(TINY.size + 1), "99999"],
                             ids=["none", "two", "three", "negative", "size+1", "99999"])
    def test_counts_context_off_the_order_or_vocabulary_exits_1(self, tmp_path, capsys, context):
        """An order-2 model reads contexts of one symbol, BOS (0) or 1..size;
        counts after any other would never be read, and the model would
        draw from smoothing alone."""
        payload = tiny_music_model().step_model.to_dict()
        payload["counts"][context] = {"1": 5}
        path, cs_path = tmp_path / "model.json", tmp_path / "cs.json"
        path.write_text(json.dumps(payload))
        cs_path.write_text(json.dumps({"z": [2 * TINY.actions + 1], "b": [True]}))
        code = main(["sample", "--model", str(path), "--constraints", str(cs_path),
                     "--seed", "1", "--particles", "4", "--out", str(tmp_path / "out")])
        err = assert_error_exit(code, capsys, repr(context))
        assert f"model counts row {context!r}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("context, row", [("01", {"2": 1000}), (" 1", None), ("+1", None),
                                              ("1_0", None), ("1", {"02": 999})],
                             ids=["context-01-beside-1", "context-space-1", "context-plus-1",
                                  "context-1_0", "symbol-02-beside-2"])
    def test_counts_key_in_another_spelling_exits_1(self, tmp_path, capsys, context, row):
        """Counts keys are read only as ``to_dict`` spells them, so two
        spellings of one context or one symbol cannot overwrite each other.
        A row of None moves context 1's row to the key; s_max 6 makes the
        vocabulary 10 symbols, so ``int`` would read "1_0" as one of them."""
        payload = {**tiny_music_model().step_model.to_dict(), "s_max": 6}
        counts = payload["counts"]
        counts[context] = counts.pop("1") if row is None else {**counts.get(context, {}), **row}
        path, cs_path = tmp_path / "model.json", tmp_path / "cs.json"
        path.write_text(json.dumps(payload))
        cs_path.write_text(json.dumps({"z": [2 * TINY.actions + 1], "b": [True]}))
        code = main(["sample", "--model", str(path), "--constraints", str(cs_path),
                     "--seed", "1", "--particles", "4", "--out", str(tmp_path / "out")])
        err = assert_error_exit(code, capsys, repr(context))
        assert f"model counts row {context!r}" in err
        assert not (tmp_path / "out").exists()


def repeated_key_inputs() -> dict:
    """Per JSON input: (file name, text giving one key twice, the command
    reading it, the key)."""
    model = tiny_music_model().step_model.to_dict()
    model["counts"] = model.pop("counts")  # last, so its object closes the text
    header = '{"version": 1, "kind": "events", "parts": 1}'
    return {
        "model": ("model.json", json.dumps(model)[:-2] + ', "1": {"2": 1000}}}',
                  ["sample", "--model", "model.json", "--constraints", "music.json",
                   "--particles", "4", "--seed", "1", "--out", "out"], "1"),
        "constraints": ("cs.json", '{"z": [0.5], "b": [true], "z": [0.7]}',
                        ["sample", "--model", "poisson:rate=3", "--constraints", "cs.json",
                         "--seed", "1", "--out", "out"], "z"),
        "event-line": ("piece.jsonl", header + '\n{"a": 61, "part": 0, "t": 0, "a": 62}\n',
                       ["convert", "--to-midi", "piece.jsonl", "out"], "a"),
        "event-header": ("piece.jsonl", header[:-1] + ', "parts": 2}\n',
                         ["convert", "--to-midi", "piece.jsonl", "out"], "parts"),
        "times": ("times.json", '{"version": 1, "kind": "times", "times": [0.2], "times": [0.5]}',
                  ["logprob", "--model", "poisson:rate=3", "--out", "out", "times.json"],
                  "times"),
    }


@pytest.mark.parametrize("kind", sorted(repeated_key_inputs()))
def test_repeated_json_key_exits_1(tmp_path, capsys, monkeypatch, kind):
    """A key given twice in one object is refused wherever JSON is read, not
    read as its last value."""
    name, text, argv, key = repeated_key_inputs()[kind]
    monkeypatch.chdir(tmp_path)
    Path("music.json").write_text(json.dumps({"z": [2 * TINY.actions + 1], "b": [True]}))
    Path(name).write_text(text)
    err = assert_error_exit(main(argv), capsys, kind)
    assert err.splitlines()[-1] == f"error: {name}: JSON object repeats key {key!r}"
    assert not Path("out").exists()


@pytest.mark.parametrize("argv, message", [
    ("oracle --cells 0", "need at least one cell"),
    ("oracle --cells 8 --observed 9", "observed indices out of range for n=8"),
    ("oracle --grid const:p=1.5", "g returned 1.5, not a probability"),
    # the event has mass, but a path whose first cell is occupied, as nearly
    # every path is here, weighs 0 at the observed cell
    ("oracle --cells 3 --observed 2 --grid order2:p00=0.9999,p01=0.5,p10=0,p11=0",
     "oracle run 0 died at barrier 1: every particle of that run weighed zero"),
    ("sample --model poisson:rate", "malformed parameter 'rate', expected key=value"),
    ("train --order 0", "order must be >= 1"),
    ("train --s-max 0", "a_max, s_max and parts must all be positive"),
    ("convert --to-midi empty.jsonl", "empty.jsonl: empty event file"),
    ("convert --to-midi part16.jsonl", "part 16 exceeds the 16 MIDI channels"),
], ids=["no-cells", "observed-past-the-cells", "grid-p-over-1", "oracle-run-dies",
        "spec-without-equals", "order-0", "s-max-0", "empty-event-file", "part-16-to-midi"])
def test_malformed_option_or_piece_exits_1(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    Path("cs.json").write_text(json.dumps({"z": [0.5], "b": [True]}))
    Path("corpus").mkdir()
    Path("corpus/a.jsonl").write_text("\n".join(TestCorpusFiles.GOOD) + "\n")
    Path("empty.jsonl").write_text("")
    write_events("part16.jsonl", [MusicEvent(0, 61, 16), MusicEvent(10, 189, 16)],
                 Vocabulary(parts=17))
    command = argv.split()[0]
    rest = {"oracle": ["--particles", "10", "--runs", "1", "--seed", "1", "--out", "out"],
            "sample": ["--constraints", "cs.json", "--seed", "1", "--out", "out"],
            "train": ["--corpus", "corpus", "--out", "out"], "convert": ["out"]}[command]
    err = assert_error_exit(main([*argv.split(), *rest]), capsys, argv)
    assert err == f"error: {message}\n"
    assert not Path("out").exists()


@pytest.mark.parametrize("command", ["sample", "beam", "oracle"])
@pytest.mark.parametrize("runs", ["0", "-2"])
def test_run_count_below_one_exits_1(tmp_path, capsys, command, runs):
    """Nothing runs: no ensemble dies, no empty count table, nothing is written."""
    out = tmp_path / "out"
    if command == "oracle":
        argv = ["oracle", "--cells", "4", "--observed", "1", "--particles", "10"]
    else:
        path = tmp_path / "cs.json"
        path.write_text(json.dumps({"z": [0.5], "b": [True]}))
        argv = [command, "--model", "poisson:rate=3", "--constraints", str(path)]
    code = main([*argv, "--runs", runs, "--seed", "1", "--out", str(out)])
    err = assert_error_exit(code, capsys, f"{command} --runs {runs}")
    assert f"--runs must be at least 1, got {runs}" in err
    assert not out.exists()


@pytest.mark.parametrize("ticks", ["0", "-2"])
def test_horizon_ticks_below_one_exits_1(tmp_path, capsys, ticks):
    """The flag is refused by name and in ticks, not as a horizon in codes."""
    tiny_music_model().step_model.save(tmp_path / "model.json")
    path, out = tmp_path / "cs.json", tmp_path / "out"
    path.write_text(json.dumps({"z": [13], "b": [True], "prefix": [1, 3], "horizon_ticks": 5}))
    code = main(["sample", "--model", str(tmp_path / "model.json"), "--constraints", str(path),
                 "--horizon-ticks", ticks, "--seed", "1", "--out", str(out)])
    err = assert_error_exit(code, capsys, f"--horizon-ticks {ticks}")
    assert err == f"error: --horizon-ticks must be at least 1, got {ticks}\n"
    assert not out.exists()


@pytest.mark.parametrize("split", ["0", "-3"])
def test_constraints_of_an_empty_piece_split_before_tick_1_are_not_written(tmp_path, capsys,
                                                                          split):
    """An empty piece's tick horizon is the split tick; below 1, no reader
    would take the file, so none is written."""
    piece, out = tmp_path / "empty.jsonl", tmp_path / "cs.json"
    write_events(piece, [], Vocabulary())
    with pytest.warns(UserWarning, match="constraint set is empty"):
        code = main(["extract-constraints", "--events", str(piece), "--split-tick", split,
                     "--out", str(out)])
    err = assert_error_exit(code, capsys, f"--split-tick {split}")
    assert err == f"error: constraint field 'horizon_ticks' must be positive, got {split}\n"
    assert not out.exists()


@pytest.mark.parametrize("spec,named", [
    ("weibull:shape=1,scale=inf", "scale=inf"), ("uniform:low=0,high=inf", "high=inf"),
    ("poisson:rate=nan", "rate"), ("weibull:shape=nan,scale=1", "shape=nan"),
    ("poisson:rate=inf", "rate"), ("poisson:rate=3,rate=4", "'rate' is given twice")])
def test_bad_model_parameter_exits_1(tmp_path, capsys, spec, named):
    """A non-finite or repeated parameter is a spec error that names it, not
    a dead ensemble or a weight error."""
    path, out = tmp_path / "cs.json", tmp_path / "out"
    path.write_text(json.dumps({"z": [0.5], "b": [True]}))
    code = main(["sample", "--model", spec, "--constraints", str(path), "--seed", "1",
                 "--out", str(out)])
    assert named in assert_error_exit(code, capsys, spec)
    assert not out.exists()


@pytest.mark.parametrize("command,spec,unknown", [
    ("sample", "poisson:rate=3,rat=4", "rat"), ("sample", "weibull:shape=2,scale=1,k=1", "k"),
    ("oracle", "const:p=0.4,q=1", "q")])
def test_unknown_spec_parameter_exits_1(tmp_path, capsys, command, spec, unknown):
    """A parameter the model or grid does not take is refused, not dropped."""
    path, out = tmp_path / "cs.json", tmp_path / "out"
    path.write_text(json.dumps({"z": [0.5], "b": [True]}))
    if command == "oracle":
        argv = ["oracle", "--grid", spec, "--cells", "4", "--observed", "1", "--particles", "10",
                "--runs", "1"]
    else:
        argv = ["sample", "--model", spec, "--constraints", str(path)]
    code = main([*argv, "--seed", "1", "--out", str(out)])
    err = assert_error_exit(code, capsys, spec)
    assert f"{spec!r} has unknown parameter {unknown!r}" in err
    assert not out.exists()


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


def read_events_by_json(path) -> tuple[list[MusicEvent], int]:
    """``read_events`` with every line parsed by ``files.loads`` (``json.loads``
    refusing repeated keys), as it read event files before lines in
    ``write_codes``' form got a parser of their own: every ValueError, JSON
    errors included, is prefixed with the path."""
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
        events = []
        for k, line in enumerate(raw[1:], start=1):
            d = loads(line)
            if not isinstance(d, dict):
                d = {}
            t, a, part = d.get("t"), d.get("a"), d.get("part", 0)
            if not (type(t) is int and type(a) is int and type(part) is int):  # no bools
                raise ValueError(f"event {k} needs integer 't', 'a' and 'part' fields, "
                                 f"got {line.strip()[:80]!r}")
            events.append(MusicEvent(t=t, a=a, part=part))
        events_to_codes(events, Vocabulary(parts=max(parts, 1)))  # canonical order check
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return events, parts


FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


def respell(rng, line: str) -> str:
    """An event line in ``write_codes``' form, changed in one place."""
    items = [item.split(": ") for item in line[1:-1].split(", ")]
    item = pick(rng, items)
    how = int(rng.integers(9))
    if how == 0:
        v = item[1]
        item[1] = pick(rng, ["0" + v, "00", "-" + v, "-0", "+" + v, v + ".0", "1.0", v + "e0",
                             "true", "false", "null", f'"{v}"', v + "0" * 25, "1" + "0" * 5000,
                             v.translate(FULLWIDTH), v + "\u0663", v + " ", " " + v])
    elif how == 1:
        rng.shuffle(items)
    elif how == 2:
        items.insert(int(rng.integers(4)), pick(rng, [['"x"', "1"], ['"a"', "7"], ['"part"', "1"],
                                                      ['"t"', "0"], ['"A"', "1"]]))
    elif how == 3:
        items.remove(item)
    text = "{" + ", ".join(f"{k}: {v}" for k, v in items) + "}"
    if how == 4:
        at = pick(rng, [i for i, c in enumerate(text) if c == " "])
        text = text[:at] + pick(rng, [" ", "\t", "\n", "\u00a0"]) + text[at:]
    elif how == 5:
        text += pick(rng, [" x", "  ", "\r", "\t", " }", ",", "}", "\u2028", "\x00"])
    elif how == 6:
        at = int(rng.integers(len(text) + 1))
        text = text[:at] + pick(rng, ["\r", "\r\n", "\x1c", "\x85"]) + text[at:]
    elif how == 7:
        text = text.replace(", ", ",").replace(": ", ":")
    elif how == 8:
        text = pick(rng, [" ", "\t", "\r\n", "\ufeff"]) + text
    return text


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

    def test_event_lines_read_as_json_reads_them(self, tmp_path):
        """Lines in ``write_codes``' form, a few respelled: ``read_events``
        returns what a reader parsing every line with ``json`` returns, or
        raises the same error, and ``read_parts`` reads its header alike."""
        rng = np.random.default_rng(1616)
        path = tmp_path / "piece.jsonl"
        outcomes = {True: 0, False: 0}
        for trial in range(1500):
            vocab = Vocabulary(parts=int(rng.integers(1, 3)))
            codes = np.sort(rng.choice(np.arange(1, 4 * vocab.actions), int(rng.integers(9)),
                                       replace=False))
            write_events(path, codes_to_events(codes.tolist(), vocab), vocab)
            lines = path.read_text().splitlines()
            for k in range(1, len(lines)):
                if rng.random() < 0.15:
                    lines[k] = respell(rng, lines[k])
            path.write_text(pick(rng, ["", "\n", " \n"])
                            + pick(rng, ["\n", "\r\n"]).join(lines) + pick(rng, ["\n", ""]))
            got, expected = [], []
            for read, out in ((read_events, got), (read_events_by_json, expected)):
                try:
                    out.append(read(path))
                except ValueError as exc:
                    out.append((type(exc), str(exc)))
            assert got == expected, f"trial {trial}: {path.read_text()!r}"
            accepted = isinstance(expected[0][0], list)
            if accepted:
                assert read_parts(path) == expected[0][1]
            outcomes[accepted] += 1
        assert min(outcomes.values()) > 300, outcomes


    @pytest.mark.parametrize("text", [
        "\x0cH\nE\n", "H\u2028E\n", " \u2028\n\rH\x0cE", '{"kind":\x0c "events"}\nE\n',
        "\u2028\x0c\n \n", "E\x0cH\n"])
    def test_header_lines_split_at_other_boundaries_read_alike(self, tmp_path, text):
        """``read_parts`` reads no line past the header, yet finds the header
        that ``read_events`` finds when ``\\x0c`` or ``\\u2028`` splits a line."""
        header = json.dumps({"version": 1, "kind": "events", "ppq": 2400, "parts": 2})
        path = tmp_path / "piece.jsonl"
        path.write_text(text.replace("H", header).replace("E", '{"a": 61, "part": 1, "t": 0}'))
        outcomes = []
        for read in (read_parts, lambda p: read_events(p)[1]):
            try:
                outcomes.append(read(path))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


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

    def test_zero_division_exits_1(self, tmp_path, capsys):
        data = sample_midi()
        err = assert_error_exit(self.convert(tmp_path, data[:12] + b"\0\0" + data[14:]),
                                capsys, "division 0")
        assert err == f"error: {tmp_path / 'in.mid'}: zero ticks-per-quarter division\n"

    @pytest.mark.parametrize("event, message", [
        (b"\x00\x3c\x40", "running status without a prior status byte"),
        (b"\x00\x80\x3c\x40",
         "pitch 60 on part 0 released at tick 0 without a matching note-on"),
    ], ids=["running-status", "lone-note-off"])
    def test_track_errors_name_the_file(self, tmp_path, capsys, event, message):
        """A one-track file whose first event the reader refuses."""
        track = event + b"\x00\xff\x2f\x00"
        data = (b"MThd" + struct.pack(">IHHH", 6, 0, 1, 480)
                + b"MTrk" + struct.pack(">I", len(track)) + track)
        err = assert_error_exit(self.convert(tmp_path, data), capsys, message)
        assert err == f"error: {tmp_path / 'in.mid'}: {message}\n"

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
