"""End-to-end command line runs."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from exact import events_to_codes, grid_bits, grid_problem, pooled_tv, write_events
from test_acceptance import TINY, tiny_music_model

from ppsmc import cli
from ppsmc.cli import main
from ppsmc.models import (PoissonProcessModel, UniformRenewalModel, log_probability,
                          step_log_probabilities)
from ppsmc.music import files
from ppsmc.music.encoding import MusicEvent, Vocabulary
from ppsmc.music.files import read_events, write_constraint_file
from ppsmc.rng import run_seed
from ppsmc.smc import ConstraintSet, conditional_sample


@pytest.fixture()
def constraint_file(tmp_path):
    path = tmp_path / "cs.json"
    path.write_text(json.dumps({"version": 1, "kind": "constraints",
                                "z": [0.3, 0.6], "b": [True, False]}))
    return path


def read_json(path):
    return json.loads(path.read_text())


class TestSampleCommand:
    def test_writes_result_samples_and_diagnostics(self, tmp_path, constraint_file):
        out = tmp_path / "out"
        code = main(["sample", "--model", "poisson:rate=5", "--constraints",
                     str(constraint_file), "--seed", "9", "--particles", "40",
                     "--out", str(out)])
        assert code == 0
        result = read_json(out / "result.json")
        assert result["survived"] is True
        times = read_json(out / "sample_0000.json")["times"]
        assert 0.3 in times and times[-1] == 0.6
        lines = (out / "diagnostics.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "diagnostics"
        assert len(lines) == 3  # header + two interior barriers

    def test_same_invocation_is_byte_identical(self, tmp_path, constraint_file):
        args = ["sample", "--model", "poisson:rate=5", "--constraints",
                str(constraint_file), "--seed", "4", "--particles", "30",
                "--keep", "0"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        for name in ("result.json", "diagnostics.jsonl", "sample_0001.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_multi_run_summary(self, tmp_path, constraint_file):
        out = tmp_path / "out"
        code = main(["sample", "--model", "poisson:rate=5", "--constraints",
                     str(constraint_file), "--seed", "2", "--particles", "20",
                     "--runs", "3", "--out", str(out)])
        assert code == 0
        summary = read_json(out / "summary.json")
        assert summary["runs"] == 3 and summary["survived"] == 3
        assert (out / "run_002" / "result.json").exists()

    def test_a_sample_that_misses_a_required_time_is_an_internal_error(
            self, tmp_path, constraint_file, monkeypatch, capsys):
        """The command checks every sample before writing it: one without the
        required 0.3 ends the run with exit 1 and writes no sample file."""
        class Result:
            survived, failed_barrier, diagnostics, log_probs = True, None, [], None
            samples = [(0.2, 0.6)]

        monkeypatch.setattr(cli, "conditional_runs", lambda *args, **kwargs: [Result])
        out = tmp_path / "out"
        code = main(["sample", "--model", "poisson:rate=5", "--constraints",
                     str(constraint_file), "--seed", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "internal error: a sample violates its constraints\n"
        assert not (out / "sample_0000.json").exists()

    def test_dead_ensemble_exits_3(self, tmp_path):
        # A closed 0.3-wide gap can never be one hop for gaps capped at 0.02.
        cs = tmp_path / "dead.json"
        cs.write_text(json.dumps({"version": 1, "kind": "constraints",
                                  "z": [0.3, 0.6], "b": [False, False]}))
        out = tmp_path / "out"
        code = main(["sample", "--model", "uniform:low=0.01,high=0.02",
                     "--constraints", str(cs), "--seed", "1",
                     "--particles", "10", "--out", str(out)])
        assert code == 3
        result = read_json(out / "result.json")
        assert result["survived"] is False and result["failed_barrier"] == 2

    def test_dead_run_is_reported_on_stderr(self, tmp_path, capsys):
        cs = tmp_path / "dead.json"
        cs.write_text(json.dumps({"z": [0.3, 0.6], "b": [False, False]}))
        assert main(["sample", "--model", "uniform:low=0.01,high=0.02", "--constraints",
                     str(cs), "--seed", "1", "--particles", "10", "--runs", "2",
                     "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ("run 0 died at barrier 2\n"
                                           "run 1 died at barrier 2\n")

    def test_forbidden_gap_longer_than_s_max_exits_3(self, tmp_path, capsys):
        tiny_music_model().step_model.save(tmp_path / "model.json")
        z = events_to_codes([MusicEvent(0, 1), MusicEvent(TINY.s_max + 2, 1)], TINY)
        write_constraint_file(tmp_path / "cs.json", ConstraintSet(z=z, b=(False, True)),
                              horizon_ticks=TINY.s_max + 3, vocab=TINY)
        assert main(["sample", "--model", str(tmp_path / "model.json"), "--constraints",
                     str(tmp_path / "cs.json"), "--seed", "1", "--particles", "8",
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.endswith("ensemble died: no run survived its "
                                                "constraints\n")
        assert read_json(tmp_path / "out" / "result.json")["failed_barrier"] == 2

    def test_horizon_ticks_bounds_music_samples(self, tmp_path, capsys):
        """--horizon-ticks T replaces the file's tick horizon: every sample
        code stays at or below T*A, and a T short of the last constraint is
        refused."""
        tiny_music_model().step_model.save(tmp_path / "model.json")
        write_constraint_file(tmp_path / "cs.json", ConstraintSet(z=(13, 19), b=(True, True)),
                              prefix=(1, 3), horizon_ticks=5)
        args = ["sample", "--model", str(tmp_path / "model.json"), "--constraints",
                str(tmp_path / "cs.json"), "--seed", "3", "--particles", "20", "--keep", "0"]
        assert main(args + ["--horizon-ticks", "9", "--out", str(tmp_path / "out")]) == 0
        codes = [events_to_codes(read_events(path)[0], TINY)
                 for path in sorted((tmp_path / "out").glob("sample_*.jsonl"))]
        assert len(codes) == 20 and all(c[-1] <= 9 * TINY.actions for c in codes)
        assert max(c[-1] for c in codes) > 5 * TINY.actions  # past the file's horizon
        assert main(args + ["--horizon-ticks", "4", "--out", str(tmp_path / "short")]) == 1
        assert capsys.readouterr().err == "error: constraint 19 lies beyond the horizon 16\n"

    def test_integral_float_codes_read_as_integers(self, tmp_path):
        """Codes written as 13.0 in a music constraint file read as 13."""
        tiny_music_model().step_model.save(tmp_path / "model.json")
        (tmp_path / "float.json").write_text(json.dumps(
            {"z": [13.0, 19.0], "b": [True, True], "prefix": [1.0, 3.0], "horizon_ticks": 5.0}))
        write_constraint_file(tmp_path / "int.json", ConstraintSet(z=(13, 19), b=(True, True)),
                              prefix=(1, 3), horizon_ticks=5)
        for name in ("float", "int"):
            assert main(["sample", "--model", str(tmp_path / "model.json"), "--constraints",
                         str(tmp_path / f"{name}.json"), "--seed", "2", "--particles", "10",
                         "--keep", "0", "--out", str(tmp_path / name)]) == 0
        for path in sorted((tmp_path / "int").iterdir()):
            assert (tmp_path / "float" / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("ticks, message", [
        (4, "constraint 19 lies beyond the horizon 16"),
        (0, "constraint field 'horizon_ticks' must be positive, got 0"),
        (-2, "constraint field 'horizon_ticks' must be positive, got -2"),
    ], ids=["short", "zero", "negative"])
    def test_a_bad_horizon_ticks_names_the_file(self, tmp_path, capsys, ticks, message):
        """The file's own tick horizon is checked as the file is read, even
        when --horizon-ticks overrides it, and nothing is written."""
        tiny_music_model().step_model.save(tmp_path / "model.json")
        cs = tmp_path / "cs.json"
        cs.write_text(json.dumps({"z": [13, 19], "b": [True, True], "prefix": [1, 3],
                                  "horizon_ticks": ticks}))
        args = ["sample", "--model", str(tmp_path / "model.json"), "--constraints", str(cs),
                "--seed", "1", "--particles", "4", "--out", str(tmp_path / "out")]
        for override in ([], ["--horizon-ticks", "9"]):
            assert main(args + override) == 1
            assert capsys.readouterr().err == f"error: {cs}: {message}\n"
            assert not (tmp_path / "out").exists()

    def test_weights_whose_squares_underflow_exit_0(self, tmp_path):
        cs = tmp_path / "far.json"
        cs.write_text(json.dumps({"version": 1, "kind": "constraints",
                                  "z": [0.5, 714.3], "b": [False, False]}))
        out = tmp_path / "out"
        assert main(["sample", "--model", "poisson:rate=1", "--constraints", str(cs),
                     "--seed", "1", "--particles", "5", "--horizon", "715",
                     "--out", str(out)]) == 0
        assert read_json(out / "result.json")["survived"] is True

    def test_unknown_model_exits_1(self, tmp_path, constraint_file, capsys):
        code = main(["sample", "--model", "cauchy:loc=0", "--constraints",
                     str(constraint_file), "--seed", "1", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "unknown model" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sample", "beam"])
    def test_horizon_flag_of_the_other_model_kind_exits_1(self, tmp_path, constraint_file,
                                                          capsys, command):
        """--horizon is read only for continuous models and --horizon-ticks
        only for music models; the other flag ends in an error naming the
        one that applies, before anything is written."""
        tiny_music_model().step_model.save(tmp_path / "model.json")
        write_constraint_file(tmp_path / "music.json", ConstraintSet(z=(13,), b=(True,)),
                              prefix=(1, 3), horizon_ticks=5)
        for model, constraints, flag, other in [
                (str(tmp_path / "model.json"), tmp_path / "music.json", "--horizon", "1.5"),
                ("poisson:rate=3", constraint_file, "--horizon-ticks", "9")]:
            out = tmp_path / flag
            code = main([command, "--model", model, "--constraints", str(constraints),
                         "--seed", "1", "--out", str(out), flag, other])
            err = capsys.readouterr().err
            assert code == 1, (flag, err)
            applies = "--horizon-ticks" if flag == "--horizon" else "--horizon"
            assert err.startswith(f"error: {flag} is for ") and err.endswith(f"use {applies}\n")
            assert not out.exists()

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


@pytest.mark.parametrize("command, model, z, b, sizes", [
    ("sample", "weibull:shape=0.5,scale=1", [1e-310], [True], ["--particles", "10"]),
    ("beam", "poisson:rate=3", [0.3, 0.6], [False, False], ["--beam-b", "1", "--beam-f", "4"]),
], ids=["sample", "beam"])
def test_every_written_file_is_strict_json(tmp_path, command, model, z, b, sizes):
    """An ESS whose squares would overflow, or a beam barrier that discards
    nothing (-inf), is written as a number or null, never NaN or Infinity."""
    cs = tmp_path / "cs.json"
    cs.write_text(json.dumps({"z": z, "b": b}))
    out = tmp_path / "out"
    assert main([command, "--model", model, "--constraints", str(cs), "--seed", "1",
                 "--keep", "0", "--out", str(out), *sizes]) == 0

    def refuse(name):
        raise AssertionError(f"{name} is not JSON")
    for path in sorted(out.iterdir()):
        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=refuse)


class TestBeamCommand:
    def test_reports_scores(self, tmp_path, constraint_file):
        out = tmp_path / "out"
        code = main(["beam", "--model", "poisson:rate=5", "--constraints",
                     str(constraint_file), "--seed", "9", "--beam-b", "4",
                     "--beam-f", "3", "--keep", "0", "--out", str(out)])
        assert code == 0
        result = read_json(out / "result.json")
        assert len(result["log_probs"]) == len(result["samples"]) >= 1

    def test_a_gap_whose_density_underflows_is_scored(self, tmp_path):
        """The forced gap of 300 at rate 3 has density 3·e^-900, 0.0 as a
        float, but a finite log density, so the beam survives it."""
        cs = tmp_path / "far.json"
        cs.write_text(json.dumps({"z": [0.5, 300.5], "b": [False, True]}))
        out = tmp_path / "out"
        assert main(["beam", "--model", "poisson:rate=3", "--constraints", str(cs),
                     "--horizon", "301", "--beam-b", "3", "--beam-f", "3", "--seed", "1",
                     "--keep", "0", "--out", str(out)]) == 0
        log_probs = read_json(out / "result.json")["log_probs"]
        assert log_probs and all(isinstance(lp, float) for lp in log_probs)


class TestLogprobCommand:
    def test_empty_sequence_scores_zero(self, tmp_path):
        sample = tmp_path / "empty.json"
        sample.write_text(json.dumps({"version": 1, "kind": "times", "times": []}))
        report_path = tmp_path / "report.json"
        assert main(["logprob", "--model", "poisson:rate=2", "--out",
                     str(report_path), str(sample)]) == 0
        report = read_json(report_path)
        assert report["entries"][0]["log_prob"] == 0.0

    def test_agrees_with_library_scoring(self, tmp_path):
        times = [0.1, 0.4, 0.75]
        sample = tmp_path / "s.json"
        sample.write_text(json.dumps({"version": 1, "kind": "times", "times": times}))
        report_path = tmp_path / "report.json"
        main(["logprob", "--model", "poisson:rate=3", "--out", str(report_path),
              str(sample)])
        entry = read_json(report_path)["entries"][0]
        expected = log_probability(PoissonProcessModel(rate=3.0), tuple(times))
        assert entry["log_prob"] == pytest.approx(expected, rel=1e-12)

    def test_total_adds_the_steps_left_to_right(self, tmp_path):
        """Ten steps of log 5 add to 16.094379124341 left to right, as
        ``log_probability`` adds them; a compensated sum gives ...003."""
        times = [0.3 * k for k in range(1, 11)]
        sample, report_path = tmp_path / "s.json", tmp_path / "report.json"
        sample.write_text(json.dumps({"version": 1, "kind": "times", "times": times}))
        main(["logprob", "--model", "uniform:low=0.2,high=0.4", "--out", str(report_path),
              str(sample)])
        steps = step_log_probabilities(UniformRenewalModel(0.2, 0.4), times)
        assert steps == [math.log(5.0)] * 10 and math.fsum(steps) == 16.094379124341003
        total = read_json(report_path)["entries"][0]["log_prob"]
        assert total == 16.094379124341 == log_probability(UniformRenewalModel(0.2, 0.4), times)

    def test_impossible_step_is_flagged(self, tmp_path):
        sample = tmp_path / "s.json"
        sample.write_text(json.dumps({"version": 1, "kind": "times",
                                      "times": [0.3, 0.35]}))
        report_path = tmp_path / "report.json"
        main(["logprob", "--model", "uniform:low=0.2,high=0.4", "--out",
              str(report_path), str(sample)])
        entry = read_json(report_path)["entries"][0]
        assert entry["log_prob"] is None and entry["offending_step"] == 1

    def test_a_step_whose_density_underflows_is_not_flagged(self, tmp_path):
        """Only a true zero density is an offending step: 3·e^-900 underflows
        to 0.0, but its log density log 3 - 900 is finite."""
        sample, report_path = tmp_path / "s.json", tmp_path / "report.json"
        sample.write_text(json.dumps({"version": 1, "kind": "times", "times": [0.5, 300.5]}))
        assert main(["logprob", "--model", "poisson:rate=3", "--out", str(report_path),
                     str(sample)]) == 0
        entry = read_json(report_path)["entries"][0]
        assert (entry["log_prob"], entry["offending_step"]) == (-899.3027754226637, None)


class TestOracleCommand:
    def test_small_comparison_passes(self, tmp_path):
        report_path = tmp_path / "oracle.json"
        code = main(["oracle", "--cells", "6", "--observed", "3", "--grid",
                     "const:p=0.4", "--particles", "400", "--runs", "20",
                     "--seed", "12", "--threshold", "0.08", "--out", str(report_path)])
        assert code == 0
        report = read_json(report_path)
        assert report["pass"] is True and report["tv"] < 0.08

    def test_report_counts_every_sample(self, tmp_path):
        """The report's TV is the one of one bit vector per sample, counted
        in sample order, to the last bit."""
        report_path = tmp_path / "oracle.json"
        assert main(["oracle", "--cells", "7", "--observed", "1,4", "--grid",
                     "order2:p00=0.55,p01=0.25,p10=0.7,p11=0.1", "--particles", "300",
                     "--runs", "3", "--seed", "9", "--threshold", "1",
                     "--out", str(report_path)]) == 0
        exact, model, constraints = grid_problem(7, [1, 4])
        runs = (conditional_sample(model, constraints, 300, run_seed(9, r), horizon=7)
                for r in range(3))
        assert read_json(report_path)["tv"] == pooled_tv(exact, grid_bits(runs, 7))


class TestMusicPipeline:
    def make_corpus(self, directory, vocab):
        directory.mkdir()
        pieces = [
            [MusicEvent(0, 61), MusicEvent(0, 65), MusicEvent(2, 189),
             MusicEvent(2, 193)],
            [MusicEvent(0, 65), MusicEvent(1, 61), MusicEvent(1, 193),
             MusicEvent(3, 189)],
            [MusicEvent(0, 61), MusicEvent(2, 65), MusicEvent(2, 189),
             MusicEvent(4, 193)],
        ]
        for i, piece in enumerate(pieces):
            write_events(directory / f"p{i}.jsonl", piece, vocab)

    def test_train_extract_sample_logprob(self, tmp_path):
        vocab = Vocabulary(s_max=4)
        corpus = tmp_path / "corpus"
        self.make_corpus(corpus, vocab)

        model_path = tmp_path / "model.json"
        assert main(["train", "--corpus", str(corpus), "--order", "2",
                     "--alpha", "0.5", "--s-max", "4", "--out", str(model_path)]) == 0

        cs_path = tmp_path / "cs.json"
        assert main(["extract-constraints", "--events", str(corpus / "p0.jsonl"),
                     "--split-tick", "1", "--part", "0", "--out", str(cs_path)]) == 0
        payload = read_json(cs_path)
        assert payload["prefix"] == events_to_codes(
            [MusicEvent(0, 61), MusicEvent(0, 65)], vocab)

        out = tmp_path / "gen"
        assert main(["sample", "--model", str(model_path), "--constraints",
                     str(cs_path), "--seed", "6", "--particles", "30",
                     "--out", str(out)]) == 0
        sample_file = out / "sample_0000.jsonl"
        assert sample_file.exists()

        report_path = tmp_path / "lp.json"
        assert main(["logprob", "--model", str(model_path), "--out",
                     str(report_path), str(sample_file)]) == 0
        entry = read_json(report_path)["entries"][0]
        assert entry["log_prob"] is not None and entry["log_prob"] < 0.0


    def test_part_outside_the_header_is_refused(self, tmp_path, capsys):
        """A 1-part piece has no part 1: its codes would be written under a
        2-part layout that no 1-part model reads."""
        corpus = tmp_path / "corpus"
        self.make_corpus(corpus, Vocabulary())
        piece = corpus / "p0.jsonl"
        assert main(["extract-constraints", "--events", str(piece), "--split-tick", "1",
                     "--part", "1", "--out", str(tmp_path / "cs.json")]) == 1
        assert capsys.readouterr().err == (f"error: --part 1 is outside the parts 0..0 "
                                           f"of {piece}\n")
        assert not (tmp_path / "cs.json").exists()

    def test_constraints_are_re_encoded_into_the_model_layout(self, tmp_path):
        """A 2-part model samples a 1-part piece's constraints at the piece's
        ticks: the file records the layout its codes are in."""
        corpus = tmp_path / "corpus"
        self.make_corpus(corpus, Vocabulary())
        model, cs = tmp_path / "model.json", tmp_path / "cs.json"
        assert main(["train", "--corpus", str(corpus), "--alpha", "0.5", "--s-max", "4",
                     "--parts", "2", "--out", str(model)]) == 0
        assert main(["extract-constraints", "--events", str(corpus / "p2.jsonl"),
                     "--split-tick", "3", "--out", str(cs)]) == 0
        assert main(["sample", "--model", str(model), "--constraints", str(cs), "--seed", "6",
                     "--particles", "30", "--out", str(tmp_path / "out")]) == 0
        events, parts = read_events(tmp_path / "out" / "sample_0000.jsonl")
        assert parts == 2
        assert events[:3] == [MusicEvent(0, 61), MusicEvent(2, 65), MusicEvent(2, 189)]
        assert MusicEvent(4, 193) in events
        assert (read_json(cs)["a_max"], read_json(cs)["parts"]) == (256, 1)

    def test_part_with_no_events_after_the_split_is_a_warning_line(self, tmp_path, capsys):
        """The constraint file is written; stderr holds one plain line."""
        piece, cs = tmp_path / "piece.jsonl", tmp_path / "cs.json"
        write_events(piece, [MusicEvent(0, 10, 0), MusicEvent(1200, 30, 0)], Vocabulary(parts=2))
        assert main(["extract-constraints", "--events", str(piece), "--split-tick", "600",
                     "--part", "1", "--out", str(cs)]) == 0
        assert capsys.readouterr().err == ("warning: part 1 has no events at or after tick 600; "
                                           "constraint set is empty\n")
        assert read_json(cs)["z"] == [] and read_json(cs)["prefix"] == [10]

    def test_constraint_part_the_model_lacks_exits_1(self, tmp_path, capsys):
        two = Vocabulary(parts=2)
        write_constraint_file(tmp_path / "cs.json", ConstraintSet(z=events_to_codes(
            [MusicEvent(1, 1, part=1)], two), b=(True,)), vocab=two)
        tiny_music_model().step_model.save(tmp_path / "model.json")
        assert main(["sample", "--model", str(tmp_path / "model.json"), "--constraints",
                     str(tmp_path / "cs.json"), "--seed", "1", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"error: {tmp_path / 'cs.json'}: "
                                           "part 1 exceeds part count 1\n")


class TestTrainCommand:
    """`train`'s model file for a fixed two-part corpus, pinned by digest
    (recorded while train still decoded every file twice, event by event)."""

    PIECES = [
        (1, [MusicEvent(0, 61), MusicEvent(0, 65), MusicEvent(2, 189), MusicEvent(3, 193)]),
        (2, [MusicEvent(0, 60), MusicEvent(0, 64, part=1), MusicEvent(1, 188),
             MusicEvent(1, 67, part=1), MusicEvent(3, 192, part=1), MusicEvent(4, 195, part=1)]),
        (2, [MusicEvent(0, 62, part=1), MusicEvent(2, 62), MusicEvent(2, 190, part=1),
             MusicEvent(4, 190)]),
    ]
    DIGESTS = {
        (): "2790a46ed9d80dcaf96cfe4a0b39d693d36a78803732368b6fb7a16601685f38",
        ("--parts", "3"): "04a0a27b5705f86605ef4bf81d610b6fcf4a6bb4fa660a4b2219f2c4e21cabde",
    }

    @pytest.mark.parametrize("parts", sorted(DIGESTS))
    def test_model_file_is_unchanged(self, tmp_path, monkeypatch, parts):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for i, (n_parts, piece) in enumerate(self.PIECES):
            write_events(corpus / f"p{i}.jsonl", piece, Vocabulary(parts=n_parts))
        made = []  # the lines files.loads reads, but for the headers
        loads = files.loads
        monkeypatch.setattr(files, "loads", lambda text: (
            '"kind"' in text or made.append(text), loads(text))[1])
        model = tmp_path / "model.json"
        assert main(["train", "--corpus", str(corpus), "--order", "2", "--alpha", "0.5",
                     "--s-max", "4", "--out", str(model), *parts]) == 0
        assert made == []  # every file is in code_writer's spelling: no line goes through json
        assert hashlib.sha256(model.read_bytes()).hexdigest() == self.DIGESTS[parts]


class TestSampleFileBytes:
    """Every file `sample` and `beam` write for a trained music model, pinned
    by one digest per command (recorded when sample files were still written
    event by event through ``json.dumps``; the beam's re-recorded when it
    came to rank candidates by the log probability it reports, the sample's
    when the ESS in its diagnostics came to be taken on the weights over
    their maximum)."""

    DIGESTS = {
        "sample": "ba68488c9efd8ef16e7d28455d2f7bc8fe4d0bfaeb990e3e3d6297b1731c7bb3",
        "beam": "99decb6cba21d5ae890296add13144741070a462ce0c42696a547abd80cb1d26",
    }

    @pytest.mark.parametrize("command, sizes", [
        ("sample", ["--particles", "20"]),
        ("beam", ["--beam-b", "4", "--beam-f", "3"]),
    ])
    def test_written_files_are_unchanged(self, tmp_path, command, sizes):
        tiny_music_model().step_model.save(tmp_path / "model.json")
        write_constraint_file(tmp_path / "cs.json", ConstraintSet(z=(13, 19), b=(True, True)),
                              prefix=(1, 3, 5, 7), horizon_ticks=5)
        out = tmp_path / "out"
        assert main([command, "--model", str(tmp_path / "model.json"), "--constraints",
                     str(tmp_path / "cs.json"), "--seed", "5", "--runs", "2", "--keep", "0",
                     "--out", str(out), *sizes]) == 0
        digest = hashlib.sha256()
        files = sorted(p for p in out.rglob("*") if p.is_file())
        assert sum(p.suffix == ".jsonl" and p.name.startswith("sample_") for p in files) > 2
        for path in files:
            digest.update(path.relative_to(out).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
        assert digest.hexdigest() == self.DIGESTS[command]


class TestConvertCommand:
    def test_events_to_midi_and_back(self, tmp_path):
        vocab = Vocabulary()
        piece = [MusicEvent(0, 61), MusicEvent(2400, 189)]
        events_path = tmp_path / "p.jsonl"
        write_events(events_path, piece, vocab)
        midi_path = tmp_path / "p.mid"
        back_path = tmp_path / "back.jsonl"
        assert main(["convert", "--to-midi", str(events_path), str(midi_path)]) == 0
        assert main(["convert", "--to-events", str(midi_path), str(back_path)]) == 0
        assert events_path.read_bytes() == back_path.read_bytes()


class TestConsoleScript:
    def test_entry_point_is_installed(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "ppsmc.cli", "--help"], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "sample" in proc.stdout
