"""The three workloads: inputs, the program's set-up, and the operations of one pass.

Each workload has
  generate(seed, work)  the benchmark's own inputs, written under ``work``
                        (not timed); returns what the checks expect of them;
  setup(spec, work)     the program's set-up: import ppsmc, build or train the
                        model, read the constraints (timed as ``setup_s``);
  operations(state, seed, spec, work)  the fixed list of operations of one pass.

``setup`` imports ppsmc itself, so that a fresh process timing it pays for the
import of exactly the modules the workload uses.  Every pass runs the same
operations with the same seeds, so passes do the same work and their counts
repeat exactly; the benchmark's seed picks the sampler seeds.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import inputs

RATE = 30.0
BARRIERS = tuple(k / 100 for k in range(1, 100))  # 99 free barriers 0.01 apart
BEAM_B = BEAM_F = 10
ALPHA = 0.05  # n-gram smoothing of both music workloads
GRID = "order2:p00=0.55,p01=0.25,p10=0.7,p11=0.1"  # the criterion-1 grid
GRID_P = (0.55, 0.25, 0.7, 0.1)


@dataclass
class Operation:
    name: str
    kind: str                  # "filter" or "beam"
    work: int                  # particle-barriers or beam candidates
    run: Callable[[], object]
    check: Callable[[object, dict], list]   # (output, outputs of the pass by name)
    prepare: Callable[[], None] = lambda: None  # untimed, before each run
    known_fault: bool = False  # fails until the named defect is mended


def _seeds(seed: int, label: str, n: int) -> list[int]:
    rng = random.Random(f"{seed}/{label}")
    return [rng.getrandbits(63) for _ in range(n)]


def filter_work(particles: int, required: int, runs: int = 1) -> int:
    return particles * (required + 1) * runs


def beam_work(required: int, runs: int = 1) -> int:
    return (BEAM_B * BEAM_F * required + BEAM_F) * runs


# --- poisson-barriers -------------------------------------------------------

class PoissonBarriers:
    particles = 1000
    beam_calls = 4
    # ROADMAP's weight-underflow case: the forced gap of 300 has density
    # 3*exp(-900), which underflows, so every particle weighs 0 at barrier 2.
    underflow = {"rate": 3.0, "z": (0.5, 300.5), "b": (False, True),
                 "horizon": 301.0, "particles": 50, "seed": 0}

    @staticmethod
    def generate(seed: int, work: Path) -> dict:
        return {}

    @staticmethod
    def setup(spec: dict, work: Path) -> dict:
        from ppsmc import beam, models, smc
        u = PoissonBarriers.underflow
        return {"smc": smc, "beam": beam,
                "model": models.PoissonProcessModel(rate=RATE),
                "constraints": smc.ConstraintSet(z=BARRIERS, b=(True,) * len(BARRIERS)),
                "underflow_model": models.PoissonProcessModel(rate=u["rate"]),
                "underflow_constraints": smc.ConstraintSet(z=u["z"], b=u["b"])}

    @classmethod
    def operations(cls, state: dict, seed: int, spec: dict, work: Path) -> list[Operation]:
        smc, beam, model, cs = state["smc"], state["beam"], state["model"], state["constraints"]
        r = len(BARRIERS)
        filter_seed, *beam_seeds = _seeds(seed, "poisson", 1 + cls.beam_calls)

        def check_filter(res, _):
            return checks.poisson_filter_problems(
                res.survived, res.samples,
                [(d.min_weight, d.max_weight) for d in res.diagnostics],
                BARRIERS, 1.0, RATE, cls.particles)

        def check_beam(res, _):
            return checks.poisson_beam_problems(res.survived, res.samples, res.log_probs or [],
                                                BARRIERS, 1.0, RATE, BEAM_F)

        ops = [Operation("filter", "filter", filter_work(cls.particles, r),
                         lambda: smc.conditional_sample(model, cs, cls.particles, filter_seed),
                         check_filter)]
        for k, s in enumerate(beam_seeds):
            ops.append(Operation(f"beam{k}", "beam", beam_work(r),
                                 lambda s=s: beam.beam_search_sample(model, cs, BEAM_B, BEAM_F, s),
                                 check_beam))
        u = cls.underflow
        ops.append(Operation(
            "underflow", "filter", filter_work(u["particles"], len(u["z"])),
            lambda: smc.conditional_sample(state["underflow_model"], state["underflow_constraints"],
                                           u["particles"], u["seed"], horizon=u["horizon"]),
            lambda res, _: checks.constrained_problems(res.survived, res.samples,
                                                       u["z"], u["b"], u["horizon"]),
            known_fault=True))
        return ops


# --- music-prefix -----------------------------------------------------------

class MusicPrefix:
    prefix_events = 400
    required = 6
    particles = 100

    @classmethod
    def generate(cls, seed: int, work: Path) -> dict:
        return inputs.write_music_inputs(work, cls.prefix_events, cls.required)

    @staticmethod
    def setup(spec: dict, work: Path) -> dict:
        from ppsmc import beam, smc
        from ppsmc.music import adapter, encoding, files, ngram
        vocab = encoding.Vocabulary()
        step = ngram.train_ngram(files.read_corpus(work / "corpus", vocab), vocab,
                                 order=2, alpha=ALPHA)
        events, _ = files.read_events(work / "heldout.jsonl")
        prefix, constraints = files.extract_constraints(events, spec["split_tick"], 0, vocab)
        horizon = (max(ev.t for ev in events) + 1) * vocab.actions
        return {"smc": smc, "beam": beam, "model": adapter.UnrolledMusicModel(step),
                "prefix": prefix, "constraints": constraints, "horizon": horizon}

    @classmethod
    def operations(cls, state: dict, seed: int, spec: dict, work: Path) -> list[Operation]:
        smc, beam, model = state["smc"], state["beam"], state["model"]
        prefix, cs, horizon = state["prefix"], state["constraints"], state["horizon"]
        if (list(prefix), list(cs.z), horizon) != (spec["prefix"], spec["z"], spec["horizon"]):
            raise RuntimeError("the constraints read by the program differ from those generated")
        scorer = checks.NGramScorer(corpus_counts(work / "corpus"), ALPHA, order=2)
        filter_seed, beam_seed = _seeds(seed, "music", 2)

        def check_filter(res, _):
            if not res.survived:
                return ["ensemble died"]
            return checks.music_filter_problems(res.samples, scorer, prefix, cs.z, horizon)

        def check_beam(res, outputs):
            if not res.survived:
                return ["beam died"]
            filt = outputs["filter"]
            return checks.music_beam_problems(res.samples, res.log_probs or [],
                                              filt.samples if filt.survived else [],
                                              scorer, prefix, cs.z, horizon)

        return [
            Operation("filter", "filter", filter_work(cls.particles, cs.r),
                      lambda: smc.conditional_sample(model, cs, cls.particles, filter_seed,
                                                     horizon=horizon, initial_history=prefix),
                      check_filter),
            Operation("beam", "beam", beam_work(cs.r),
                      lambda: beam.beam_search_sample(model, cs, BEAM_B, BEAM_F, beam_seed,
                                                      horizon=horizon, initial_history=prefix),
                      check_beam),
        ]


def corpus_counts(corpus: Path) -> dict:
    """Order-2 counts of the corpus's canonical symbol streams, by the
    benchmark's own arithmetic (context = previous symbol, 0 at the start)."""
    counts: dict = {}
    for path in sorted(corpus.glob("*.jsonl")):
        syms = checks.symbols(checks.read_codes(path))
        for prev, sym in zip([0, *syms], syms):
            row = counts.setdefault((prev,), {})
            row[sym] = row.get(sym, 0) + 1
    return counts


# --- oracle-cli -------------------------------------------------------------

def _cli(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class OracleCli:
    prefix_events = 100
    required = 4
    oracle_particles = 2000
    oracle_runs = 4
    particles = 50
    runs = 2
    jobs = "2"

    @classmethod
    def generate(cls, seed: int, work: Path) -> dict:
        return inputs.write_music_inputs(work, cls.prefix_events, cls.required)

    @staticmethod
    def setup(spec: dict, work: Path) -> dict:
        from ppsmc import cli
        for argv in (["train", "--corpus", str(work / "corpus"), "--order", "2",
                      "--alpha", str(ALPHA), "--out", str(work / "model.json")],
                     ["extract-constraints", "--events", str(work / "heldout.jsonl"),
                      "--split-tick", str(spec["split_tick"]), "--part", "0",
                      "--out", str(work / "cs.json")]):
            if _cli(cli, argv) != 0:
                raise RuntimeError(f"ppsmc {argv[0]} failed")
        return {"cli": cli}

    @classmethod
    def operations(cls, state: dict, seed: int, spec: dict, work: Path) -> list[Operation]:
        cli = state["cli"]
        from ppsmc import oracle
        prefix, z, horizon = spec["prefix"], spec["z"], spec["horizon"]
        scorer = checks.NGramScorer(corpus_counts(work / "corpus"), ALPHA, order=2)
        oracle_seed, sample_seed, beam_seed = _seeds(seed, "cli", 3)
        report = work / "oracle.json"
        out = {"sample": work / "sample_out", "beam": work / "beam_out"}
        common = ["--model", str(work / "model.json"), "--constraints", str(work / "cs.json"),
                  "--runs", str(cls.runs), "--keep", "0", "--jobs", cls.jobs]

        table = dict(zip(((0, 0), (0, 1), (1, 0), (1, 1)), GRID_P))

        def g(bits):
            return table[(bits[-2] if len(bits) >= 2 else 0, bits[-1] if bits else 0)]

        def check_oracle(rc, _):
            exact = oracle.enumerate_conditional(oracle.GridModel(n=8, g=g), [4])
            return (checks.oracle_report_problems(rc, report)
                    + checks.order2_table_problems(exact, *GRID_P, cells=8, observed=4))

        return [
            Operation("oracle", "filter",
                      filter_work(cls.oracle_particles, 1, cls.oracle_runs),
                      lambda: _cli(cli, ["oracle", "--grid", GRID, "--cells", "8",
                                         "--observed", "4",
                                         "--particles", str(cls.oracle_particles),
                                         "--runs", str(cls.oracle_runs),
                                         "--seed", str(oracle_seed), "--jobs", cls.jobs,
                                         "--out", str(report)]),
                      check_oracle, prepare=lambda: report.unlink(missing_ok=True)),
            Operation("sample", "filter", filter_work(cls.particles, len(z), cls.runs),
                      lambda: _cli(cli, ["sample", *common, "--particles", str(cls.particles),
                                         "--seed", str(sample_seed), "--out", str(out["sample"])]),
                      lambda rc, _: checks.cli_generation_problems(
                          rc, out["sample"], cls.runs, cls.particles, prefix, z, horizon),
                      prepare=lambda: shutil.rmtree(out["sample"], ignore_errors=True)),
            Operation("beam", "beam", beam_work(len(z), cls.runs),
                      lambda: _cli(cli, ["beam", *common, "--beam-b", str(BEAM_B),
                                         "--beam-f", str(BEAM_F), "--seed", str(beam_seed),
                                         "--out", str(out["beam"])]),
                      lambda rc, _: checks.cli_generation_problems(
                          rc, out["beam"], cls.runs, BEAM_F, prefix, z, horizon, scorer),
                      prepare=lambda: shutil.rmtree(out["beam"], ignore_errors=True)),
        ]


WORKLOADS = {"poisson-barriers": PoissonBarriers, "music-prefix": MusicPrefix,
             "oracle-cli": OracleCli}
