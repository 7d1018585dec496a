"""Command line interface.

Exit codes: 0 success, 1 runtime/config error, 2 usage error (argparse),
3 ensemble or beam death on a single run.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from collections import Counter
from pathlib import Path

from .beam import beam_search_sample
from .models import (IterationLimitError, PoissonProcessModel, SaturatedCdfError,
                     UniformRenewalModel, WeibullRenewalModel, step_log_probabilities)
from .music.adapter import UnrolledMusicModel
from .music.encoding import Vocabulary, events_to_codes
from .music.files import (extract_constraints, in_file, loads, read_constraint_file,
                          read_corpus, read_events, read_parts, write_codes,
                          write_constraint_file, write_events)
from .music.midi import read_midi, write_midi
from .music.ngram import NGramModel, train_ngram
from .oracle import (GridModel, GridSequenceModel, bits_from_times,
                     enumerate_conditional, normalize_counts,
                     observed_constraints, total_variation)
from .rng import run_seed
from .smc import conditional_sample, satisfies

EXIT_ERROR = 1
EXIT_DIED = 3

JOBS_HELP = "accepted for compatibility; has no effect (runs are single-threaded)"


# spec name -> (what its parameters build, their names in the order it takes them)
MODELS = {"poisson": (PoissonProcessModel, ("rate",)),
          "weibull": (WeibullRenewalModel, ("shape", "scale")),
          "uniform": (UniformRenewalModel, ("low", "high"))}


def _order2(p00, p01, p10, p11):
    """g of a chain whose cell depends on the last two bits, vacant before the first."""
    table = {(): p00, (0,): p00, (1,): p01, (0, 0): p00, (0, 1): p01, (1, 0): p10, (1, 1): p11}
    return lambda bits: table[bits[-2:]]


GRIDS = {"const": (lambda p: lambda bits: p, ("p",)),
         "order2": (_order2, ("p00", "p01", "p10", "p11"))}


def _from_spec(spec: str, kind: str, table: dict, unknown: str):
    """Build what the spec ``name:key=value,...`` names in ``table``; ``unknown``
    is the error for a name not in it, ``kind`` names the spec in the others."""
    name, _, rest = spec.partition(":")
    params = {}
    for item in rest.split(",") if rest else ():
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"malformed parameter {item!r}, expected key=value")
        if key in params:
            raise ValueError(f"parameter {key!r} is given twice")
        params[key] = float(value)
    if name not in table:
        raise ValueError(unknown.format(name))
    build, keys = table[name]
    try:
        values = [params.pop(key) for key in keys]
    except KeyError as missing:
        raise ValueError(f"{kind} {spec!r} is missing parameter {missing}") from None
    built = build(*values)
    if params:
        raise ValueError(f"{kind} {spec!r} has unknown parameter {next(iter(params))!r}")
    return built


def build_model(spec: str):
    """Model spec -> sequence model: the music model of a trained model file's
    path, else poisson:rate=R | weibull:shape=K,scale=C | uniform:low=A,high=B."""
    if Path(spec).is_file():
        return UnrolledMusicModel(NGramModel.load(spec))
    return _from_spec(spec, "model spec", MODELS, "unknown model {!r}: expected poisson:, "
                      "weibull:, uniform:, or a path to a trained model file")


def _load_run_setup(args, music_vocab: Vocabulary | None):
    constraints, prefix, ticks = read_constraint_file(args.constraints, music_vocab)
    if music_vocab is None:
        if args.horizon_ticks is not None:
            raise ValueError("--horizon-ticks is for music models; use --horizon")
        return constraints, (), 1.0 if args.horizon is None else args.horizon
    if args.horizon is not None:
        raise ValueError("--horizon is for continuous models; use --horizon-ticks")
    acts = music_vocab.actions
    if args.horizon_ticks is not None:
        ticks = args.horizon_ticks
    elif ticks is None:
        top = max([*constraints.z, *prefix], default=acts)
        ticks = -(-top // acts)  # ceil to a tick boundary
    return constraints, prefix, ticks * acts


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def _write_samples(outdir: Path, samples, vocab: Vocabulary | None) -> list[str]:
    names = []
    for i, times in enumerate(samples):
        if vocab is not None:
            name = f"sample_{i:04d}.jsonl"
            write_codes(outdir / name, times, vocab)
        else:
            name = f"sample_{i:04d}.json"
            _write_json(outdir / name, {"version": 1, "kind": "times", "times": list(times)})
        names.append(name)
    return names


def _write_diagnostics(path: Path, rows) -> None:
    lines = [json.dumps({"version": 1, "kind": "diagnostics"}, sort_keys=True)]
    lines += [json.dumps(row.to_dict(), sort_keys=True) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def cmd_generate(args) -> int:
    """`sample` and `beam`: run the sampler the command names, verify, write, report."""
    model = build_model(args.model)
    vocab = model.vocab if isinstance(model, UnrolledMusicModel) else None
    constraints, prefix, horizon = _load_run_setup(args, vocab)
    if args.command == "sample":
        sampler, sizes = conditional_sample, (args.particles,)
    else:
        sampler, sizes = beam_search_sample, (args.beam_b, args.beam_f)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    survived = 0
    for r in range(args.runs):
        seed_r = run_seed(args.seed, r) if args.runs > 1 else args.seed
        result = sampler(model, constraints, *sizes, seed_r,
                         horizon=horizon, initial_history=prefix)
        rundir = outdir / f"run_{r:03d}" if args.runs > 1 else outdir
        rundir.mkdir(parents=True, exist_ok=True)
        payload = {"version": 1, "kind": "result", "seed": seed_r,
                   "survived": result.survived, "failed_barrier": result.failed_barrier}
        if result.survived:
            survived += 1
            for s in result.samples:
                if not satisfies(s, constraints):
                    print("internal error: a sample violates its constraints", file=sys.stderr)
                    return EXIT_ERROR
            keep = len(result.samples) if args.keep <= 0 else min(args.keep, len(result.samples))
            payload["samples"] = _write_samples(rundir, result.samples[:keep], vocab)
            if result.log_probs is not None:
                finite = [lp if math.isfinite(lp) else None for lp in result.log_probs[:keep]]
                payload["log_probs"] = finite
        _write_diagnostics(rundir / "diagnostics.jsonl", result.diagnostics)
        _write_json(rundir / "result.json", payload)
        if result.failed_barrier is not None:
            print(f"run {r} died at barrier {result.failed_barrier}", file=sys.stderr)
    if args.runs > 1:
        _write_json(outdir / "summary.json",
                    {"version": 1, "kind": "summary", "runs": args.runs,
                     "survived": survived, "survival_rate": survived / args.runs})
        print(f"{survived}/{args.runs} runs survived")
        return 0
    if survived == 0:
        print("ensemble died: no run survived its constraints", file=sys.stderr)
        return EXIT_DIED
    return 0


def _load_times(path: str, vocab: Vocabulary | None) -> list:
    """The times in a times file, or for a music model the codes of an event
    file; every ValueError names the file."""
    if vocab is not None:
        events, _ = read_events(path)
        with in_file(path):
            return events_to_codes(events, vocab)
    with in_file(path):
        payload = loads(Path(path).read_text())
        if (not isinstance(payload, dict) or payload.get("version", 1) != 1
                or payload.get("kind") != "times"):
            raise ValueError("not a times file")
        times = payload.get("times")
        if not isinstance(times, list) or not all(  # finite as floats: no huge integers
                isinstance(t, numbers.Real) and not isinstance(t, bool)
                and abs(t) <= sys.float_info.max for t in times):
            raise ValueError("field 'times' is missing or not a list of finite numbers")
    return times


def cmd_logprob(args) -> int:
    model = build_model(args.model)
    vocab = model.vocab if isinstance(model, UnrolledMusicModel) else None
    entries = []
    finite = []
    for path in args.files:
        times = _load_times(path, vocab)
        with in_file(path):
            steps = step_log_probabilities(model, times)
        total = sum(steps, 0.0)
        offending = next((i for i, lp in enumerate(steps) if lp == -math.inf), None)
        entries.append({"path": path, "num_events": len(times),
                        "log_prob": total if math.isfinite(total) else None,
                        "offending_step": offending})
        if math.isfinite(total):
            finite.append(total)
    histogram = {"bin_edges": [], "counts": []}
    if finite:
        import numpy as np
        counts, edges = np.histogram(finite, bins=args.bins)
        histogram = {"bin_edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}
    _write_json(Path(args.out), {"version": 1, "kind": "logprob",
                                 "entries": entries, "histogram": histogram})
    print(f"scored {len(entries)} files ({len(finite)} finite)")
    return 0


def cmd_extract_constraints(args) -> int:
    events, parts = read_events(args.events)
    if not 0 <= args.part < parts:
        raise ValueError(f"--part {args.part} is outside the parts 0..{parts - 1} "
                         f"of {args.events}")
    vocab = Vocabulary(parts=parts)
    prefix, constraints = extract_constraints(events, args.split_tick, args.part,
                                              vocab, hold_fixed=args.hold_fixed)
    horizon_ticks = max(ev.t for ev in events) + 1 if events else args.split_tick
    write_constraint_file(args.out, constraints, prefix, horizon_ticks, vocab)
    print(f"{len(constraints.z)} constraints, {len(prefix)} prefix events -> {args.out}")
    return 0


def cmd_train(args) -> int:
    parts = args.parts
    if parts is None:  # an empty corpus is refused by read_corpus
        parts = max(map(read_parts, sorted(Path(args.corpus).glob("*.jsonl"))), default=1)
    vocab = Vocabulary(s_max=args.s_max, parts=parts)
    streams = read_corpus(args.corpus, vocab)
    model = train_ngram(streams, vocab, args.order, args.alpha)
    model.save(args.out)
    print(f"trained order-{args.order} model on {len(streams)} files -> {args.out}")
    return 0


def cmd_oracle(args) -> int:
    observed = [int(x) for x in args.observed.split(",") if x != ""]
    grid = GridModel(n=args.cells, g=_from_spec(args.grid, "grid spec", GRIDS, "unknown grid "
                     "spec {!r}: expected const:p= or order2:p00=,p01=,p10=,p11="))
    exact = enumerate_conditional(grid, observed)
    constraints = observed_constraints(observed)
    model = GridSequenceModel(grid)
    samples = Counter()  # in first-occurrence order, so the bit vectors come in that order too
    for r in range(args.runs):
        seed_r = run_seed(args.seed, r) if args.runs > 1 else args.seed
        result = conditional_sample(model, constraints, args.particles, seed_r,
                                    horizon=grid.n)
        if not result.survived:
            raise ValueError(f"oracle run {r} died at barrier {result.failed_barrier}: "
                             "every particle of that run weighed zero")
        samples.update(result.samples)
    counts = Counter()
    for s, k in samples.items():
        counts[bits_from_times(s, grid.n)] += k
    tv = total_variation(exact, normalize_counts(counts))
    ok = tv < args.threshold
    _write_json(Path(args.out), {"version": 1, "kind": "oracle",
                                 "N": grid.n, "observed": observed,
                                 "S": args.particles, "runs": args.runs,
                                 "tv": tv, "threshold": args.threshold,
                                 "pass": ok, "seed": args.seed})
    print(f"total variation {tv:.5f} vs exact conditional "
          f"({'PASS' if ok else 'FAIL'} at {args.threshold})")
    return 0 if ok else EXIT_ERROR


def cmd_convert(args) -> int:
    if args.to_events:
        events = read_midi(args.infile)
        parts = max((ev.part for ev in events), default=0) + 1
        write_events(args.out, events, Vocabulary(parts=parts))
        print(f"{len(events)} events -> {args.out}")
    else:
        events, _ = read_events(args.infile)
        write_midi(args.out, events)
        print(f"{len(events)} events -> {args.out}")
    return 0


def _add_generation_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, help="model spec or trained model path")
    p.add_argument("--constraints", required=True, help="constraint JSON file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--runs", type=int, default=1, help="independent runs (derived seeds)")
    p.add_argument("--keep", type=int, default=1, help="samples to write per run (<=0: all)")
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.add_argument("--horizon", type=float, help="time horizon (continuous models; default: 1)")
    p.add_argument("--horizon-ticks", type=int, default=None,
                   help="tick horizon (music models; default: from the constraint file)")
    p.set_defaults(func=cmd_generate)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ppsmc",
                                     description="conditional event-sequence sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="particle-filter conditional sampling")
    _add_generation_args(p)
    p.add_argument("--particles", type=int, default=100)

    p = sub.add_parser("beam", help="stochastic beam-search baseline")
    _add_generation_args(p)
    p.add_argument("--beam-b", type=int, default=30, help="proposals per kept trajectory")
    p.add_argument("--beam-f", type=int, default=10, help="trajectories kept")

    p = sub.add_parser("logprob", help="score event files under a model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_logprob)

    p = sub.add_parser("extract-constraints", help="conditioning data from a reference piece")
    p.add_argument("--events", required=True, help="event JSONL file")
    p.add_argument("--split-tick", type=int, required=True)
    p.add_argument("--part", type=int, default=0)
    p.add_argument("--hold-fixed", action="store_true",
                   help="forbid free events between the constraints")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract_constraints)

    p = sub.add_parser("train", help="count an n-gram model over an event-file corpus")
    p.add_argument("--corpus", required=True, help="directory of event JSONL files")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--s-max", type=int, default=2400, help="largest representable tick gap")
    p.add_argument("--parts", type=int, default=None, help="override part count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("oracle", help="compare the filter against exact grid enumeration")
    p.add_argument("--cells", type=int, default=8)
    p.add_argument("--observed", default="4", help="comma-separated occupied cell indices")
    p.add_argument("--grid", default="const:p=0.4", help="const:p= or order2:p00=,...")
    p.add_argument("--particles", type=int, default=2000)
    p.add_argument("--runs", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("convert", help="MIDI subset <-> event files")
    direction = p.add_mutually_exclusive_group(required=True)
    direction.add_argument("--to-events", action="store_true")
    direction.add_argument("--to-midi", action="store_true")
    p.add_argument("infile")
    p.add_argument("out")
    p.set_defaults(func=cmd_convert)

    args = parser.parse_args(argv)
    try:
        if getattr(args, "runs", 1) < 1:  # sample, beam and oracle
            raise ValueError(f"--runs must be at least 1, got {args.runs}")
        return args.func(args)
    except (ValueError, OSError, OverflowError, IterationLimitError, SaturatedCdfError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
