"""Command line interface.

Exit codes: 0 success, 1 runtime/config error, 2 usage error (argparse),
3 ensemble or beam death on a single run.  Set PPSMC_LOG=debug|info|... to
control logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import numbers
import os
import sys
from collections import Counter
from pathlib import Path

from .beam import beam_search_sample
from .errors import IterationLimitError
from .models import (PoissonProcessModel, UniformRenewalModel,
                     WeibullRenewalModel, step_log_probabilities)
from .music.adapter import UnrolledMusicModel
from .music.encoding import Vocabulary, events_to_codes
from .music.files import (extract_constraints, read_corpus, read_events,
                          write_codes, write_constraint_file, write_events)
from .music.midi import read_midi, write_midi
from .music.ngram import NGramModel, train_ngram
from .oracle import (GridModel, GridSequenceModel, bits_from_times,
                     enumerate_conditional, normalize_counts,
                     observed_constraints, total_variation)
from .rng import run_seed
from .smc import ConstraintSet, conditional_sample, read_constraint_file, satisfies

logger = logging.getLogger("ppsmc")

EXIT_ERROR = 1
EXIT_DIED = 3

JOBS_HELP = "accepted for compatibility; has no effect (runs are single-threaded)"


def _parse_params(text: str) -> dict[str, float]:
    params = {}
    if text:
        for item in text.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"malformed parameter {item!r}, expected key=value")
            params[key.strip()] = float(value)
    return params


def build_model(spec: str):
    """Model spec -> sequence model.

    A path to a trained model file loads the music model; otherwise
    poisson:rate=R | weibull:shape=K,scale=C | uniform:low=A,high=B.
    """
    if Path(spec).is_file():
        return UnrolledMusicModel(NGramModel.load(spec))
    name, _, rest = spec.partition(":")
    params = _parse_params(rest)
    try:
        if name == "poisson":
            return PoissonProcessModel(params["rate"])
        if name == "weibull":
            return WeibullRenewalModel(params["shape"], params["scale"])
        if name == "uniform":
            return UniformRenewalModel(params["low"], params["high"])
    except KeyError as missing:
        raise ValueError(f"model spec {spec!r} is missing parameter {missing}") from None
    raise ValueError(f"unknown model {name!r}: expected poisson:, weibull:, uniform:, "
                     "or a path to a trained model file")


def _as_code(value) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"music constraint fields must hold integer codes, got {value!r}")
    return value


def _load_run_setup(args, music_vocab: Vocabulary | None):
    constraints, payload = read_constraint_file(args.constraints)
    if music_vocab is None:
        return constraints, (), float(args.horizon)
    constraints = ConstraintSet(z=tuple(_as_code(z) for z in constraints.z), b=constraints.b)
    prefix = payload.get("prefix", [])
    if not isinstance(prefix, list):
        raise ValueError("constraint field 'prefix' must be a list of codes")
    prefix = [_as_code(c) for c in prefix]
    acts = music_vocab.actions
    if args.horizon_ticks is not None:
        ticks = args.horizon_ticks
    elif payload.get("horizon_ticks") is not None:
        ticks = _as_code(payload["horizon_ticks"])
    else:
        top = max([*constraints.z, *prefix], default=acts)
        ticks = -(-top // acts)  # ceil to a tick boundary
    horizon = ticks * acts
    return constraints, prefix, horizon


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
            logger.warning("run %d died at barrier %d", r, result.failed_barrier)
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
    if vocab is not None:
        events, _ = read_events(path)
        return events_to_codes(events, vocab)
    payload = json.loads(Path(path).read_text())
    if (not isinstance(payload, dict) or payload.get("version", 1) != 1
            or payload.get("kind") != "times"):
        raise ValueError(f"{path}: not a times file")
    times = payload.get("times")
    if not isinstance(times, list) or not all(
            isinstance(t, numbers.Real) and not isinstance(t, bool) and math.isfinite(t)
            for t in times):
        raise ValueError(f"{path}: field 'times' is missing or not a list of finite numbers")
    return times


def cmd_logprob(args) -> int:
    model = build_model(args.model)
    vocab = model.vocab if isinstance(model, UnrolledMusicModel) else None
    entries = []
    finite = []
    for path in args.files:
        times = _load_times(path, vocab)
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
    vocab = Vocabulary(parts=max(parts, args.part + 1))
    prefix, constraints = extract_constraints(events, args.split_tick, args.part,
                                              vocab, hold_fixed=args.hold_fixed)
    horizon_ticks = max(ev.t for ev in events) + 1 if events else args.split_tick
    write_constraint_file(args.out, constraints, prefix, horizon_ticks)
    print(f"{len(constraints.z)} constraints, {len(prefix)} prefix events -> {args.out}")
    return 0


def cmd_train(args) -> int:
    paths = sorted(Path(args.corpus).glob("*.jsonl"))
    if not paths:
        raise ValueError(f"no event files (*.jsonl) found in {args.corpus}")
    parts = args.parts
    if parts is None:
        parts = max(read_events(p)[1] for p in paths)
    vocab = Vocabulary(s_max=args.s_max, parts=parts)
    streams = read_corpus(args.corpus, vocab)
    model = train_ngram(streams, vocab, args.order, args.alpha)
    model.save(args.out)
    print(f"trained order-{args.order} model on {len(streams)} files -> {args.out}")
    return 0


def _build_grid(spec: str, n: int) -> GridModel:
    name, _, rest = spec.partition(":")
    params = _parse_params(rest)
    try:
        if name == "const":
            p = params["p"]
            return GridModel(n=n, g=lambda bits: p)
        if name == "order2":
            table = {(0, 0): params["p00"], (0, 1): params["p01"],
                     (1, 0): params["p10"], (1, 1): params["p11"]}

            def g(bits):
                b1 = bits[-1] if len(bits) >= 1 else 0
                b2 = bits[-2] if len(bits) >= 2 else 0
                return table[(b2, b1)]

            return GridModel(n=n, g=g)
    except KeyError as missing:
        raise ValueError(f"grid spec {spec!r} is missing parameter {missing}") from None
    raise ValueError(f"unknown grid spec {name!r}: expected const:p= or order2:p00=,p01=,p10=,p11=")


def cmd_oracle(args) -> int:
    observed = [int(x) for x in args.observed.split(",") if x != ""]
    grid = _build_grid(args.grid, args.cells)
    exact = enumerate_conditional(grid, observed)
    constraints = observed_constraints(observed)
    model = GridSequenceModel(grid)
    samples = Counter()  # in first-occurrence order, so the bit vectors come in that order too
    for r in range(args.runs):
        seed_r = run_seed(args.seed, r) if args.runs > 1 else args.seed
        result = conditional_sample(model, constraints, args.particles, seed_r,
                                    horizon=grid.n)
        if not result.survived:
            raise ValueError(f"oracle run {r} died at barrier {result.failed_barrier}; "
                             "the grid model gives the conditioning event zero mass")
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
    p.add_argument("--horizon", type=float, default=1.0, help="time horizon (continuous models)")
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
    level = os.environ.get("PPSMC_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if getattr(args, "runs", 1) < 1:  # sample, beam and oracle
            raise ValueError(f"--runs must be at least 1, got {args.runs}")
        return args.func(args)
    except (ValueError, OSError, OverflowError, IterationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
