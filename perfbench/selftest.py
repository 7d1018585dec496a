"""Self-test of the benchmark's output checks: each must reject a corrupted output.

    python3 perfbench/selftest.py

Run from the root of a checkout.  It runs one pass of every workload and
confirms that the genuine outputs pass their checks (all but the known
weight-underflow case, which must fail), then corrupts the outputs one way at
a time and confirms that the corrupted operation's check fails.  The exit code
is 0 when every corruption is caught.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from dataclasses import replace as rep
from pathlib import Path

import run

SEED = 7


def _swap(seq, i, j):
    seq = list(seq)
    seq[i], seq[j] = seq[j], seq[i]
    return tuple(seq)


def _without(seq, value):
    return tuple(x for x in seq if x != value)


def _edit_json(path: Path, **changes) -> None:
    payload = json.loads(path.read_text())
    payload.update(changes)
    path.write_text(json.dumps(payload))


def _scale_score(path: Path, factor: float) -> None:
    payload = json.loads(path.read_text())
    payload["log_probs"][0] *= factor
    path.write_text(json.dumps(payload))


def _swap_lines(path: Path, i: int, j: int) -> None:
    lines = path.read_text().splitlines()
    lines[i], lines[j] = lines[j], lines[i]
    path.write_text("\n".join(lines) + "\n")


# Each corruption is (label, operation, corrupt); corrupt() returns the
# corrupted output of that operation, editing its files where the output is a
# directory on disk.

def poisson_corruptions(outputs: dict, spec: dict, work: Path) -> list:
    f, b = outputs["filter"], outputs["beam0"]
    rows = list(f.diagnostics)
    rows[10] = rep(rows[10], max_weight=rows[10].max_weight * (1 + 1e-6))
    return [
        ("dropped required time", "filter",
         lambda: rep(f, samples=[_without(f.samples[0], 0.5), *f.samples[1:]])),
        ("two times swapped", "filter",
         lambda: rep(f, samples=[_swap(f.samples[0], 1, 2), *f.samples[1:]])),
        ("time beyond the horizon", "filter",
         lambda: rep(f, samples=[(*f.samples[0], 1.5), *f.samples[1:]])),
        ("weight off by 1e-6", "filter", lambda: rep(f, diagnostics=rows)),
        ("two extra free events in every sample", "filter",
         lambda: rep(f, samples=[tuple(sorted((0.004, 0.006, *s))) for s in f.samples])),
        ("one sample missing", "filter", lambda: rep(f, samples=f.samples[1:])),
        ("ensemble reported dead", "filter", lambda: rep(f, survived=False, samples=[])),
        ("beam score off by 1e-6", "beam0",
         lambda: rep(b, log_probs=[b.log_probs[0] * (1 + 1e-6), *b.log_probs[1:]])),
        ("beam sample lacks a required time", "beam0",
         lambda: rep(b, samples=[_without(b.samples[0], 0.99), *b.samples[1:]])),
    ]


def music_corruptions(outputs: dict, spec: dict, work: Path) -> list:
    f, b = outputs["filter"], outputs["beam"]
    n = len(spec["prefix"])

    def filter_like_beam():
        outputs["filter"] = b  # the pass's outputs: the beam must beat the filter strictly
        return b

    return [
        ("two codes swapped", "filter",
         lambda: rep(f, samples=[_swap(f.samples[0], n, n + 1), *f.samples[1:]])),
        ("dropped required code", "filter",
         lambda: rep(f, samples=[_without(f.samples[0], spec["z"][0]), *f.samples[1:]])),
        ("prefix altered", "filter",
         lambda: rep(f, samples=[(f.samples[0][0] + 1, *f.samples[0][1:]), *f.samples[1:]])),
        ("code beyond the horizon", "filter",
         lambda: rep(f, samples=[(*f.samples[0], spec["horizon"] + 1), *f.samples[1:]])),
        ("beam score off by 1e-6", "beam",
         lambda: rep(b, log_probs=[b.log_probs[0] * (1 + 1e-6), *b.log_probs[1:]])),
        ("beam sample with two codes swapped", "beam",
         lambda: rep(b, samples=[_swap(b.samples[0], n, n + 1), *b.samples[1:]])),
        ("filter as likely as the beam", "beam", filter_like_beam),
    ]


def cli_corruptions(outputs: dict, spec: dict, work: Path) -> list:
    sample, beam = work / "sample_out", work / "beam_out"
    first_event = len(spec["prefix"]) + 1  # line 0 is the header

    def edit(change):
        def corrupt():
            change()
            return 0  # the invocation's exit code
        return corrupt

    return [
        ("missing sample file", "sample",
         edit(lambda: (sample / "run_001" / "sample_0003.jsonl").unlink())),
        ("two events swapped in a sample file", "sample",
         edit(lambda: _swap_lines(sample / "run_000" / "sample_0000.jsonl",
                                  first_event, first_event + 1))),
        ("summary counts a dead run", "sample",
         edit(lambda: _edit_json(sample / "summary.json", survived=1))),
        ("non-zero exit code", "sample", lambda: 1),
        ("beam score off by 1e-6 in result.json", "beam",
         edit(lambda: _scale_score(beam / "run_001" / "result.json", 1 + 1e-6))),
        ("missing beam file", "beam",
         edit(lambda: (beam / "run_000" / "sample_0009.jsonl").unlink())),
        ("oracle report over its threshold", "oracle",
         edit(lambda: _edit_json(work / "oracle.json", tv=0.06, **{"pass": False}))),
    ]


CORRUPTIONS = {"poisson-barriers": poisson_corruptions, "music-prefix": music_corruptions,
               "oracle-cli": cli_corruptions}


def exact_table_check() -> tuple[list, list]:
    """The brute-force enumeration must reject an exact table off by 1e-6."""
    from ppsmc import oracle
    import checks
    import workloads
    table = dict(zip(((0, 0), (0, 1), (1, 0), (1, 1)), workloads.GRID_P))
    exact = oracle.enumerate_conditional(
        oracle.GridModel(n=8, g=lambda bits: table[(bits[-2] if len(bits) >= 2 else 0,
                                                    bits[-1] if bits else 0)]), [4])
    clean = checks.order2_table_problems(exact, *workloads.GRID_P, cells=8, observed=4)
    key = next(iter(exact))
    exact[key] += 1e-6
    return clean, checks.order2_table_problems(exact, *workloads.GRID_P, cells=8, observed=4)


def main() -> int:
    run._paths()
    import workloads
    work_root = run.ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    missed = []
    try:
        for name, wl in workloads.WORKLOADS.items():
            work = work_root / name
            work.mkdir(parents=True)
            spec = wl.generate(SEED, work)
            ops = wl.operations(wl.setup(spec, work), SEED, spec, work)
            outputs = run.run_pass(ops)[0]
            by_name = {op.name: op for op in ops}
            for op in ops:
                found = op.check(outputs[op.name], outputs)
                if bool(found) != op.known_fault:
                    missed.append(f"{name} {op.name}: genuine output judged {found or 'correct'}")
                elif found:
                    print(f"known fault flagged  {name} {op.name}: {found[0]}")
            snapshot = work_root / "snapshot"
            shutil.copytree(work, snapshot)
            pass_outputs = dict(outputs)
            for label, op_name, corrupt in CORRUPTIONS[name](pass_outputs, spec, work):
                found = by_name[op_name].check(corrupt(), pass_outputs)
                pass_outputs.update(outputs)
                shutil.rmtree(work)
                shutil.copytree(snapshot, work)
                if found:
                    print(f"caught  {name} {op_name}, {label}: {found[0]}")
                else:
                    missed.append(f"{name} {op_name}: {label} passed its check")
            shutil.rmtree(snapshot)
        clean, found = exact_table_check()
        if clean or not found:
            missed.append(f"exact table: genuine {clean}, corrupted {found}")
        else:
            print(f"caught  oracle-cli oracle, exact table off by 1e-6: {found[0]}")
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    for m in missed:
        print(f"MISSED  {m}")
    print("every corruption was caught" if not missed else f"{len(missed)} not caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
