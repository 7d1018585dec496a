"""Benchmark of ppsmc's filter and beam: throughput, set-up time and memory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
One run generates its inputs from the seed, sets the program up (timing that
several times), runs one untimed warm-up pass, then whole passes over a fixed
list of operations until ``--seconds`` have gone by, checking every pass's
outputs outside the timed regions.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
# The reference loop's time on an unloaded moment of the 2-core machine the
# benchmark was written on; times are scaled to a machine running it this fast.
REFERENCE_S = 0.054


def _paths() -> None:
    if not (ROOT / "src" / "ppsmc" / "__init__.py").is_file():
        sys.exit(f"error: no ppsmc sources under {ROOT / 'src'}; run from a checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def setup_seconds(wl, spec: dict, work: Path):
    """Median set-up time over SETUP_REPEATS repetitions in this process, and
    the last repetition's state.

    Before each repetition every module imported since the benchmark's own
    start-up is dropped from ``sys.modules``, so each one imports ppsmc and
    what it pulls in afresh, then builds or trains the model and reads the
    constraints.  numpy is already loaded: the benchmark imports it first.
    Each time is scaled by the reference loop like the operations' times."""
    baseline = set(sys.modules)
    times, state = [], None
    for _ in range(SETUP_REPEATS):
        for name in set(sys.modules) - baseline:
            del sys.modules[name]
        state = None
        gc.collect()
        before = reference()
        start = time.perf_counter()
        state = wl.setup(spec, work)
        elapsed = time.perf_counter() - start
        times.append(elapsed * REFERENCE_S / ((before + reference()) / 2))
    return statistics.median(times), state


def reference() -> float:
    """Seconds this machine takes, right now, for a fixed pure-Python loop of
    calls, tuples, dicts and float math.  It is the benchmark's own code, so a
    change to ppsmc cannot move it; the collector is paused so that garbage
    the program left behind cannot either."""
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        total = 0.0
        for i in range(60000):
            key = (i & 255, i >> 8)
            table[key] = table.get(key, 0.0) + math.exp(-1e-4 * i)
            total += sum([i, i + 1, i + 2]) * 0.5
        return time.perf_counter() - start
    finally:
        gc.enable()


def _libc():
    try:
        return ctypes.CDLL("libc.so.6")
    except OSError:
        return None


LIBC = _libc()
M_ARENA_MAX = -8  # mallopt parameter of glibc's malloc.h


def steady_heap() -> None:
    """Give every thread glibc's one main arena.  With an arena per thread,
    which pool thread happened to allocate what moved ``oracle-cli``'s peak
    RSS between 86 and 109 MiB from run to run."""
    if LIBC is not None:
        LIBC.mallopt(M_ARENA_MAX, 1)


def release_memory() -> None:
    """Collect garbage and hand freed heap back to the OS (glibc's malloc_trim),
    so that peak RSS is set by the largest operation, not by fragmentation
    that earlier operations left behind."""
    gc.collect()
    if LIBC is not None:
        LIBC.malloc_trim(0)


def run_pass(ops, tracer=None) -> tuple[dict, dict, dict]:
    """Outputs, wall seconds and reference-scaled seconds of each operation.

    Scaled seconds are wall seconds times REFERENCE_S over the mean of the
    reference loop's times just before and just after the operation."""
    outputs, seconds, scaled = {}, {}, {}
    before = reference()
    for op in ops:
        op.prepare()
        release_memory()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        outputs[op.name] = op.run()
        seconds[op.name] = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        after = reference()
        scaled[op.name] = seconds[op.name] * REFERENCE_S / ((before + after) / 2)
        before = after
    return outputs, seconds, scaled


def throughput(ops, passes, kind: str, timing: str = "scaled") -> float:
    """Median over passes of the pass's work over its operations' time,
    counting only operations of ``kind`` whose checks passed."""
    rates = []
    for p in passes:
        done = [op for op in ops if op.kind == kind and op.name not in p["failed"]]
        if done:
            rates.append(sum(op.work for op in done) / sum(p[timing][op.name] for op in done))
    return statistics.median(rates) if rates else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _paths()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    steady_heap()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spec = wl.generate(args.seed, work)
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            missing = tracing.install(tracer)
            tracer.active = True
            state = wl.setup(spec, work)
            tracer.active = False
            setup_snapshot = tracer.snapshot()
        else:
            setup_s, state = setup_seconds(wl, spec, work)
        ops = wl.operations(state, args.seed, spec, work)
        run_pass(ops)  # warm-up: caches fill, lazy set-up finishes
        if tracer is not None:
            tracer.reset()

        passes, problems = [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            outputs, seconds, scaled = run_pass(ops, tracer)
            failed = {}
            for op in ops:
                found = op.check(outputs[op.name], outputs)
                if found:
                    failed[op.name] = found
                    if not op.known_fault:
                        problems += [f"{op.name}: {p}" for p in found[:5]]
            passes.append({"seconds": seconds, "scaled": scaled, "failed": failed})

        attempted = len(ops) * len(passes)
        n_failed = sum(len(p["failed"]) for p in passes)
        for p in dict.fromkeys(problems):
            print(f"check failed: {p}", file=sys.stderr)
        if tracer is not None:
            metrics = tracing.layer_metrics(setup_snapshot, tracer.snapshot(), len(passes))
            tracing.write_trace(out_dir / f"trace-{args.workload}-{args.seed}.json", tracer,
                                setup_snapshot, tracer.snapshot(), len(passes), missing)
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB -> MiB
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "filter_particle_barriers_per_s":
                    {"value": throughput(ops, passes, "filter"), "unit": "1/s"},
                "beam_candidates_per_s": {"value": throughput(ops, passes, "beam"), "unit": "1/s"},
                "peak_rss_mb": {"value": peak, "unit": "MiB"},
            }
        print(f"{len(passes)} passes, {attempted} operations, {n_failed} failed; "
              "median wall s: " + ", ".join(
                  f"{op.name} {statistics.median(p['seconds'][op.name] for p in passes):.3f}"
                  for op in ops)
              + "; wall-time throughputs: " + ", ".join(
                  f"{kind} {throughput(ops, passes, kind, 'seconds'):.6g}"
                  for kind in ("filter", "beam")), file=sys.stderr)
        print(json.dumps({"correct": not problems, "attempted": attempted,
                          "failed": n_failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
