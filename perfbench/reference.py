"""Reference figures quoted in README.md.

    python3 perfbench/reference.py

Run from the root of a checkout.  Prints, as medians of wall time over
repeated calls in this process:
  - the music filter operation at a 10-event against a 400-event prefix
    (the yardstick for incremental model state);
  - the oracle invocation at --jobs 1 against --jobs 2 (the thread pool);
  - every workload's pass time untraced against traced (tracing overhead),
    each from its own run of run.py.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time

import run

REPEATS = 3


def median_seconds(op) -> float:
    op.run()  # warm-up
    times = []
    for _ in range(REPEATS):
        op.prepare()
        start = time.perf_counter()
        op.run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def operation(cls, name: str, work):
    work.mkdir(parents=True)
    spec = cls.generate(1, work)
    ops = cls.operations(cls.setup(spec, work), 1, spec, work)
    return next(op for op in ops if op.name == name)


def pass_seconds(workload: str, trace: int) -> float:
    """Median pass time (sum of the median operation times) of one run."""
    done = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "10", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170, check=True)
    line = next(l for l in done.stderr.splitlines() if "median wall s:" in l)
    medians = line.split("median wall s: ")[1].split(";")[0]
    return sum(float(item.split()[1]) for item in medians.split(", "))


def main() -> int:
    run._paths()
    import workloads
    root = run.ROOT / ".perfbench" / f"reference-{os.getpid()}"
    try:
        for events in (10, 400):
            cls = type("Music", (workloads.MusicPrefix,), {"prefix_events": events})
            seconds = median_seconds(operation(cls, "filter", root / f"music-{events}"))
            print(f"music-prefix filter at L={events}: {seconds:.3f} s")
        for jobs in ("1", "2"):
            cls = type("Cli", (workloads.OracleCli,), {"jobs": jobs})
            seconds = median_seconds(operation(cls, "oracle", root / f"oracle-{jobs}"))
            print(f"oracle-cli oracle at --jobs {jobs}: {seconds:.3f} s")
        for workload in workloads.WORKLOADS:
            plain, traced = pass_seconds(workload, 0), pass_seconds(workload, 1)
            print(f"{workload} pass: {plain:.3f} s untraced, {traced:.3f} s traced "
                  f"({traced / plain:.2f}x)")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
