"""Output checks, computed with the benchmark's own arithmetic (stdlib + numpy).

Each check returns a list of problems; an empty list means the output passed.
Nothing here calls ppsmc: the expected values are closed forms, properties
the sampler must have, or recomputations from the trained counts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from inputs import ACTIONS, S_MAX


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def times_problems(samples, z, horizon) -> list[str]:
    """Every sample strictly increasing, inside (0, horizon], holding every z."""
    out = []
    for i, s in enumerate(samples):
        if not s or s[0] <= 0 or s[-1] > horizon:
            out.append(f"sample {i} leaves (0, {horizon}]")
        if any(b <= a for a, b in zip(s, s[1:])):
            out.append(f"sample {i} is not strictly increasing")
        present = set(s)
        missing = [t for t in z if t not in present]
        if missing:
            out.append(f"sample {i} lacks required times {missing[:3]}")
    return out


def forbidden_gap_problems(samples, z, b) -> list[str]:
    """No event strictly inside a gap whose flag forbids free events."""
    out = []
    for i, s in enumerate(samples):
        for j, allowed in enumerate(b):
            hi = z[j + 1] if j + 1 < len(z) else math.inf
            if not allowed and any(z[j] < t < hi for t in s):
                out.append(f"sample {i} has a free event after required time {z[j]}")
    return out


def poisson_filter_problems(survived, samples, weights, z, horizon, rate,
                            particles) -> list[str]:
    """Filter output on an all-free Poisson problem with equal-width gaps.

    ``weights`` holds (min, max) of every interior barrier's weights.  The
    clipped-gap weight of an exponential is its hazard, the rate, so every
    weight equals it; the weights are then equal, resampling is the identity
    and free-event counts per gap are independent Poisson(rate * width).
    """
    if not survived:
        return ["ensemble died"]
    out = []
    if len(samples) != particles:
        out.append(f"{len(samples)} samples for {particles} particles")
    out += times_problems(samples, z, horizon)
    if len(weights) != len(z):
        out.append(f"{len(weights)} barrier diagnostics for {len(z)} required times")
    for k, pair in enumerate(weights):
        if not all(_close(w, rate, 1e-9) for w in pair):
            out.append(f"barrier {k + 1} weights {pair} differ from the rate {rate}")
    if out:
        return out
    edges = np.array([0.0, *z, horizon])
    widths = np.diff(edges)
    if not np.allclose(widths, widths[0], rtol=1e-9):
        return ["gaps are not of equal width"]
    required = set(z)
    counts = np.zeros((len(samples), len(widths)))
    for i, s in enumerate(samples):
        free = [t for t in s if t not in required]
        idx = np.searchsorted(edges, free, side="left") - 1
        counts[i] = np.bincount(idx, minlength=len(widths))
    lam = rate * widths[0]
    n = counts.size
    mean = counts.mean()
    dispersion = counts.var(ddof=1) / lam
    if abs(mean - lam) > 5 * math.sqrt(lam / n):
        out.append(f"mean free events per gap {mean:.5f}, expected {lam:.5f}")
    if abs(dispersion - 1) > 5 * math.sqrt((1 / lam + 2) / n):
        out.append(f"dispersion of free events per gap {dispersion:.5f}, expected 1")
    return out


def poisson_beam_problems(survived, samples, log_probs, z, horizon, rate,
                          kept) -> list[str]:
    """Beam output: valid samples whose scores are n*log(rate) - rate*t_last."""
    if not survived:
        return ["beam died"]
    out = []
    if len(samples) != kept or len(log_probs) != kept:
        out.append(f"{len(samples)} samples and {len(log_probs)} scores for f={kept}")
    out += times_problems(samples, z, horizon)
    for i, (s, lp) in enumerate(zip(samples, log_probs)):
        closed = len(s) * math.log(rate) - rate * s[-1]
        if not _close(lp, closed, 1e-9):
            out.append(f"sample {i} scored {lp!r}, closed form {closed!r}")
    return out


def constrained_problems(survived, samples, z, b, horizon) -> list[str]:
    """A filter run that must survive with samples meeting its constraints."""
    if not survived:
        return ["ensemble died on a well-posed problem"]
    return times_problems(samples, z, horizon) + forbidden_gap_problems(samples, z, b)


# --- music ----------------------------------------------------------------

def tick(code: int) -> int:
    """Tick of an unrolled code; a residue of 0 is the last action of the previous tick."""
    return (code - 1) // ACTIONS


def symbols(codes) -> list[int]:
    """Canonical symbol stream: a shift symbol (ACTIONS + dt) before each new tick."""
    out = []
    cur = 0
    for c in codes:
        t = tick(c)
        if t != cur:
            out.append(ACTIONS + t - cur)
            cur = t
        out.append(c - t * ACTIONS)
    return out


def music_sample_problems(samples, prefix, z, horizon) -> list[str]:
    """Starts with the prefix, holds every required code, strictly increasing
    codes (canonical order), tick steps within s_max, inside the horizon."""
    out = []
    n = len(prefix)
    for i, s in enumerate(samples):
        s = list(s)
        if s[:n] != list(prefix):
            out.append(f"sample {i} does not start with the prefix")
        if any(b <= a for a, b in zip(s, s[1:])):
            out.append(f"sample {i} codes are not strictly increasing")
        present = set(s)
        if any(c not in present for c in z):
            out.append(f"sample {i} lacks a required code")
        ticks = [0, *(tick(c) for c in s)]
        if any(b - a > S_MAX for a, b in zip(ticks, ticks[1:])):
            out.append(f"sample {i} has a tick step beyond s_max")
        if not s or s[0] < 1 or s[-1] > horizon:
            out.append(f"sample {i} leaves (0, {horizon}]")
    return out


class NGramScorer:
    """Log-probability of a code sequence from an n-gram's counts.

    The masked PMF is alpha plus the context's counts, restricted to the
    symbols canonical order permits (no shift after a shift, only actions
    above the previous action within a tick) and renormalized over them.
    """

    def __init__(self, counts: dict, alpha: float, order: int):
        self.counts = counts
        self.alpha = alpha
        self.order = order

    def prob(self, context: tuple, prev, sym: int) -> float:
        if prev is None:
            allowed = range(1, ACTIONS + S_MAX + 1)
        elif prev > ACTIONS:
            allowed = range(1, ACTIONS + 1)
        else:
            allowed = range(prev + 1, ACTIONS + S_MAX + 1)
        if sym not in allowed:
            return 0.0
        row = self.counts.get(context, {})
        mass = self.alpha * len(allowed) + sum(n for s, n in row.items() if s in allowed)
        return (self.alpha + row.get(sym, 0)) / mass

    def log_prob(self, codes, prefix) -> float:
        """Log-probability of ``codes[len(prefix):]`` given the prefix."""
        syms = symbols(codes)
        start = len(symbols(prefix))
        need = self.order - 1
        padded = [0] * need + syms
        lp = 0.0
        for k in range(start, len(syms)):
            p = self.prob(tuple(padded[k:k + need]), syms[k - 1] if k else None, syms[k])
            lp += math.log(p) if p > 0 else -math.inf
        return lp


def music_filter_problems(samples, scorer, prefix, z, horizon) -> list[str]:
    """Filter samples meet the music checks and have finite log-probabilities."""
    if not samples:
        return ["no samples"]
    out = music_sample_problems(samples, prefix, z, horizon)
    if not out and not all(math.isfinite(scorer.log_prob(s, prefix)) for s in samples):
        out.append("a sample has a non-finite log-probability")
    return out


def music_beam_problems(samples, log_probs, filter_samples, scorer, prefix, z,
                        horizon) -> list[str]:
    """Beam samples meet the music checks, their reported scores equal the
    recomputed ones, and, since beam search maximizes likelihood, their mean
    exceeds that of the filter's draws from the conditional law on the same
    constraints."""
    if not samples or len(log_probs) != len(samples):
        return [f"{len(samples)} samples with {len(log_probs)} scores"]
    out = music_sample_problems(samples, prefix, z, horizon)
    if out:
        return out
    beam_lp = [scorer.log_prob(s, prefix) for s in samples]
    for i, (got, want) in enumerate(zip(log_probs, beam_lp)):
        if not (math.isfinite(want) and _close(got, want, 1e-9)):
            out.append(f"beam sample {i} scored {got!r}, recomputed {want!r}")
    filter_lp = [scorer.log_prob(s, prefix) for s in filter_samples]
    if not out and not (filter_lp and np.mean(beam_lp) > np.mean(filter_lp)):
        out.append(f"mean beam log-probability {np.mean(beam_lp):.3f} does not exceed "
                   f"the filter's {np.mean(filter_lp) if filter_lp else float('nan'):.3f}")
    return out


# --- CLI outputs ------------------------------------------------------------

def read_codes(path: Path) -> list[int]:
    """Codes of an event file, parsed with plain json."""
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    if header.get("kind") != "events" or header.get("parts") != 1:
        raise ValueError(f"{path.name}: unexpected header {header}")
    return [e["t"] * ACTIONS + e["part"] * 256 + e["a"]
            for e in map(json.loads, lines[1:])]


def _json(path: Path, out: list):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        out.append(f"{path.name}: {exc}")
        return {}


def cli_generation_problems(rc: int, outdir: Path, runs: int, per_run: int,
                            prefix, z, horizon, scorer=None) -> list[str]:
    """`ppsmc sample|beam --runs R --keep 0`: every run survives and writes
    ``per_run`` event files that meet the music checks; with a scorer, the
    beam scores in result.json must equal the recomputed ones."""
    if rc != 0:
        return [f"exit code {rc}"]
    out = []
    summary = _json(outdir / "summary.json", out)
    if summary.get("survived") != runs or summary.get("runs") != runs:
        out.append(f"summary {summary}")
    files = sorted(outdir.glob("run_*/sample_*.jsonl"))
    if len(files) != runs * per_run:
        out.append(f"{len(files)} sample files, expected {runs} x {per_run}")
    samples = {}
    for f in files:
        try:
            samples[f] = read_codes(f)
        except (ValueError, KeyError, IndexError) as exc:
            out.append(f"unreadable sample file: {exc}")
    out += music_sample_problems(list(samples.values()), prefix, z, horizon)
    for r in range(runs):
        rundir = outdir / f"run_{r:03d}"
        result = _json(rundir / "result.json", out)
        if not result.get("survived"):
            out.append(f"run {r} did not survive")
        if scorer is None:
            continue
        names, scores = result.get("samples", []), result.get("log_probs", [])
        if len(names) != per_run or len(scores) != per_run:
            out.append(f"run {r} lists {len(names)} samples with {len(scores)} scores")
        for name, lp in zip(names, scores):
            codes = samples.get(rundir / name)
            if codes is None or lp is None or not _close(lp, scorer.log_prob(codes, prefix), 1e-9):
                out.append(f"run {r} {name} score {lp!r} does not match its file")
    return out


def oracle_report_problems(rc: int, report_path: Path) -> list[str]:
    """`ppsmc oracle` exits 0 with a report that passes its TV threshold."""
    if rc != 0:
        return [f"exit code {rc}"]
    out = []
    report = _json(report_path, out)
    if not (report.get("pass") is True and report.get("tv", 1.0) < report.get("threshold", 0.0)):
        out.append(f"oracle report fails its threshold: tv {report.get('tv')}")
    return out


def order2_table_problems(table: dict, p00: float, p01: float, p10: float,
                          p11: float, cells: int, observed: int) -> list[str]:
    """The exact conditional law against a brute-force enumeration of all 2^n
    occupancy vectors of the order-2 chain, to 1e-12."""
    g = {(0, 0): p00, (0, 1): p01, (1, 0): p10, (1, 1): p11}
    brute = {}
    for k in range(1 << cells):
        bits = tuple((k >> (cells - 1 - i)) & 1 for i in range(cells))
        if not bits[observed]:
            continue
        p = 1.0
        for i, v in enumerate(bits):
            q = g[(bits[i - 2] if i >= 2 else 0, bits[i - 1] if i >= 1 else 0)]
            p *= q if v else 1.0 - q
        brute[bits] = p
    total = sum(brute.values())
    keys = set(brute) | set(table)
    worst = max(abs(brute.get(k, 0.0) / total - table.get(k, 0.0)) for k in keys)
    return [] if worst <= 1e-12 else [f"exact conditional differs by {worst:.3e}"]
