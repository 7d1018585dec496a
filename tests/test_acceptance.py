"""Acceptance checks, one per numbered criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Every check is seeded and self-contained; the slowest
(criterion 1) pools 400k filtered samples against exact enumeration.
"""

from __future__ import annotations

import json
import time

import numpy as np
from exact import grid_bits, grid_problem, pooled_tv
from scipy import stats

from ppsmc.beam import beam_search_sample
from ppsmc.cli import main as cli_main
from ppsmc.models import (PoissonProcessModel, UniformRenewalModel,
                          WeibullRenewalModel, barrier_weight, log_probability,
                          sample_restricted)
from ppsmc.music.adapter import UnrolledMusicModel
from ppsmc.music.encoding import (MusicEvent, Vocabulary, codes_to_columns, codes_to_symbols,
                                  columns_to_codes)
from ppsmc.music.ngram import train_ngram
from ppsmc.rng import KIND_PROPOSAL, run_seed, stream
from ppsmc.smc import ConstraintSet, conditional_sample, satisfies, systematic_indices

TINY = Vocabulary(a_max=4, s_max=3)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def tiny_music_model(order: int = 2) -> UnrolledMusicModel:
    s1, s2 = TINY.shift_symbol(1), TINY.shift_symbol(2)
    streams = [
        [1, 3, s1, 1, 3, s1, 2, 4, s1, 1, 3],
        [1, 3, s1, 2, 4, s1, 1, 3, s1, 1, 3],
        [2, 4, s1, 1, 3, s1, 1, 3, s1, 2, 4],
        [1, 3, s1, 1, 3, s2, 1, 3, s1, 1, 4],
        [1, 2, s1, 1, 3, s1, 1, 3, s1, 3, 4],
    ]
    return UnrolledMusicModel(train_ngram(streams, TINY, order=order, alpha=0.3))


def test_criterion_1_filter_matches_exact_enumeration():
    """Pooled filter samples against brute-force conditionals, TV < 0.05."""
    exact, model, constraints = grid_problem(8, [4])
    t0 = time.perf_counter()
    runs = (conditional_sample(model, constraints, 2000, run_seed(1234, r), horizon=8)
            for r in range(200))
    tv = pooled_tv(exact, grid_bits(runs, 8))
    elapsed = time.perf_counter() - t0
    ok = tv < 0.05 and elapsed < 60.0
    _report("criterion 1 (exact-conditional agreement)", ok,
            f"TV {tv:.4f} < 0.05 over 400000 samples in {elapsed:.1f}s")


def test_criterion_2_poisson_interval_counts_and_weights():
    """Conditioning a Poisson process on one point leaves both sides Poisson."""
    model = PoissonProcessModel(rate=3.0)
    constraints = ConstraintSet(z=(0.5,), b=(True,))

    t0 = time.perf_counter()
    result = conditional_sample(model, constraints, 10000, seed=90210)
    elapsed = time.perf_counter() - t0
    assert result.survived

    diag = result.diagnostics[0]
    weights_ok = (abs(diag.min_weight - 3.0) <= 3.0 * 1e-9
                  and abs(diag.max_weight - 3.0) <= 3.0 * 1e-9)

    pvalues = []
    for lo, hi in ((0.0, 0.5), (0.5, 1.0)):
        observed = np.bincount(
            [len([t for t in s if lo < t < hi or (lo == 0.0 and t < hi)])
             for s in result.samples], minlength=7)
        observed = np.append(observed[:6], observed[6:].sum())
        pmf = stats.poisson(1.5).pmf(np.arange(6))
        expected = np.append(pmf, 1.0 - pmf.sum()) * 10000
        pvalues.append(stats.chisquare(observed, expected).pvalue)

    ok = all(p > 0.01 for p in pvalues) and weights_ok and elapsed < 60.0
    _report("criterion 2 (one-point Poisson conditioning)", ok,
            f"chi-square p {pvalues[0]:.3f}/{pvalues[1]:.3f} > 0.01, interior "
            f"weights in [{diag.min_weight:.12f}, {diag.max_weight:.12f}], "
            f"{elapsed:.1f}s")


def test_criterion_3_weibull_barrier_weight_is_the_hazard():
    """Clip weight for shape-2, scale-1 gaps equals 2d to 1e-9 relative."""
    model = WeibullRenewalModel(shape=2.0, scale=1.0)
    rng = np.random.default_rng(31337)
    worst = 0.0
    for d in rng.uniform(0.0, 1.0, size=100):
        d = float(d) or 1e-9
        w = barrier_weight(model.initial_state(()), gap=d, b_prev=True)
        worst = max(worst, abs(w - 2.0 * d) / (2.0 * d))
    ok = worst < 1e-9
    _report("criterion 3 (weight equals hazard)", ok,
            f"max relative error {worst:.2e} < 1e-9 over 100 random gaps")


def test_criterion_4_systematic_resampling_guarantees():
    """Identity on uniform weights for every offset; strict offspring bound."""
    identity_ok = True
    for n in (1, 2, 7, 64):
        expected = tuple(range(n))
        for u in (1e-15, 0.1, 0.5, 0.9999999, 1.0):
            if systematic_indices((1.0,) * n, u=u) != expected:
                identity_ok = False

    rng = np.random.default_rng(271828)
    bound_ok = True
    worst = 0.0
    for _ in range(10000):
        n = int(rng.integers(2, 40))
        w = rng.uniform(0.0, 1.0, size=n) ** 2
        if w.sum() == 0.0:
            continue
        counts = np.bincount(systematic_indices(tuple(w), u=float(1.0 - rng.random())),
                             minlength=n)
        gap = float(np.abs(counts - n * w / w.sum()).max())
        worst = max(worst, gap)
        if gap >= 1.0:
            bound_ok = False

    ok = identity_ok and bound_ok
    _report("criterion 4 (systematic resampling)", ok,
            f"uniform-weight identity holds; max |count - S*w| {worst:.6f} < 1 "
            "over 10000 weight vectors")


def test_criterion_5_encoding_and_canonicality():
    """Codes round-trip, sampled music is canonical, cdf matches summation."""
    vocab = Vocabulary()
    rng = np.random.default_rng(55)
    # the drawn events in code order, as a piece holds them
    events = sorted({(int(rng.integers(0, 50000)), int(rng.integers(1, 257)), 0)
                     for _ in range(100000)})
    back = codes_to_columns(columns_to_codes(events, vocab), vocab).tolist()
    round_trip_failures = len(events) - sum(tuple(row) == ev for row, ev in zip(back, events))

    model = tiny_music_model()
    violations = 0
    for i in range(10000):
        codes = sample_restricted(model, stream(424242, KIND_PROPOSAL, 0, i),
                                  horizon=4 * TINY.actions)
        try:
            symbols = codes_to_symbols([int(c) for c in codes], TINY)
        except ValueError:
            violations += 1
            continue
        for prev, cur in zip(symbols, symbols[1:]):
            if TINY.is_shift(prev) and TINY.is_shift(cur):
                violations += 1
            if TINY.is_action(prev) and TINY.is_action(cur) and cur <= prev:
                violations += 1

    # Exhaustive pdf summation on the reduced vocabulary vs the closed cdf.
    step = model.step_model
    histories = [[], [2], [1, 3], columns_to_codes([MusicEvent(1, 2)], TINY).tolist()]
    max_cdf_err = 0.0
    for history in histories:
        gap = model.initial_state(tuple(history))
        top = (TINY.s_max + 1) * TINY.actions
        running = 0.0
        for d in range(1, top + 1):
            running += gap.pdf(float(d))
            max_cdf_err = max(max_cdf_err, abs(gap.cdf(float(d)) - running))

    ok = round_trip_failures == 0 and violations == 0 and max_cdf_err < 1e-12
    _report("criterion 5 (encoding and canonical order)", ok,
            f"{round_trip_failures} round-trip failures in 100000, "
            f"{violations} mask violations in 10000 sequences, "
            f"cdf error {max_cdf_err:.2e} < 1e-12")


def test_criterion_6_constraint_indicator_on_survivors():
    """Every surviving sample satisfies its constraints; false final flag
    terminates exactly at the last required time."""
    model = PoissonProcessModel(rate=6.0)
    mixed = ConstraintSet(z=(0.25, 0.5, 0.75), b=(True, False, True))
    result = conditional_sample(model, mixed, 1000, seed=606)
    assert result.survived
    holds = sum(satisfies(s, mixed) for s in result.samples)

    closing = ConstraintSet(z=(0.4, 0.8), b=(True, False))
    result2 = conditional_sample(model, closing, 1000, seed=607)
    assert result2.survived
    ends = sum(s[-1] == 0.8 for s in result2.samples)

    ok = holds == 1000 and ends == 1000
    _report("criterion 6 (constraint indicator)", ok,
            f"{holds}/1000 mixed-flag samples satisfy constraints, "
            f"{ends}/1000 closing-flag samples end exactly at the last time")


def test_criterion_7_beam_overshoots_where_the_filter_stays_typical():
    """Beam search finds higher-probability sequences, while filter samples
    stay closer to the unconditional log-probability mass."""
    model = tiny_music_model()
    acts = TINY.actions
    constraints = ConstraintSet(z=(4 * acts + 1, 5 * acts + 1), b=(True, True))
    horizon = 6 * acts

    smc_lp, beam_lp, unc_lp = [], [], []
    for r in range(100):
        seed = run_seed(777, r)
        filt = conditional_sample(model, constraints, 100, seed, horizon=horizon)
        assert filt.survived
        smc_lp.append(log_probability(model, filt.samples[0]))
        beam = beam_search_sample(model, constraints, b=10, f=10, seed=seed,
                                  horizon=horizon)
        assert beam.survived
        beam_lp.append(log_probability(model, beam.samples[0]))
        free = sample_restricted(model, stream(seed, KIND_PROPOSAL, 7777),
                                 horizon=horizon)
        unc_lp.append(log_probability(model, free))

    mean_smc, mean_beam, mean_unc = map(np.mean, (smc_lp, beam_lp, unc_lp))
    wins = sum(b > s for b, s in zip(beam_lp, smc_lp))
    pvalue = stats.binomtest(wins, 100, 0.5, alternative="greater").pvalue
    closer = abs(mean_smc - mean_unc) < abs(mean_beam - mean_unc)

    ok = mean_beam > mean_smc and closer and pvalue < 0.05
    _report("criterion 7 (log-probability trend)", ok,
            f"mean log-prob beam {mean_beam:.2f} > filter {mean_smc:.2f}; "
            f"filter-to-unconditional gap {abs(mean_smc - mean_unc):.2f} < "
            f"beam gap {abs(mean_beam - mean_unc):.2f}; sign test p {pvalue:.1e}")


def test_criterion_8_more_particles_survive_tight_constraints():
    """Survival over 200 seeded runs must not decrease from S=10 to S=100."""
    model = UniformRenewalModel(0.08, 0.10)
    spacing = 0.0959
    constraints = ConstraintSet(z=tuple(round(spacing * i, 6) for i in range(1, 9)),
                                b=(True,) * 8)
    rates = {}
    for size in (10, 100):
        survived = sum(
            conditional_sample(model, constraints, size, run_seed(4242, r)).survived
            for r in range(200))
        rates[size] = survived / 200

    ok = rates[100] >= rates[10]
    _report("criterion 8 (survival grows with ensemble size)", ok,
            f"survival rate {rates[10]:.2f} at S=10 -> {rates[100]:.2f} at S=100 "
            "over 200 runs each")


def test_criterion_9_parallelism_never_changes_output(tmp_path):
    """jobs=1 and jobs=8 with one seed produce byte-identical event files."""
    model = tiny_music_model()
    model_path = tmp_path / "model.json"
    model.step_model.save(model_path)

    acts = TINY.actions
    cs_path = tmp_path / "cs.json"
    cs_path.write_text(json.dumps({
        "version": 1, "kind": "constraints",
        "z": [2 * acts + 1, 4 * acts + 3], "b": [True, True],
        "prefix": [1], "horizon_ticks": 5}))

    outputs = {}
    for jobs in (1, 8):
        out = tmp_path / f"jobs{jobs}"
        code = cli_main(["sample", "--model", str(model_path), "--constraints",
                         str(cs_path), "--seed", "313", "--particles", "64",
                         "--keep", "0", "--jobs", str(jobs), "--out", str(out)])
        assert code == 0
        outputs[jobs] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    same_names = set(outputs[1]) == set(outputs[8])
    diffs = [n for n in outputs[1] if outputs[1][n] != outputs[8].get(n)]
    ok = same_names and not diffs
    _report("criterion 9 (thread-count determinism)", ok,
            f"{len(outputs[1])} output files byte-identical across jobs=1 and "
            f"jobs=8" if ok else f"files differ: {diffs}")
