"""Many runs walked together give each run's result alone, byte for byte.

``conditional_runs`` and ``beam_search_runs`` walk the paths of many seeds'
runs as one walk; ``conditional_sample`` and ``beam_search_sample`` are
their one-seed case.  Every run of a batch must give the ``EnsembleResult``
its seed gives alone, compared through its repr; a batch that raises must
raise what running the seeds in turn raises, and the CLI must leave the
files the run-by-run loop leaves.  The seed is a ``rng.block`` coordinate
like the others.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from exact import order2_grid
from test_array_walk import FAMILIES, _same, _text

from ppsmc import cli, models, rng, smc
from ppsmc.beam import beam_search_runs, beam_search_sample
from ppsmc.models import SequenceModel, UniformGap, UniformRenewalModel
from ppsmc.oracle import observed_constraints
from ppsmc.rng import block, run_seed, stream
from ppsmc.smc import ConstraintSet, conditional_runs, conditional_sample

SEEDS = [run_seed(4, r) for r in range(3)]


def _runs(sampler, model, cs, size, seeds, kwargs):
    """Each seed's result from one many-seed call, and from one call per seed."""
    if sampler == "filter":
        return (list(conditional_runs(model, cs, size, seeds, **kwargs)),
                [conditional_sample(model, cs, size, seed, **kwargs) for seed in seeds])
    return (list(beam_search_runs(model, cs, 2, size, seeds, **kwargs)),
            [beam_search_sample(model, cs, 2, size, seed, **kwargs) for seed in seeds])


def _check(sampler, model, cs, size, seeds, kwargs) -> list:
    many, one = _runs(sampler, model, cs, size, seeds, kwargs)
    assert len(many) == len(seeds)
    for k, (a, b) in enumerate(zip(many, one)):
        same, where = _same(_text(a), _text(b))
        assert same, f"run {k}: {where}"
    return many


@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("sampler", ["filter", "beam"])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_each_run_of_a_batch_is_the_run_alone(name, sampler, runs):
    model, cs, kwargs = FAMILIES[name]()
    for size in (1, 20):
        _check(sampler, model, cs, size, SEEDS[:runs], kwargs)


@pytest.mark.parametrize("sampler", ["filter", "beam"])
def test_runs_that_die_drop_out_and_the_others_go_on(sampler):
    """A clipped gap below 0.01 has no density, so a lane dies at a free
    barrier about half the time: with two lanes a run dies at one of the
    three barriers or survives, and the batch holds both kinds."""
    cs = ConstraintSet(z=(0.1, 0.2, 0.3), b=(True, True, True))
    seeds = [run_seed(8, r) for r in range(8)]
    many = _check(sampler, UniformRenewalModel(0.01, 0.02), cs, 2, seeds, {"horizon": 0.4})
    fates = [result.failed_barrier for result in many]
    assert None in fates and len(set(fates) - {None}) >= 2, fates


class Brittle(SequenceModel):
    """Uniform gaps on (0.01, 0.02), but an event less than 0.0003 past a
    multiple of 0.01 has no law after it: ``advance`` raises, naming the time."""

    def initial_state(self, history):
        return UniformGap(0.01, 0.02)

    def advance(self, state, t):
        if t * 1000 % 10 < 0.3:
            raise ValueError(f"no law after {t!r}")
        return state


def _raised(f) -> str:
    with pytest.raises(ValueError) as info:
        f()
    return str(info.value)


def _time(message: str) -> float:
    return float(re.fullmatch(r"no law after (.*)", message).group(1))


@pytest.mark.parametrize("sampler", ["filter", "beam"])
def test_a_batch_raises_the_error_of_its_first_failing_run(sampler):
    """The second run fails before the first barrier and the first only past
    the second, so the batch meets the second run's error first; it must
    raise the first run's, as running the seeds in turn does."""
    cs, kwargs = ConstraintSet(z=(0.105, 0.205, 0.305), b=(True,) * 3), {"horizon": 0.4}
    seeds = [run_seed(2, 0), run_seed(2, 3)]
    if sampler == "filter":
        def alone(seed):
            return conditional_sample(Brittle(), cs, 2, seed, **kwargs)

        def batch():
            return list(conditional_runs(Brittle(), cs, 2, seeds, **kwargs))
    else:
        def alone(seed):
            return beam_search_sample(Brittle(), cs, 1, 2, seed, **kwargs)

        def batch():
            return list(beam_search_runs(Brittle(), cs, 1, 2, seeds, **kwargs))
    first, second = (_raised(lambda: alone(seed)) for seed in seeds)
    assert _time(second) < cs.z[0] and _time(first) > cs.z[1]  # the case this test is about
    assert _raised(batch) == first


def test_a_failing_run_leaves_the_files_of_the_run_by_run_loop(tmp_path, monkeypatch, capsys):
    """Past 48 draws a segment raises, which one of the 5 lanes of the
    second of these runs needs to reach 0.35 at rate 100: ``sample --runs
    3`` exits 1 after writing the first run only, though the third was
    walked with it, as the loop that ran one seed at a time did."""
    monkeypatch.setattr(models, "MAX_EVENTS", 48)
    cs = tmp_path / "cs.json"
    cs.write_text('{"version": 1, "z": [0.35], "b": [true]}')

    def run(out):
        code = cli.main(["sample", "--model", "poisson:rate=100", "--constraints", str(cs),
                         "--seed", "4", "--particles", "5", "--runs", "3", "--horizon", "0.4",
                         "--out", str(out)])
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file()}
        return code, capsys.readouterr(), files

    batched = run(tmp_path / "batched")
    monkeypatch.setattr(cli, "conditional_runs", lambda model, cs, size, seeds, **kwargs: (
        conditional_sample(model, cs, size, seed, **kwargs) for seed in seeds))
    assert run(tmp_path / "one-by-one") == batched
    code, output, files = batched
    assert code == 1 and output.err.endswith("within 48 draws\n")
    assert sorted(files) == ["run_000/diagnostics.jsonl", "run_000/result.json",
                             "run_000/sample_0000.json"]


def test_a_hundred_small_grid_runs_are_the_runs_alone():
    seeds = [run_seed(11, r) for r in range(100)]
    _check("filter", order2_grid(8), observed_constraints([1, 4, 6]), 10, seeds, {"horizon": 8})


@pytest.mark.parametrize("sampler", ["filter", "beam"])
def test_runs_past_the_row_cap_walk_in_groups(monkeypatch, sampler):
    """With room for two runs of 10 paths in a walk, five runs are walked in
    groups of two, two and one, each run giving its result alone."""
    walked = []

    class Walk(smc._Walk):
        def __init__(self, model, law, seeds, *args):
            walked.append(len(seeds))
            super().__init__(model, law, seeds, *args)

    monkeypatch.setattr(smc, "_BATCH_ROWS", 25)
    monkeypatch.setattr(smc, "_Walk", Walk)
    model, cs, kwargs = FAMILIES["music-order2"]()
    size = 10 if sampler == "filter" else 5  # the beam walks b * f paths
    _check(sampler, model, cs, size, [run_seed(5, r) for r in range(5)], kwargs)
    assert walked == [2, 2, 1] + [1] * 5  # the batches, then the runs alone


class TestSeedArrays:
    SEEDS = [0, 7, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 9, 2 ** 70 + 3, -1, -42, -2 ** 64 - 5]

    @pytest.mark.parametrize("seeds, lanes", [(SEEDS[4:8], 1), (SEEDS, 2), (SEEDS, 9)],
                             ids=["few-keys", "many-keys", "more-keys"])
    def test_a_seed_array_is_each_seed_alone(self, seeds, lanes):
        """A column of seeds against a row of lanes and counters 1 to 2 gives
        each seed's own words, which are its ``stream()``'s raw draws; a
        seed of 2**64 or more, or below 0, reduces as ``stream()`` reduces it."""
        words = block(np.array(seeds, dtype=object)[:, None, None], 1, 5,
                      np.arange(lanes)[:, None], np.arange(1, 3))
        assert words.shape == (len(seeds), lanes, 2, 4)
        assert (words[..., 0].size <= rng._FEW_KEYS) == (lanes == 1)
        for seed, got in zip(seeds, words):
            assert got.tolist() == block(seed, 1, 5, np.arange(lanes)[:, None],
                                         np.arange(1, 3)).tolist()
            for lane in (0, lanes - 1):
                raw = stream(seed, 1, 5, lane).bit_generator.random_raw(8)
                assert got[lane].ravel().tolist() == raw.tolist()

    def test_few_seeds_equal_many(self):
        """Up to ``_FEW_KEYS`` keys in Python ints, more in numpy arrays: a
        list, an object array and an integer array of seeds give one answer."""
        seeds = [run_seed(1, r) for r in range(rng._FEW_KEYS + 4)] + [-3, 2 ** 64 + 1]
        singles = [block(seed, 0, 2, 9).tolist() for seed in seeds]
        wrapped = np.array([s % 2 ** 64 for s in seeds], dtype=np.uint64)
        for n in (rng._FEW_KEYS, rng._FEW_KEYS + 1, len(seeds)):
            assert block(seeds[:n], 0, 2, 9).tolist() == singles[:n]
            assert block(wrapped[:n], 0, 2, 9).tolist() == singles[:n]
        signed = block(np.array([-3, 5]), 0, 2, 9).tolist()
        assert signed == [singles[-2], block(5, 0, 2, 9).tolist()]

    def test_a_seed_that_is_no_integer_is_refused_as_by_stream(self):
        with pytest.raises(TypeError):
            stream(1.5, 0, 0)
        with pytest.raises(TypeError):
            block([1, 1.5], 0, 0, 0)
