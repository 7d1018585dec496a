"""Golden determinism: fixed seeds must keep producing the same bytes.

Each case runs the filter or the beam once and hashes the repr of its
samples, diagnostics and log-probabilities; the "steps" cases hash the step
log-probabilities of a fixed sequence instead.  Every filter and beam case
has a second digest in ``OUTPUTS`` that leaves the diagnostics out, so a
change that only adds or reshapes diagnostics re-records the first digest
while the second still pins the samples.  The first eight digests were
recorded when the filter and the beam still ran separate barrier loops, the
long-prefix music digests when every gap law still re-decoded its whole
history, so any change in the order in which random streams are keyed or
consumed, or in the model state a gap law is built from, fails here, even
where the statistical tests would still pass.

The two Poisson cases were re-recorded, in both tables, when exponential and
Weibull gaps became the inverse cdf of one ``random()`` draw instead of
numpy's ziggurat ``exponential``/``weibull``, and the exponential hazard
became the closed-form rate.  That was a declared stream change; the new
digests are also what the per-lane walk gives with only those two changes.
Uniform gaps kept their bits, so the dying cases did not move.

Every model is now walked by one grouped walk: the lanes of a barrier step
together, grouped by state, each drawing its uniforms in order from its
Philox blocks, which are the draws of its own stream.  No digest moved when
that walk replaced the per-lane one; ``test_array_walk.py`` compares it with
that per-lane walk (``lane_walk.py``) run by run.

The five beam cases were re-recorded in ``CASES`` (poisson-beam, grid-beam,
music-beam, music-order1-beam, music-order3-beam), and poisson-beam also in
``OUTPUTS``, when the beam came to rank each candidate by its path's left
fold, the log probability it reports, instead of the parent's score plus
the sum of the child's steps, which can differ in the last bits.  That was
a declared output change; the new digests are what the old code gives with
only the ranking sum patched so.  No filter digest moved.
"""

from __future__ import annotations

import hashlib

import pytest
from exact import order2_grid
from test_acceptance import TINY, tiny_music_model

from ppsmc.beam import beam_search_sample
from ppsmc.models import (PoissonProcessModel, UniformRenewalModel,
                          step_log_probabilities)
from ppsmc.music.encoding import events_to_codes, symbols_to_events
from ppsmc.oracle import GridSequenceModel, observed_constraints
from ppsmc.smc import ConstraintSet, conditional_sample


def _poisson():
    z = tuple(round(0.01 * i, 2) for i in range(1, 100))
    return PoissonProcessModel(rate=30.0), ConstraintSet(z=z, b=(True,) * 99), {}


def _grid():
    return GridSequenceModel(order2_grid(8)), observed_constraints([1, 4, 6]), {"horizon": 8}


def _music():
    acts = TINY.actions
    cs = ConstraintSet(z=(2 * acts + 1, 4 * acts + 3), b=(True, False))
    return tiny_music_model(), cs, {"horizon": 6 * acts, "initial_history": (1,)}


def long_prefix(ticks: int = 60) -> list:
    """Canonical codes of two actions a tick for ``ticks`` ticks, shifts of 1 and 2
    (120 codes over 90 ticks by default)."""
    symbols = []
    for k in range(ticks):
        symbols += [1 + k % 3, 4, TINY.shift_symbol(1 + k % 2)]
    return events_to_codes(symbols_to_events(symbols[:-1], TINY), TINY)


def _long_music(order: int):
    def problem():
        prefix = long_prefix()
        acts = TINY.actions
        end = (prefix[-1] - 1) // acts  # tick of the last prefix event
        cs = ConstraintSet(z=((end + 2) * acts + 1, (end + 4) * acts + 3, (end + 5) * acts + 2),
                           b=(True, False, True))
        return (tiny_music_model(order), cs,
                {"horizon": (end + 7) * acts, "initial_history": tuple(prefix)})

    return problem


def _music_steps():
    codes = long_prefix()
    return tiny_music_model(3), codes[40:], {"initial_history": codes[:40]}


def _dying():
    cs = ConstraintSet(z=(0.1, 0.5), b=(False, False))
    return UniformRenewalModel(0.01, 0.02), cs, {}


CASES = {  # name: (problem, sampler, size arguments, seed, digest)
    "poisson-filter": (_poisson, "filter", (60,), 5,
                       "0cdcbb9f0fb431f5"),
    "poisson-beam": (_poisson, "beam", (3, 4), 5,
                     "ae2e6c4df4b15503"),
    "grid-filter": (_grid, "filter", (300,), 17,
                    "ce14f498dd01502a"),
    "grid-beam": (_grid, "beam", (5, 6), 17,
                  "d5b04d3b967a7932"),
    "music-filter": (_music, "filter", (64,), 313,
                     "e2b28a0259d49ac4"),
    "music-beam": (_music, "beam", (4, 5), 313,
                   "59cabe00308b17ff"),
    "dying-filter": (_dying, "filter", (20,), 2,
                     "160c5d6c0db3fef0"),
    "dying-beam": (_dying, "beam", (3, 3), 2,
                   "7c2651b037eb0049"),
    "music-order1-filter": (_long_music(1), "filter", (50,), 71,
                            "69834ec9c3566820"),
    "music-order1-beam": (_long_music(1), "beam", (4, 5), 71,
                          "d03ea762853cc1b2"),
    "music-order3-filter": (_long_music(3), "filter", (50,), 73,
                            "ee4d6123a46e17c1"),
    "music-order3-beam": (_long_music(3), "beam", (4, 5), 73,
                          "719e0c97c865a6cb"),
    "music-steps": (_music_steps, "steps", (), None,
                    "23670cb63ebf83d7"),
}


OUTPUTS = {  # name: digest of (survived, failed_barrier, samples, log_probs)
    "poisson-filter": "1241cf369bbd15cd",
    "poisson-beam": "bf28fb45d8daa0ff",
    "grid-filter": "b43a05d4aa37940d",
    "grid-beam": "1d03aed25f1cfa1a",
    "music-filter": "4742ae702d023fb8",
    "music-beam": "f69a83492fc1b958",
    "dying-filter": "8165c5d074b96cdc",
    "dying-beam": "8165c5d074b96cdc",
    "music-order1-filter": "6788cb7eae076553",
    "music-order1-beam": "4219937e7ee62e57",
    "music-order3-filter": "04bdede6263a7fb9",
    "music-order3-beam": "a9b4fcfbcdcee7b1",
}


def run_digest(name: str, diagnostics: bool = True) -> str:
    problem, sampler, sizes, seed, _ = CASES[name]
    model, task, kwargs = problem()
    if sampler == "steps":
        text = repr(step_log_probabilities(model, task, **kwargs))
    else:
        run = conditional_sample if sampler == "filter" else beam_search_sample
        result = run(model, task, *sizes, seed, **kwargs)
        if diagnostics:
            text = repr((result.survived, result.failed_barrier, result.samples,
                         [d.to_dict() for d in result.diagnostics], result.log_probs))
        else:
            text = repr((result.survived, result.failed_barrier, result.samples,
                         result.log_probs))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixed_seed_output_is_unchanged(name):
    assert run_digest(name) == CASES[name][4]


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_fixed_seed_samples_are_unchanged(name):
    assert run_digest(name, diagnostics=False) == OUTPUTS[name]


if __name__ == "__main__":  # print the current digests
    for case in sorted(CASES):
        print(case, run_digest(case))
    for case in sorted(OUTPUTS):
        print(case, "samples only", run_digest(case, diagnostics=False))
