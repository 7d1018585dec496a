"""Golden determinism: fixed seeds must keep producing the same bytes.

Each case runs the filter or the beam once and hashes the repr of its
samples, diagnostics and log-probabilities.  The digests were recorded when
the filter and the beam still ran separate barrier loops, so any change in
the order in which random streams are keyed or consumed fails here, even
where the statistical tests would still pass.
"""

from __future__ import annotations

import hashlib

import pytest
from test_acceptance import TINY, tiny_music_model

from ppsmc.beam import beam_search_sample
from ppsmc.models import PoissonProcessModel, UniformRenewalModel
from ppsmc.oracle import GridModel, GridSequenceModel, observed_constraints
from ppsmc.smc import ConstraintSet, conditional_sample

ORDER2 = {(0, 0): 0.55, (0, 1): 0.25, (1, 0): 0.7, (1, 1): 0.1}


def _order2_grid() -> GridSequenceModel:
    def g(bits):
        b1 = bits[-1] if len(bits) >= 1 else 0
        b2 = bits[-2] if len(bits) >= 2 else 0
        return ORDER2[(b2, b1)]

    return GridSequenceModel(GridModel(n=8, g=g))


def _poisson():
    z = tuple(round(0.01 * i, 2) for i in range(1, 100))
    return PoissonProcessModel(rate=30.0), ConstraintSet(z=z, b=(True,) * 99), {}


def _grid():
    return _order2_grid(), observed_constraints([1, 4, 6]), {"horizon": 8}


def _music():
    acts = TINY.actions
    cs = ConstraintSet(z=(2 * acts + 1, 4 * acts + 3), b=(True, False))
    return tiny_music_model(), cs, {"horizon": 6 * acts, "initial_history": (1,)}


def _dying():
    cs = ConstraintSet(z=(0.1, 0.5), b=(False, False))
    return UniformRenewalModel(0.01, 0.02), cs, {}


CASES = {  # name: (problem, sampler, size arguments, seed, digest)
    "poisson-filter": (_poisson, "filter", (60,), 5,
                       "5196a763de68cdd9"),
    "poisson-beam": (_poisson, "beam", (3, 4), 5,
                     "5c68f386983bfe45"),
    "grid-filter": (_grid, "filter", (300,), 17,
                    "ce14f498dd01502a"),
    "grid-beam": (_grid, "beam", (5, 6), 17,
                  "1a4257052c8d2665"),
    "music-filter": (_music, "filter", (64,), 313,
                     "e2b28a0259d49ac4"),
    "music-beam": (_music, "beam", (4, 5), 313,
                   "75d55f423f258762"),
    "dying-filter": (_dying, "filter", (20,), 2,
                     "160c5d6c0db3fef0"),
    "dying-beam": (_dying, "beam", (3, 3), 2,
                   "7c2651b037eb0049"),
}


def run_digest(name: str) -> str:
    problem, sampler, sizes, seed, _ = CASES[name]
    model, cs, kwargs = problem()
    run = conditional_sample if sampler == "filter" else beam_search_sample
    result = run(model, cs, *sizes, seed, **kwargs)
    text = repr((result.survived, result.failed_barrier, result.samples,
                 [d.to_dict() for d in result.diagnostics], result.log_probs))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixed_seed_output_is_unchanged(name):
    assert run_digest(name) == CASES[name][4]


if __name__ == "__main__":  # print the current digests
    for case in sorted(CASES):
        print(case, run_digest(case))
