"""Exact grid enumeration, the grid gap adapter, and distributional distances."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from exact import grid_bits, grid_problem, order2_grid, pooled_tv
from scipy import stats

from ppsmc.beam import beam_search_sample
from ppsmc.models import barrier_weight, sample_restricted
from ppsmc.oracle import (GridModel, GridSequenceModel, bits_from_times,
                          chain_probability, enumerate_conditional,
                          normalize_counts, observed_constraints, total_variation)
from ppsmc.rng import run_seed
from ppsmc.smc import conditional_sample


def sample_bits(model: GridModel, rng) -> tuple:
    """Direct forward simulation of the occupancy vector."""
    bits = []
    for _ in range(model.n):
        bits.append(1 if rng.random() < model.g(tuple(bits)) else 0)
    return tuple(bits)


class TestChainProbability:
    def test_bernoulli_product_for_memoryless_grid(self):
        model = GridModel(n=3, g=lambda bits: 0.25)
        assert chain_probability(model, (1, 0, 1)) == pytest.approx(0.25 * 0.75 * 0.25)

    def test_probabilities_sum_to_one(self):
        model = order2_grid(6)
        total = sum(chain_probability(model, bits)
                    for bits in np.ndindex(*(2,) * 6))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestEnumerateConditional:
    def test_conditional_is_normalized(self):
        dist = enumerate_conditional(order2_grid(7), observed=[3])
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(bits[3] == 1 for bits in dist)

    def test_independent_cells_give_forced_product_law(self):
        # With memoryless occupancy, conditioning just pins the observed cell.
        p = 0.3
        dist = enumerate_conditional(GridModel(n=4, g=lambda bits: p), observed=[2])
        for bits, prob in dist.items():
            assert bits[2] == 1
            free = [b for j, b in enumerate(bits) if j != 2]
            expected = math.prod(p if b else 1 - p for b in free)
            assert prob == pytest.approx(expected, rel=1e-12)

    def test_no_conditioning_recovers_chain_law(self):
        model = order2_grid(5)
        dist = enumerate_conditional(model, observed=[])
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        for bits, prob in dist.items():
            assert prob == pytest.approx(chain_probability(model, bits), rel=1e-12)

    def test_matches_rejection_sampling(self):
        """Independent check: filter raw chain draws on the conditioning event."""
        exact, model, _ = grid_problem(6, [2, 4])
        rng = np.random.default_rng(2024)
        draws = (sample_bits(model.model, rng) for _ in range(200000))
        assert pooled_tv(exact, (bits for bits in draws if bits[2] == 1 and bits[4] == 1)) < 0.02

    def test_impossible_event_raises(self):
        model = GridModel(n=4, g=lambda bits: 0.0)
        with pytest.raises(ValueError):
            enumerate_conditional(model, observed=[1])

    def test_refuses_oversized_grids(self):
        model = GridModel(n=30, g=lambda bits: 0.5)
        with pytest.raises(ValueError):
            enumerate_conditional(model, observed=[0])


class TestGridGapAdapter:
    def test_pdf_only_on_integer_gaps(self):
        seq_model = GridSequenceModel(GridModel(n=5, g=lambda bits: 0.3))
        gap = seq_model.initial_state(())
        assert gap.pdf(1.0) == pytest.approx(0.3)
        assert gap.pdf(2.0) == pytest.approx(0.7 * 0.3)
        assert gap.pdf(1.5) == 0.0

    def test_survival_counts_the_atom(self):
        # survival(d) = P(gap >= d): at d=2 that is P(first cell vacant).
        seq_model = GridSequenceModel(GridModel(n=5, g=lambda bits: 0.3))
        gap = seq_model.initial_state(())
        assert gap.survival(1.0) == 1.0
        assert gap.survival(2.0) == pytest.approx(0.7)
        assert gap.survival(2.5) == pytest.approx(0.49)  # integer gaps: >= 2.5 means >= 3

    def test_barrier_weight_equals_occupancy_probability(self):
        """Clipping to an occupied cell must weight by that cell's g value."""
        model = order2_grid(8)
        seq_model = GridSequenceModel(model)
        # History occupies cells 0 and 2 (times 1 and 3); barrier at cell 5.
        state = seq_model.initial_state((1.0, 3.0))
        w = barrier_weight(state, gap=3.0, b_prev=True)
        assert w == pytest.approx(model.g((1, 0, 1, 0, 0)), rel=1e-12)

    def test_sampled_times_match_pdf(self):
        seq_model = GridSequenceModel(GridModel(n=4, g=lambda bits: 0.5))
        gap = seq_model.initial_state(())
        rng = np.random.default_rng(9)
        draws = Counter(gap.sample(rng) for _ in range(40000))
        for d in (1.0, 2.0, 3.0, 4.0):
            assert draws[d] / 40000 == pytest.approx(gap.pdf(d), abs=0.01)

    def test_exact_horizon_time_is_kept(self):
        """A point landing exactly on the integer horizon stays in the sample."""
        model = GridModel(n=3, g=lambda bits: 1.0)  # every cell occupied
        result = conditional_sample(GridSequenceModel(model),
                                    observed_constraints([0]), 8, seed=5, horizon=3)
        assert result.survived
        assert all(s == (1.0, 2.0, 3.0) for s in result.samples)

    @pytest.mark.parametrize("sampler", ["filter", "beam"])
    def test_a_horizon_past_the_grid_is_named(self, sampler):
        """A path that reaches time n + 1 with the horizon beyond it has no
        cell left to draw a gap over; the error says what bounds the horizon."""
        model = GridSequenceModel(GridModel(n=8, g=lambda bits: 0.3))
        cs = observed_constraints([2])
        run = {"filter": lambda h: conditional_sample(model, cs, 60, 12, horizon=h),
               "beam": lambda h: beam_search_sample(model, cs, 4, 4, 12, horizon=h)}[sampler]
        assert run(9).survived  # n + 1 itself is allowed
        with pytest.raises(ValueError, match=r"horizon must not exceed n \+ 1 = 9"):
            run(10)

    def test_fair_cells_make_all_sequences_equiprobable(self):
        # g = 1/2 on four cells: each of the 16 occupancy vectors has mass 1/16,
        # via the exact chain law and via unconstrained adapter sampling.
        model = GridModel(n=4, g=lambda bits: 0.5)
        for bits in np.ndindex(2, 2, 2, 2):
            assert chain_probability(model, bits) == pytest.approx(1 / 16)
        seq_model = GridSequenceModel(model)
        rng = np.random.default_rng(41)
        draws = 16000
        counts = Counter(bits_from_times(sample_restricted(seq_model, rng, horizon=4), 4)
                         for _ in range(draws))
        observed = [counts[bits] for bits in np.ndindex(2, 2, 2, 2)]
        assert stats.chisquare(observed).pvalue > 0.01


class TestFilterConvergence:
    def test_tv_shrinks_as_particles_grow(self):
        """Mean distance to the exact conditional is monotone in ensemble size."""
        exact, model, constraints = grid_problem(6, [3])
        means = []
        for si, size in enumerate((50, 200, 2000)):
            tvs = []
            for rep in range(50):
                seed = run_seed(911, 1000 * si + rep)
                run = conditional_sample(model, constraints, size, seed, horizon=6)
                tvs.append(pooled_tv(exact, grid_bits([run], 6)))
            means.append(np.mean(tvs))
        assert means[0] > means[1] > means[2]

    @pytest.mark.parametrize("observed", [[4], [1, 4, 6]])
    def test_the_filter_nears_the_exact_conditional_and_the_beam_does_not(self, observed):
        """The paper's central claim, measured against exact answers on
        criterion 1's order-2 grid.  Pooled over 100 runs per setting, the
        beam's distance to the exact conditional does not fall as b = f
        grows, the filter's falls from S = 10 to S = 100, and every filter
        distance lies below every beam distance.  The base seed was fixed
        before the first run."""
        exact, model, constraints = grid_problem(8, observed)

        def tv(sample):
            return pooled_tv(exact, grid_bits((sample(run_seed(2019, r)) for r in range(100)), 8))

        beam = [tv(lambda seed: beam_search_sample(model, constraints, w, w, seed, horizon=8))
                for w in (3, 10, 30)]
        filt = [tv(lambda seed: conditional_sample(model, constraints, size, seed, horizon=8))
                for size in (10, 100)]
        # at b = f = 10 and 30 every beam sample lies on cells where the exact
        # law has less mass, so both distances are one minus that mass, but each
        # sums its own rounded terms and they may differ in the last bit
        assert beam[0] <= beam[1] + 1e-12 and beam[1] <= beam[2] + 1e-12, beam
        assert filt[1] < filt[0], filt
        assert max(filt) < min(beam), (filt, beam)


class TestBitsFromTimes:
    def test_round_trip_with_constraints(self):
        assert bits_from_times((2.0, 5.0), 6) == (0, 1, 0, 0, 1, 0)
        cs = observed_constraints([1, 4])
        assert cs.z == (2.0, 5.0)
        assert cs.b == (True, True)

    def test_rejects_fractional_times(self):
        with pytest.raises(ValueError):
            bits_from_times((1.5,), 4)


class TestTotalVariation:
    def test_frozen_value(self):
        # Exact (3/4, 1/4) against an empirical 50/50 split: |.75-.5|/2 + |.25-.5|/2.
        exact = {"a": 0.75, "b": 0.25}
        empirical = normalize_counts({"a": 1, "b": 1})
        assert total_variation(exact, empirical) == pytest.approx(0.25)

    def test_disjoint_supports(self):
        assert total_variation({"a": 1.0}, {"b": 1.0}) == pytest.approx(1.0)

    def test_identical_distributions(self):
        p = {"a": 0.5, "b": 0.5}
        assert total_variation(p, p) == 0.0

    def test_refuses_empty_counts(self):
        with pytest.raises(ValueError, match="^empty count table$"):
            normalize_counts({})
