"""Constrained particle filtering: proposals, weights, resampling, ensembles."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

from ppsmc.beam import beam_search_sample
from ppsmc.models import (PoissonProcessModel, UniformRenewalModel,
                          WeibullRenewalModel, conditional_intensity,
                          sample_restricted)
from ppsmc.music.files import write_constraint_file
from ppsmc.rng import KIND_PROPOSAL, run_seed, stream
from ppsmc.smc import (ConstraintSet, barrier_weight, conditional_sample,
                       effective_sample_size, propose_segment, read_constraint_file,
                       satisfies, systematic_indices, systematic_resample)


class TestConstraintSet:
    def test_round_trip_through_dict(self):
        cs = ConstraintSet(z=(0.25, 0.5, 0.75), b=(True, False, True))
        assert ConstraintSet.from_dict(cs.to_dict()) == cs

    def test_file_round_trip(self, tmp_path):
        cs = ConstraintSet(z=(0.3, 0.9), b=(False, False))
        path = tmp_path / "cs.json"
        write_constraint_file(path, cs)
        assert read_constraint_file(path)[0] == cs

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "cs.json"
        path.write_text('{"version": 99, "kind": "constraints", "z": [0.5], "b": [true]}')
        with pytest.raises(ValueError, match="version"):
            read_constraint_file(path)

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            ConstraintSet(z=(0.5, 0.25), b=(True, True))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            ConstraintSet(z=(0.5,), b=(True, False))

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            ConstraintSet(z=(0.0, 0.5), b=(True, True))

    def test_flag_count_property(self):
        assert ConstraintSet(z=(0.1, 0.2), b=(True, False)).r == 2


class TestSatisfies:
    CS = ConstraintSet(z=(0.3, 0.6), b=(True, False))

    def test_required_times_must_appear(self):
        assert satisfies((0.3, 0.6), self.CS)
        assert not satisfies((0.3,), self.CS)
        assert not satisfies((0.2, 0.6), self.CS)

    def test_open_gap_allows_extra_events(self):
        assert satisfies((0.3, 0.45, 0.6), self.CS)

    def test_final_flag_false_forbids_later_events(self):
        assert not satisfies((0.3, 0.6, 0.8), self.CS)

    def test_closed_gap_forbids_extra_events(self):
        cs = ConstraintSet(z=(0.3, 0.6), b=(False, False))
        assert not satisfies((0.3, 0.45, 0.6), cs)
        assert satisfies((0.3, 0.6), cs)

    def test_events_before_first_constraint_are_free(self):
        assert satisfies((0.1, 0.2, 0.3, 0.6), self.CS)


class TestProposeSegment:
    def test_closed_gap_appends_barrier_directly(self):
        model = PoissonProcessModel(rate=2.0)
        rng = stream(0, KIND_PROPOSAL, 0)
        seg, gap, _, _ = propose_segment(model, model.initial_state([0.2]), 0.2, 0.7, False, rng)
        assert seg == [0.7]
        assert gap == pytest.approx(0.5)

    def test_open_gap_ends_exactly_at_barrier(self):
        model = PoissonProcessModel(rate=50.0)
        rng = stream(1, KIND_PROPOSAL, 0)
        seg, gap, _, _ = propose_segment(model, model.initial_state([]), 0.0, 0.5, True, rng)
        assert seg[-1] == 0.5
        assert all(t < 0.5 for t in seg[:-1])
        assert gap == pytest.approx(0.5 - ([0.0] + seg)[-2])

    def test_final_segment_stops_after_crossing_horizon(self):
        model = PoissonProcessModel(rate=10.0)
        rng = stream(2, KIND_PROPOSAL, 0)
        seg, gap, _, _ = propose_segment(model, model.initial_state([0.5]), 0.5, math.inf,
                                         True, rng, horizon=1.0)
        # At most the last point overshoots; the caller trims it.
        assert all(t <= 1.0 for t in seg[:-1])
        assert seg[-1] >= 1.0


class TestBarrierWeight:
    def test_open_gap_weight_is_hazard(self):
        """Clipping an exponential gap weights by its constant rate."""
        model = PoissonProcessModel(rate=3.0)
        w = barrier_weight(model.initial_state((0.2,)), gap=0.3, b_prev=True)
        assert w == pytest.approx(3.0, rel=1e-12)

    def test_weibull_hazard_form(self):
        # shape 2, scale 1: pdf/survival at gap d is 2d.
        model = WeibullRenewalModel(shape=2.0, scale=1.0)
        rng = np.random.default_rng(17)
        for d in rng.uniform(0.01, 0.99, size=25):
            w = barrier_weight(model.initial_state(()), gap=d, b_prev=True)
            assert w == pytest.approx(2.0 * d, rel=1e-9)

    def test_closed_gap_weight_is_density(self):
        model = PoissonProcessModel(rate=3.0)
        w = barrier_weight(model.initial_state((0.2,)), gap=0.3, b_prev=False)
        assert w == pytest.approx(3.0 * math.exp(-0.9), rel=1e-12)

    def test_unreachable_gap_gets_zero_weight(self):
        model = UniformRenewalModel(0.01, 0.02)
        assert barrier_weight(model.initial_state((0.1,)), gap=0.4, b_prev=False) == 0.0

    def test_open_gap_weight_equals_conditional_intensity(self):
        # Both routes evaluate f(d)/P(gap >= d) at the barrier.
        model = WeibullRenewalModel(shape=2.0, scale=1.0)
        history, z = (0.1, 0.35), 0.8
        w = barrier_weight(model.initial_state(history), gap=z - 0.35, b_prev=True)
        assert w == conditional_intensity(model, history, z)


class TestSystematicResampling:
    def test_pointer_walk_on_frozen_weights(self):
        # Weights (3, 1): pointers .25 and .75 both land in the first 3/4 block.
        assert systematic_indices((3.0, 1.0), u=0.5) == (0, 0)

    def test_uniform_weights_give_identity_for_any_offset(self):
        for u in (1e-12, 0.3, 0.5, 0.999999, 1.0):
            assert systematic_indices((1.0,) * 7, u=u) == tuple(range(7))

    def test_offspring_counts_track_normalized_weights(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = rng.integers(2, 30)
            w = rng.uniform(0.0, 1.0, size=n)
            w[rng.integers(0, n)] = 0.0
            if w.sum() == 0.0:
                continue
            idx = systematic_indices(tuple(w), u=float(1.0 - rng.random()))
            counts = np.bincount(idx, minlength=n)
            np.testing.assert_array_less(np.abs(counts - n * w / w.sum()), 1.0)

    def test_zero_weight_particle_is_never_selected(self):
        w = (0.5, 0.0, 0.5)
        for u in (1e-9, 0.25, 0.5, 0.75, 1.0):
            assert 1 not in systematic_indices(w, u=u)

    def test_seeded_wrapper_matches_direct_call(self):
        rng = np.random.default_rng(99)
        u = 1.0 - rng.random()
        again = np.random.default_rng(99)
        assert systematic_resample((3.0, 1.0), again) == systematic_indices((3.0, 1.0), u)

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError):
            systematic_indices((0.0, 0.0), u=0.5)


class TestEffectiveSampleSize:
    def test_frozen_value(self):
        # (3+1)^2 / (9+1)
        assert effective_sample_size((3.0, 1.0)) == pytest.approx(1.6)

    def test_bounds(self):
        assert effective_sample_size((1.0,) * 10) == pytest.approx(10.0)
        assert effective_sample_size((5.0, 0.0, 0.0)) == pytest.approx(1.0)

    def test_scale_invariance(self):
        w = (0.2, 0.5, 0.3)
        scaled = tuple(1e6 * x for x in w)
        assert effective_sample_size(w) == pytest.approx(effective_sample_size(scaled))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            effective_sample_size((0.5, -0.1))


class TestConditionalSample:
    def test_every_survivor_satisfies_constraints(self):
        model = PoissonProcessModel(rate=6.0)
        cs = ConstraintSet(z=(0.25, 0.5, 0.75), b=(True, False, True))
        result = conditional_sample(model, cs, 64, seed=101)
        assert result.survived
        assert len(result.samples) == 64
        assert all(satisfies(s, cs) for s in result.samples)

    def test_poisson_interior_weights_equal_rate(self):
        model = PoissonProcessModel(rate=3.0)
        cs = ConstraintSet(z=(0.5,), b=(True,))
        result = conditional_sample(model, cs, 200, seed=7)
        diag = result.diagnostics[0]
        assert diag.min_weight == pytest.approx(3.0, rel=1e-9)
        assert diag.max_weight == pytest.approx(3.0, rel=1e-9)
        assert diag.ess == pytest.approx(200.0, rel=1e-9)

    def test_false_final_flag_terminates_at_last_constraint(self):
        model = PoissonProcessModel(rate=5.0)
        cs = ConstraintSet(z=(0.4, 0.8), b=(True, False))
        result = conditional_sample(model, cs, 50, seed=13)
        assert all(s[-1] == 0.8 for s in result.samples)

    def test_closed_gap_contains_no_events(self):
        model = PoissonProcessModel(rate=8.0)
        cs = ConstraintSet(z=(0.3, 0.6), b=(False, True))
        result = conditional_sample(model, cs, 50, seed=29)
        for s in result.samples:
            assert not [t for t in s if 0.3 < t < 0.6]

    def test_unconstrained_run_matches_restricted_sampler(self):
        """With no barriers each particle is a plain restricted-process draw,
        truncated at the horizon the same way even when the history ends past it."""
        empty = ConstraintSet(z=(), b=())
        for rate, history in [(4.0, ()), (2.0, (0.5, 1.5))]:
            model = PoissonProcessModel(rate=rate)
            result = conditional_sample(model, empty, 5, seed=55, initial_history=history)
            for s in range(5):
                rng = stream(55, KIND_PROPOSAL, 0, s)
                assert result.samples[s] == sample_restricted(model, rng, initial_history=history)

    def test_history_prefix_is_preserved(self):
        model = PoissonProcessModel(rate=5.0)
        cs = ConstraintSet(z=(0.6,), b=(True,))
        prefix = (0.05, 0.2)
        result = conditional_sample(model, cs, 16, seed=3, initial_history=prefix)
        assert all(s[:2] == prefix for s in result.samples)

    def test_ensemble_death_is_reported_not_raised(self):
        # A closed gap of width 0.4 is unreachable for gaps supported on [.01, .02].
        model = UniformRenewalModel(0.01, 0.02)
        cs = ConstraintSet(z=(0.1, 0.5), b=(False, False))
        result = conditional_sample(model, cs, 20, seed=2)
        assert not result.survived
        assert result.failed_barrier == 2
        assert result.samples == []
        last = result.diagnostics[-1]
        assert last.ess == 0.0 and last.dead_count == 20

    def test_diagnostics_cover_interior_barriers(self):
        model = PoissonProcessModel(rate=6.0)
        cs = ConstraintSet(z=(0.2, 0.4, 0.6), b=(True, True, True))
        result = conditional_sample(model, cs, 30, seed=19)
        assert [d.barrier_index for d in result.diagnostics] == [1, 2, 3]

    def test_rejects_constraint_beyond_horizon(self):
        model = PoissonProcessModel(rate=1.0)
        with pytest.raises(ValueError):
            conditional_sample(model, ConstraintSet(z=(1.5,), b=(True,)), 8, seed=1)

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_rejects_a_horizon_that_is_not_positive(self, horizon):
        model = PoissonProcessModel(rate=1.0)
        cs = ConstraintSet(z=(), b=())
        with pytest.raises(ValueError, match="horizon must be positive"):
            conditional_sample(model, cs, 8, seed=1, horizon=horizon)
        with pytest.raises(ValueError, match="horizon must be positive"):
            beam_search_sample(model, cs, 2, 2, seed=1, horizon=horizon)

    def test_rejects_constraint_inside_history(self):
        model = PoissonProcessModel(rate=1.0)
        with pytest.raises(ValueError):
            conditional_sample(model, ConstraintSet(z=(0.2,), b=(True,)), 8,
                               seed=1, initial_history=(0.3,))

    def test_rejects_nonpositive_particle_count(self):
        model = PoissonProcessModel(rate=1.0)
        with pytest.raises(ValueError):
            conditional_sample(model, ConstraintSet(z=(), b=()), 0, seed=1)


class TestSeedStreams:
    def test_streams_are_distinct_across_coordinates(self):
        draws = {stream(5, kind, barrier, particle).random()
                 for kind in (0, 1) for barrier in (0, 1, 2) for particle in (0, 1, 2)}
        assert len(draws) == 18

    def test_stream_is_reproducible(self):
        assert stream(5, 0, 3, 2).random() == stream(5, 0, 3, 2).random()

    def test_run_seeds_are_distinct(self):
        seeds = {run_seed(42, r) for r in range(100)}
        assert len(seeds) == 100

    def test_coordinate_range_checks(self):
        with pytest.raises(ValueError):
            stream(1, 0, 2 ** 16, 0)
        with pytest.raises(ValueError):
            stream(1, 0, 0, 2 ** 32)
        with pytest.raises(ValueError):
            stream(1, -1, 0, 0)
        with pytest.raises(ValueError):
            stream(1, 2 ** 16, 0, 0)

    @pytest.mark.parametrize("seed, kind, barrier, particle", [
        (0, 0, 0, 0),
        (2 ** 63 + 12345, 1, 7, 3),
        (-42, 0, 2 ** 16 - 1, 2 ** 32 - 1),
        (2 ** 64 - 1, 1, 2 ** 16 - 1, 0),
    ])
    def test_draws_equal_a_fresh_philox(self, seed, kind, barrier, particle):
        """A re-keyed stream draws exactly what a newly built Philox would,
        even after the previous stream was left mid-buffer with a spare
        32-bit half pending."""
        def draws(g):
            return [g.exponential(0.5), g.weibull(1.7), g.uniform(0.2, 0.9),
                    *g.random(5), g.integers(0, 1000, size=3).tolist(),
                    g.random(dtype=np.float32)]

        key = np.array([seed % 2 ** 64, (kind << 48) | (barrier << 32) | particle],
                       dtype=np.uint64)
        expected = draws(np.random.Generator(np.random.Philox(key=key)))
        previous = stream(seed + 1, 1 - kind, barrier, particle)
        previous.random()
        previous.random(dtype=np.float32)  # leaves has_uint32 set
        assert previous.bit_generator.state["has_uint32"] == 1
        assert draws(stream(seed, kind, barrier, particle)) == expected

    def test_threads_match_serial_runs(self):
        """A filter and a beam running at once on two threads each return
        exactly their serial result: every thread re-keys its own generator."""
        model = PoissonProcessModel(rate=30.0)
        cs = ConstraintSet(z=tuple(k / 100 for k in range(1, 100)), b=(True,) * 99)
        runs = {"filter": lambda: conditional_sample(model, cs, 200, seed=8),
                "beam": lambda: beam_search_sample(model, cs, b=10, f=20, seed=8)}
        serial = {name: run() for name, run in runs.items()}
        start = threading.Barrier(len(runs))
        threaded = {}

        def work(name):
            start.wait()
            threaded[name] = runs[name]()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, between draws
        try:
            threads = [threading.Thread(target=work, args=(name,)) for name in runs]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert serial["filter"].survived and serial["beam"].log_probs

    def test_a_filter_run_builds_one_generator(self, monkeypatch):
        """A whole filter run on a fresh thread builds exactly one Philox."""
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        model = PoissonProcessModel(rate=30.0)
        cs = ConstraintSet(z=(0.2, 0.4, 0.6, 0.8), b=(True,) * 4)
        results = []
        th = threading.Thread(
            target=lambda: results.append(conditional_sample(model, cs, 50, seed=3)))
        th.start()
        th.join()
        assert results and results[0].survived
        assert len(built) == 1
