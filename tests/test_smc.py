"""Constrained particle filtering: proposals, weights, resampling, ensembles."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from exact import order2_grid

from ppsmc import rng, smc
from ppsmc.beam import beam_search_sample
from ppsmc.models import (PoissonProcessModel, RenewalModel, UniformGap, UniformRenewalModel,
                          WeibullRenewalModel, barrier_weight,
                          propose_segment, sample_restricted, step_log_probabilities)
from ppsmc.music.files import read_constraint_file, write_constraint_file
from ppsmc.oracle import GridSequenceModel
from ppsmc.rng import KIND_PROPOSAL, block, doubles, run_seed, stream
from ppsmc.smc import (ConstraintSet, conditional_sample,
                       effective_sample_size, satisfies, systematic_indices)


class TestConstraintSet:
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
        seg, gap, _ = propose_segment(model, model.initial_state([0.2]), 0.2, 0.7, False, rng)
        assert seg == [0.7]
        assert gap == pytest.approx(0.5)

    def test_open_gap_ends_exactly_at_barrier(self):
        model = PoissonProcessModel(rate=50.0)
        rng = stream(1, KIND_PROPOSAL, 0)
        seg, gap, _ = propose_segment(model, model.initial_state([]), 0.0, 0.5, True, rng)
        assert seg[-1] == 0.5
        assert all(t < 0.5 for t in seg[:-1])
        assert gap == pytest.approx(0.5 - ([0.0] + seg)[-2])

    def test_final_segment_stops_after_crossing_horizon(self):
        model = PoissonProcessModel(rate=10.0)
        rng = stream(2, KIND_PROPOSAL, 0)
        seg, gap, _ = propose_segment(model, model.initial_state([0.5]), 0.5, math.inf,
                                         True, rng, horizon=1.0)
        # At most the last point overshoots; the caller trims it.
        assert all(t <= 1.0 for t in seg[:-1])
        assert seg[-1] >= 1.0

    def test_rejects_a_non_positive_gap(self):
        law = UniformGap(0.0, 1.0)
        zeros = type("Zeros", (), {"random": lambda self: 0.0})()  # draws the gap 0.0
        with pytest.raises(ValueError, match=r"^model produced a non-positive gap: 0\.0$"):
            propose_segment(RenewalModel(law), law, 0.0, 0.5, True, zeros)


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

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError):
            systematic_indices((0.0, 0.0), u=0.5)

    @pytest.mark.parametrize("u", [0.0, -0.5, 1.5, math.nan])
    def test_rejects_an_offset_outside_0_1(self, u):
        with pytest.raises(ValueError, match=r"^offset u must lie in \(0, 1\], got "):
            systematic_indices((1.0, 2.0), u=u)

    @staticmethod
    def adversarial_weights(rng, n: int, kind: str) -> np.ndarray:
        """Weights whose cumulative sums sit on or next to the pointers, or
        whose total leaves the range the float pass trusts."""
        if kind == "uniform":
            w = np.ones(n)
        elif kind == "ulp":  # uniform, some entries one ulp up or down
            w = np.ones(n)
            moved = rng.random(n) < 0.3
            w[moved] = np.nextafter(1.0, np.where(rng.random(moved.sum()) < 0.5, 0.0, 2.0))
        elif kind == "swamped":  # ones among weights each too small to move the float cumsum
            w = np.full(n, 2.0 ** -54)
            w[::max(1, n // 7)] = 1.0
        elif kind == "integers":  # exact cumsums that many pointers hit
            w = rng.integers(0, 4, n).astype(float)
        elif kind == "zeros":
            w = rng.random(n) * (rng.random(n) < 0.4)
        elif kind == "huge":
            w = rng.random(n) * 1e300
        elif kind == "tiny":
            w = rng.random(n) * 1e-300
        elif kind == "mixed":
            w = rng.random(n) * np.where(rng.random(n) < 0.5, 1e300, 1e-300)
        elif kind == "overflow":  # the float total is inf once n > 1
            w = rng.random(n) * 1e308 + 1e307
        else:  # "subnormal": a total below the smallest normal float
            w = rng.integers(0, 5, n) * 5e-324
        if not w.any():
            w[-1] = 1.0
        return w

    def test_fast_pass_equals_the_exact_pass(self):
        """The numpy pass and its fallback pick exactly what the exact-integer
        reference picks, on near-ties, zeros and extreme magnitudes."""
        rng = np.random.default_rng(9090)
        kinds = ("uniform", "ulp", "swamped", "integers", "zeros", "huge", "tiny", "mixed",
                 "overflow", "subnormal")
        for n in (1, 2, 7, 1000, 2000):
            for kind in kinds:
                for _ in range(2 if n >= 1000 else 12):
                    w = self.adversarial_weights(rng, n, kind)
                    # 1 - 2**-40 puts the last pointer between a swamped
                    # float boundary and the exact one
                    for u in (1e-15, 1.0, 1.0 - 2.0 ** -40, float(1.0 - rng.random())):
                        expected = smc._exact_systematic_indices(w.tolist(), u)
                        assert systematic_indices(tuple(w.tolist()), u) == expected, (n, kind, u)

    def test_pointers_on_a_boundary_take_the_exact_pass(self, monkeypatch):
        calls = []
        exact = smc._exact_systematic_indices

        def counting(weights, u):
            calls.append(u)
            return exact(weights, u)

        monkeypatch.setattr(smc, "_exact_systematic_indices", counting)
        # uniform weights at u = 1: pointer l lies on the boundary after index l
        assert systematic_indices((1.0,) * 1000, u=1.0) == tuple(range(1000))
        assert calls == [1.0]
        w = np.random.default_rng(5).random(1000)
        picks = systematic_indices(tuple(w.tolist()), u=0.37)
        assert calls == [1.0]  # clear of every boundary: the numpy pass decides
        assert picks == exact(w.tolist(), 0.37)

    @pytest.mark.parametrize("kind", ["random", "uniform", "subnormal"])
    def test_the_filters_array_picks_are_the_systematic_indices(self, monkeypatch, kind):
        """The index array the filter resamples with holds what
        ``systematic_indices`` returns, on seeded random weights and on the
        two cases that take the exact-integer pass: uniform weights at u = 1
        and a total below the smallest normal float."""
        calls = []
        exact = smc._exact_systematic_indices
        monkeypatch.setattr(smc, "_exact_systematic_indices",
                            lambda weights, u: calls.append(u) or exact(weights, u))
        gen = np.random.default_rng(4242)
        for n in (1, 2, 7, 1000):
            for u in (1.0, float(1.0 - gen.random())):
                w = {"random": gen.random(n) * (gen.random(n) < 0.8),
                     "uniform": np.ones(n),
                     "subnormal": gen.integers(0, 5, n) * 5e-324}[kind]
                w[-1] = w[-1] or w.max() or 5e-324  # not all zero
                before = len(calls)
                picks = smc._picks(w, u)
                exact_pass = len(calls) > before
                assert picks.dtype.kind == "i"
                assert tuple(picks.tolist()) == systematic_indices(tuple(w.tolist()), u)
                if kind == "subnormal" or kind == "uniform" and u == 1.0 and n > 1:
                    assert exact_pass, (kind, n, u)

    def test_a_filter_keeps_the_systematic_indices_of_its_weights(self, monkeypatch):
        """Each barrier's kept children are an index array equal to
        ``systematic_indices`` of its weights at the barrier's offset."""
        kept_seen, real_keep = [], smc._Walk.keep

        def keep(self, kept, z, values):
            kept_seen.append((kept, values.copy()))
            return real_keep(self, kept, z, values)

        monkeypatch.setattr(smc._Walk, "keep", keep)
        cs = ConstraintSet(z=(0.2, 0.4, 0.6), b=(True, True, True))
        assert conditional_sample(WeibullRenewalModel(shape=2.0, scale=0.3), cs, 300, 17).survived
        offsets = 1.0 - doubles(block(17, smc.KIND_RESAMPLE, np.arange(3), 0))[:, 0]
        assert len(kept_seen) == 3
        for (kept, weights), u in zip(kept_seen, offsets.tolist()):
            assert isinstance(kept, np.ndarray)
            assert tuple(kept.tolist()) == systematic_indices(tuple(weights.tolist()), u)


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

    def test_rejects_all_zero_weights(self):
        with pytest.raises(ValueError, match="^all weights are zero$"):
            effective_sample_size((0.0, 0.0))

    def test_equals_the_loop_definition_bit_for_bit(self):
        """The numpy sums keep every bit of one left-to-right pass, through
        zeros, overflowing squares and subnormal weights (whose squares all
        underflow to 0, where the loop divides by zero and the ESS is the
        loop's value on the weights divided by their maximum)."""
        def loop(weights):
            total = total_sq = 0.0
            for w in weights:
                total += w
                total_sq += w * w
            return total * total / total_sq

        def reference(weights):
            try:
                return repr(loop(weights))
            except ZeroDivisionError:
                top = max(weights)
                return repr(loop([w / top for w in weights]))

        rng = np.random.default_rng(6217)
        tiny = math.ulp(0.0)
        for n in (1, 2, 7, 1000):
            for kind in ("random", "zeros", "huge", "small", "subnormal", "mixed"):
                w = rng.random(n)
                if kind == "zeros":
                    w[rng.random(n) < 0.5] = 0.0
                elif kind == "huge":
                    w *= 1e300
                elif kind == "small":
                    w *= 1e-300
                elif kind == "subnormal":
                    w = rng.integers(0, 2 ** 20, n) * tiny
                elif kind == "mixed":
                    w = rng.choice([0.0, 1e300, 1e-300, 3 * tiny, 1.0, 0.1], n) * rng.random(n)
                if not w.any():
                    w[0] = 1.0
                expected = reference(w.tolist())
                assert repr(effective_sample_size(w)) == expected, (n, kind)
                assert repr(effective_sample_size(tuple(w.tolist()))) == expected, (n, kind)


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

    def test_weights_whose_squares_underflow_keep_an_ess(self):
        """Every forced-gap density is 1e-310, whose square underflows to 0."""
        cs = ConstraintSet(z=(0.5, 714.3), b=(False, False))
        result = conditional_sample(PoissonProcessModel(1.0), cs, 5, 1, horizon=715)
        assert result.survived and all(satisfies(s, cs) for s in result.samples)
        last = result.diagnostics[-1]
        assert 0.0 < last.max_weight < 1e-300 and last.ess == 5.0

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

    @pytest.mark.parametrize("model, history, z, horizon", [
        (PoissonProcessModel(rate=3.0), (0.9, 0.4), 0.95, 1.0),
        (GridSequenceModel(order2_grid(8)), (3, 2), 5, 8),
        (GridSequenceModel(order2_grid(8)), (3, 3), 5, 8),
    ], ids=["poisson", "grid", "grid-repeated-cell"])
    def test_rejects_a_history_that_does_not_strictly_increase(self, model, history, z, horizon):
        """The samplers, ``sample_restricted`` and the scorer go on from the
        history's last time, so a history out of order would be walked as if
        its earlier times were not there."""
        cs = ConstraintSet(z=(z,), b=(True,))
        runs = [lambda: conditional_sample(model, cs, 3, 1, horizon=horizon,
                                           initial_history=history),
                lambda: beam_search_sample(model, cs, 2, 2, 1, horizon=horizon,
                                           initial_history=history),
                lambda: sample_restricted(model, stream(1, KIND_PROPOSAL, 0), horizon=horizon,
                                          initial_history=history),
                lambda: step_log_probabilities(model, (z,), history)]
        for run in runs:
            with pytest.raises(ValueError, match=f"^times must strictly increase, "
                                                 f"got {history[1]} after {history[0]}$"):
                run()

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
        """A stream draws exactly what a newly built Philox with its key would,
        whatever another stream was left doing mid-buffer with a spare
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
        exactly their serial result: no draw depends on shared state."""
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

    def test_a_run_builds_no_generator(self, monkeypatch):
        """A filter or a beam run draws every uniform from Philox blocks and
        builds no numpy generator, on any thread."""
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        model = PoissonProcessModel(rate=30.0)
        cs = ConstraintSet(z=(0.2, 0.4, 0.6, 0.8), b=(True,) * 4)
        results = []
        th = threading.Thread(target=lambda: results.extend(
            (conditional_sample(model, cs, 50, seed=3), beam_search_sample(model, cs, 3, 4, 3))))
        th.start()
        th.join()
        assert len(results) == 2 and all(r.survived for r in results)
        assert built == []


class TestBlocks:
    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, -42])
    @pytest.mark.parametrize("kind", [0, 1])
    @pytest.mark.parametrize("lane", [0, 2 ** 32 - 1])
    def test_blocks_are_the_words_of_stream(self, seed, kind, lane):
        """A block holds the first 4 raw words of the stream with the same key,
        and ``doubles`` makes of them what ``random()`` draws."""
        barrier = 2 ** 16 - 1
        raw = stream(seed, kind, barrier, lane).bit_generator.random_raw(4).tolist()
        g = stream(seed, kind, barrier, lane)
        drawn = [g.random() for _ in range(4)]
        words = block(seed, kind, barrier, lane)
        assert words.dtype == np.uint64 and words.shape == (4,)
        assert words.tolist() == raw
        assert doubles(words).tolist() == drawn

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_counters_continue_the_stream(self, seed):
        """Blocks 1 to 3 hold the stream's first 12 raw words in order, whether
        the counters are asked for one at a time or as an array."""
        raw = stream(seed, 0, 7, 3).bit_generator.random_raw(12).tolist()
        assert [w for c in (1, 2, 3) for w in block(seed, 0, 7, 3, counter=c).tolist()] == raw
        assert block(seed, 0, 7, 3, counter=np.arange(1, 4)).ravel().tolist() == raw
        both = block(seed, 0, 7, np.array([[3], [4]]), counter=np.arange(1, 4))
        assert both.shape == (2, 3, 4) and both[0].ravel().tolist() == raw

    def test_few_keys_equal_many(self):
        """Up to ``_FEW_KEYS`` keys are computed in Python ints, more in numpy
        arrays: both give the same words, on either side of that count."""
        lanes, counters = np.arange(40) * 7919, np.arange(40) % 5 + 1
        singles = [block(2 ** 64 - 5, 1, 9, lane, c).tolist() for lane, c in zip(lanes, counters)]
        for n in (rng._FEW_KEYS, rng._FEW_KEYS + 1, 40):
            assert block(2 ** 64 - 5, 1, 9, lanes[:n], counters[:n]).tolist() == singles[:n]

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, -42])
    def test_many_keys_are_the_words_of_stream(self, seed):
        """More keys than ``_FEW_KEYS``, computed in numpy arrays, hold the raw
        words of their streams at counters 1 to 3."""
        lanes = [0, 1, 2 ** 32 - 1, *range(7919, 7919 * 40, 7919)]
        words = block(seed, 1, 2 ** 16 - 1, np.array(lanes)[:, None], np.arange(1, 4))
        assert words.shape == (len(lanes), 3, 4) and words[..., 0].size > rng._FEW_KEYS
        for lane, got in zip(lanes, words):
            raw = stream(seed, 1, 2 ** 16 - 1, lane).bit_generator.random_raw(12)
            assert got.ravel().tolist() == raw.tolist()

    def test_a_batch_past_block_keys_is_the_words_of_stream(self):
        """One call on more keys than the walk asks for at once."""
        lanes = np.arange(smc._BLOCK_KEYS // 3 + 2)
        words = block(-42, 0, 3, lanes[:, None], np.arange(1, 4))
        assert words[..., 0].size > smc._BLOCK_KEYS
        for lane, got in zip(lanes.tolist(), words):
            raw = stream(-42, 0, 3, lane).bit_generator.random_raw(12)
            assert got.ravel().tolist() == raw.tolist()

    def test_broadcasts_barriers_against_lanes(self):
        words = block(9, 0, np.arange(3)[:, None], np.array([0, 5, 2 ** 32 - 1]))
        assert words.shape == (3, 3, 4)
        for i in range(3):
            for j, lane in enumerate((0, 5, 2 ** 32 - 1)):
                assert words[i, j].tolist() == block(9, 0, i, lane).tolist()

    @pytest.mark.parametrize("kind, barrier, lane", [
        (-1, 0, 0), (2 ** 16, 0, 0), (0, -1, 0), (0, 2 ** 16, 0), (0, 0, -1), (0, 0, 2 ** 32),
        (0, 2 ** 64, 0), (0, 0, [3, 2 ** 32]),
    ])
    def test_rejects_what_stream_rejects(self, kind, barrier, lane):
        with pytest.raises(ValueError):
            stream(1, kind, barrier, np.max(lane))
        with pytest.raises(ValueError):
            block(1, kind, barrier, lane)

    @pytest.mark.parametrize("counter", [0, -1, 2 ** 64])
    def test_rejects_counters_outside_one_block_word(self, counter):
        with pytest.raises(ValueError):
            block(1, 0, 0, 0, counter=counter)
