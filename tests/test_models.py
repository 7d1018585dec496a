"""Inter-arrival distributions and unconstrained sequence sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from ppsmc import models
from ppsmc.models import (ExponentialGap, InterArrivalDistribution, IterationLimitError,
                          PoissonProcessModel, SequenceModel, UniformGap,
                          UniformRenewalModel, WeibullGap, WeibullRenewalModel,
                          barrier_weight, log_probability,
                          sample_restricted, step_log_probabilities)


class TestExponentialGap:
    """Closed forms checked against scipy.stats.expon."""

    def test_pdf_matches_scipy(self):
        gap = ExponentialGap(rate=3.0)
        ref = stats.expon(scale=1.0 / 3.0)
        d = np.linspace(0.01, 2.0, 40)
        np.testing.assert_allclose([gap.pdf(x) for x in d], ref.pdf(d), rtol=1e-12)

    def test_cdf_matches_scipy(self):
        gap = ExponentialGap(rate=3.0)
        ref = stats.expon(scale=1.0 / 3.0)
        d = np.linspace(0.01, 2.0, 40)
        np.testing.assert_allclose([gap.cdf(x) for x in d], ref.cdf(d), rtol=1e-12)

    def test_survival_complements_cdf(self):
        gap = ExponentialGap(rate=0.7)
        for d in (0.1, 1.0, 5.0):
            assert gap.survival(d) == pytest.approx(1.0 - gap.cdf(d), rel=1e-12)

    def test_no_mass_below_zero(self):
        gap = ExponentialGap(rate=3.0)
        assert (gap.pdf(-1.0), gap.cdf(-1.0), gap.survival(-1.0)) == (0.0, 0.0, 1.0)

    def test_hazard_is_constant_rate(self):
        gap = ExponentialGap(rate=2.5)
        for d in (0.01, 0.5, 3.0):
            assert gap.pdf(d) / gap.survival(d) == pytest.approx(2.5, rel=1e-12)

    def test_hazard_is_the_rate_where_the_density_underflows(self):
        """pdf(300) = 3e^-900 and survival(300) both underflow to 0; the
        hazard is still the rate."""
        gap = ExponentialGap(rate=3.0)
        assert gap.pdf(300.0) == 0.0
        assert gap.hazard(300.0) == 3.0
        assert gap.hazard(-1.0) == 0.0

    def test_sampling_mean(self):
        rng = np.random.default_rng(0)
        gap = ExponentialGap(rate=4.0)
        draws = [gap.sample(rng) for _ in range(20000)]
        assert np.mean(draws) == pytest.approx(0.25, rel=0.05)


class TestWeibullGap:
    def test_pdf_matches_scipy(self):
        gap = WeibullGap(shape=2.0, scale=1.0)
        ref = stats.weibull_min(2.0, scale=1.0)
        d = np.linspace(0.05, 3.0, 40)
        np.testing.assert_allclose([gap.pdf(x) for x in d], ref.pdf(d), rtol=1e-10)

    def test_survival_matches_scipy(self):
        gap = WeibullGap(shape=1.5, scale=0.8)
        ref = stats.weibull_min(1.5, scale=0.8)
        d = np.linspace(0.05, 3.0, 40)
        np.testing.assert_allclose([gap.survival(x) for x in d], ref.sf(d), rtol=1e-10)

    def test_pdf_is_zero_below_zero(self):
        for shape in (0.5, 1.0, 2.0):
            assert WeibullGap(shape=shape, scale=1.0).pdf(-0.1) == 0.0

    def test_hazard_is_linear_for_shape_two(self):
        # k=2, scale 1: hazard k d^{k-1} = 2d.
        gap = WeibullGap(shape=2.0, scale=1.0)
        rng = np.random.default_rng(42)
        for d in rng.uniform(0.01, 1.0, size=100):
            assert gap.pdf(d) / gap.survival(d) == pytest.approx(2.0 * d, rel=1e-9)

    def test_hazard_is_closed_form_where_the_density_underflows(self):
        """k=2, scale 1: pdf(40) underflows, the hazard is still 2·40."""
        gap = WeibullGap(shape=2.0, scale=1.0)
        assert gap.pdf(40.0) == 0.0
        assert gap.hazard(40.0) == 80.0
        assert WeibullGap(shape=0.5, scale=2.0).hazard(0.0) == math.inf
        assert WeibullGap(shape=1.0, scale=2.0).hazard(0.0) == 0.5

    def test_sampling_distribution(self):
        rng = np.random.default_rng(1)
        gap = WeibullGap(shape=2.0, scale=1.0)
        draws = [gap.sample(rng) for _ in range(5000)]
        assert stats.kstest(draws, stats.weibull_min(2.0).cdf).pvalue > 0.01


class TestUniformGap:
    def test_pdf_is_flat_on_support(self):
        gap = UniformGap(0.2, 0.6)
        assert gap.pdf(0.4) == pytest.approx(2.5)
        assert gap.pdf(0.1) == 0.0
        assert gap.pdf(0.7) == 0.0

    def test_sample_is_numpys_uniform_draw(self):
        gap = UniformGap(0.01, 0.02)
        for seed in range(200):
            assert (gap.sample(np.random.default_rng(seed))
                    == np.random.default_rng(seed).uniform(0.01, 0.02))

    def test_cdf_and_survival(self):
        gap = UniformGap(0.2, 0.6)
        assert gap.cdf(0.1) == 0.0
        assert gap.cdf(0.4) == pytest.approx(0.5)
        assert gap.cdf(1.0) == 1.0
        assert gap.survival(0.4) == pytest.approx(0.5)

    def test_rejects_bad_support(self):
        with pytest.raises(ValueError):
            UniformGap(0.5, 0.5)
        with pytest.raises(ValueError):
            UniformGap(-0.1, 0.5)


NOT_POSITIVE_AND_FINITE = [0.0, -1.0, math.nan, math.inf]


@pytest.mark.parametrize("bad", NOT_POSITIVE_AND_FINITE)
def test_laws_check_their_own_parameters(bad):
    """Each law refuses a parameter that is not finite and positive, in the
    words the spec errors of the command line show."""
    with pytest.raises(ValueError, match=f"rate must be finite and positive, got {bad!r}"):
        ExponentialGap(rate=bad)
    for shape, scale in [(bad, 1.0), (1.0, bad)]:
        with pytest.raises(ValueError, match=(r"shape and scale must be finite and positive, "
                                              f"got shape={shape!r}, scale={scale!r}")):
            WeibullGap(shape=shape, scale=scale)


@pytest.mark.parametrize("law", [ExponentialGap(rate=3.0), ExponentialGap(rate=0.7),
                                 WeibullGap(shape=0.6, scale=2.0),
                                 WeibullGap(shape=1.5, scale=0.08), UniformGap(0.02, 0.3)],
                         ids=["exp3", "exp0.7", "weibull0.6", "weibull1.5", "uniform"])
def test_quantiles_are_each_quantile_bit_for_bit(law):
    u = np.concatenate([[0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53],
                        np.random.default_rng(7).random(4000)])
    expected = [law.quantile(x) for x in u.tolist()]
    assert law.quantiles(u).tolist() == expected
    gaps, used = law.draws(u.reshape(-1, 4))
    assert gaps.ravel().tolist() == expected and used == 4


@pytest.mark.parametrize("law", [ExponentialGap(rate=3.0), ExponentialGap(rate=3),
                                 ExponentialGap(rate=0.7)],
                         ids=["exp3", "exp-int-rate", "exp0.7"])
@pytest.mark.parametrize("b_prev", [True, False])
def test_weights_and_log_pdfs_are_each_scalar_bit_for_bit(law, b_prev):
    """The exponential's array ``weights``, and its array log densities
    (``weights(d, None)``, what the walk scores with), against the scalar
    rules.  Negative gaps, both zeros, gaps whose density underflows (rate 3
    at 300 gives 0.0, and the log density log 3 - 900 in closed form) and
    seeded random gaps, compared as bytes."""
    d = np.concatenate([[-1.0, -1e-300, -0.0, 0.0, 300.0, 1e6, math.inf],
                        np.random.default_rng(11).exponential(0.5, 2000)])
    weights = [barrier_weight(law, x, b_prev) for x in d.tolist()]
    assert law.weights(d, b_prev).tobytes() == np.array(weights, dtype=float).tobytes()
    logs = [law.log_pdf(x) for x in d.tolist()]
    assert law.weights(d, None).tobytes() == np.array(logs, dtype=float).tobytes()
    assert [logs[k] for k in (0, 1, 6)] == [-math.inf] * 3  # negative gaps, and d = inf
    if law.rate == 3:
        assert (weights[4], logs[4]) == (3.0 if b_prev else 0.0, math.log(3) - 900.0)


@pytest.mark.parametrize("law", [WeibullGap(shape=0.6, scale=2.0),
                                 WeibullGap(shape=1.5, scale=0.08), UniformGap(0.02, 0.3)],
                         ids=["weibull0.6", "weibull1.5", "uniform"])
def test_a_law_without_a_closed_form_logs_its_pdf(law):
    """The default ``log_pdf``: log f(d), or -inf where f is 0, bit for bit."""
    for d in [-1.0, 0.0, 0.01, 0.02, 0.3, 0.5, 300.0]:
        p = law.pdf(d)
        assert law.log_pdf(d) == (math.log(p) if p > 0 else -math.inf)


@pytest.mark.parametrize("law", [ExponentialGap(rate=3.0), ExponentialGap(rate=0.7)],
                         ids=["exp3", "exp0.7"])
def test_weights_take_a_flag_per_gap(law):
    """A chunk of barriers, free and forbidden, is valued in one call: gap k
    weighs its ``barrier_weight`` under flag k, compared as bytes."""
    d = np.concatenate([[-1.0, -0.0, 0.0, 300.0, math.inf, 300.0],
                        np.random.default_rng(12).exponential(0.5, 2000)])
    flags = np.concatenate([[True, False, True, False, False, True],
                            np.random.default_rng(13).random(2000) < 0.5])
    weights = [barrier_weight(law, x, f) for x, f in zip(d.tolist(), flags.tolist())]
    assert law.weights(d, flags).tobytes() == np.array(weights, dtype=float).tobytes()


class TestSampleRestricted:
    def test_poisson_count_is_poisson_distributed(self):
        """Events on [0, 1] of a rate-2 process: count ~ Poisson(2)."""
        model = PoissonProcessModel(rate=2.0)
        rng = np.random.default_rng(7)
        draws = 10000
        counts = np.bincount(
            [len(sample_restricted(model, rng)) for _ in range(draws)], minlength=10)
        expected = stats.poisson(2.0).pmf(np.arange(9)) * draws
        expected = np.append(expected, draws - expected.sum())
        observed = np.append(counts[:9], counts[9:].sum())
        assert stats.chisquare(observed, expected).pvalue > 0.01

    def test_poisson_mean_count(self):
        model = PoissonProcessModel(rate=3.0)
        rng = np.random.default_rng(8)
        mean = np.mean([len(sample_restricted(model, rng)) for _ in range(4000)])
        assert mean == pytest.approx(3.0, abs=0.1)  # ~3.7 sigma

    def test_all_points_within_horizon(self):
        model = UniformRenewalModel(0.999999, 1.0)
        rng = np.random.default_rng(3)
        seq = sample_restricted(model, rng, horizon=2.0)
        assert len(seq) == 2 and all(t <= 2.0 for t in seq)

    def test_first_point_beyond_horizon_is_dropped(self):
        model = UniformRenewalModel(0.6, 0.8)
        rng = np.random.default_rng(5)
        seq = sample_restricted(model, rng, horizon=1.0)
        assert len(seq) == 1  # second point would land in (1.2, 1.6]

    def test_history_is_returned_with_continuation(self):
        model = PoissonProcessModel(rate=2.0)
        rng = np.random.default_rng(11)
        history = (0.1, 0.2)
        seq = sample_restricted(model, rng, initial_history=history)
        assert seq[:2] == history
        assert all(t > 0.2 for t in seq[2:])

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(models, "MAX_EVENTS", 50)
        model = PoissonProcessModel(rate=1e6)
        rng = np.random.default_rng(0)
        with pytest.raises(IterationLimitError,
                           match=r"did not reach horizon 1\.0 within 50 draws"):
            sample_restricted(model, rng)


class TestLogProbability:
    def test_poisson_closed_form(self):
        # Density of n exponential gaps: n log(rate) - rate * x_n.
        model = PoissonProcessModel(rate=3.0)
        seq = (0.2, 0.5, 0.9)
        expected = 3 * math.log(3.0) - 3.0 * 0.9
        assert log_probability(model, seq) == pytest.approx(expected, rel=1e-12)

    def test_empty_sequence_scores_zero(self):
        assert log_probability(PoissonProcessModel(rate=2.0), ()) == 0.0

    def test_zero_density_step_is_minus_inf(self):
        model = UniformRenewalModel(0.4, 0.6)
        steps = step_log_probabilities(model, (0.5, 0.6))  # second gap 0.1 impossible
        assert steps[0] > -math.inf
        assert steps[1] == -math.inf

    def test_no_step_after_a_zero_density_step(self):
        """The state is not advanced past an unreachable time, so every later
        step is -inf too, even a gap the model could draw."""
        steps = step_log_probabilities(UniformRenewalModel(0.4, 0.6), (0.5, 0.6, 1.1))
        assert steps[0] > -math.inf and steps[1:] == [-math.inf, -math.inf]

    def test_stepwise_sums_to_total(self):
        model = WeibullRenewalModel(shape=2.0, scale=1.0)
        seq = (0.3, 0.55, 1.2)
        steps = step_log_probabilities(model, seq)
        assert sum(steps) == pytest.approx(log_probability(model, seq), rel=1e-12)

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            log_probability(PoissonProcessModel(rate=1.0), (0.5, 0.4))

    def test_adds_its_steps_left_to_right(self, monkeypatch):
        """As the walk folds a beam's scores, so the two agree bit for bit on
        any Python: ten steps of 0.1 add to 0.9999999999999999, where the
        compensated ``sum()`` of Python 3.12 and later gives 1.0."""
        monkeypatch.setattr(models, "step_log_probabilities", lambda *args: [0.1] * 10)
        assert log_probability(PoissonProcessModel(rate=1.0), (0.5,)) == 0.9999999999999999

    def test_matches_per_step_densities(self):
        # Independent recomputation: query each gap density directly.
        model = WeibullRenewalModel(shape=1.5, scale=0.2)
        rng = np.random.default_rng(101)
        seq = tuple(np.cumsum(rng.uniform(0.05, 0.2, size=10)))
        by_hand = 0.0
        for i, t in enumerate(seq):
            prev = seq[i - 1] if i else 0.0
            by_hand += math.log(model.initial_state(seq[:i]).pdf(t - prev))
        assert log_probability(model, seq) == pytest.approx(by_hand, rel=1e-12)
        # Additivity: each prefix extends the previous one by one factor.
        for i in range(1, 11):
            diff = (log_probability(model, seq[:i])
                    - log_probability(model, seq[:i - 1]))
            prev = seq[i - 2] if i > 1 else 0.0
            step = math.log(model.initial_state(seq[:i - 1]).pdf(seq[i - 1] - prev))
            assert diff == pytest.approx(step, rel=1e-9)

    def test_uniform_pmf_model(self):
        # A discrete model whose every step is uniform over V gap values
        # scores any n-step sequence at n * log(1/V).
        V = 5

        class UniformCodeGap(InterArrivalDistribution):
            def pdf(self, d):
                return 1.0 / V if d == int(d) and 1 <= d <= V else 0.0

        class UniformCodeModel(SequenceModel):
            def initial_state(self, history):
                return UniformCodeGap()

            def advance(self, state, t):
                return state

        seq = (2.0, 3.0, 8.0, 9.0)
        expected = 4 * math.log(1.0 / V)
        assert log_probability(UniformCodeModel(), seq) == pytest.approx(expected)
