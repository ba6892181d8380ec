"""Outcome families, posterior updating, and superiority probabilities.

Closed-form superiority values are checked against independent oracles:
one- and two-dimensional quadrature of the posterior densities, and large
Monte Carlo draws where the quadrature itself deserves a cross-check.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from aptest import models
from aptest.errors import ConfigError, DataError, NumericalError
from aptest.models import (
    ArmPosterior,
    Bernoulli,
    BetaPrior,
    Exponential,
    GammaPrior,
    NormalKnownVar,
    NormalPrior,
    OutcomeModel,
    beta_posterior,
    beta_superiority_vec,
    gamma_superiority_vec,
    initial_posterior,
    sample_outcome,
    superiority_probability,
    trial_beta_carry,
    update_posterior,
)
from tests.beta_oracle import beta_superiority_closed


def quadrature_gamma_superiority(a1, b1, a0, b0):
    """Oracle: P(X1 > X0) = integral of pdf1(x) * cdf0(x) dx."""
    d1 = stats.gamma(a1, scale=1.0 / b1)
    d0 = stats.gamma(a0, scale=1.0 / b0)
    lo = min(d1.ppf(1e-14), d0.ppf(1e-14))
    hi = max(d1.ppf(1 - 1e-14), d0.ppf(1 - 1e-14))
    val, _ = integrate.quad(lambda x: d1.pdf(x) * d0.cdf(x), lo, hi, limit=300)
    return val


def quadrature_beta_superiority(a1, b1, a0, b0):
    d1 = stats.beta(a1, b1)
    d0 = stats.beta(a0, b0)
    val, err = integrate.quad(
        lambda x: d1.pdf(x) * d0.cdf(x), 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=300
    )
    # quad stops at its default tolerance of 1.5e-8, so the tight one makes
    # its error estimate a bound worth reading; below 1 a density is
    # unbounded at an end of [0, 1], where quad misses by up to 1e-6 and
    # its estimate says so
    if err > 1e-11:
        raise ValueError(f"beta quadrature oracle: error estimate {err:.1e} at {a1, b1, a0, b0}")
    return val


class TestModelValidation:
    def test_positive_rates_required(self):
        with pytest.raises(ConfigError):
            Exponential(0.0, 1.0)
        with pytest.raises(ConfigError):
            Exponential(1.0, -2.0)

    def test_probabilities_strictly_inside_unit_interval(self):
        with pytest.raises(ConfigError):
            Bernoulli(0.0, 0.5)
        with pytest.raises(ConfigError):
            Bernoulli(0.5, 1.0)

    def test_positive_sds_required(self):
        with pytest.raises(ConfigError):
            NormalKnownVar(0.0, 0.0, 0.0, 1.0)

    def test_direction_field(self):
        with pytest.raises(ConfigError):
            OutcomeModel(Exponential(1.0, 2.0), "best")
        m = OutcomeModel(Exponential(1.0, 2.0), "larger")
        assert m.better_arm() == 1
        m = OutcomeModel(Exponential(1.0, 2.0), "smaller")
        assert m.better_arm() == 0
        assert OutcomeModel(Exponential(1.0, 1.0)).better_arm() is None

    def test_prior_hyperparameters_positive(self):
        with pytest.raises(ConfigError):
            GammaPrior(0.0, 1.0)
        with pytest.raises(ConfigError):
            GammaPrior(1.0, 0.0)
        with pytest.raises(ConfigError):
            BetaPrior(1.0, 0.0)
        with pytest.raises(ConfigError):
            NormalPrior(0.0, 0.0)


class TestSampling:
    def test_degenerate_probability_draws_are_constant(self, rng):
        # p very close to 1 so every draw succeeds over a modest sample
        m = OutcomeModel(Bernoulli(0.5, 1.0 - 1e-12))
        draws = {sample_outcome(m, 1, rng) for _ in range(200)}
        assert draws == {1.0}

    def test_exponential_mean_matches_rate(self, rng):
        m = OutcomeModel(Exponential(1.0, 2.0))
        draws = rng.exponential(1.0, 10**6)  # oracle for the law used below
        sampled = np.array([sample_outcome(m, 0, rng) for _ in range(2 * 10**4)])
        assert abs(draws.mean() - 1.0) < 0.01
        assert abs(sampled.mean() - 1.0) < 3 * sampled.std() / math.sqrt(sampled.size)

    def test_normal_mean_zero(self, rng):
        m = OutcomeModel(NormalKnownVar(0.0, 1.0, 1.0, 1.0))
        sampled = np.array([sample_outcome(m, 0, rng) for _ in range(2 * 10**4)])
        assert abs(sampled.mean()) < 3.0 / math.sqrt(sampled.size)


class TestPosteriorUpdating:
    def test_exponential_update(self):
        state = initial_posterior("exponential")
        state = update_posterior(state, 1, 2.5)
        assert state.experimental == ArmPosterior(1, 2.5)
        assert state.control == ArmPosterior(0, 0.0)

    def test_bernoulli_failure_update(self):
        state = initial_posterior("bernoulli")
        for y in (1.0, 1.0, 0.0):
            state = update_posterior(state, 0, y)
        state = update_posterior(state, 0, 0.0)
        assert state.control == ArmPosterior(4, 2.0)

    def test_order_independence(self):
        a = initial_posterior("exponential")
        a = update_posterior(update_posterior(a, 1, 0.5), 1, 1.5)
        b = initial_posterior("exponential")
        b = update_posterior(update_posterior(b, 1, 1.5), 1, 0.5)
        assert a == b

    def test_incompatible_outcomes_rejected(self):
        with pytest.raises(DataError):
            update_posterior(initial_posterior("bernoulli"), 0, 0.5)
        with pytest.raises(DataError):
            update_posterior(initial_posterior("exponential"), 0, -1.0)
        with pytest.raises(DataError):
            update_posterior(initial_posterior("normal"), 0, float("nan"))
        with pytest.raises(DataError):
            update_posterior(initial_posterior("exponential"), 0, float("inf"))


class TestGammaSuperiority:
    def test_identical_posteriors_give_half(self):
        p = superiority_probability(
            ArmPosterior(0, 0.0), ArmPosterior(0, 0.0), GammaPrior(1.0, 1.0)
        )
        assert p == 0.5

    def test_rate_one_vs_rate_two(self):
        # P(X > Y), X ~ Gamma(1,1), Y ~ Gamma(1,2): integral of
        # (1 - exp(-2x)) exp(-x) dx = 1 - 1/3 = 2/3.
        assert abs(gamma_superiority_vec(1, 1, 1, 2) - 2.0 / 3.0) < 1e-14

    def test_rate_one_vs_rate_two_monte_carlo(self, rng):
        x = rng.gamma(1.0, 1.0, 10**7)
        y = rng.gamma(1.0, 0.5, 10**7)
        assert abs((x > y).mean() - 2.0 / 3.0) < 3 * 0.5 / math.sqrt(10**7)

    def test_closed_form_matches_quadrature_on_grid(self, rng):
        for _ in range(120):
            a1 = int(rng.integers(1, 80))
            a0 = int(rng.integers(1, 80))
            b1 = float(rng.uniform(0.05, 30.0))
            b0 = float(rng.uniform(0.05, 30.0))
            closed = gamma_superiority_vec(a1, b1, a0, b0)
            assert abs(closed - quadrature_gamma_superiority(a1, b1, a0, b0)) < 1e-8

    def test_non_integer_shape_matches_quadrature(self):
        prior = GammaPrior(1.5, 1.0)
        p = superiority_probability(
            ArmPosterior(2, 1.0), ArmPosterior(2, 2.0), prior
        )
        oracle = quadrature_gamma_superiority(3.5, 2.0, 3.5, 3.0)
        assert abs(p - oracle) < 1e-8

    def test_scale_invariance_with_scaled_prior_rate(self):
        # rescaling time rescales the prior rate too; only the ratio of the
        # posterior rates matters, and power-of-two scalings are exact in
        # floating point
        base = superiority_probability(
            ArmPosterior(7, 3.25), ArmPosterior(9, 11.5), GammaPrior(1.0, 0.001)
        )
        for k in (2.0, 8.0, 0.25):
            scaled = superiority_probability(
                ArmPosterior(7, 3.25 * k), ArmPosterior(9, 11.5 * k), GammaPrior(1.0, 0.001 * k)
            )
            assert scaled == base

    def test_overflowed_totals_raise(self):
        with pytest.raises(NumericalError, match="not finite"):
            superiority_probability(
                ArmPosterior(3, math.inf), ArmPosterior(3, math.inf), GammaPrior(1.0, 0.001)
            )

    def test_scale_near_invariance_proper_prior(self):
        prior = GammaPrior(1.0, 0.001)
        base = superiority_probability(ArmPosterior(5, 4.0), ArmPosterior(5, 6.0), prior)
        scaled = superiority_probability(
            ArmPosterior(5, 4.0 * 3.7), ArmPosterior(5, 6.0 * 3.7), prior
        )
        assert abs(scaled - base) < 1e-4


class TestBetaSuperiority:
    def test_beta21_vs_beta12(self):
        # P(p1 > p0), p1 ~ Beta(2,1), p0 ~ Beta(1,2): 2D integral of
        # 2x * 2(1-y) over {x > y} = 5/6.
        assert abs(beta_superiority_closed(2, 1, 1, 2) - 5.0 / 6.0) < 1e-14

    def test_beta21_vs_beta12_two_dimensional_oracle(self):
        inner = lambda x: integrate.quad(lambda y: 2.0 * (1.0 - y), 0.0, x)[0]
        val, _ = integrate.quad(lambda x: 2.0 * x * inner(x), 0.0, 1.0)
        assert abs(val - 5.0 / 6.0) < 1e-10

    def test_closed_form_matches_quadrature_on_grid(self, rng):
        for _ in range(120):
            a1 = int(rng.integers(1, 60))
            b1 = int(rng.integers(1, 60))
            a0 = int(rng.integers(1, 60))
            b0 = int(rng.integers(1, 60))
            closed = beta_superiority_closed(a1, b1, a0, b0)
            assert abs(closed - quadrature_beta_superiority(a1, b1, a0, b0)) < 1e-8

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_quadrature_oracle_refuses_unbounded_densities(self):
        # exactly 1/2 by symmetry, but a parameter below 1 leaves quad 1.4e-10 off
        # at the oracle's tolerances (estimate 1.4e-10), 4.4e-10 at quad's defaults
        with pytest.raises(ValueError, match="error estimate"):
            quadrature_beta_superiority(0.5, 0.25, 0.5, 0.25)

    def test_variant_selection_consistency(self):
        # the four summation routes must agree wherever several apply
        cases = [(3, 7, 11, 2), (40, 3, 2, 50), (1, 1, 1, 1), (25, 24, 23, 22)]
        for a1, b1, a0, b0 in cases:
            direct = beta_superiority_closed(a1, b1, a0, b0)
            swapped = 1.0 - beta_superiority_closed(a0, b0, a1, b1)
            mirrored = beta_superiority_closed(b0, a0, b1, a1)
            assert abs(direct - swapped) < 1e-12
            assert abs(direct - mirrored) < 1e-12

    # the term-ratio sum reads 0.6127929687500002 and 0.5000000230772002 under
    # Beta(1, 1), and 0.62304687 under Jeffreys' prior, where a trial carry
    # that rounds 2.5 successes to 2 whole steps read 0.61711085
    @pytest.mark.parametrize(
        "prior, total",
        [(BetaPrior(1.0, 1.0), 2.5), (BetaPrior(1.0, 1.0), 2.0000001), (BetaPrior(0.5, 0.5), 2.5)],
    )
    def test_non_whole_success_count_steps_a_carry(self, monkeypatch, prior, total):
        # ArmPosterior does not check that a success count is whole.  Cast to
        # integers, (3.0000001, 3.9999999) against (3, 4) reads 0.6082, not
        # 0.5000000231, so such a posterior must take a carry that reaches it.
        def whole_only(*params):
            raise AssertionError(f"the exact sum was given {params}")

        monkeypatch.setattr(models, "beta_superiority_scalar", whole_only)
        exp, ctrl = ArmPosterior(5, total), ArmPosterior(5, 2.0)
        params = (*beta_posterior(prior, exp), *beta_posterior(prior, ctrl))
        p = superiority_probability(exp, ctrl, prior, carry=trial_beta_carry(prior))
        assert abs(p - beta_superiority_closed(*params)) < 1e-12

    @pytest.mark.parametrize("prior", [BetaPrior(1.0, 1.0), BetaPrior(0.5, 0.5)])
    def test_non_whole_success_counts_that_no_carry_reaches_raise(self, prior):
        # no parameter is integral, and whole steps from the prior reach none
        exp, ctrl = ArmPosterior(5, 2.3), ArmPosterior(5, 2.7)
        with pytest.raises(DataError, match="whole"):
            superiority_probability(exp, ctrl, prior, carry=trial_beta_carry(prior))

    @pytest.mark.parametrize(
        "prior, integral",
        [(BetaPrior(1.0, 2.0), True), (BetaPrior(1.0, 0.5), False), (BetaPrior(0.5, 0.5), False)],
    )
    def test_a_trial_carries_unless_both_prior_parameters_are_whole(self, prior, integral):
        # the engine reads the same property
        assert prior.integral is integral
        assert (trial_beta_carry(prior) is None) is integral

    def test_symmetric_posteriors_give_exactly_half(self):
        # P(X1 > X0) = 1/2 exactly for identical posteriors and for two
        # posteriors each symmetric about 1/2 (a1 == b1, a0 == b0).  The sums
        # land within ~1e-13 either side, which would let rounding decide a
        # strict pi > 0.5 indicator.
        a, b = (g.ravel() for g in np.meshgrid(np.arange(1, 61), np.arange(1, 61)))
        table = special.gammaln(np.arange(256, dtype=np.float64))
        assert np.all(beta_superiority_vec(a, b, a, b, table) == 0.5)
        assert np.all(beta_superiority_vec(a, a, b, b, table) == 0.5)
        prior = BetaPrior(1.0, 1.0)
        for n in range(0, 60, 3):
            for s in range(0, n + 1, 2):
                arm = ArmPosterior(n, float(s))
                assert superiority_probability(arm, arm, prior) == 0.5
                balanced = ArmPosterior(2 * s, float(s))
                other = ArmPosterior(2 * n, float(n))
                assert superiority_probability(balanced, other, prior) == 0.5
        jeffreys = ArmPosterior(9, 4.0)
        assert superiority_probability(jeffreys, jeffreys, BetaPrior(0.5, 0.5)) == 0.5
        assert superiority_probability(
            ArmPosterior(8, 4.0), ArmPosterior(2, 1.0), BetaPrior(0.5, 0.5)
        ) == 0.5

    def test_overwhelming_evidence(self):
        prior = BetaPrior(1.0, 1.0)
        p = superiority_probability(
            ArmPosterior(50, 50.0), ArmPosterior(50, 0.0), prior
        )
        assert p > 0.999


class TestNormalSuperiority:
    def test_closed_form_is_gaussian_tail(self):
        prior = NormalPrior(0.0, 1e6)
        sds = (1.0, 1.0)
        p = superiority_probability(
            ArmPosterior(4, 6.0), ArmPosterior(4, 2.0), prior, sds=sds
        )
        # posterior is essentially N(mean, sd^2/n) per arm under the vague prior
        v = 1.0 / (1e-6 + 4.0)
        m1 = v * 6.0
        m0 = v * 2.0
        oracle = stats.norm.cdf((m1 - m0) / math.sqrt(2 * v))
        assert abs(p - oracle) < 1e-12

    def test_sds_required(self):
        with pytest.raises(ConfigError):
            superiority_probability(
                ArmPosterior(1, 1.0), ArmPosterior(1, 0.0), NormalPrior(0.0, 1.0)
            )


class TestSuperiorityProperties:
    def test_symmetry(self, rng):
        prior = GammaPrior(1.0, 0.001)
        for _ in range(50):
            a = ArmPosterior(int(rng.integers(0, 40)), float(rng.uniform(0, 30)))
            b = ArmPosterior(int(rng.integers(0, 40)), float(rng.uniform(0, 30)))
            p_ab = superiority_probability(a, b, prior)
            p_ba = superiority_probability(b, a, prior)
            assert abs(p_ab + p_ba - 1.0) < 1e-12

    def test_direction_flip(self, rng):
        prior = BetaPrior(1.0, 1.0)
        for _ in range(50):
            n1, n0 = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            a = ArmPosterior(n1, float(rng.integers(0, n1 + 1)))
            b = ArmPosterior(n0, float(rng.integers(0, n0 + 1)))
            larger = superiority_probability(a, b, prior, "larger")
            smaller = superiority_probability(a, b, prior, "smaller")
            assert abs(larger + smaller - 1.0) < 1e-15

    def test_monotone_in_evidence(self):
        prior = BetaPrior(1.0, 1.0)
        ctrl = ArmPosterior(20, 10.0)
        previous = -1.0
        for successes in range(0, 21):
            p = superiority_probability(ArmPosterior(20, float(successes)), ctrl, prior)
            assert p > previous
            previous = p

    def test_value_strictly_inside_unit_interval(self):
        prior = BetaPrior(1.0, 1.0)
        p = superiority_probability(ArmPosterior(500, 500.0), ArmPosterior(500, 0.0), prior)
        assert 0.0 < p < 1.0
