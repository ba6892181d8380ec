"""Critical-value selection, degenerate-threshold handling, pooled calibration."""

import numpy as np
import pytest

from aptest.allocation import DesignConfig, simulate_trial
from aptest.calibration import (
    CriticalValue,
    NullDistribution,
    NullSpec,
    calibrate,
    calibrate_under_pooled,
    critical_value,
    pooled_null_model,
    simulate_null_distribution,
)
from aptest.engine import derive_rng, simulate_batch
from aptest.errors import ConfigError
from aptest.models import (
    Bernoulli,
    BetaPrior,
    Exponential,
    GammaPrior,
    NormalKnownVar,
    NormalPrior,
    OutcomeModel,
)
from aptest.stats import ComparatorTest, lastblock_ap_test, original_ap_test, timedirect_ap_test

PRIOR = GammaPrior(1.0, 0.001)
NULL_MODEL = OutcomeModel(Exponential(1.0, 1.0))


def dist(values, name="t"):
    arr = np.sort(np.asarray(values, dtype=float))
    return NullDistribution(name, arr)


class TestCriticalValue:
    def test_discrete_uniform_forces_maximum(self):
        # uniform on {0..4}: P(stat > 3) = 0.2 > 0.05, so only q = 4 works
        samples = np.repeat(np.arange(5.0), 1000)
        cv = critical_value(dist(samples), 0.05)
        assert cv.q_alpha == 4.0
        assert cv.achieved_alpha == 0.0
        assert cv.degenerate_max

    def test_continuous_uniform_hits_upper_quantile(self, rng):
        samples = rng.random(10**6)
        cv = critical_value(dist(samples), 0.05)
        assert abs(cv.q_alpha - 0.95) < 0.001
        assert not cv.degenerate_max
        assert 0.05 - 1e-5 <= cv.achieved_alpha <= 0.05

    def test_threshold_monotone_in_alpha(self, rng):
        samples = rng.standard_normal(10**5)
        d = dist(samples)
        assert critical_value(d, 0.10).q_alpha <= critical_value(d, 0.05).q_alpha

    def test_achieved_never_exceeds_nominal(self, rng):
        for _ in range(20):
            samples = rng.integers(0, 6, 997).astype(float)
            cv = critical_value(dist(samples), float(rng.uniform(0.01, 0.3)))
            assert cv.achieved_alpha <= cv.alpha_nominal

    def test_permutation_invariance(self, rng):
        values = rng.standard_normal(5001)
        a = critical_value(dist(values), 0.05)
        b = critical_value(dist(rng.permutation(values)), 0.05)
        assert a == b

    def test_alpha_range_enforced(self):
        with pytest.raises(ConfigError):
            critical_value(dist([1.0, 2.0]), 0.0)

    def test_consistency_flag_on_construction(self):
        with pytest.raises(ConfigError):
            CriticalValue(1.0, 0.10, 0.05, False)


class TestNullSpec:
    def test_requires_equal_arms(self):
        design = DesignConfig(20, 10, 1, 10)
        with pytest.raises(ConfigError):
            NullSpec(design, OutcomeModel(Exponential(1.0, 1.2)), PRIOR)

    def test_null_distribution_is_deterministic(self):
        design = DesignConfig(20, 10, 1, 10)
        null = NullSpec(design, NULL_MODEL, PRIOR, replicates=4000, seed=5)
        tests = (lastblock_ap_test(),)
        a = simulate_null_distribution(null, tests)
        b = simulate_null_distribution(null, tests)
        assert np.array_equal(a["lastblock"].samples, b["lastblock"].samples)

    def test_lastblock_null_median_is_half(self):
        design = DesignConfig(30, 10, 2, 10)
        null = NullSpec(design, NULL_MODEL, PRIOR, replicates=10**5, seed=5)
        d = simulate_null_distribution(null, (lastblock_ap_test(),))
        assert abs(np.median(d["lastblock"].samples) - 0.5) < 0.01

    def test_original_samples_are_integers_in_range(self):
        design = DesignConfig(30, 10, 2, 10)
        null = NullSpec(design, NULL_MODEL, PRIOR, replicates=5000, seed=5)
        d = simulate_null_distribution(null, (original_ap_test(),))
        s = d["original"].samples
        assert np.array_equal(s, np.round(s))
        assert s.min() >= 0 and s.max() <= design.num_blocks + 1


class TestSelfConsistency:
    def test_fresh_seed_type_one_error_matches_achieved(self):
        design = DesignConfig(40, 10, 2, 15)
        null = NullSpec(design, NULL_MODEL, PRIOR, replicates=10**5, seed=31)
        cvs = calibrate(null, (lastblock_ap_test(), timedirect_ap_test()), 0.05)
        fresh = simulate_batch(
            design, NULL_MODEL, PRIOR,
            (lastblock_ap_test(), timedirect_ap_test()),
            2 * 10**4, seed=8675309,
        )
        for name, cv in cvs.items():
            rate = (fresh.statistics[name] > cv.q_alpha).mean()
            se = np.sqrt(cv.achieved_alpha * (1 - cv.achieved_alpha) / 2e4)
            assert abs(rate - cv.achieved_alpha) < 3.5 * se


class TestPooledCalibration:
    def make_trajectory(self, model, prior, design=None, seed=0):
        design = design or DesignConfig(40, 10, 2, 15)
        return simulate_trial(design, model, prior, derive_rng(seed)), design

    def test_pooled_exponential_rate(self):
        traj, _ = self.make_trajectory(OutcomeModel(Exponential(1.0, 2.0)), PRIOR)
        pooled = pooled_null_model(traj, OutcomeModel(Exponential(1.0, 2.0)))
        post = traj.final_posteriors
        expected = (post.control.n + post.experimental.n) / (
            post.control.total + post.experimental.total
        )
        assert pooled.param_control == pooled.param_experimental == expected

    def test_pooled_normal_mean_keeps_both_sds(self):
        model = OutcomeModel(NormalKnownVar(0.0, 0.5, 1.0, 1.5), "smaller")
        traj, _ = self.make_trajectory(model, NormalPrior(0.0, 100.0))
        pooled = pooled_null_model(traj, model)
        post = traj.final_posteriors
        mean = (post.control.total + post.experimental.total) / (
            post.control.n + post.experimental.n
        )
        assert pooled == OutcomeModel(NormalKnownVar(mean, mean, 1.0, 1.5), "smaller")

    def test_pooled_binary_boundary_correction(self):
        model = OutcomeModel(Bernoulli(1 - 1e-12, 1 - 1e-12))
        prior = BetaPrior(1.0, 1.0)
        traj, _ = self.make_trajectory(model, prior)
        pooled = pooled_null_model(traj, model)
        n = traj.final_posteriors.control.n + traj.final_posteriors.experimental.n
        assert pooled.param_control == pytest.approx((n + 0.5) / (n + 1.0))

    def test_pooled_calibration_end_to_end(self):
        model = OutcomeModel(Exponential(1.0, 1.7))
        traj, design = self.make_trajectory(model, PRIOR, seed=3)
        cvs = calibrate_under_pooled(
            traj, design, model, PRIOR,
            (lastblock_ap_test(), ComparatorTest("lr", "lr")),
            alpha=0.05, replicates=20000, seed=17,
        )
        assert set(cvs) == {"lastblock", "lr"}
        assert not cvs["lastblock"].degenerate_max
        assert 0.5 < cvs["lastblock"].q_alpha < 1.0

    def test_exponential_pooled_critical_values_scale_free(self):
        """AP critical values barely move across pooled-rate magnitudes."""
        design = DesignConfig(40, 10, 2, 15)
        cvs = {}
        for rate in (1.0, 10.0):
            null = NullSpec(
                design, OutcomeModel(Exponential(rate, rate)), PRIOR,
                replicates=5 * 10**4, seed=23,
            )
            cvs[rate] = calibrate(null, (lastblock_ap_test(),), 0.05)
        assert abs(cvs[1.0]["lastblock"].q_alpha - cvs[10.0]["lastblock"].q_alpha) < 0.01

    def test_binary_pooled_critical_values_are_sensitive(self):
        """Binary nulls at different response rates calibrate differently."""
        design = DesignConfig(40, 10, 2, 15)
        prior = BetaPrior(1.0, 1.0)
        cvs = {}
        for p in (0.5, 0.9):
            null = NullSpec(
                design, OutcomeModel(Bernoulli(p, p)), prior,
                replicates=5 * 10**4, seed=23,
            )
            cvs[p] = calibrate(null, (lastblock_ap_test(),), 0.05)
        assert abs(cvs[0.5]["lastblock"].q_alpha - cvs[0.9]["lastblock"].q_alpha) > 0.005
