"""AP statistics and the frequentist comparator tests."""

import math
from itertools import product

import numpy as np
import pytest
from scipy import special

from aptest.allocation import DesignConfig
from aptest.engine import simulate_batch
from aptest.errors import ConfigError, DataError
from aptest.harness import ScenarioSpec, TestEntry, run_scenario
from aptest.models import Exponential, GammaPrior, OutcomeModel
from aptest.stats import (
    APTestSpec,
    ComparatorTest,
    CustomWeights,
    Identity,
    Indicator,
    ap_statistic_from_probs,
    fisher_exact_one_sided,
    lastblock_ap_test,
    lr_exponential_from_counts,
    nominal_critical_value,
    original_ap_test,
    timedirect_ap_test,
    z_statistic_from_counts,
)

PI = np.array([0.6, 0.7, 0.4, 0.8])  # T = 3 blocks plus the hypothetical one


class TestAPStatistic:
    def test_original_counts_blocks_above_half(self):
        assert ap_statistic_from_probs(PI, original_ap_test()) == 3.0

    def test_timedirect_weights_by_block_index(self):
        expected = 0.6 * 1 + 0.7 * 2 + 0.4 * 3 + 0.8 * 4
        assert abs(ap_statistic_from_probs(PI, timedirect_ap_test()) - expected) < 1e-15

    def test_lastblock_is_final_probability(self):
        assert ap_statistic_from_probs(PI, lastblock_ap_test()) == 0.8

    def test_custom_unit_weight_equals_lastblock(self):
        spec = APTestSpec("unit-last", Identity(), CustomWeights((0.0, 0.0, 0.0, 1.0)))
        assert ap_statistic_from_probs(PI, spec) == ap_statistic_from_probs(
            PI, lastblock_ap_test()
        )

    def test_tmin_trims_early_blocks(self):
        spec = original_ap_test(t_min=3)
        assert ap_statistic_from_probs(PI, spec) == 1.0  # only 0.4, 0.8 counted

    def test_weight_length_mismatch_rejected(self):
        spec = APTestSpec("bad", Identity(), CustomWeights((1.0, 2.0)))
        with pytest.raises(ConfigError):
            ap_statistic_from_probs(PI, spec)

    def test_linearity_in_weights(self, rng):
        wa = tuple(rng.uniform(0, 2, 4))
        wb = tuple(rng.uniform(0, 2, 4))
        wsum = tuple(a + b for a, b in zip(wa, wb))
        sa = ap_statistic_from_probs(PI, APTestSpec("a", Identity(), CustomWeights(wa)))
        sb = ap_statistic_from_probs(PI, APTestSpec("b", Identity(), CustomWeights(wb)))
        ssum = ap_statistic_from_probs(
            PI, APTestSpec("ab", Identity(), CustomWeights(wsum))
        )
        assert abs(ssum - (sa + sb)) < 1e-12

    def test_original_integer_range(self, rng):
        for _ in range(50):
            T = int(rng.integers(1, 12))
            probs = rng.uniform(0.001, 0.999, T + 1)
            t_min = int(rng.integers(1, T + 2))
            s = ap_statistic_from_probs(probs, original_ap_test(t_min=t_min))
            assert s == int(s)
            assert 0 <= s <= T + 2 - t_min

    def test_indicator_tie_handling(self):
        probs = np.array([0.5, 0.5, 0.7])
        strict = APTestSpec("s", Indicator(0.5, strict=True), CustomWeights((1.0,) * 3))
        loose = APTestSpec("l", Indicator(0.5, strict=False), CustomWeights((1.0,) * 3))
        assert ap_statistic_from_probs(probs, strict) == 1.0
        assert ap_statistic_from_probs(probs, loose) == 3.0

    def test_weight_scaling_preserves_decisions_end_to_end(self):
        """Scaling the weights scales statistic and critical value alike."""
        design = DesignConfig(24, 6, 2, 9)
        model = OutcomeModel(Exponential(1.0, 1.0))
        prior = GammaPrior(1.0, 0.001)
        base = APTestSpec("w1", Identity(), CustomWeights(tuple(range(1, 11))))
        scaled = APTestSpec("w4", Identity(), CustomWeights(tuple(4 * t for t in range(1, 11))))
        calib = simulate_batch(design, model, prior, (base, scaled), 20000, seed=3, stream=(1,))
        fresh = simulate_batch(design, model, prior, (base, scaled), 5000, seed=4, stream=(2,))
        for alpha in (0.05, 0.2):
            m = int(alpha * 20000)
            q1 = np.sort(calib.statistics["w1"])[20000 - m - 1]
            q4 = np.sort(calib.statistics["w4"])[20000 - m - 1]
            assert q4 == 4.0 * q1
            d1 = fresh.statistics["w1"] > q1
            d4 = fresh.statistics["w4"] > q4
            assert np.array_equal(d1, d4)


class TestLikelihoodRatio:
    def test_null_point_gives_zero(self):
        stat, degenerate = lr_exponential_from_counts(5, 10.0, 7, 14.0)
        assert stat == 0.0 and not degenerate

    def test_single_observation_case_against_direct_loglikelihood(self):
        # n0=n1=1, y0=2, y1=1: rates 1 and 0.5, pooled 2/3
        def loglik(lam, n, s):
            return n * math.log(lam) - lam * s

        full = loglik(1.0, 1, 1.0) + loglik(0.5, 1, 2.0)
        pooled = loglik(2.0 / 3.0, 1, 1.0) + loglik(2.0 / 3.0, 1, 2.0)
        deviance = 2.0 * (full - pooled)
        stat, _ = lr_exponential_from_counts(1, 1.0, 1, 2.0)
        assert deviance > 0
        assert abs(stat - math.sqrt(deviance)) < 1e-12
        assert stat > 0  # experimental rate is larger

    def test_degenerate_arm_flagged_not_raised(self):
        stat, degenerate = lr_exponential_from_counts(0, 0.0, 3, 2.0)
        assert degenerate and stat == -np.inf

    def test_null_rejection_rate_under_er(self):
        """Asymptotic 5% size check on a non-adaptive design."""
        from aptest.harness import equal_randomization_design

        design = equal_randomization_design(500)
        model = OutcomeModel(Exponential(1.0, 1.0))
        batch = simulate_batch(
            design, model, GammaPrior(1, 0.001), (ComparatorTest("lr", "lr"),),
            10**5, seed=29,
        )
        z = special.ndtri(0.95)
        rate = (batch.statistics["lr"] > z).mean()
        assert abs(rate - 0.05) < 0.005


class TestFisherExact:
    def test_extreme_table(self):
        # all successes on one arm: 1 / C(6,3) = 1/20
        assert abs(fisher_exact_one_sided(3, 3, 3, 0) - 0.05) < 1e-12

    def test_saturated_equal_table_gives_one(self):
        assert fisher_exact_one_sided(4, 4, 4, 4) == 1.0

    def test_enumeration_oracle_small_margins(self):
        """Exact agreement with direct hypergeometric enumeration, n <= 12."""
        for n1, n0 in product(range(1, 13), repeat=2):
            for s1 in range(0, n1 + 1, max(1, n1 // 3)):
                for s0 in range(0, n0 + 1, max(1, n0 // 3)):
                    total = s1 + s0
                    p_enum = 0.0
                    for k in range(s1, min(n1, total) + 1):
                        p_enum += (
                            math.comb(n1, k)
                            * math.comb(n0, total - k)
                            / math.comb(n1 + n0, total)
                            if 0 <= total - k <= n0
                            else 0.0
                        )
                    got = fisher_exact_one_sided(n1, s1, n0, s0)
                    assert abs(got - p_enum) < 1e-12

    def test_p_value_in_unit_interval(self, rng):
        for _ in range(100):
            n1, n0 = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            s1, s0 = int(rng.integers(0, n1 + 1)), int(rng.integers(0, n0 + 1))
            p = fisher_exact_one_sided(n1, s1, n0, s0)
            assert 0.0 < p <= 1.0

    def test_invalid_counts_rejected(self):
        # more successes than subjects, or counts that are not whole: 2.5 of
        # 10 read 0.7735
        for table in [(3, 4, 3, 0), (10, 2.5, 10, 3), (10.5, 2, 10, 3)]:
            with pytest.raises(DataError):
                fisher_exact_one_sided(*table)

    @pytest.mark.parametrize("s1", [40, 100, 700, 760, 1000, 1200])
    def test_large_lopsided_tables(self, s1):
        # 1500 per arm and 1500 successes: a tail summed upward from s1 = 40
        # would start at a term below 1e-308 and read 0, so tails start at
        # their largest term; p runs from 1 (to the last bit) down to 4e-253
        upper = sum(math.comb(1500, k) * math.comb(1500, 1500 - k) for k in range(s1, 1501))
        exact = upper / math.comb(3000, 1500)
        got = fisher_exact_one_sided(1500, s1, 1500, 1500 - s1)
        assert abs(got - exact) <= 1e-10 * exact


class TestZTest:
    def test_equal_means_give_zero(self):
        z, degenerate = z_statistic_from_counts(10, 5.0, 20, 10.0, 1.0, 2.0)
        assert z == 0.0 and not degenerate

    def test_unit_z_construction(self):
        n1, n0, sd1, sd0 = 8, 18, 1.5, 2.0
        se = math.sqrt(sd1**2 / n1 + sd0**2 / n0)
        z, _ = z_statistic_from_counts(n1, n1 * se, n0, 0.0, sd0, sd1)
        assert abs(z - 1.0) < 1e-12

    def test_empty_arm_flagged(self):
        z, degenerate = z_statistic_from_counts(0, 0.0, 5, 2.0, 1.0, 1.0)
        assert degenerate and z == -np.inf


class TestDecisions:
    def test_rejection_is_strictly_greater(self):
        # with t_min = T + 1 the original statistic is the single final-block
        # indicator and its nominal threshold is 0: a far worse experimental
        # arm ties the threshold in every replicate and never rejects, a far
        # better one exceeds it in every replicate and always rejects
        design = DesignConfig(30, 6, 2, 12)
        spec = ScenarioSpec(
            name="tie",
            design=design,
            prior=GammaPrior(1.0, 0.001),
            null_model=OutcomeModel(Exponential(1.0, 1.0)),
            alternative_models=(
                OutcomeModel(Exponential(1.0, 0.02)),
                OutcomeModel(Exponential(1.0, 50.0)),
            ),
            tests=(TestEntry(original_ap_test(t_min=design.num_blocks + 1), mode="nominal"),),
            alpha=0.05,
            replicates_eval=500,
            replicates_calib=1000,
            seed=5,
        )
        assert nominal_critical_value(spec.tests[0].spec, design.num_blocks, 0.05) == 0.0
        report = run_scenario(spec)
        assert report.rejection_rate("exponential(1,0.02)", "original") == 0.0
        assert report.rejection_rate("exponential(1,50)", "original") == 1.0

    def test_nominal_thresholds(self):
        assert nominal_critical_value(original_ap_test(), 45, 0.05) == 45.0
        assert nominal_critical_value(original_ap_test(t_min=3), 45, 0.05) == 43.0
        # the exact floats scipy.stats.norm.ppf gives, so reports keep their bytes
        for kind in ("lr", "z"):
            for two_sided, alpha, z in [
                (False, 0.05, 1.6448536269514722),
                (False, 0.10, 1.2815515655446004),
                (True, 0.05, 1.959963984540054),
                (True, 0.10, 1.6448536269514722),
            ]:
                spec = ComparatorTest(kind, kind, two_sided=two_sided)
                assert nominal_critical_value(spec, 45, alpha) == z
        assert nominal_critical_value(ComparatorTest("fisher", "f"), 45, 0.05) == -0.05
        with pytest.raises(ConfigError):
            nominal_critical_value(lastblock_ap_test(), 45, 0.05)

    def test_two_sided_fisher_rejected(self):
        with pytest.raises(ConfigError):
            ComparatorTest("fisher", "f", two_sided=True)
