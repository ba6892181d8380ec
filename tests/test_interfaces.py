"""Remaining public surfaces: allocation probabilities, export headers,
mirror symmetry, and the runtime scaling sanity check."""

import math
import time

import pytest

from aptest.allocation import DesignConfig, simulate_trial
from aptest.calibration import NullSpec, calibrate
from aptest.engine import derive_rng, simulate_batch
from aptest.harness import ScenarioSpec, TestEntry, export_critical_values, run_scenario
from aptest.models import (
    ArmPosterior,
    BetaPrior,
    Exponential,
    GammaPrior,
    NormalKnownVar,
    NormalPrior,
    OutcomeModel,
    superiority_probability,
)
from aptest.stats import (
    lastblock_ap_test,
    lr_exponential,
    lr_exponential_from_counts,
    z_test_normal,
)

PRIOR = GammaPrior(1.0, 0.001)


class TestBrarProbability:
    def test_no_data_gives_half(self):
        p = superiority_probability(ArmPosterior(0, 0.0), ArmPosterior(0, 0.0), PRIOR)
        assert p == 0.5

    def test_overwhelming_evidence(self):
        p = superiority_probability(
            ArmPosterior(50, 50.0), ArmPosterior(50, 0.0), BetaPrior(1.0, 1.0)
        )
        assert p > 0.999

    def test_swapping_arms_mirrors(self):
        a = ArmPosterior(12, 9.0)
        b = ArmPosterior(15, 20.5)
        p = superiority_probability(a, b, PRIOR)
        q = superiority_probability(b, a, PRIOR)
        assert abs(p + q - 1.0) < 1e-12


class TestTrajectoryLevelTests:
    def test_lr_exponential_on_trajectory(self):
        design = DesignConfig(30, 6, 2, 12)
        model = OutcomeModel(Exponential(1.0, 1.7))
        traj = simulate_trial(design, model, PRIOR, derive_rng(4))
        result = lr_exponential(traj)
        post = traj.final_posteriors
        stat, _ = lr_exponential_from_counts(
            post.experimental.n, post.experimental.total,
            post.control.n, post.control.total,
        )
        assert result.statistic == float(stat)
        assert not result.degenerate
        # one-sided p is the upper normal tail of the signed root
        from scipy.special import ndtr

        assert result.p_value == pytest.approx(float(ndtr(-result.statistic)))

    def test_z_test_on_trajectory(self):
        design = DesignConfig(30, 6, 2, 12)
        model = OutcomeModel(NormalKnownVar(0.0, 0.5, 1.0, 2.0))
        traj = simulate_trial(design, model, NormalPrior(0.0, 1e6), derive_rng(4))
        result = z_test_normal(traj, sd0=1.0, sd1=2.0)
        post = traj.final_posteriors
        mean1 = post.experimental.total / post.experimental.n
        mean0 = post.control.total / post.control.n
        se = math.sqrt(4.0 / post.experimental.n + 1.0 / post.control.n)
        assert result.statistic == pytest.approx((mean1 - mean0) / se)
        assert 0.0 < result.p_value < 1.0


class TestMirrorSymmetry:
    def test_swapped_arm_labels_mirror_the_probability_path(self):
        """Label swap flips the trajectory distribution: the final allocation
        probability under (1, 2) mirrors the one under (2, 1)."""
        design = DesignConfig(40, 10, 2, 15)
        reps = 20000
        fwd = simulate_batch(
            design, OutcomeModel(Exponential(1.0, 2.0)), PRIOR,
            (lastblock_ap_test(),), reps, seed=61, stream=(1,),
        )
        rev = simulate_batch(
            design, OutcomeModel(Exponential(2.0, 1.0)), PRIOR,
            (lastblock_ap_test(),), reps, seed=62, stream=(1,),
        )
        m_fwd = fwd.statistics["lastblock"].mean()
        m_rev = rev.statistics["lastblock"].mean()
        se = fwd.statistics["lastblock"].std() / math.sqrt(reps)
        assert abs(m_fwd - (1.0 - m_rev)) < 6 * se
        n_fwd = fwd.n_experimental.mean()
        n_rev = rev.n_experimental.mean()
        assert abs((n_fwd + n_rev) - design.total_n) < 6 * se * design.total_n


class TestDumps:
    def test_critical_value_export_header(self, tmp_path):
        design = DesignConfig(20, 6, 2, 7)
        null = NullSpec(
            design, OutcomeModel(Exponential(1.0, 1.0)), PRIOR, replicates=2000, seed=3
        )
        cvs = calibrate(null, (lastblock_ap_test(),), 0.05)
        path = tmp_path / "cv.tsv"
        export_critical_values(path, cvs, replicates=2000, seed=3, null_description="exp(1,1)")
        lines = path.read_text().splitlines()
        assert lines[0].split("\t") == [
            "test", "alpha", "q_alpha", "achieved_alpha", "degenerate_max",
            "replicates", "seed", "null_model",
        ]
        row = lines[1].split("\t")
        assert row[0] == "lastblock"
        assert row[5] == "2000" and row[6] == "3" and row[7] == "exp(1,1)"


class TestRuntimeScaling:
    def test_replicates_scale_runtime_roughly_linearly(self):
        """Doubling evaluation replicates should roughly double the
        evaluation cost; generous bounds keep this robust on busy machines."""
        design = DesignConfig(100, 10, 1, 90)
        model = OutcomeModel(Exponential(1.0, 1.0))

        def timed(reps):
            start = time.perf_counter()
            simulate_batch(design, model, PRIOR, (lastblock_ap_test(),), reps, seed=9)
            return time.perf_counter() - start

        timed(4000)  # warm-up
        t1 = min(timed(8000) for _ in range(3))
        t2 = min(timed(16000) for _ in range(3))
        assert 1.2 < t2 / t1 < 4.0


class TestScenarioWithRunIn:
    def test_higher_t_min_is_respected_end_to_end(self):
        from aptest.stats import timedirect_ap_test

        spec = ScenarioSpec(
            name="run-in",
            design=DesignConfig(30, 6, 2, 12),
            prior=PRIOR,
            null_model=OutcomeModel(Exponential(1.0, 1.0)),
            alternative_models=(OutcomeModel(Exponential(1.0, 2.0)),),
            tests=(
                TestEntry(timedirect_ap_test(t_min=13, name="td-late")),
                TestEntry(lastblock_ap_test()),
            ),
            alpha=0.05,
            replicates_eval=3000,
            replicates_calib=10000,
            seed=5,
        )
        report = run_scenario(spec)
        # with t_min = T + 1 the timedirect statistic collapses to
        # (T+1) * lastblock, so the two tests must agree decision-for-decision
        assert report.rejection_rate(
            "exponential(1,2)", "td-late"
        ) == report.rejection_rate("exponential(1,2)", "lastblock")
