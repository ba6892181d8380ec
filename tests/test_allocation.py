"""Trial simulation: design invariants, probability paths, randomization."""

import numpy as np
import pytest

from aptest import models
from aptest.allocation import (
    DesignConfig,
    EqualRandomization,
    StandardBRAR,
    TunedBRAR,
    simulate_trial,
    tune_probability,
)
from aptest.engine import derive_rng, simulate_batch
from aptest.errors import ConfigError, NumericalError
from aptest.models import (
    Bernoulli,
    BetaPrior,
    Exponential,
    GammaPrior,
    NormalKnownVar,
    NormalPrior,
    OutcomeModel,
    initial_posterior,
    oriented_probability,
    superiority_probability,
    trial_beta_carry,
    update_posterior,
)

PRIOR = GammaPrior(1.0, 0.001)
MODEL_NULL = OutcomeModel(Exponential(1.0, 1.0))
MODEL_EFFECT = OutcomeModel(Exponential(1.0, 2.0))


class TestDesignConfig:
    def test_accounting_identity_enforced(self):
        DesignConfig(100, 10, 1, 90)
        with pytest.raises(ConfigError):
            DesignConfig(100, 10, 1, 89)

    def test_burn_in_must_be_even_and_at_least_two(self):
        with pytest.raises(ConfigError):
            DesignConfig(100, 9, 1, 91)
        with pytest.raises(ConfigError):
            DesignConfig(100, 0, 1, 100)


class TestTuneProbability:
    def test_half_is_fixed_point(self):
        for t, T in ((1, 90), (13, 45), (46, 45)):
            assert tune_probability(0.5, t, T) == 0.5

    def test_identity_at_final_block(self):
        # 0.1 + 0.9 * T / T rounds away from 1.0 for T = 9, 13 and 109
        for T in (9, 13, 45, 109):
            for pi in (0.123, 0.5, 0.987):
                assert tune_probability(pi, T, T) == pi

    def test_early_blocks_shrink_toward_half(self):
        # c = 0.1 at t/T -> 0: output = 0.9^0.1 / (0.9^0.1 + 0.1^0.1)
        c = 0.1
        expected = 0.9**c / (0.9**c + 0.1**c)
        got = tune_probability(0.9, 1, 10**9)
        assert abs(got - expected) < 1e-9
        assert 0.5 < got < 0.9

    def test_never_more_aggressive_than_input(self, rng):
        for _ in range(200):
            pi = float(rng.uniform(0.001, 0.999))
            t = int(rng.integers(1, 45))
            tuned = tune_probability(pi, t, 45)
            assert abs(tuned - 0.5) <= abs(pi - 0.5) + 1e-15

    def test_preserves_side_of_half(self, rng):
        for _ in range(100):
            pi = float(rng.uniform(0.001, 0.999))
            tuned = tune_probability(pi, 3, 20)
            assert (tuned > 0.5) == (pi > 0.5) or pi == 0.5


class TestFloatBranches:
    """A trial's float must give the same bits as a one-element array."""

    def test_float_equals_one_element_array(self):
        floor = models.PROB_FLOOR
        edges = [floor, 1e-12, 0.3, 0.5, 0.7, 1.0 - 1e-12, 1.0 - floor]
        values = edges + np.random.default_rng(14).uniform(size=50).tolist()
        T = 45
        for pi in values:
            for direction in (models.LARGER, models.SMALLER):
                scalar = oriented_probability(pi, direction)
                array = oriented_probability(np.array([pi]), direction)
                assert isinstance(scalar, float)
                assert np.array([scalar]).tobytes() == array.tobytes()
                for t in range(1, T + 1):
                    tuned = tune_probability(scalar, t, T)
                    assert isinstance(tuned, float)
                    assert np.array([tuned]).tobytes() == tune_probability(array, t, T).tobytes()


REPLAY_CASES = {
    "exponential": (OutcomeModel(Exponential(1.0, 1.5)), GammaPrior(1.0, 0.001)),
    "bernoulli": (OutcomeModel(Bernoulli(0.4, 0.6)), BetaPrior(1.0, 1.0)),
    "bernoulli-jeffreys": (OutcomeModel(Bernoulli(0.4, 0.6), "smaller"), BetaPrior(0.5, 0.5)),
    "normal": (OutcomeModel(NormalKnownVar(0.0, 0.5, 1.0, 1.5), "smaller"), NormalPrior(0.0, 100.0)),
}


def small_design(kind=StandardBRAR()):
    return DesignConfig(30, 6, 2, 12, design=kind)


class TestSimulateTrial:
    def test_burn_in_only_boundary(self):
        design = DesignConfig(10, 10, 1, 0)
        traj = simulate_trial(design, MODEL_NULL, PRIOR, derive_rng(1))
        assert traj.alloc_probs.shape == (1,)
        assert len(traj.allocations) == 1
        assert traj.allocations[0].size == 10

    def test_non_finite_probability_raises(self):
        # each outcome near 1e308 is finite, but both burn-in arm totals
        # overflow to inf, so the posterior means differ by inf - inf
        model = OutcomeModel(NormalKnownVar(1.0e308, 1.0e308, 1.0, 1.0))
        with pytest.raises(NumericalError, match="not finite"):
            simulate_trial(small_design(), model, NormalPrior(0.0, 1.0), derive_rng(4))

    def test_overflowing_draw_is_numerical_not_data(self):
        # 1 / 1e-310 overflows, so the model itself draws inf; user data with
        # an inf outcome stays a DataError (test_models)
        model = OutcomeModel(Exponential(1.0e-310, 2.0e-310))
        with pytest.raises(NumericalError, match="drawn from the exponential model"):
            simulate_trial(small_design(), model, PRIOR, derive_rng(4))

    def test_probability_path_length_and_range(self):
        traj = simulate_trial(small_design(), MODEL_EFFECT, PRIOR, derive_rng(2))
        assert traj.alloc_probs.shape == (13,)
        assert np.all((traj.alloc_probs > 0) & (traj.alloc_probs < 1))

    def test_burn_in_exactly_balanced(self):
        for seed in range(5):
            traj = simulate_trial(small_design(), MODEL_NULL, PRIOR, derive_rng(seed))
            assert traj.allocations[0].sum() == 3

    def test_deterministic_given_seed(self):
        a = simulate_trial(small_design(), MODEL_EFFECT, PRIOR, derive_rng(7))
        b = simulate_trial(small_design(), MODEL_EFFECT, PRIOR, derive_rng(7))
        assert np.array_equal(a.alloc_probs, b.alloc_probs)
        for x, y in zip(a.outcomes, b.outcomes):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    @pytest.mark.parametrize("kind", [StandardBRAR(), TunedBRAR(), EqualRandomization()],
                             ids=["standard", "tuned", "er"])
    @pytest.mark.parametrize("block_size", [1, 3])
    def test_no_look_ahead(self, case, kind, block_size):
        """Replaying the records one validated update_posterior per subject
        reproduces every pi_t and the final posteriors bit for bit."""
        model, prior = REPLAY_CASES[case]
        design = DesignConfig(36, 6, block_size, 30 // block_size, design=kind)
        sds = None
        if isinstance(model.family, NormalKnownVar):
            sds = (model.family.sd_control, model.family.sd_experimental)
        T = design.num_blocks
        for seed in range(3):
            traj = simulate_trial(design, model, prior, derive_rng(seed, 14))
            state = initial_posterior(model.kind)
            carry = trial_beta_carry(prior)
            for t in range(T + 2):
                # state now holds blocks 0..t-1; compare before absorbing block t
                if t >= 1:
                    pi = superiority_probability(
                        state.experimental, state.control, prior,
                        model.better_direction, sds, carry,
                    )
                    if design.is_tuned and t <= T:
                        pi = tune_probability(pi, t, T)
                    assert np.float64(pi).tobytes() == traj.alloc_probs[t - 1].tobytes()
                if t <= T:
                    for arm, y in zip(traj.allocations[t], traj.outcomes[t]):
                        state = update_posterior(state, int(arm), float(y))
            assert state == traj.final_posteriors

    def test_tuned_path_never_more_extreme(self):
        """Same seed: the tuned trajectory's recorded probabilities stay
        closer to 0.5 than untuned values from the same posterior state."""
        design = small_design(TunedBRAR())
        traj = simulate_trial(design, MODEL_EFFECT, PRIOR, derive_rng(5))
        state = initial_posterior("exponential")
        for t in range(1, design.num_blocks + 1):
            # state holds blocks 0..t-1, the data block t was allocated on
            for arm, y in zip(traj.allocations[t - 1], traj.outcomes[t - 1]):
                state = update_posterior(state, int(arm), float(y))
            raw = superiority_probability(state.experimental, state.control, PRIOR)
            assert abs(traj.prob(t) - 0.5) <= abs(raw - 0.5) + 1e-15

    def test_hypothetical_block_untuned_for_tuned_design(self):
        design = small_design(TunedBRAR())
        traj = simulate_trial(design, MODEL_EFFECT, PRIOR, derive_rng(5))
        state = traj.final_posteriors
        raw = superiority_probability(state.experimental, state.control, PRIOR)
        assert traj.prob(design.num_blocks + 1) == raw

    @pytest.mark.parametrize(
        "design, counts",
        [
            (small_design(EqualRandomization()), {15}),
            (DesignConfig(31, 6, 1, 25, design=EqualRandomization()), {15, 16}),
        ],
    )
    def test_er_balances_all_subjects_and_records_probs(self, design, counts):
        # the engine's rule: N // 2 per arm, one fair coin for odd N
        for seed in range(10):
            traj = simulate_trial(design, MODEL_EFFECT, PRIOR, derive_rng(seed))
            assert traj.n_by_arm[1] in counts
            assert sum(block.size for block in traj.allocations) == design.total_n
            assert np.all((traj.alloc_probs > 0) & (traj.alloc_probs < 1))

    def test_er_odd_subject_is_fair_coin(self):
        design = DesignConfig(5, 2, 1, 3, design=EqualRandomization())
        trials = 2000
        extra = np.array(
            [simulate_trial(design, MODEL_NULL, PRIOR, derive_rng(5, i)).n_by_arm[1] == 3
             for i in range(trials)]
        )
        assert abs(extra.mean() - 0.5) < 5 * np.sqrt(0.25 / trials)

    def test_bernoulli_trial_runs(self):
        design = small_design()
        model = OutcomeModel(Bernoulli(0.3, 0.6))
        traj = simulate_trial(design, model, BetaPrior(1, 1), derive_rng(9))
        assert traj.final_posteriors.kind == "bernoulli"
        n0, n1 = traj.n_by_arm
        assert n0 + n1 == 30

    def test_real_beta_prior_trial_steps_once_per_subject(self, monkeypatch):
        # no finite sum exists under a Jeffreys prior: one carry crosses the
        # whole trial, symmetric posteriors included, so the unit steps of
        # the recurrence add up to at most one per subject
        step = models._beta_sup_step
        steps = []

        def counted(carry, targets):
            steps.append(sum(int(np.rint(t - p).sum()) for t, p in zip(targets, carry.params)))
            return step(carry, targets)

        monkeypatch.setattr(models, "_beta_sup_step", counted)
        design = DesignConfig(121, 12, 1, 109)
        model = OutcomeModel(Bernoulli(0.55, 0.7))
        simulate_trial(design, model, BetaPrior(0.5, 0.5), derive_rng(4))
        assert sum(steps) <= design.total_n
        assert len(steps) == design.num_blocks + 1


class TestStatisticalBehavior:
    def test_symmetric_null_final_probability_centered(self):
        batch = simulate_batch(
            DesignConfig(40, 10, 1, 30),
            MODEL_NULL,
            PRIOR,
            (),
            replicates=10**5,
            seed=71,
        )
        # use the engine's patient totals; the final probability path is
        # exercised separately, so check the allocation symmetry instead
        frac = batch.n_experimental / 40.0
        assert abs(frac.mean() - 0.5) < 0.005

    def test_phase2_benefit_reproduces_published_table(self):
        model = OutcomeModel(Exponential(1.0, 1.5))
        batch = simulate_batch(
            DesignConfig(100, 10, 1, 90), model, PRIOR, (), 10**4, seed=13
        )
        pct = 100.0 * (batch.n_experimental / 100.0).mean()
        assert abs(pct - 79.0) < 2.0

    def test_allocation_concentrates_with_sample_size(self):
        medians = []
        for n in (50, 100, 200):
            design = DesignConfig(n, 10, 1, n - 10)
            batch = simulate_batch(design, MODEL_EFFECT, PRIOR, (), 4000, seed=17)
            medians.append(np.median(batch.n_experimental / n))
        assert medians[0] < medians[1] < medians[2]
