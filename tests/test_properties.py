"""Properties of the superiority map shared by the scalar and batched paths.

Hypothesis draws posterior states for each family; the conftest profile
derandomizes the draws, so every run checks the same examples.
"""

from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from aptest import models
from aptest.engine import _PosteriorVec
from aptest.errors import ConfigError
from aptest.models import (
    ArmPosterior,
    Bernoulli,
    BetaCarry,
    BetaPrior,
    Exponential,
    GammaCarry,
    GammaPrior,
    NormalKnownVar,
    NormalPrior,
    OutcomeModel,
    beta_posterior,
    beta_prior_carry,
    beta_superiority_vec,
    gamma_superiority_vec,
    hypergeom_upper_tail_scalar,
    superiority_probability,
)
from aptest.stats import fisher_exact_one_sided, fisher_statistic_from_counts
from tests.beta_oracle import beta_superiority_closed
from tests.test_models import quadrature_beta_superiority, quadrature_gamma_superiority

directions = st.sampled_from(("larger", "smaller"))
gamma_priors = st.builds(GammaPrior, st.floats(0.3, 5.0), st.floats(0.001, 2.0))
beta_priors = st.builds(BetaPrior, st.integers(1, 3).map(float), st.integers(1, 3).map(float))
normal_priors = st.builds(NormalPrior, st.floats(-1.0, 1.0), st.floats(0.1, 100.0))
sd_pairs = st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0))
# arms a trial can have: no outcome sum without a subject, and a positive total time with one
time_arms = st.integers(0, 60).flatmap(
    lambda n: st.builds(ArmPosterior, st.just(n), st.floats(0.0, 50.0, exclude_min=True) if n else st.just(0.0))
)
response_arms = st.integers(0, 60).flatmap(
    lambda n: st.builds(ArmPosterior, st.just(n), st.floats(-50.0, 50.0) if n else st.just(0.0))
)


@st.composite
def count_arms(draw, max_n=60):
    n = draw(st.integers(0, max_n))
    return ArmPosterior(n, float(draw(st.integers(0, n))))


def engine_superiority(model, prior, pairs):
    """The batched engine's probabilities for (experimental, control) states."""
    max_n = max(max(exp.n, ctrl.n) for exp, ctrl in pairs)
    post = _PosteriorVec(model, prior, len(pairs), max_n)
    for i, (exp, ctrl) in enumerate(pairs):
        post.n1[i], post.s1[i] = exp
        post.n0[i], post.s0[i] = ctrl
    return post.superiority()


@given(gamma_priors, time_arms, time_arms)
def test_gamma_arm_swap(prior, a, b):
    p = superiority_probability(a, b, prior)
    assert abs(p + superiority_probability(b, a, prior) - 1.0) < 1e-12


@given(beta_priors, count_arms(), count_arms())
def test_beta_arm_swap(prior, a, b):
    p = superiority_probability(a, b, prior)
    assert abs(p + superiority_probability(b, a, prior) - 1.0) < 1e-12


@given(normal_priors, sd_pairs, response_arms, response_arms)
def test_normal_arm_swap(prior, sds, a, b):
    p = superiority_probability(a, b, prior, sds=sds)
    swapped = superiority_probability(b, a, prior, sds=sds[::-1])
    assert abs(p + swapped - 1.0) < 1e-12


@given(beta_priors, count_arms(), count_arms())
def test_beta_monotone_in_successes(prior, exp, ctrl):
    more = ArmPosterior(exp.n + 1, exp.total + 1.0)
    fewer = ArmPosterior(exp.n + 1, exp.total)
    assert superiority_probability(more, ctrl, prior) >= superiority_probability(
        fewer, ctrl, prior
    )


@given(gamma_priors, time_arms, time_arms, st.floats(0.0, 20.0))
def test_gamma_monotone_in_total_time(prior, exp, ctrl, extra):
    # a longer total time on the experimental arm means a lower rate estimate
    assume(exp.n > 0)  # an arm without subjects has no time to lengthen
    longer = ArmPosterior(exp.n, exp.total + extra)
    assert superiority_probability(longer, ctrl, prior) <= superiority_probability(
        exp, ctrl, prior
    )


@given(
    gamma_priors, directions, st.lists(st.tuples(time_arms, time_arms), min_size=1, max_size=20)
)
def test_gamma_scalar_equals_engine(prior, direction, pairs):
    model = OutcomeModel(Exponential(1.0, 1.0), direction)
    vec = engine_superiority(model, prior, pairs)
    for i, (exp, ctrl) in enumerate(pairs):
        assert vec[i] == superiority_probability(exp, ctrl, prior, direction)


@given(
    normal_priors,
    sd_pairs,
    directions,
    st.lists(st.tuples(response_arms, response_arms), min_size=1, max_size=20),
)
def test_normal_scalar_equals_engine(prior, sds, direction, pairs):
    model = OutcomeModel(NormalKnownVar(0.0, 0.0, *sds), direction)
    vec = engine_superiority(model, prior, pairs)
    for i, (exp, ctrl) in enumerate(pairs):
        assert vec[i] == superiority_probability(exp, ctrl, prior, direction, sds)


@given(
    beta_priors,
    directions,
    st.lists(st.tuples(count_arms(), count_arms()), min_size=1, max_size=20),
)
def test_beta_scalar_matches_engine(prior, direction, pairs):
    model = OutcomeModel(Bernoulli(0.5, 0.5), direction)
    vec = engine_superiority(model, prior, pairs)
    scalar = [superiority_probability(exp, ctrl, prior, direction) for exp, ctrl in pairs]
    assert np.max(np.abs(vec - scalar)) < 1e-11


@given(
    st.floats(0.3, 5.0).filter(lambda shape: shape != round(shape)),
    st.floats(0.05, 2.0),
    st.tuples(st.integers(0, 75), st.floats(0.0, 28.0)),
    st.tuples(st.integers(0, 75), st.floats(0.0, 28.0)),
)
def test_non_integer_gamma_shapes_match_quadrature(shape, rate, exp, ctrl):
    prior = GammaPrior(shape, rate)
    p = superiority_probability(ArmPosterior(*exp), ArmPosterior(*ctrl), prior)
    oracle = quadrature_gamma_superiority(
        shape + exp[0], rate + exp[1], shape + ctrl[0], rate + ctrl[1]
    )
    assert abs(p - oracle) < 1e-8


# ---------------------------------------------------------------------------
# The carried beta recurrence against the exact sum and exact rationals
# ---------------------------------------------------------------------------

BETA_TABLE = special.gammaln(np.arange(512, dtype=np.float64))


def exact_beta_superiority(a1: int, b1: int, a0: int, b0: int) -> Fraction:
    """P(X1 > X0) in exact rationals: the finite sum over i < a1."""

    def beta(x, y):
        return Fraction(factorial(x - 1) * factorial(y - 1), factorial(x + y - 1))

    base = beta(a0, b0)
    return sum(
        beta(a0 + i, b0 + b1) / ((b1 + i) * beta(1 + i, b1) * base) for i in range(a1)
    )


@given(
    st.tuples(*[st.integers(1, 60)] * 4),
    arrays(np.int64, st.tuples(st.just(4), st.integers(1, 12)), elements=st.integers(1, 120)),
    st.integers(0, 12),
)
def test_exact_beta_sum_is_a_function_of_each_state(state, neighbours, position):
    # The neighbours mix larger and smaller parameters in every slot, so no
    # choice made from the whole array could serve each element alike.
    a1, b1, a0, b0 = state

    def exact(*params):
        return beta_superiority_vec(*(np.array([v]) for v in params), BETA_TABLE)[0]

    p = exact(a1, b1, a0, b0)
    column = np.array(state)[:, None]
    position = min(position, neighbours.shape[1])
    mixed = np.concatenate([neighbours[:, :position], column, neighbours[:, position:]], axis=1)
    assert beta_superiority_vec(*mixed, BETA_TABLE)[position] == p
    # a hypergeometric tail: swapping b1 with a0, or a1 with b0, keeps the value
    assert exact(a1, a0, b1, b0) == p
    assert exact(b0, b1, a0, a1) == p
    assert abs(p - (1.0 - exact(a0, b0, a1, b1))) <= 1e-12
    assert abs(p - float(exact_beta_superiority(a1, b1, a0, b0))) <= 1e-11


def test_exact_beta_sum_matches_exact_rationals():
    # the error on the smaller of P and 1 - P, so that neither side of a
    # near-certain state hides in the other's rounding
    rng = np.random.default_rng(19)
    states = rng.integers(1, 121, (4, 1000))
    p = beta_superiority_vec(*states, BETA_TABLE)
    for i in range(states.shape[1]):
        oracle = exact_beta_superiority(*(int(v) for v in states[:, i]))
        small, computed = (oracle, p[i]) if oracle <= 0.5 else (1 - oracle, 1.0 - p[i])
        if small >= 1e-4:
            assert abs(computed - float(small)) <= 5e-12 * float(small)
    # final states of N = 1000 trials at 0.7 against 0.9, where P(X1 > X0)
    # lies within 1e-12 of 1 and a sum of the near-certain side overshoots
    n1 = rng.binomial(1000, rng.uniform(0.2, 0.8, 4096))
    y1, y0 = rng.binomial(n1, 0.9), rng.binomial(1000 - n1, 0.7)
    table = special.gammaln(np.arange(4096, dtype=np.float64))
    p = beta_superiority_vec(1 + y1, 1 + n1 - y1, 1 + y0, 1001 - n1 - y0, table)
    assert np.all((p >= 0.0) & (p <= 1.0))


@st.composite
def integer_beta_states(draw, max_n=5000):
    """(a1, b1, a0, b0) after up to max_n subjects under a prior with parameters 1..3."""
    n1 = draw(st.integers(0, max_n))
    n0 = draw(st.integers(0, max_n - n1))
    s1, s0 = draw(st.integers(0, n1)), draw(st.integers(0, n0))
    alpha, beta = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return alpha + s1, beta + n1 - s1, alpha + s0, beta + n0 - s0


@given(st.lists(integer_beta_states(), min_size=1, max_size=6))
@example([(1, 3000, 2000, 1), (2500, 2500, 1, 1)])  # the upper and the lower tail
@example([(1200, 1300, 1200, 1300), (40, 40, 7, 7)])  # symmetric: the sums land near 1/2
# b1 = 0 or a0 = 0, point masses at 1 and at 0: P = 1 from an empty tail,
# beside a long sum that keeps the kernel's loop running past them
@example([(30, 0, 5, 9), (30, 9, 0, 5), (4000, 2, 900, 7)])
def test_scalar_beta_sum_has_the_kernel_bits(states):
    # each element of the kernel's array keeps summing until every element
    # has converged, and the scalar stops at its own convergence
    kernel = models._beta_sup_exact(*np.array(states).T)
    for (a1, b1, a0, b0), p in zip(states, kernel):
        table = (a0 + a1 - 1, a0, b0 + b1 - 1, b0 - 1)  # Altham's, as the kernel maps it
        assert hypergeom_upper_tail_scalar(*table) == p
        assert hypergeom_upper_tail_scalar(*map(float, table)) == p


def test_exact_beta_sum_refuses_non_integer_parameters():
    one = np.array([1.0])
    with pytest.raises(ConfigError, match="integer"):
        beta_superiority_vec(np.array([1.5]), np.array([2.0]), one, one, BETA_TABLE)


@st.composite
def carried_paths(draw, start_ranges, max_step):
    """Start parameters (4, n) and per-call increments (calls, 4, n)."""
    n = draw(st.integers(1, 12))
    start = np.stack([draw(arrays(np.int64, n, elements=st.integers(*r))) for r in start_ranges])
    calls = draw(st.integers(1, 8))
    steps = draw(arrays(np.int64, (calls, 4, n), elements=st.integers(0, max_step)))
    return start, steps


@given(carried_paths([(1, 60)] * 4, 6))
def test_beta_carry_matches_exact_sum(path):
    # increments up to 6 per parameter per call: blocks of size B > 1, and
    # elements that grow by different amounts in one call
    start, steps = path
    carry = BetaCarry()
    first = beta_superiority_vec(*start, BETA_TABLE, carry=carry)
    assert np.array_equal(first, beta_superiority_vec(*start, BETA_TABLE))
    params = start
    for step in steps:
        params = params + step
        # no table: the carry steps however many units a call brings
        carried = beta_superiority_vec(*params, None, carry=carry)
        exact = beta_superiority_vec(*params, BETA_TABLE)
        assert np.max(np.abs(carried - exact)) < 1e-11
        assert np.array_equal(carry.params, params)


@given(carried_paths([(1, 5), (10, 30), (10, 30), (1, 5)], 3))
def test_beta_carry_relative_accuracy_in_the_tail(path):
    # experimental arm low, control high: P(X1 > X0) from ~1e-2 down to ~1e-12
    start, steps = path
    carry = BetaCarry()
    beta_superiority_vec(*start, BETA_TABLE, carry=carry)
    params = start
    for step in steps:
        params = params + step
        carried = beta_superiority_vec(*params, None, carry=carry)
    for i in range(params.shape[1]):
        oracle = float(exact_beta_superiority(*(int(v) for v in params[:, i])))
        assert abs(carried[i] - oracle) <= 1e-9 * oracle


def test_beta_carry_steps_onto_symmetric_states_exactly():
    a, b = (g.ravel() for g in np.meshgrid(np.arange(2, 40), np.arange(1, 40)))
    carry = BetaCarry()
    beta_superiority_vec(a, b, a - 1, b, BETA_TABLE, carry=carry)
    assert np.all(beta_superiority_vec(a, b, a, b, BETA_TABLE, carry=carry) == 0.5)
    carry = BetaCarry()
    beta_superiority_vec(a - 1, a, b, b, BETA_TABLE, carry=carry)
    assert np.all(beta_superiority_vec(a, a, b, b, BETA_TABLE, carry=carry) == 0.5)


def test_beta_carry_rejects_shrinking_parameters():
    one = np.array([3]), np.array([4]), np.array([5]), np.array([6])
    carry = BetaCarry()
    beta_superiority_vec(*one, BETA_TABLE, carry=carry)
    with pytest.raises(ValueError, match="only grow"):
        beta_superiority_vec(one[0] - 1, *one[1:], BETA_TABLE, carry=carry)


@pytest.mark.parametrize("per_call", [1, 1500])
def test_beta_carry_survives_long_lopsided_trials(per_call):
    # g = B(a0+a1, b0+b1) / (B(a1,b1) B(a0,b0)) falls to ~1e-900 here and must
    # come back once the arms meet again.  With 1500 unit steps in one call,
    # the linear factor on g must be folded into log g along the way.  The
    # carry starts at the prior and gets no table, so it never swaps its
    # steps for the exact sum.
    table = special.gammaln(np.arange(8192, dtype=np.float64))
    carry = beta_prior_carry(1, 1, 1)
    params = np.array([[1], [1], [1], [1]])
    for step in ([1, 0, 0, 1], [0, 1, 1, 0]):
        for _ in range(1500 // per_call):
            params = params + per_call * np.array(step)[:, None]
            beta_superiority_vec(*params, None, carry=carry)
    a1, b1, a0, b0 = (float(v) for v in params[:, 0])
    log_g = special.betaln(a0 + a1, b0 + b1) - special.betaln(a1, b1) - special.betaln(a0, b0)
    assert abs(carry.log_g[0] - log_g) < 1e-9
    params = params + np.array([[3], [0], [0], [0]])
    carried = beta_superiority_vec(*params, None, carry=carry)
    assert abs(carried[0] - beta_superiority_vec(*params, table)[0]) < 1e-11


def test_filled_carry_always_steps(monkeypatch):
    # A 40-subject block after 260 subjects at p 0.95 against 0.05 brings
    # about 80 unit steps onto parameters near 10, where the exact sum is
    # short: the carry still steps, and never takes the sum.
    exact = models._beta_sup_exact
    sums = []

    def counted(*args):
        sums.append(args)
        return exact(*args)

    monkeypatch.setattr(models, "_beta_sup_exact", counted)
    rng = np.random.default_rng(8)
    n = 400
    start = np.stack([
        rng.integers(100, 200, n), rng.integers(1, 10, n),
        rng.integers(1, 10, n), rng.integers(100, 200, n),
    ])
    large = start + np.stack([
        rng.integers(36, 41, n), rng.integers(0, 3, n),
        rng.integers(0, 3, n), rng.integers(36, 41, n),
    ])
    carry = BetaCarry()
    beta_superiority_vec(*start, BETA_TABLE, carry=carry)
    sums.clear()
    carried = beta_superiority_vec(*large, BETA_TABLE, carry=carry)
    assert not sums
    assert np.max(np.abs(carried - exact(*large))) < 1e-11
    assert np.array_equal(carry.params, large)


# ---------------------------------------------------------------------------
# One unit step per element: the engine's path at block size 1
# ---------------------------------------------------------------------------


@st.composite
def unit_paths(draw):
    """A prior, start counts (s1, f1, s0, f0) per element, and per-call (k1, y)."""
    prior = draw(
        st.one_of(
            st.builds(BetaPrior, st.integers(1, 3), st.integers(1, 3)),
            st.builds(BetaPrior, real_parameters, real_parameters),
        )
    )
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        # both arms alike, so symmetric states come up along the way
        arm = draw(arrays(np.int64, (2, n), elements=st.integers(0, 20)))
        counts = np.concatenate([arm, arm])
    else:
        counts = draw(arrays(np.int64, (4, n), elements=st.integers(0, 40)))
    calls = draw(st.integers(1, 40))
    # lopsided arms: allocation and success chances out to 0 and 1
    chances = st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0))
    p_arm, p_exp, p_ctrl = draw(chances), draw(chances), draw(chances)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k1 = (rng.random((calls, n)) < p_arm).astype(np.int64)
    y = rng.random((calls, n)) < np.where(k1 == 1, p_exp, p_ctrl)
    return prior, counts, k1, y


def unit_step_pair(prior, start):
    """Two equal filled carries at ``start``: from the exact sum or from the prior."""
    pair = []
    for _ in range(2):
        if float(prior.alpha).is_integer() and float(prior.beta).is_integer():
            carry = BetaCarry()
            beta_superiority_vec(*start, BETA_TABLE, carry=carry)
        else:
            carry = beta_prior_carry(prior.alpha, prior.beta, start.shape[1])
            beta_superiority_vec(*start, None, carry=carry)
        pair.append(carry)
    return pair


def subjects_rows(k1, y):
    """One-hot (4, n) increments of (a1, b1, a0, b0) for one subject per element."""
    return (np.arange(4)[:, None] == 2 * (1 - k1) + (1 - y)).astype(np.int64)


@given(unit_paths())
def test_unit_steps_reproduce_the_masked_step(path):
    prior, counts, k1s, ys = path
    hyper = np.array([[prior.alpha], [prior.beta], [prior.alpha], [prior.beta]])
    params = hyper + counts
    masked, unit = unit_step_pair(prior, params)
    for k1, y in zip(k1s, ys):
        params = params + subjects_rows(k1, y)
        # no table: the masked step never swaps itself for the exact sum
        expected = beta_superiority_vec(*params, None, carry=masked)
        got = beta_superiority_vec(*params, None, carry=unit, unit=(k1, y))
        assert np.array_equal(got, expected)
        assert np.array_equal(unit.log_g, masked.log_g)
        assert np.array_equal(unit.params, masked.params)
    unit.check()


def test_unit_steps_reproduce_the_masked_step_over_a_long_lopsided_trial():
    # 1500 subjects, one per call: successes on the experimental arm and
    # failures on control take g to ~1e-450, and the other way round brings
    # it back; the second element walks the mirror image
    masked, unit = BetaCarry(), BetaCarry()
    table = special.gammaln(np.arange(8192, dtype=np.float64))
    params = np.ones((4, 2), dtype=np.int64)
    beta_superiority_vec(*params, table, carry=masked)
    beta_superiority_vec(*params, table, carry=unit)
    for i in range(1500):
        k1 = np.array([i % 2, 1 - i % 2])
        y = k1 == 1 if i < 750 else k1 == 0
        params = params + subjects_rows(k1, y)
        expected = beta_superiority_vec(*params, None, carry=masked)
        got = beta_superiority_vec(*params, None, carry=unit, unit=(k1, y))
        assert np.array_equal(got, expected)
        assert np.array_equal(unit.log_g, masked.log_g)
    unit.check()
    a1, b1, a0, b0 = (float(v) for v in params[:, 0])
    log_g = special.betaln(a0 + a1, b0 + b1) - special.betaln(a1, b1) - special.betaln(a0, b0)
    assert abs(unit.log_g[0] - log_g) < 1e-9
    assert np.max(np.abs(got - beta_superiority_vec(*params, table))) < 1e-11


def test_exact_sum_fills_a_carry_from_whole_floats():
    # an integral prior given as floats, as Hypothesis draws from real_parameters
    params = np.array([[2.0], [3.0], [1.0], [4.0]])
    floats, ints = BetaCarry(), BetaCarry()
    got = beta_superiority_vec(*params, BETA_TABLE, carry=floats)
    expected = beta_superiority_vec(*params.astype(np.int64), BETA_TABLE, carry=ints)
    assert np.array_equal(got, expected)
    assert np.array_equal(floats.log_g, ints.log_g)


def test_forged_unit_step_fails_the_check():
    carry = BetaCarry()
    params = np.array([[3, 4], [5, 6], [7, 8], [9, 10]])
    beta_superiority_vec(*params, BETA_TABLE, carry=carry)
    k1, y = np.array([1, 0]), np.array([True, False])
    # the first element's subject was in fact a failure
    params = params + subjects_rows(k1, np.array([False, False]))
    beta_superiority_vec(*params, None, carry=carry, unit=(k1, y))
    with pytest.raises(ValueError, match="unit steps missed"):
        carry.check()
    # a later call without ``unit`` checks first, too
    beta_superiority_vec(*params, None, carry=carry, unit=(k1, y))
    with pytest.raises(ValueError, match="unit steps missed"):
        beta_superiority_vec(*params, None, carry=carry)


# ---------------------------------------------------------------------------
# Real beta priors: the carry stepped from the prior
# ---------------------------------------------------------------------------

real_parameters = st.floats(0.05, 20.0)
integral_parameters = st.integers(1, 20).map(float)


def prior_carried(prior, params) -> float:
    carry = beta_prior_carry(prior.alpha, prior.beta, 1)
    return beta_superiority_vec(*(np.array([v]) for v in params), None, carry=carry)[0]


@given(
    st.one_of(
        st.builds(BetaPrior, integral_parameters, real_parameters),
        st.builds(BetaPrior, real_parameters, integral_parameters),
    ),
    count_arms(80),
    count_arms(80),
)
def test_prior_seeded_beta_carry_matches_finite_sum(prior, exp, ctrl):
    params = (*beta_posterior(prior, exp), *beta_posterior(prior, ctrl))
    assert abs(prior_carried(prior, params) - beta_superiority_closed(*params)) < 1e-12


@given(st.builds(BetaPrior, real_parameters, real_parameters), count_arms(80), count_arms(80))
def test_prior_seeded_beta_carry_matches_quadrature(prior, exp, ctrl):
    params = (*beta_posterior(prior, exp), *beta_posterior(prior, ctrl))
    # Below 1 a density is unbounded at an end of [0, 1], and the quadrature's
    # own error reaches 1e-6 there against the finite sum; the test above
    # covers that region.
    assume(min(params) >= 1.0)
    assert abs(prior_carried(prior, params) - quadrature_beta_superiority(*params)) < 1e-10


@given(
    st.builds(
        BetaPrior,
        st.one_of(real_parameters, integral_parameters),
        st.one_of(real_parameters, integral_parameters),
    ),
    directions,
    st.lists(st.tuples(count_arms(80), count_arms(80)), min_size=1, max_size=20),
)
def test_real_beta_prior_scalar_matches_engine(prior, direction, pairs):
    model = OutcomeModel(Bernoulli(0.5, 0.5), direction)
    vec = engine_superiority(model, prior, pairs)
    scalar = [superiority_probability(exp, ctrl, prior, direction) for exp, ctrl in pairs]
    assert np.max(np.abs(vec - scalar)) < 1e-11


# ---------------------------------------------------------------------------
# The gamma carry against betainc along random paths
# ---------------------------------------------------------------------------

#: The carry's accuracy gate against ``betainc``, fixed before its first run.
GAMMA_CARRY_TOLERANCE = 2e-12


def gamma_path(shape, block, width, start, blocks, jump, seed):
    """Shapes a0, a1 and the x of each call along one random path of ``width`` elements.

    The fill sees ``start`` subjects per element, split at random between
    the arms; each later call adds ``block`` subjects per element, each to
    either arm, and moves x by ``jump`` times a standard normal number of
    posterior sds sqrt(x (1 - x)/(a0 + a1)), kept inside (0, 1).
    """
    rng = np.random.default_rng(seed)
    n0 = rng.integers(0, start + 1, width)
    x = special.expit(special.logit((n0 + shape) / (start + 2 * shape)) + rng.normal(0, 1, width))
    for _ in range(blocks + 1):
        a0, a1 = shape + n0, shape + (start - n0)
        yield a0, a1, x
        n0 = n0 + rng.binomial(block, rng.uniform(0, 1, width))
        start += block
        sd = np.sqrt(x * (1 - x) / (2 * shape + start))
        x = np.clip(x + jump * sd * rng.normal(0, 1, width), 1e-300, 1 - 2.0**-53)


@given(
    st.one_of(st.floats(0.05, 20.0), st.floats(20.0, 2500.0)),
    st.sampled_from((1, 2, 10, 40)),
    st.integers(1, 24),
    st.integers(2, 2500),
    st.integers(1, 12),
    # inside the x step's window of one sd, and beyond it
    st.sampled_from((0.1, 0.5, 2.0, 5.0)),
    st.integers(0, 2**32 - 1),
)
# past two refills, one subject per call
@example(0.7, 1, 64, 20, 2 * models._RESYNC_BLOCKS + 5, 0.5, 1)
def test_gamma_carry_follows_betainc(shape, block, width, start, blocks, jump, seed):
    carry = GammaCarry(shape)
    refills = 0
    for a0, a1, x in gamma_path(shape, block, width, start, blocks, jump, seed):
        carried = carry.h is not None and carry.blocks < models._RESYNC_BLOCKS
        got = gamma_superiority_vec(a1, 1.0 - x, a0, x, carry)
        refills += not carried
        assert carry.h is got
        # the kernel's x, b0 / (b0 + b1), is x itself here up to rounding
        expected = special.betainc(a0, a1, x / (x + (1.0 - x)))
        assert np.max(np.abs(got - expected)) <= GAMMA_CARRY_TOLERANCE
    assert refills == 1 + blocks // (models._RESYNC_BLOCKS + 1)


def test_gamma_carry_rule_is_gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(2 * len(models._X_NODES))
    assert models._X_NODES == tuple(nodes[len(models._X_NODES):])
    assert models._X_WEIGHTS == tuple(weights[len(models._X_NODES):])


def test_gamma_carry_rejects_shapes_it_cannot_step():
    a0, a1, x = np.array([3.5, 4.5]), np.array([4.5, 3.5]), np.array([0.4, 0.6])
    for shapes in (
        (a0 + 0.5, a1 + 0.5),  # not the prior shape plus whole counts
        (a0 + [1, 0], a1),  # a different subject count in each element
        (a0 - 1, a1 + 2),  # a count that falls
    ):
        carry = GammaCarry(0.5)
        gamma_superiority_vec(a1, 1 - x, a0, x, carry)
        with pytest.raises(ValueError, match="gamma superiority carry"):
            gamma_superiority_vec(shapes[1], 1 - x, shapes[0], x, carry)
    # a first call it cannot step from leaves the carry empty, on betainc
    carry = GammaCarry(0.5)
    got = gamma_superiority_vec(a1 + [0, 1], 1 - x, a0, x, carry)
    assert carry.h is None
    assert np.array_equal(got, special.betainc(a0, a1 + [0, 1], x / (x + (1 - x))))


# ---------------------------------------------------------------------------
# The Fisher comparator's hypergeometric tail against exact rationals
# ---------------------------------------------------------------------------


@st.composite
def two_by_two(draw, max_total=200):
    """(n1, s1, n0, s0): every margin, the grand total included, at most max_total."""
    total = draw(st.integers(0, max_total))
    n1 = draw(st.integers(0, total))
    n0 = total - n1
    return n1, draw(st.integers(0, n1)), n0, draw(st.integers(0, n0))


def exact_fisher(n1: int, s1: int, n0: int, s0: int) -> Fraction:
    """P(A >= s1), A ~ Hypergeom(n1 + n0, s1 + s0, n1), in exact rationals."""
    k = s1 + s0
    upper = sum(comb(k, j) * comb(n1 + n0 - k, n1 - j) for j in range(s1, min(n1, k) + 1))
    return Fraction(upper, comb(n1 + n0, n1))


@given(two_by_two())
def test_fisher_matches_exact_enumeration(table):
    oracle = float(exact_fisher(*table))
    assert abs(fisher_exact_one_sided(*table) - oracle) <= 1e-12 * oracle


@given(two_by_two(max_total=400))
def test_fisher_symmetric_tables_give_equal_bits(table):
    # the transpose and the 180-degree rotation keep the upper tail, so the
    # canonical table makes their p-values equal, not merely close
    n1, s1, n0, s0 = table
    p = fisher_exact_one_sided(n1, s1, n0, s0)
    assert fisher_exact_one_sided(s1 + s0, s1, n1 + n0 - s1 - s0, n1 - s1) == p
    assert fisher_exact_one_sided(n0, n0 - s0, n1, n1 - s1) == p


@given(two_by_two(max_total=400))
def test_fisher_is_exactly_one_at_the_edges(table):
    n1, s1, n0, s0 = table
    assert fisher_exact_one_sided(n1, 0, n0, s0) == 1.0
    assert fisher_exact_one_sided(n1, s1, n0, n0) == 1.0
    assert fisher_exact_one_sided(0, 0, n0, s0) == 1.0
    assert fisher_exact_one_sided(n1, s1, 0, 0) == 1.0


@given(st.lists(two_by_two(max_total=5000), min_size=1, max_size=30))
@example([(2500, 1300, 2500, 1200), (2500, 1200, 2500, 1300)])  # the upper and the lower tail
# s1 = 0 and s0 = n0, empty tails that read exactly 1, beside a long sum that
# keeps the kernel's loop running past them
@example([(2000, 0, 3000, 1700), (2000, 900, 3000, 3000), (2500, 1300, 2500, 1200)])
def test_fisher_vector_equals_scalar(tables):
    # each table of the kernel's array keeps summing until every table has
    # converged, and the scalar stops at its own convergence
    statistic = fisher_statistic_from_counts(*np.array(tables).T)
    for i, table in enumerate(tables):
        assert -statistic[i] == fisher_exact_one_sided(*table)
