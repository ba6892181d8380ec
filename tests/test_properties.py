"""Properties of the superiority map shared by the scalar and batched paths.

Hypothesis draws posterior states for each family; the conftest profile
derandomizes the draws, so every run checks the same examples.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from aptest.engine import _PosteriorVec
from aptest.models import (
    ArmPosterior,
    Bernoulli,
    BetaPrior,
    Exponential,
    GammaPrior,
    NormalKnownVar,
    NormalPrior,
    OutcomeModel,
    superiority_probability,
)
from tests.test_models import quadrature_gamma_superiority

directions = st.sampled_from(("larger", "smaller"))
gamma_priors = st.builds(GammaPrior, st.floats(0.3, 5.0), st.floats(0.001, 2.0))
beta_priors = st.builds(BetaPrior, st.integers(1, 3).map(float), st.integers(1, 3).map(float))
normal_priors = st.builds(NormalPrior, st.floats(-1.0, 1.0), st.floats(0.1, 100.0))
sd_pairs = st.tuples(st.floats(0.5, 3.0), st.floats(0.5, 3.0))
time_arms = st.builds(ArmPosterior, st.integers(0, 60), st.floats(0.0, 50.0))
response_arms = st.builds(ArmPosterior, st.integers(0, 60), st.floats(-50.0, 50.0))


@st.composite
def count_arms(draw):
    n = draw(st.integers(0, 60))
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
