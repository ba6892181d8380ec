"""Outcome families, conjugate priors, and posterior superiority probabilities.

Three outcome families are supported: exponential (time-to-event, rate
parameter), Bernoulli (response probability), and normal with known,
possibly arm-specific, standard deviations.  Each family pairs with a
conjugate prior applied identically to both arms, so the full history of a
trial is summarized by per-arm counts and sufficient statistics.

The quantity that drives response-adaptive allocation is the posterior
probability that the experimental arm's parameter beats the control arm's.
It is computed in closed form for every gamma and normal posterior and for
beta posteriors with an integer parameter.  The elementwise kernels here
serve both the single-trial path and the batched engine.

The beta kernel's exact finite sum costs O(smallest parameter) per call, so
re-summing it at every block makes a trial O(N^2).  Given a ``BetaCarry``,
it instead carries P(X1 > X0) from call to call and moves it by Cook's
(2005, "Exact calculation of beta inequalities") one-step recurrences,
O(1) per new subject; the batched engine carries one per chunk.  The
recurrences hold for real parameters, and at a prior shared by both arms
P(X1 > X0) is exactly 1/2, so a carry started at the prior
(``beta_prior_carry``) reaches the beta posteriors that have no integer
parameter, for which no finite sum exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
from scipy import special

from .errors import ConfigError, DataError, NumericalError

LARGER = "larger"
SMALLER = "smaller"

# Open-interval clamp for probabilities that feed log/power transforms.
PROB_FLOOR = 1e-15


# ---------------------------------------------------------------------------
# Outcome families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential:
    """Exponential time-to-event outcomes; the natural parameter is the rate."""

    rate_control: float
    rate_experimental: float

    kind = "exponential"

    def __post_init__(self) -> None:
        if self.rate_control <= 0 or self.rate_experimental <= 0:
            raise ConfigError("exponential rates must be strictly positive")


@dataclass(frozen=True)
class Bernoulli:
    """Binary outcomes; the natural parameter is the success probability."""

    p_control: float
    p_experimental: float

    kind = "bernoulli"

    def __post_init__(self) -> None:
        for p in (self.p_control, self.p_experimental):
            if not 0.0 < p < 1.0:
                raise ConfigError("Bernoulli probabilities must lie strictly in (0, 1)")


@dataclass(frozen=True)
class NormalKnownVar:
    """Normal outcomes with known arm-specific standard deviations."""

    mean_control: float
    mean_experimental: float
    sd_control: float
    sd_experimental: float

    kind = "normal"

    def __post_init__(self) -> None:
        if self.sd_control <= 0 or self.sd_experimental <= 0:
            raise ConfigError("normal standard deviations must be strictly positive")


Family = Union[Exponential, Bernoulli, NormalKnownVar]


@dataclass(frozen=True)
class OutcomeModel:
    """Data-generating truth for a two-arm trial.

    ``better_direction`` applies to the family's natural parameter: the rate
    for exponential outcomes (a higher rate means shorter time to event), the
    success probability for Bernoulli, and the mean for normal outcomes.  The
    direction is always explicit, never inferred from the parameter values.
    """

    family: Family
    better_direction: str = LARGER

    def __post_init__(self) -> None:
        if self.better_direction not in (LARGER, SMALLER):
            raise ConfigError(
                f"better_direction must be '{LARGER}' or '{SMALLER}', "
                f"got {self.better_direction!r}"
            )

    @property
    def kind(self) -> str:
        return self.family.kind

    @property
    def param_control(self) -> float:
        return _natural_params(self.family)[0]

    @property
    def param_experimental(self) -> float:
        return _natural_params(self.family)[1]

    def better_arm(self) -> int | None:
        """Index of the truly better arm, or None when the arms are equal."""
        ctrl, exp = _natural_params(self.family)
        if ctrl == exp:
            return None
        if self.better_direction == LARGER:
            return 1 if exp > ctrl else 0
        return 1 if exp < ctrl else 0


def _natural_params(family: Family) -> tuple[float, float]:
    if isinstance(family, Exponential):
        return family.rate_control, family.rate_experimental
    if isinstance(family, Bernoulli):
        return family.p_control, family.p_experimental
    return family.mean_control, family.mean_experimental


# ---------------------------------------------------------------------------
# Priors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaPrior:
    """Gamma(shape, rate) prior on an exponential rate."""

    shape: float
    rate: float

    def __post_init__(self) -> None:
        if self.shape <= 0:
            raise ConfigError("gamma prior shape must be strictly positive")
        if self.rate <= 0:
            raise ConfigError("gamma prior rate must be strictly positive")


@dataclass(frozen=True)
class BetaPrior:
    """Beta(alpha, beta) prior on a Bernoulli success probability."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("beta prior parameters must be strictly positive")


@dataclass(frozen=True)
class NormalPrior:
    """Normal(mean, variance) prior on a normal mean with known outcome SD."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance <= 0:
            raise ConfigError("normal prior variance must be strictly positive")


PriorSpec = Union[GammaPrior, BetaPrior, NormalPrior]


def prior_matches_family(prior: PriorSpec, kind: str) -> bool:
    return (
        (isinstance(prior, GammaPrior) and kind == "exponential")
        or (isinstance(prior, BetaPrior) and kind == "bernoulli")
        or (isinstance(prior, NormalPrior) and kind == "normal")
    )


# ---------------------------------------------------------------------------
# Posterior state
# ---------------------------------------------------------------------------


class ArmPosterior(NamedTuple):
    """One arm's observed-data summary: subject count and sufficient statistic.

    ``total`` is the sum of outcomes: total time on arm for exponential,
    number of successes for Bernoulli, sum of responses for normal.
    """

    n: int
    total: float


@dataclass(frozen=True)
class PosteriorState:
    """Both arms' sufficient statistics for one outcome family."""

    kind: str
    control: ArmPosterior
    experimental: ArmPosterior

    def __post_init__(self) -> None:
        if self.kind not in ("exponential", "bernoulli", "normal"):
            raise ConfigError(f"unknown outcome family {self.kind!r}")
        for arm in (self.control, self.experimental):
            if arm.n < 0:
                raise ConfigError("arm count cannot be negative")
            if self.kind == "bernoulli" and not 0 <= arm.total <= arm.n:
                raise ConfigError("success count must lie in [0, n]")
            if self.kind == "exponential" and arm.total < 0:
                raise ConfigError("total time must be nonnegative")

    def arm(self, a: int) -> ArmPosterior:
        return self.experimental if a == 1 else self.control


def initial_posterior(kind: str) -> PosteriorState:
    """Empty posterior state (no data on either arm)."""
    return PosteriorState(kind, ArmPosterior(0, 0.0), ArmPosterior(0, 0.0))


def sample_outcome(model: OutcomeModel, arm: int, rng: np.random.Generator) -> float:
    """Draw one outcome from the given arm's distribution.

    A draw that overflows floating point (an exponential rate below about
    1e-308, say) raises NumericalError, as the batched engine does.
    """
    fam = model.family
    if isinstance(fam, Exponential):
        rate = fam.rate_experimental if arm == 1 else fam.rate_control
        y = float(rng.exponential(1.0 / rate))
    elif isinstance(fam, Bernoulli):
        p = fam.p_experimental if arm == 1 else fam.p_control
        y = float(rng.random() < p)
    else:
        mean = fam.mean_experimental if arm == 1 else fam.mean_control
        sd = fam.sd_experimental if arm == 1 else fam.sd_control
        y = float(rng.normal(mean, sd))
    if not math.isfinite(y):
        raise NumericalError(
            f"outcome drawn from the {model.kind} model is not finite: {y}"
        )
    return y


def update_posterior(state: PosteriorState, arm: int, outcome: float) -> PosteriorState:
    """Fold one observed outcome into the given arm; the other arm is untouched.

    Raises DataError when the outcome is incompatible with the family
    (non-binary value for Bernoulli, nonpositive time for exponential).
    """
    if arm not in (0, 1):
        raise ConfigError(f"arm must be 0 or 1, got {arm}")
    if state.kind == "bernoulli" and outcome not in (0.0, 1.0):
        raise DataError(f"Bernoulli outcome must be 0 or 1, got {outcome}")
    if state.kind == "exponential" and outcome <= 0:
        raise DataError(f"exponential outcome must be positive, got {outcome}")
    if not math.isfinite(outcome):
        raise DataError(f"outcome must be finite, got {outcome}")
    old = state.arm(arm)
    new = ArmPosterior(old.n + 1, old.total + outcome)
    if arm == 1:
        return PosteriorState(state.kind, state.control, new)
    return PosteriorState(state.kind, new, state.experimental)


# ---------------------------------------------------------------------------
# Posterior parameters per family
# ---------------------------------------------------------------------------


def gamma_posterior(prior: GammaPrior, arm: ArmPosterior) -> tuple[float, float]:
    """(shape, rate) of the gamma posterior for one arm's rate."""
    return prior.shape + arm.n, prior.rate + arm.total


def beta_posterior(prior: BetaPrior, arm: ArmPosterior) -> tuple[float, float]:
    """(alpha, beta) of the beta posterior for one arm's success probability."""
    return prior.alpha + arm.total, prior.beta + (arm.n - arm.total)


def normal_posterior(
    prior: NormalPrior, arm: ArmPosterior, sd: float
) -> tuple[float, float]:
    """(mean, variance) of the normal posterior for one arm's mean."""
    precision = 1.0 / prior.variance + arm.n / (sd * sd)
    var = 1.0 / precision
    mean = var * (prior.mean / prior.variance + arm.total / (sd * sd))
    return mean, var


# ---------------------------------------------------------------------------
# Superiority probability
# ---------------------------------------------------------------------------


def gamma_superiority_vec(a1, b1, a0, b0):
    """P(X1 > X0) elementwise for X1 ~ Gamma(a1, b1), X0 ~ Gamma(a0, b0).

    Equals the regularized incomplete beta I_{b0/(b0+b1)}(a0, a1), which holds
    for any real shapes (for an integer shape it is the negative-binomial tail
    sum).
    """
    return special.betainc(a0, a1, b0 / (b0 + b1))


def _beta_sup_sum(A1, B1, A0, B0, table) -> np.ndarray:
    # sum_{i < A1} Beta(A0+i, B0+B1) / ((B1+i) Beta(1+i, B1) Beta(A0, B0)),
    # all parameters integer arrays; log-beta values come from a gammaln table.
    T = table
    bb = B0 + B1
    const = T[bb] - T[B1] - (T[A0] + T[B0] - T[A0 + B0])
    out = np.zeros(A1.shape, dtype=np.float64)
    imax = int(A1.max())
    for i in range(imax):
        log_term = (
            T[A0 + i]
            - T[A0 + i + bb]
            - np.log(B1 + i)
            - T[1 + i]
            + T[1 + i + B1]
            + const
        )
        term = np.exp(log_term)
        if i > 0:
            term = np.where(i < A1, term, 0.0)
        out += term
    return out


def _beta_sup_exact(al1, be1, al0, be0, table) -> np.ndarray:
    # sums over whichever parameter keeps the loop shortest, mirroring
    # x -> 1 - x or swapping arms as needed
    spans = (int(al1.max()), int(al0.max()), int(be0.max()), int(be1.max()))
    variant = int(np.argmin(spans))
    if variant == 0:
        return _beta_sup_sum(al1, be1, al0, be0, table)
    if variant == 1:
        return 1.0 - _beta_sup_sum(al0, be0, al1, be1, table)
    if variant == 2:
        return _beta_sup_sum(be0, al0, be1, al1, table)
    return 1.0 - _beta_sup_sum(be1, al1, be0, al0, table)


def _beta_log_g(al1, be1, al0, be0, table) -> np.ndarray:
    # log g = log B(a0+a1, b0+b1) - log B(a1, b1) - log B(a0, b0)
    T = table
    aa, bb = al0 + al1, be0 + be1
    return (
        T[aa] + T[bb] - T[aa + bb]
        - (T[al1] + T[be1] - T[al1 + be1])
        - (T[al0] + T[be0] - T[al0 + be0])
    )


@dataclass
class BetaCarry:
    """Recurrence state of ``beta_superiority_vec``, one entry per element.

    Empty until the first call fills it from the exact sum, unless
    ``beta_prior_carry`` built it filled.  A filled carry holds the last
    parameters (as floats), h = P(X1 > X0) there, and log g with
    g = B(a0+a1, b0+b1) / (B(a1, b1) B(a0, b0)).
    """

    params: tuple[np.ndarray, ...] | None = None
    h: np.ndarray | None = None
    log_g: np.ndarray | None = None
    #: scratch arrays reused by every step: a fresh chunk-sized array costs a
    #: page fault per 4 KiB on first touch, more than the arithmetic on it
    work: tuple[np.ndarray, ...] = ()


def beta_prior_carry(alpha: float, beta: float, size: int) -> BetaCarry:
    """A filled ``BetaCarry`` of ``size`` elements, each at Beta(alpha, beta) on both arms.

    Two equal beta laws give P(X1 > X0) = 1/2 exactly, and
    log g = betaln(2 alpha, 2 beta) - 2 betaln(alpha, beta); from there the
    carry steps to posteriors of any real parameters, with no exact sum.
    """
    log_g = special.betaln(2.0 * alpha, 2.0 * beta) - 2.0 * special.betaln(alpha, beta)
    return BetaCarry(
        params=tuple(np.full(size, float(v)) for v in (alpha, beta, alpha, beta)),
        h=np.full(size, 0.5),
        log_g=np.full(size, log_g),
    )


#: Unit steps between folds of the linear factor r into log g.  A step moves
#: each element's g by a factor between 1/S and S, S its parameter total, so
#: r stays inside S**(+-32), which is finite for any total below 1e9.
_FOLD_STEPS = 32


def _beta_sup_step(carry: BetaCarry, targets) -> np.ndarray:
    # One unit increment at a time (Cook 2005), g taken before the step:
    #   a1 + 1: h += g/a1    b1 + 1: h -= g/b1
    #   a0 + 1: h -= g/a0    b0 + 1: h += g/b0
    # and g grows by (same-letter sum)(same-arm sum) / (total)(stepped
    # parameter).  g = exp(log g) * r: r is linear within a call and folded
    # into log g, so a long lopsided trial underflows no state, only terms
    # far below the probability floor.
    a1, b1, a0, b0 = params = carry.params
    if not carry.work:
        carry.work = tuple(np.empty(carry.h.shape) for _ in range(12))
    *deltas, g0, r, m, mr, q, grow, other, total = carry.work
    for delta, target, par in zip(deltas, targets, params):
        # whole steps: a real parameter stepped by ones can sit an ulp off its target
        np.rint(np.subtract(target, par, out=delta), out=delta)
    if any((delta < 0).any() for delta in deltas):
        raise ValueError("beta superiority carry: parameters may only grow")
    h = carry.h.copy()
    log_g = carry.log_g
    np.exp(log_g, out=g0)
    r.fill(1.0)
    np.add(a0, a1, out=total)
    total += b0
    total += b1
    steps = 0
    for par, same_letter, same_arm, signed, delta in (
        (a1, (a0, a1), (a1, b1), np.add, deltas[0]),
        (b1, (b0, b1), (a1, b1), np.subtract, deltas[1]),
        (a0, (a0, a1), (a0, b0), np.subtract, deltas[2]),
        (b0, (b0, b1), (a0, b0), np.add, deltas[3]),
    ):
        for _ in range(int(delta.max())):
            np.minimum(delta, 1.0, out=m)  # 1 where this parameter still grows
            delta -= m
            np.multiply(m, r, out=mr)
            np.divide(mr, par, out=q)  # masked r / stepped parameter
            np.multiply(g0, q, out=grow)  # masked g / stepped parameter
            signed(h, grow, out=h)
            # r += masked r * (growth of g - 1)
            np.add(*same_letter, out=grow)
            grow *= np.add(*same_arm, out=other)
            grow /= total
            grow *= q
            grow -= mr
            r += grow
            par += m
            total += m
            steps += 1
            if steps % _FOLD_STEPS == 0:
                log_g += np.log(r, out=grow)
                np.exp(log_g, out=g0)
                r.fill(1.0)
    log_g += np.log(r, out=grow)
    return h


def _symmetric(a1, b1, a0, b0):
    # P(X1 > X0) is exactly 1/2 by symmetry for identical posteriors, and for
    # two posteriors that are each symmetric about 1/2
    return ((a1 == a0) & (b1 == b0)) | ((a1 == b1) & (a0 == b0))


def beta_superiority_vec(
    al1, be1, al0, be0, table, carry: BetaCarry | None = None
) -> np.ndarray:
    """P(X1 > X0) elementwise for beta posteriors.

    Without ``carry`` (or with an empty one) the value is the exact finite
    sum, whose cost grows with the smallest parameter; it needs integer
    parameters, and ``table`` holding gammaln(0..M) for M beyond every
    parameter sum.  A filled ``carry`` is stepped from its last parameters
    to these, which may be real and may only grow by whole units, at O(1)
    per unit increment, and ``table`` is not read; the result is then also
    the carry's state, not to be modified in place.  Identical posteriors,
    and pairs of posteriors that are each symmetric about 1/2, give exactly
    0.5.
    """
    if carry is not None and carry.h is not None:
        h = _beta_sup_step(carry, (al1, be1, al0, be0))
    else:
        h = _beta_sup_exact(al1, be1, al0, be0, table)
        if carry is not None:
            carry.params = tuple(np.array(p, dtype=np.float64) for p in (al1, be1, al0, be0))
            carry.log_g = _beta_log_g(al1, be1, al0, be0, table)
    h[_symmetric(al1, be1, al0, be0)] = 0.5  # the sums land either side of it
    if carry is not None:
        carry.h = h
    return h


def normal_superiority_vec(m1, v1, m0, v0):
    """P(mu1 > mu0) elementwise for normal posteriors N(m1, v1), N(m0, v0)."""
    return special.ndtr((m1 - m0) / np.sqrt(v1 + v0))


def oriented_probability(larger, direction: str):
    """Turn P(experimental parameter larger) into P(experimental better).

    Flips the probability when smaller is better and clamps it to the open
    interval (0, 1); scalars and arrays alike.  A non-finite input raises
    NumericalError: a NaN allocation probability would send every subject
    to control.
    """
    # math.isfinite on scalars: np.isfinite costs a third of a scalar call
    finite = math.isfinite(larger) if isinstance(larger, float) else np.isfinite(larger).all()
    if not finite:
        raise NumericalError(
            "superiority probability is not finite: posterior parameters out of "
            "floating-point range"
        )
    p = larger if direction == LARGER else 1.0 - larger
    return np.minimum(np.maximum(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


def _is_integral(x: float) -> bool:
    return abs(x - round(x)) < 1e-9


def _beta_superiority_core(a1: float, b1: float, a0: float, b0: float) -> float:
    # P(X1 > X0) for X1 ~ Beta(a1, b1), X0 ~ Beta(a0, b0); requires a1 integer.
    betaln = special.betaln
    base = betaln(a0, b0)
    total = 0.0
    for i in range(int(round(a1))):
        total += math.exp(
            betaln(a0 + i, b0 + b1) - math.log(b1 + i) - betaln(1 + i, b1) - base
        )
    return total


def beta_superiority_closed(a1: float, b1: float, a0: float, b0: float) -> float:
    """P(X1 > X0) for beta posteriors via the finite sum over an integer parameter.

    The scalar counterpart of ``beta_superiority_vec`` and the reference it is
    tested against; on a single element it is also the faster of the two.
    Any one of the four parameters being an integer suffices; the sum runs
    over the smallest integral one (mirroring x -> 1-x or swapping the arms
    as needed).
    """
    candidates = sorted(
        (value, name)
        for name, value in (("a1", a1), ("a0", a0), ("b0", b0), ("b1", b1))
        if _is_integral(value)
    )
    if not candidates:
        raise ConfigError("beta superiority closed form requires an integer parameter")
    _, pick = candidates[0]
    if pick == "a1":
        return _beta_superiority_core(a1, b1, a0, b0)
    if pick == "a0":
        return 1.0 - _beta_superiority_core(a0, b0, a1, b1)
    if pick == "b0":
        # X1 > X0  <=>  (1-X0) > (1-X1), with 1-X ~ Beta(b, a)
        return _beta_superiority_core(b0, a0, b1, a1)
    return 1.0 - _beta_superiority_core(b1, a1, b0, a0)


def _quadrature_superiority(dist_exp, dist_ctrl) -> float:
    """Integral of pdf_exp(x) * cdf_ctrl(x) over a bracketing of both supports.

    Nothing in the package calls it: beta posteriors with no integer
    parameter step a carry from the prior instead.  Its one reader is the
    benchmark's tracer (``perfbench/tracing.py``), which wraps the name to
    count quadrature calls; it goes once that wrap does.
    """
    from scipy import integrate  # loaded on first use: most runs never integrate

    eps = 1e-15
    lo = min(dist_exp.ppf(eps), dist_ctrl.ppf(eps))
    hi = max(dist_exp.ppf(1 - eps), dist_ctrl.ppf(1 - eps))
    value, abserr = integrate.quad(
        lambda x: dist_exp.pdf(x) * dist_ctrl.cdf(x),
        lo,
        hi,
        epsabs=1e-10,
        epsrel=1e-10,
        limit=200,
    )
    if not np.isfinite(value) or abserr > 1e-8:
        raise NumericalError(
            f"superiority quadrature did not converge: value={value}, "
            f"abserr={abserr}, bracket=({lo}, {hi})"
        )
    return value


def superiority_probability(
    post_exp: ArmPosterior,
    post_ctrl: ArmPosterior,
    prior: PriorSpec,
    direction: str = LARGER,
    sds: tuple[float, float] | None = None,
) -> float:
    """Posterior probability that the experimental arm's parameter is better.

    Gamma and normal posteriors use their closed forms for any parameters;
    beta posteriors use the finite sum when a parameter is an integer, and
    otherwise step a one-element carry from the prior to the posterior by
    Cook's recurrences, one step per subject; symmetric beta pairs give
    exactly 0.5, as in ``beta_superiority_vec``.  For the normal
    family ``sds`` must supply the known (control, experimental) outcome
    standard deviations.

    The returned value is clamped to the open interval (0, 1).
    """
    if isinstance(prior, GammaPrior):
        a1, b1 = gamma_posterior(prior, post_exp)
        a0, b0 = gamma_posterior(prior, post_ctrl)
        if b1 <= 0 or b0 <= 0:
            raise DataError("gamma posterior rate is not positive")
        larger = gamma_superiority_vec(a1, b1, a0, b0)
    elif isinstance(prior, BetaPrior):
        a1, b1 = beta_posterior(prior, post_exp)
        a0, b0 = beta_posterior(prior, post_ctrl)
        if _symmetric(a1, b1, a0, b0):
            larger = 0.5
        elif any(_is_integral(v) for v in (a1, a0, b0, b1)):
            larger = beta_superiority_closed(a1, b1, a0, b0)
        else:
            carry = beta_prior_carry(prior.alpha, prior.beta, 1)
            larger = float(_beta_sup_step(carry, [np.array([v]) for v in (a1, b1, a0, b0)])[0])
    elif isinstance(prior, NormalPrior):
        if sds is None:
            raise ConfigError("normal superiority requires known outcome sds")
        larger = normal_superiority_vec(
            *normal_posterior(prior, post_exp, sds[1]),
            *normal_posterior(prior, post_ctrl, sds[0]),
        )
    else:
        raise ConfigError(f"unknown prior type {type(prior).__name__}")
    return float(oriented_probability(larger, direction))
