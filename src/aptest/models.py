"""Outcome families, conjugate priors, and posterior superiority probabilities.

Three outcome families are supported: exponential (time-to-event, rate
parameter), Bernoulli (response probability), and normal with known,
possibly arm-specific, standard deviations.  Each family pairs with a
conjugate prior applied identically to both arms, so the full history of a
trial is summarized by per-arm counts and sufficient statistics.

The quantity that drives response-adaptive allocation is the posterior
probability that the experimental arm's parameter beats the control arm's.
The kernels here serve both the single-trial path and the batched engine.

For integer parameters the beta kernel's exact finite sum is a
hypergeometric tail (Altham 1969): P(X1 > X0) = P(A >= a0) for the 2x2
table with n1 = a0 + a1 - 1, s1 = a0, n0 = b0 + b1 - 1 and s0 = b0 - 1.
``hypergeom_upper_tail``, the Fisher comparator's kernel too, sums it on
each table's canonical member, so states equal under the a1 <-> b0 and
b1 <-> a0 swaps read equal bits; ``hypergeom_upper_tail_scalar`` is the
same sum on one table, with the same bits.  It costs up to O(N) terms per
call, so re-summing it at every block makes a trial O(N^2).  Given a
``BetaCarry``, the kernel instead carries P(X1 > X0) from call to call and
moves it by Cook's (2005, "Exact calculation of beta inequalities")
one-step recurrences, O(1) per new subject, with bits that depend on the
path.  The recurrences hold for real parameters, and at a prior shared by
both arms P(X1 > X0) is exactly 1/2, so a carry started at the prior
(``beta_prior_carry``) reaches posteriors for which no finite sum exists.
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

    @property
    def integral(self) -> bool:
        """Whether both parameters are whole: otherwise every path steps a carry."""
        return is_integral(self.alpha) and is_integral(self.beta)


@dataclass(frozen=True)
class NormalPrior:
    """Normal(mean, variance) prior on a normal mean with known outcome SD."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if self.variance <= 0:
            raise ConfigError("normal prior variance must be strictly positive")


PriorSpec = Union[GammaPrior, BetaPrior, NormalPrior]


#: The conjugate prior type of each outcome family.
_CONJUGATE = {"exponential": GammaPrior, "bernoulli": BetaPrior, "normal": NormalPrior}


def check_prior_family(prior: PriorSpec, kind: str) -> None:
    """Raise ConfigError unless ``prior`` is the conjugate prior of outcome family ``kind``."""
    if not isinstance(prior, _CONJUGATE.get(kind, ())):
        raise ConfigError(f"prior {type(prior).__name__} does not match outcome family {kind}")


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
    prior: NormalPrior, arm: ArmPosterior, sd: float, var=None
) -> tuple[float, float]:
    """(mean, variance) of the normal posterior for one arm's mean.

    The variance depends on the count alone; ``var`` passes it in when the
    caller holds it already, e.g. from a table of this function's variances
    over the counts.
    """
    if var is None:
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


#: Tail steps between checks for tails that no longer change.
_TAIL_CHECK_STEPS = 8


def hypergeom_upper_tail(n1, s1, n0, s0) -> np.ndarray:
    """P(A >= s1) elementwise for A ~ Hypergeom(N = n1 + n0, K = s1 + s0, n1).

    The counts are cast to int64.  The first term of each tail comes from
    a log-factorial table built per call, ``gammaln(1 .. N_max + 1)``; each
    further term is the previous one times the pmf ratio
    (K - j)(n1 - j) / ((j + 1)(N - K - n1 + j + 1)).  Where s1 lies at or
    below the mode the lower tail is summed instead, as the upper tail of
    the table with its success and failure columns swapped, and the result
    is 1 minus it, so every sum starts at its largest term and no term
    underflows while it still matters; s1 = 0 and s0 = n0 give exactly 1.
    The relative error is about that of the log-factorial table, 5e-13 at
    N = 200 and 3e-11 at N = 5000.  Before summing, each table is mapped
    to one member of its class under the transpose (n1 <-> K, same s1) and
    the 180-degree rotation, which leave the upper tail unchanged: tables
    with the same exact tail then get the same bits, and a strict
    comparison never splits them by rounding.
    """
    n1, s1, n0, s0 = (np.asarray(x, dtype=np.int64) for x in (n1, s1, n0, s0))
    # total subjects, k successes, n subjects and a successes in arm 1
    total, k, n, a = n1 + n0, s1 + s0, n1, s1
    # canonical member of the table's class under the transpose (n <-> k)
    # and the 180-degree rotation, both of which keep the upper tail
    n, k = np.minimum(n, k), np.maximum(n, k)
    rotate = total - k < n
    n, k, a = (
        np.where(rotate, total - k, n),
        np.where(rotate, total - n, k),
        np.where(rotate, a + total - k - n, a),
    )
    # at or below the mode the sum runs over the lower tail of the column-
    # swapped table instead, 1 - P(A <= a - 1), so every sum starts at its
    # largest term; a at the bottom of the support gives an empty tail, p = 1
    low = a * (total + 2) <= (n + 1) * (k + 1)
    empty = a == np.maximum(0, n + k - total)
    k = np.where(low, total - k, k)
    start = np.where(low, n - a + 1, a)
    lf = special.gammaln(np.arange(1, int(total.max(initial=0)) + 2, dtype=np.float64))
    c = total - k - n

    def log_fact(i):
        return lf.take(i, mode="clip")  # empty tails index past the table

    term = np.exp(
        log_fact(k) - log_fact(start) - log_fact(k - start)
        + log_fact(total - k) - log_fact(n - start) - log_fact(c + start)
        - log_fact(total) + log_fact(n) + log_fact(total - n)
    )
    term[empty] = 0.0
    tail = term.copy()
    # pmf(j + 1) / pmf(j) = (k - j)(n - j) / ((j + 1)(c + j + 1)); numerator
    # and denominator step by second differences, all exact in float64
    j = start.astype(np.float64)
    num = (k - j) * (n - j)
    num_step = k + n - 2.0 * j - 1.0
    den = (j + 1.0) * (c + j + 1.0)
    den_step = c + 2.0 * j + 3.0
    for step in range(1, int((np.minimum(n, k) - start).max(initial=0)) + 1):
        term *= num
        term /= den
        tail += term
        num -= num_step
        num_step -= 2.0
        den += den_step
        den_step += 2.0
        # terms only shrink from the start, so once each is below half an
        # ulp of its tail no further term can change the tail
        if step % _TAIL_CHECK_STEPS == 0 and not (term * 2.0**54 > tail).any():
            break
    return np.where(low, 1.0 - tail, tail)


def _beta_sup_exact(al1, be1, al0, be0) -> np.ndarray:
    # Altham's table (module docstring); the kernel's canonical member reads
    # states equal under the a1 <-> b0 and b1 <-> a0 swaps with equal bits
    params = al1, be1, al0, be0
    if any(np.asarray(x).dtype.kind == "f" and (np.rint(x) != x).any() for x in params):
        raise ConfigError("the exact beta sum needs integer posterior parameters")
    return hypergeom_upper_tail(al0 + al1 - 1, al0, be0 + be1 - 1, be0 - 1)


def hypergeom_upper_tail_scalar(n1, s1, n0, s0) -> float:
    """``hypergeom_upper_tail`` on one table, with its bits.

    The kernel's operations in its order, on Python numbers (whole floats
    below 2**53 count exactly, as ints do); its ``exp`` is ``np.exp``,
    which rounds as the kernel's array loop does (``math.exp`` may not).
    The loop stops at this table's own convergence: terms only shrink, so
    no later one can change the tail.
    """
    total, k, n, a = n1 + n0, s1 + s0, n1, s1
    n, k = min(n, k), max(n, k)
    if total - k < n:
        n, k, a = total - k, total - n, a + total - k - n
    low = a * (total + 2) <= (n + 1) * (k + 1)
    if a == max(0, n + k - total):
        return 1.0 if low else 0.0  # an empty tail
    k, start = (total - k, n - a + 1) if low else (k, a)
    c = total - k - n
    lg = special.gammaln  # log(i!) = lg(i + 1), entry i of the kernel's table
    term = float(np.exp(
        lg(k + 1.0) - lg(start + 1.0) - lg(k - start + 1.0)
        + lg(total - k + 1.0) - lg(n - start + 1.0) - lg(c + start + 1.0)
        - lg(total + 1.0) + lg(n + 1.0) + lg(total - n + 1.0)
    ))
    tail = term
    j = float(start)
    num = (k - j) * (n - j)
    num_step = k + n - 2.0 * j - 1.0
    den = (j + 1.0) * (c + j + 1.0)
    den_step = c + 2.0 * j + 3.0
    for _ in range(int(min(n, k) - start)):
        term = term * num / den
        tail += term
        if term * 2.0**54 <= tail:
            break
        num -= num_step
        num_step -= 2.0
        den += den_step
        den_step += 2.0
    return 1.0 - tail if low else tail


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

    #: rows a1, b1, a0, b0 of one (4, n) block, so that one flat index
    #: picks each element's stepped parameter
    params: np.ndarray | None = None
    h: np.ndarray | None = None
    log_g: np.ndarray | None = None
    #: (12, n) scratch reused by every step: a fresh chunk-sized array costs a
    #: page fault per 4 KiB on first touch, more than the arithmetic on it
    work: np.ndarray | None = None
    #: the parameters the last unit-step call was given, until ``check``
    targets: tuple[np.ndarray, ...] | None = None

    def check(self) -> None:
        """Raise ValueError unless the last unit-step call's parameters were reached.

        Unit steps (``beta_superiority_vec``'s ``unit``) take each element's
        arm and outcome on trust, so a caller checks them once, after its
        last call: a wrong step leaves a parameter a unit off for good.
        """
        targets, self.targets = self.targets, None
        if targets is not None and any(
            np.rint(t - p).any() for t, p in zip(targets, self.params)
        ):
            raise ValueError("beta superiority carry: unit steps missed the parameters")

    def _scratch(self) -> np.ndarray:
        if self.work is None:
            self.work = np.empty((12, self.h.size))
        return self.work


def beta_prior_carry(alpha: float, beta: float, size: int) -> BetaCarry:
    """A filled ``BetaCarry`` of ``size`` elements, each at Beta(alpha, beta) on both arms.

    Two equal beta laws give P(X1 > X0) = 1/2 exactly, and
    log g = betaln(2 alpha, 2 beta) - 2 betaln(alpha, beta); from there the
    carry steps to posteriors of any real parameters, with no exact sum.
    """
    log_g = special.betaln(2.0 * alpha, 2.0 * beta) - 2.0 * special.betaln(alpha, beta)
    return BetaCarry(
        params=np.tile(np.array([[alpha], [beta], [alpha], [beta]], dtype=np.float64), size),
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
    *deltas, g0, r, m, mr, q, grow, other, total = carry._scratch()
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


#: The sign of h's move for a unit step of each of a1, b1, a0, b0.
_UNIT_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _beta_unit_step(carry: BetaCarry, k1, y) -> np.ndarray:
    # Each element steps once, the parameter on row j = 2(1 - k1) + (1 - y)
    # of params.  The stepped parameter p, and the product of its same-letter
    # and same-arm sums, are gathered by one flat index, and the float
    # operations are those of _beta_sup_step for an element with one step,
    # in its order, so that both give the same bits: q = 1/p, h += +-g q,
    # r = 1 + (L A / total q - 1), log g += log r, p += 1.
    P = carry.params
    n = P.shape[1]
    a1, b1, a0, b0 = P
    work = carry._scratch()
    sums, products = work[:4], work[4:8]
    p, q, grow, total = work[8:]
    back = k1 + k1
    back += y  # 3 - j
    flat = back * -n
    flat += np.arange(3 * n, 4 * n)  # j n + column
    P.take(flat, out=p, mode="clip")  # in range by construction: skip the bounds check
    np.divide(1.0, p, out=q)
    np.exp(carry.log_g, out=grow)
    grow *= q
    grow *= _UNIT_SIGNS.take(back, mode="clip")  # the signs read the same both ways
    h = carry.h + grow
    letter_a, letter_b, arm_1, arm_0 = sums
    np.add(a0, a1, out=letter_a)
    np.add(letter_a, b0, out=total)
    total += b1
    np.add(b0, b1, out=letter_b)
    np.add(a1, b1, out=arm_1)
    np.add(a0, b0, out=arm_0)
    np.multiply(letter_a, arm_1, out=products[0])
    np.multiply(letter_b, arm_1, out=products[1])
    np.multiply(letter_a, arm_0, out=products[2])
    np.multiply(letter_b, arm_0, out=products[3])
    r = products.take(flat, out=grow, mode="clip")
    r /= total
    r *= q
    r -= 1.0
    r += 1.0
    carry.log_g += np.log(r, out=r)
    p += 1.0
    P.reshape(-1)[flat] = p
    return h


def _symmetric(a1, b1, a0, b0):
    # P(X1 > X0) is exactly 1/2 by symmetry for identical posteriors, and for
    # two posteriors that are each symmetric about 1/2
    return ((a1 == a0) & (b1 == b0)) | ((a1 == b1) & (a0 == b0))


def beta_superiority_vec(
    al1, be1, al0, be0, table, carry: BetaCarry | None = None, unit=None
) -> np.ndarray:
    """P(X1 > X0) elementwise for beta posteriors.

    Without ``carry`` (or with an empty one) the value is the exact finite
    sum, a function of each element's own parameters, whose cost grows
    with the parameters; it needs integer parameters and raises
    ConfigError on others.  A filled ``carry`` is stepped from its last
    parameters to these, which may be real and may only grow by whole
    units, at O(1) per unit increment; the result is then also the carry's
    state, not to be modified in place.  ``table``, gammaln(0..M) for M
    beyond every parameter sum, gives the carry its log g when the exact
    sum fills it.  Identical posteriors, and pairs of posteriors that are
    each symmetric about 1/2, give exactly 0.5.

    ``unit`` = (k1, y) says that each element gained exactly one subject
    since the carry's last call, on arm k1 (1 experimental, 0 control) with
    outcome y, so the carry steps each element once without comparing
    parameters; ``BetaCarry.check`` then confirms the steps after the
    caller's last call.
    """
    targets = (al1, be1, al0, be0)
    if carry is None or carry.h is None:
        h = _beta_sup_exact(*targets)
        if carry is not None:
            carry.params = np.array(targets, dtype=np.float64)
            carry.log_g = _beta_log_g(*targets, table)
    elif unit is not None:
        h = _beta_unit_step(carry, *unit)
        carry.targets = targets
    else:
        carry.check()
        h = _beta_sup_step(carry, targets)
    h[_symmetric(*targets)] = 0.5  # the sums land either side of it
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
    # a float takes math.isfinite and min/max: array wrapping costs more
    # than the rest of a scalar call
    scalar = isinstance(larger, float)
    if not (math.isfinite(larger) if scalar else np.isfinite(larger).all()):
        raise NumericalError(
            "superiority probability is not finite: posterior parameters out of "
            "floating-point range"
        )
    p = larger if direction == LARGER else 1.0 - larger
    if scalar:
        return min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR)
    return np.minimum(np.maximum(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


def is_integral(x: float) -> bool:
    """Whether a beta parameter is a whole number, so that a finite sum over it exists."""
    return float(x).is_integer()


def trial_beta_carry(prior: PriorSpec) -> BetaCarry | None:
    """The one-element carry a single trial steps block by block, or None.

    As in the engine, a beta prior that is not ``integral`` needs one: a carry
    restarted from the prior at every call would cost O(N^2) unit steps.
    """
    if isinstance(prior, BetaPrior) and not prior.integral:
        return beta_prior_carry(prior.alpha, prior.beta, 1)
    return None


def _beta_carry_to(prior: BetaPrior, params, totals, carry) -> BetaCarry:
    # A one-element carry whose whole unit steps reach params: the caller's if the
    # counts are whole, else one with the smallest integral parameter at 1 (one
    # ratio of beta functions there), else the prior's, which whole counts reach
    whole = [i for i, v in enumerate(params) if is_integral(v)]
    if all(map(is_integral, totals)) and (carry is not None or not whole):
        return carry or beta_prior_carry(prior.alpha, prior.beta, 1)
    if not whole:
        raise DataError("Bernoulli success counts must be whole numbers")
    i = min(whole, key=params.__getitem__)
    a1, b1, a0, b0 = seed = [1.0 if j == i else float(v) for j, v in enumerate(params)]
    # P(X1 > X0) at a1, b1, a0, b0 = 1: E[(1 - X0)^b1], 1 - E[X0^a1], 1 - E[(1 - X1)^b0], E[X1^a0]
    x, y, base = ((a0, b0 + b1, (a0, b0)), (a0 + a1, b0, (a0, b0)),
                  (a1, b1 + b0, (a1, b1)), (a1 + a0, b1, (a1, b1)))[i]
    h = math.exp(special.betaln(x, y) - special.betaln(*base))
    log_g = special.betaln(a0 + a1, b0 + b1) - special.betaln(a1, b1) - special.betaln(a0, b0)
    h = np.array([1.0 - h if i in (1, 2) else h])
    return BetaCarry(np.array(seed)[:, None], h, np.array([log_g]))


def _quadrature_superiority(dist_exp, dist_ctrl) -> float:
    """Removed: no path integrates a superiority probability any more.

    The name stays because the benchmark's tracer (``perfbench/tracing.py``)
    wraps it to count quadrature calls, which must read 0.
    """
    raise NotImplementedError("superiority quadrature was removed")


def superiority_probability(
    post_exp: ArmPosterior,
    post_ctrl: ArmPosterior,
    prior: PriorSpec,
    direction: str = LARGER,
    sds: tuple[float, float] | None = None,
    carry: BetaCarry | None = None,
) -> float:
    """Posterior probability that the experimental arm's parameter is better.

    Gamma and normal posteriors use their closed forms for any parameters.
    Beta posteriors with four whole parameters take the engine's exact sum
    with its bits.  Others step ``carry``, a filled one-element ``BetaCarry``
    (``trial_beta_carry``), by Cook's recurrences from its last call, or a
    fresh carry if there is none or a success count is not whole.  Symmetric
    beta pairs give exactly 0.5, as in ``beta_superiority_vec``.  For the
    normal family ``sds`` must supply the known (control, experimental)
    outcome standard deviations.

    The returned value is clamped to the open interval (0, 1).
    """
    if isinstance(prior, GammaPrior):
        a1, b1 = gamma_posterior(prior, post_exp)
        a0, b0 = gamma_posterior(prior, post_ctrl)
        if b1 <= 0 or b0 <= 0:
            raise DataError("gamma posterior rate is not positive")
        larger = gamma_superiority_vec(a1, b1, a0, b0)
    elif isinstance(prior, BetaPrior):
        params = (*beta_posterior(prior, post_exp), *beta_posterior(prior, post_ctrl))
        if all(map(is_integral, params)):
            a1, b1, a0, b0 = params  # Altham's table, as in ``_beta_sup_exact``
            larger = (
                0.5 if _symmetric(*params)
                else hypergeom_upper_tail_scalar(a0 + a1 - 1, a0, b0 + b1 - 1, b0 - 1)
            )
        else:
            carry = _beta_carry_to(prior, params, (post_exp.total, post_ctrl.total), carry)
            targets = (np.array([v], dtype=np.float64) for v in params)
            larger = float(beta_superiority_vec(*targets, None, carry=carry)[0])
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
