"""Allocation-probability test statistics and frequentist comparators.

The allocation-probability (AP) statistic for a trial with T adaptive
blocks is

    sum over t = t_min .. T+1 of f(pi_t) * w_t

for a transform f (indicator above a threshold, or identity) and block
weights w.  Three named members of the family recur throughout:

* original:   f = indicator(pi > 0.5), w_t = 1   (integer-valued)
* timedirect: f = identity, w_t = t
* lastblock:  f = identity, w = (0, ..., 0, 1)   (equals pi_{T+1} and, under
  BRAR, a Bayesian decision rule on the posterior superiority probability)

Comparator tests operate on the outcome data: a two-sample exponential
likelihood-ratio test (signed root of the deviance), the one-sided Fisher
exact test, and a known-variance Z test.  All three are oriented toward
"experimental arm parameter larger"; their statistics increase with
evidence in that direction so that calibrated thresholds apply uniformly.

The Fisher p-value is P(A >= s1) for A ~ Hypergeom(N = n1 + n0,
K = s1 + s0, n1): ``models.hypergeom_upper_tail``, the kernel that also
gives the exact beta superiority probability, computed with numpy and
``scipy.special`` alone, so no simulation loads ``scipy.stats``.  A single
trial's test sums the same tail on Python numbers
(``models.hypergeom_upper_tail_scalar``), with the kernel's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np
from scipy import special

from .allocation import TrialTrajectory
from .errors import ConfigError, DataError
from .models import check_bernoulli_counts, hypergeom_upper_tail, hypergeom_upper_tail_scalar


@dataclass(frozen=True)
class Indicator:
    """f(pi) = 1 when pi exceeds the threshold (strictly, unless strict=False)."""

    threshold: float = 0.5
    strict: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("indicator threshold must lie in (0, 1)")


@dataclass(frozen=True)
class Identity:
    """f(pi) = pi."""


@dataclass(frozen=True)
class Ones:
    """w_t = 1 for every included block."""


@dataclass(frozen=True)
class TimeWeights:
    """w_t = t: later blocks rest on more data and weigh more."""


@dataclass(frozen=True)
class LastBlockOnly:
    """w_t = 0 except w_{T+1} = 1."""


@dataclass(frozen=True)
class CustomWeights:
    """Explicit nonnegative weights for blocks t_min .. T+1, in order.

    Their sum must be finite: it bounds the statistic, since f <= 1.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.size == 0:
            raise ConfigError("custom weights cannot be empty")
        with np.errstate(over="ignore"):
            total = arr.sum()
        if np.any(arr < 0) or not np.isfinite(total):
            raise ConfigError("custom weights must be nonnegative with a finite sum")
        if not np.any(arr > 0):
            raise ConfigError("custom weights cannot all be zero")


Transform = Union[Indicator, Identity]
WeightRule = Union[Ones, TimeWeights, LastBlockOnly, CustomWeights]


def _check_test_name(name: str) -> None:
    # a test name is a field of every row of the unescaped TSV reports
    if not name or any(c in name for c in "\t\n\r"):
        raise ConfigError(
            f"test name must be non-empty and hold no tab or line break, got {name!r}"
        )


@dataclass(frozen=True)
class APTestSpec:
    """One member of the generalized AP family: (f, w, t_min) plus a label."""

    name: str
    f: Transform
    w: WeightRule
    t_min: int = 1

    def __post_init__(self) -> None:
        _check_test_name(self.name)
        if self.t_min < 1:
            raise ConfigError("t_min must be >= 1")


def original_ap_test(t_min: int = 1, name: str = "original") -> APTestSpec:
    return APTestSpec(name=name, f=Indicator(), w=Ones(), t_min=t_min)


def timedirect_ap_test(t_min: int = 1, name: str = "timedirect") -> APTestSpec:
    return APTestSpec(name=name, f=Identity(), w=TimeWeights(), t_min=t_min)


def lastblock_ap_test(t_min: int = 1, name: str = "lastblock") -> APTestSpec:
    return APTestSpec(name=name, f=Identity(), w=LastBlockOnly(), t_min=t_min)


def block_weights(spec: APTestSpec, num_blocks: int) -> np.ndarray:
    """Weight vector over blocks t_min .. T+1 for a trial with T blocks."""
    if spec.t_min > num_blocks + 1:
        raise ConfigError(
            f"t_min={spec.t_min} exceeds the last block index {num_blocks + 1}"
        )
    length = num_blocks + 2 - spec.t_min
    if isinstance(spec.w, Ones):
        return np.ones(length)
    if isinstance(spec.w, TimeWeights):
        return np.arange(spec.t_min, num_blocks + 2, dtype=np.float64)
    if isinstance(spec.w, LastBlockOnly):
        w = np.zeros(length)
        w[-1] = 1.0
        return w
    values = np.asarray(spec.w.values, dtype=np.float64)
    if values.size != length:
        raise ConfigError(
            f"custom weight vector has length {values.size}, expected {length} "
            f"(blocks {spec.t_min}..{num_blocks + 1})"
        )
    return values


def apply_transform(f: Transform, probs: np.ndarray) -> np.ndarray:
    """f(pi) per element: boolean hits for the indicator, float probabilities otherwise."""
    if isinstance(f, Indicator):
        return probs > f.threshold if f.strict else probs >= f.threshold
    return np.asarray(probs, dtype=np.float64)


def ap_statistic_from_probs(probs: np.ndarray, spec: APTestSpec) -> float:
    """AP statistic from a full probability path pi_1 .. pi_{T+1}."""
    probs = np.asarray(probs, dtype=np.float64)
    num_blocks = probs.size - 1
    w = block_weights(spec, num_blocks)
    window = probs[spec.t_min - 1 :]
    return float(apply_transform(spec.f, window) @ w)


def ap_statistic(traj: TrialTrajectory, spec: APTestSpec) -> float:
    """AP statistic of one simulated trial."""
    return ap_statistic_from_probs(traj.alloc_probs, spec)


# ---------------------------------------------------------------------------
# Comparator tests
# ---------------------------------------------------------------------------


class ComparatorResult(NamedTuple):
    """One-sided comparator test of one trial; degenerate results never reject."""

    statistic: float
    p_value: float
    degenerate: bool


def _upper_normal_tail(stat, degenerate) -> ComparatorResult:
    # one trial's statistic with its upper standard-normal tail as p-value;
    # a degenerate trial is a flagged non-rejection
    if bool(degenerate):
        return ComparatorResult(-math.inf, 1.0, True)
    stat = float(stat)
    return ComparatorResult(stat, float(special.ndtr(-stat)), False)


def lr_exponential_from_counts(n1, s1, n0, s0):
    """Signed-root likelihood-ratio statistic for two exponential samples.

    Vectorized over replicates.  Returns (statistic, degenerate mask); the
    statistic is sign(rate1_hat - rate0_hat) * sqrt(deviance) and is set to
    -inf where an arm is empty, so degenerate replicates never reject.
    """
    n1 = np.asarray(n1, dtype=np.float64)
    n0 = np.asarray(n0, dtype=np.float64)
    s1 = np.asarray(s1, dtype=np.float64)
    s0 = np.asarray(s0, dtype=np.float64)
    degenerate = (n1 < 1) | (n0 < 1) | (s1 <= 0) | (s0 <= 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam1 = n1 / s1
        lam0 = n0 / s0
        pooled = (n1 + n0) / (s1 + s0)
        deviance = 2.0 * (n1 * np.log(lam1 / pooled) + n0 * np.log(lam0 / pooled))
        deviance = np.maximum(deviance, 0.0)  # guard tiny negative round-off
        stat = np.sign(lam1 - lam0) * np.sqrt(deviance)
    stat = np.where(degenerate, -np.inf, stat)
    return stat, degenerate


def lr_exponential(traj: TrialTrajectory) -> ComparatorResult:
    """Two-sample exponential LR test of "experimental rate larger".

    The one-sided statistic is the signed root of the deviance at the
    per-arm maximum-likelihood rates against the pooled rate; the p-value is
    its upper standard-normal tail.  An empty arm yields a flagged
    non-rejection rather than an error.
    """
    post = traj.final_posteriors
    if post.kind != "exponential":
        raise DataError("likelihood-ratio test requires exponential outcomes")
    stat, degenerate = lr_exponential_from_counts(
        post.experimental.n,
        post.experimental.total,
        post.control.n,
        post.control.total,
    )
    return _upper_normal_tail(stat, degenerate)


def fisher_exact_one_sided(n1: int, s1: int, n0: int, s0: int) -> float:
    """One-sided Fisher exact p-value for "experimental success rate larger".

    Conditional on the table margins, P(S1 >= s1) under the hypergeometric
    distribution: the vector kernel's sum on one table, bit for bit.
    """
    check_bernoulli_counts(n1, s1, n0, s0)
    return hypergeom_upper_tail_scalar(n1, s1, n0, s0)


def fisher_statistic_from_counts(n1, s1, n0, s0):
    """Vectorized -p for the one-sided Fisher test (larger = more evidence).

    p = P(A >= s1) for A ~ Hypergeom(N = n1 + n0, K = s1 + s0, n1), from
    ``models.hypergeom_upper_tail``.
    """
    return -hypergeom_upper_tail(n1, s1, n0, s0)


def z_statistic_from_counts(n1, s1, n0, s0, sd0: float, sd1: float):
    """Vectorized known-variance Z statistic; -inf where an arm is empty."""
    n1 = np.asarray(n1, dtype=np.float64)
    n0 = np.asarray(n0, dtype=np.float64)
    degenerate = (n1 < 1) | (n0 < 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean1 = np.asarray(s1, dtype=np.float64) / n1
        mean0 = np.asarray(s0, dtype=np.float64) / n0
        z = (mean1 - mean0) / np.sqrt(sd1 * sd1 / n1 + sd0 * sd0 / n0)
    z = np.where(degenerate, -np.inf, z)
    return z, degenerate


def z_test_normal(traj: TrialTrajectory, sd0: float, sd1: float) -> ComparatorResult:
    """Two-sample known-variance Z test of "experimental mean larger"."""
    if sd0 <= 0 or sd1 <= 0:
        raise ConfigError("standard deviations must be positive")
    post = traj.final_posteriors
    if post.kind != "normal":
        raise DataError("Z test requires normal outcomes")
    z, degenerate = z_statistic_from_counts(
        post.experimental.n,
        post.experimental.total,
        post.control.n,
        post.control.total,
        sd0,
        sd1,
    )
    return _upper_normal_tail(z, degenerate)


# ---------------------------------------------------------------------------
# Test batteries: AP specs plus outcome-based comparators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparatorTest:
    """An outcome-based test computed from the final sufficient statistics.

    ``two_sided`` switches LR and Z to their absolute-value statistics
    (equivalently, the deviance against a chi-square threshold); the Fisher
    test stays one-sided.
    """

    kind: str  # "lr" | "fisher" | "z"
    name: str
    two_sided: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("lr", "fisher", "z"):
            raise ConfigError(f"unknown comparator kind {self.kind!r}")
        _check_test_name(self.name)
        if self.two_sided and self.kind == "fisher":
            raise ConfigError("the Fisher comparator is one-sided only")


TestSpec = Union[APTestSpec, ComparatorTest]


def has_nominal_form(spec: TestSpec) -> bool:
    """Every comparator has an uncalibrated form; of the AP tests, only the integer-valued one."""
    return isinstance(spec, ComparatorTest) or (
        isinstance(spec.f, Indicator) and isinstance(spec.w, Ones)
    )


def nominal_critical_value(spec: TestSpec, num_blocks: int, alpha: float) -> float:
    """Rejection threshold for the uncalibrated ("nominal") form of a test.

    For the integer-valued AP test this is the largest usable threshold,
    T + 1 - t_min (rejection means every included block favored the
    experimental arm); its size is whatever the design implies, not alpha.
    For LR and Z it is the upper-alpha normal quantile; for Fisher, on the
    -p scale, it is -alpha.
    """
    if not has_nominal_form(spec):
        raise ConfigError(f"AP test {spec.name!r} has no nominal form; calibrate it")
    if isinstance(spec, APTestSpec):
        return float(num_blocks + 1 - spec.t_min)
    if spec.kind in ("lr", "z"):
        tail = alpha / 2.0 if spec.two_sided else alpha
        return float(special.ndtri(1.0 - tail))
    return -alpha
