"""Monte Carlo null distributions and critical-value selection.

A critical value is the smallest threshold q in the observed support with
empirical P(statistic > q) <= alpha; rejection is strictly greater-than.
No interpolation and no randomized tests: for a discrete statistic this can
force q to the maximum attainable value, in which case rejection is
impossible and the result carries a ``degenerate_max`` flag instead of
being silently "fixed".
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .allocation import DesignConfig, TrialTrajectory
from .engine import MAX_REPLICATES, simulate_batch
from .errors import ConfigError, DataError
from .models import (
    Bernoulli,
    Exponential,
    NormalKnownVar,
    OutcomeModel,
    PriorSpec,
)
from .stats import TestSpec

log = logging.getLogger(__name__)

#: Stream tags keeping calibration draws disjoint from evaluation draws.
STREAM_CALIBRATION = 1
STREAM_EVALUATION = 2


@dataclass(frozen=True)
class NullSpec:
    """A null configuration: equal-arm model, prior, and replication budget."""

    design: DesignConfig
    model: OutcomeModel
    prior: PriorSpec
    replicates: int = 10**6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ConfigError(f"calibration replicates must be >= 1, got {self.replicates}")
        if self.replicates > MAX_REPLICATES:
            raise ConfigError(
                f"calibration replicates must be at most {MAX_REPLICATES}, got {self.replicates}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.model.param_control != self.model.param_experimental:
            raise ConfigError(
                "null model must have equal arms: "
                f"control={self.model.param_control}, "
                f"experimental={self.model.param_experimental}"
            )


@dataclass(frozen=True)
class NullDistribution:
    """Sorted Monte Carlo sample of one statistic under the null."""

    test_name: str
    samples: np.ndarray


@dataclass(frozen=True)
class CriticalValue:
    """Calibrated threshold plus the tail probability it actually achieves."""

    q_alpha: float
    achieved_alpha: float
    alpha_nominal: float
    degenerate_max: bool

    def __post_init__(self) -> None:
        if self.achieved_alpha > self.alpha_nominal:
            raise ConfigError("achieved alpha cannot exceed the nominal level")


def simulate_null_distribution(
    null: NullSpec,
    tests: tuple[TestSpec, ...],
    threads: int = 1,
    stream: tuple[int, ...] = (),
) -> dict[str, NullDistribution]:
    """Null Monte Carlo distributions for every requested test statistic.

    One simulation pass serves all tests: each replicate's trajectory is
    scored by every statistic.  ``stream`` namespaces the random draws when
    several calibrations share one seed.
    """
    batch = simulate_batch(
        null.design,
        null.model,
        null.prior,
        tests,
        null.replicates,
        null.seed,
        stream=(STREAM_CALIBRATION, *stream),
        threads=threads,
    )
    return {
        name: NullDistribution(name, np.sort(values))
        for name, values in batch.statistics.items()
    }


def critical_value(dist: NullDistribution, alpha: float) -> CriticalValue:
    """Smallest sample-supported threshold with empirical tail <= alpha."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha must lie in (0, 1)")
    samples = dist.samples
    r = samples.size
    if r == 0:
        raise ConfigError("empty null distribution")
    allowed = int(np.floor(alpha * r))
    q = float(samples[r - allowed - 1])
    exceed = r - int(np.searchsorted(samples, q, side="right"))
    return CriticalValue(
        q_alpha=q,
        achieved_alpha=exceed / r,
        alpha_nominal=alpha,
        degenerate_max=(q == float(samples[-1])),
    )


def calibrate(
    null: NullSpec,
    tests: tuple[TestSpec, ...],
    alpha: float,
    threads: int = 1,
    stream: tuple[int, ...] = (),
) -> dict[str, CriticalValue]:
    """Convenience wrapper: null distributions followed by threshold selection."""
    dists = simulate_null_distribution(null, tests, threads=threads, stream=stream)
    out = {}
    for name, dist in dists.items():
        cv = critical_value(dist, alpha)
        if cv.degenerate_max:
            log.warning(
                "test %r: only the maximum observed statistic satisfies the "
                "alpha constraint; the calibrated test can never reject",
                name,
            )
        out[name] = cv
    return out


def pooled_null_model(observed: TrialTrajectory, model: OutcomeModel) -> OutcomeModel:
    """Equal-arm model at the pooled (arm-agnostic) parameter estimate.

    ``model`` supplies the family, the better direction, and any nuisance
    values (the known normal standard deviations stay arm-specific); its arm
    parameters are ignored.
    """
    post = observed.final_posteriors
    if post.kind != model.kind:
        raise ConfigError(
            f"trajectory family {post.kind} does not match model family {model.kind}"
        )
    n = post.control.n + post.experimental.n
    total = post.control.total + post.experimental.total
    if n == 0:
        raise DataError("cannot pool an empty trajectory")
    if post.kind == "exponential":
        if total <= 0:
            raise DataError("pooled exponential rate is undefined for zero total time")
        family = Exponential(n / total, n / total)
    elif post.kind == "bernoulli":
        p = total / n
        if p in (0.0, 1.0):
            # Boundary estimate: add-half continuity correction keeps the
            # null simulable.
            p = (total + 0.5) / (n + 1.0)
            log.warning(
                "pooled proportion hit the boundary; using add-half correction p=%.6f",
                p,
            )
        family = Bernoulli(p, p)
    else:
        mean = total / n
        family = NormalKnownVar(
            mean, mean, model.family.sd_control, model.family.sd_experimental
        )
    return OutcomeModel(family, model.better_direction)


def calibrate_under_pooled(
    observed: TrialTrajectory,
    design: DesignConfig,
    model: OutcomeModel,
    prior: PriorSpec,
    tests: tuple[TestSpec, ...],
    alpha: float,
    replicates: int,
    seed: int,
    threads: int = 1,
) -> dict[str, CriticalValue]:
    """Calibrate critical values under the observed trial's pooled estimate.

    Pooling ignores arm labels, so an unblinded analysis never sees
    group-specific results.
    """
    null = NullSpec(
        design=design,
        model=pooled_null_model(observed, model),
        prior=prior,
        replicates=replicates,
        seed=seed,
    )
    return calibrate(null, tests, alpha, threads=threads)

