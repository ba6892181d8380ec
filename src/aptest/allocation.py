"""Single-trial simulation for equal-randomization and BRAR designs.

A trial runs in blocks: a burn-in block of even size with exact 50/50
balance, then ``num_blocks`` adaptive blocks in which every subject shares
one allocation probability.  After the last block a final allocation
probability is computed from the complete data for the hypothetical next
block; no subjects are allocated to it, but it carries the trial's residual
evidence and is part of the recorded trajectory.  Equal randomization
balances all N subjects as the batched engine does: N // 2 per arm, and a
fair coin for the odd one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, NumericalError
from .models import (
    ArmPosterior,
    NormalKnownVar,
    OutcomeModel,
    PosteriorState,
    PriorSpec,
    check_prior_family,
    sample_outcome,
    superiority_probability,
    trial_beta_carry,
)


@dataclass(frozen=True)
class EqualRandomization:
    """Non-adaptive comparator: N // 2 subjects per arm, a fair coin for odd N."""


@dataclass(frozen=True)
class StandardBRAR:
    """Allocation probability equals the posterior superiority probability."""


@dataclass(frozen=True)
class TunedBRAR:
    """BRAR regularized toward 0.5 early in the trial (exponent 0.1 + 0.9 t/T)."""


DesignKind = Union[EqualRandomization, StandardBRAR, TunedBRAR]

#: Ceiling on a design's subjects: a sanity check, not an option.
MAX_TOTAL_N = 10**6


@dataclass(frozen=True)
class DesignConfig:
    """Trial layout: N subjects = burn_in + block_size * num_blocks."""

    total_n: int
    burn_in: int
    block_size: int
    num_blocks: int
    design: DesignKind = StandardBRAR()

    def __post_init__(self) -> None:
        if self.total_n > MAX_TOTAL_N:
            raise ConfigError(f"total_n must be at most {MAX_TOTAL_N}, got {self.total_n}")
        if self.burn_in < 2 or self.burn_in % 2 != 0:
            raise ConfigError("burn-in must be even and >= 2 so both arms have data")
        if self.block_size < 1:
            raise ConfigError("block size must be >= 1")
        if self.num_blocks < 0:
            raise ConfigError("number of blocks cannot be negative")
        if self.total_n != self.burn_in + self.block_size * self.num_blocks:
            raise ConfigError(
                f"total_n={self.total_n} != burn_in + block_size * num_blocks "
                f"= {self.burn_in} + {self.block_size} * {self.num_blocks}"
            )

    @property
    def is_adaptive(self) -> bool:
        return not isinstance(self.design, EqualRandomization)

    @property
    def is_tuned(self) -> bool:
        return isinstance(self.design, TunedBRAR)

    def label(self) -> str:
        if isinstance(self.design, EqualRandomization):
            return "er"
        return "tuned-brar" if self.is_tuned else "standard-brar"


def sized_design(
    total_n: int, burn_in: int, block_size: int = 1, design: DesignKind = StandardBRAR()
) -> DesignConfig:
    """The design of ``total_n`` subjects: the burn-in, then whole blocks of ``block_size``."""
    remaining = total_n - burn_in
    if block_size < 1 or remaining % block_size != 0:
        raise ConfigError(
            f"total_n - burn_in = {remaining} is not a whole number "
            f"of blocks of size {block_size}"
        )
    return DesignConfig(total_n, burn_in, block_size, remaining // block_size, design)


@dataclass(frozen=True)
class TrialTrajectory:
    """One simulated trial: per-subject records plus the probability path.

    ``alloc_probs[i]`` is the allocation probability of adaptive block
    ``i + 1``; the last entry belongs to the hypothetical block after the
    trial.  Block 0 of ``allocations``/``outcomes`` is the burn-in.
    """

    allocations: tuple[np.ndarray, ...]
    outcomes: tuple[np.ndarray, ...]
    alloc_probs: np.ndarray
    final_posteriors: PosteriorState

    def prob(self, t: int) -> float:
        """Allocation probability of block t, for t in 1..num_blocks+1."""
        return float(self.alloc_probs[t - 1])

    @property
    def num_blocks(self) -> int:
        return len(self.alloc_probs) - 1

    @property
    def n_by_arm(self) -> tuple[int, int]:
        n1 = sum(int(block.sum()) for block in self.allocations)
        total = sum(block.size for block in self.allocations)
        return total - n1, n1


def tune_probability(pi, t: int, num_blocks: int):
    """Regularize an allocation probability with exponent c = 0.1 + 0.9 t/T.

    Accepts scalars or arrays.  The map fixes 0.5, preserves ordering
    relative to 0.5, and at t = T (c = 1) returns the input unchanged.
    """
    if t == num_blocks:
        return pi
    c = 0.1 + 0.9 * t / num_blocks
    num = np.power(pi, c)
    out = num / (num + np.power(1.0 - pi, c))
    return float(out) if isinstance(pi, float) else out


def _balanced_labels(n: int, rng: np.random.Generator) -> np.ndarray:
    """n // 2 labels per arm, a fair-coin label for odd n, in random order."""
    labels = np.repeat(np.array([0, 1], dtype=np.int8), n // 2)
    if n % 2:
        labels = np.append(labels, np.int8(rng.integers(0, 2)))
    return rng.permutation(labels)


def simulate_trial(
    design: DesignConfig,
    model: OutcomeModel,
    prior: PriorSpec,
    rng: np.random.Generator,
) -> TrialTrajectory:
    """Simulate one complete trial and record its probability trajectory.

    Posteriors update after each whole block (all subjects in a block share
    one allocation probability, and their outcomes are treated as observed
    before the next block).  BRAR blocks allocate each subject by an
    independent Bernoulli draw at the block's probability; equal
    randomization takes its labels from one balanced sequence over all N
    subjects (``_balanced_labels``), and the probability path is recorded
    untuned, for diagnostics only.

    Within a block the random stream is consumed as: allocation draws
    (one batch), then outcomes in subject order.
    """
    check_prior_family(prior, model.kind)
    sds = None
    if isinstance(model.family, NormalKnownVar):
        sds = (model.family.sd_control, model.family.sd_experimental)
    direction = model.better_direction
    tuned = design.is_tuned
    T = design.num_blocks

    er_labels = None if design.is_adaptive else _balanced_labels(design.total_n, rng)

    # per-arm (n, outcome total) as plain numbers, [control, experimental];
    # outcomes add in subject order, as update_posterior folds them
    counts = [0, 0]
    totals = [0.0, 0.0]
    carry = trial_beta_carry(prior)
    allocations: list[np.ndarray] = []
    outcomes: list[np.ndarray] = []

    def run_block(arms: np.ndarray) -> None:
        ys = []
        for arm in arms.tolist():
            y = sample_outcome(model, arm, rng)
            counts[arm] += 1
            totals[arm] += y
            ys.append(y)
        if not (math.isfinite(totals[0]) and math.isfinite(totals[1])):
            # finite draws whose sum overflows: a numerical failure, where the
            # arm rules would read an inf total as data no trial has
            raise NumericalError(
                f"outcome total drawn from the {model.kind} model is not finite: {totals}"
            )
        allocations.append(arms)
        outcomes.append(np.array(ys, dtype=np.float64))

    def probability() -> float:
        return superiority_probability(
            ArmPosterior(counts[1], totals[1]),
            ArmPosterior(counts[0], totals[0]),
            prior,
            direction,
            sds,
            carry,
        )

    if er_labels is not None:
        run_block(er_labels[: design.burn_in])
    else:
        run_block(_balanced_labels(design.burn_in, rng))

    probs = np.empty(T + 1, dtype=np.float64)
    for t in range(1, T + 1):
        pi = probability()
        if tuned:
            pi = tune_probability(pi, t, T)
        probs[t - 1] = pi
        if er_labels is not None:
            start = design.burn_in + (t - 1) * design.block_size
            arms = er_labels[start : start + design.block_size]
        else:
            arms = (rng.random(design.block_size) < pi).astype(np.int8)
        run_block(arms)

    # Hypothetical block T+1: computed from all data, untuned (the tuning
    # schedule ends at c = 1, so the posterior probability is used directly).
    probs[T] = probability()

    return TrialTrajectory(
        allocations=tuple(allocations),
        outcomes=tuple(outcomes),
        alloc_probs=probs,
        final_posteriors=PosteriorState(
            model.kind,
            ArmPosterior(counts[0], totals[0]),
            ArmPosterior(counts[1], totals[1]),
        ),
    )

