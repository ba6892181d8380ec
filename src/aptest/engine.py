"""Vectorized mass replication of trials with deterministic stream splitting.

Replicates are simulated in lockstep chunks of fixed size: every chunk owns
a counter-based random stream derived from (seed, stream key, chunk index),
so results are bit-identical whether chunks run serially or across worker
processes, and independent of worker count.  Within a chunk the per-block
work is pure array arithmetic; only sufficient statistics are tracked, so
memory stays O(chunk) regardless of trial length.

The per-block random stream order is: allocation counts, experimental-arm
outcome sums, control-arm outcome sums.  An adaptive block of size 1 gives
each replicate one subject, so it draws one array after the allocations
(uniform, standard exponential or standard normal, by family) and maps each
replicate's value through the parameters of the arm its subject went to.
The burn-in, blocks of size above 1 and equal randomization draw both arms.

At more than one thread every chunk runs on one process pool that lives for
the whole process (``shared_pool``), so several batches can share it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .allocation import DesignConfig, tune_probability
from .errors import ConfigError, NumericalError
from .models import (
    ArmPosterior,
    BetaCarry,
    BetaPrior,
    GammaPrior,
    NormalKnownVar,
    OutcomeModel,
    PriorSpec,
    beta_posterior,
    beta_prior_carry,
    beta_superiority_vec,
    check_prior_family,
    gamma_posterior,
    gamma_superiority_vec,
    normal_posterior,
    normal_superiority_vec,
    oriented_probability,
)
from .stats import (
    APTestSpec,
    ComparatorTest,
    TestSpec,
    apply_transform,
    block_weights,
    fisher_statistic_from_counts,
    lr_exponential_from_counts,
    z_statistic_from_counts,
)

#: Replicates simulated per random stream.  Part of the algorithm identity:
#: changing it changes (valid) results.
CHUNK_SIZE = 16384

#: Ceiling on a batch's replicates: a sanity check, not an option.  1e8
#: replicates hold 0.8 GB per statistic.
MAX_REPLICATES = 10**8


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for one (seed, key...) stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *key))))


@dataclass
class BatchResult:
    """Per-replicate statistics and patient-level totals for one batch."""

    statistics: dict[str, np.ndarray]
    n_experimental: np.ndarray
    outcome_total: np.ndarray

    @property
    def replicates(self) -> int:
        return self.n_experimental.size


def validate_battery(
    design: DesignConfig, model: OutcomeModel, prior: PriorSpec, tests: tuple[TestSpec, ...]
) -> None:
    """Raise ConfigError unless the engine can simulate this design, prior and battery."""
    check_prior_family(prior, model.kind)
    names = [t.name for t in tests]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate test names in battery: {names}")
    comparator_kinds = {
        "exponential": "lr",
        "bernoulli": "fisher",
        "normal": "z",
    }
    for t in tests:
        if isinstance(t, APTestSpec):
            if not design.is_adaptive:
                raise ConfigError(
                    "AP tests read the adaptive probability path; "
                    "they do not apply to equal-randomization designs"
                )
            block_weights(t, design.num_blocks)  # validates t_min and lengths
        elif t.kind != comparator_kinds[model.kind]:
            raise ConfigError(
                f"comparator {t.kind!r} does not apply to {model.kind} outcomes"
            )


class _PosteriorVec:
    """Chunk-wide sufficient statistics with a family-specific probability map."""

    def __init__(
        self, model: OutcomeModel, prior: PriorSpec, size: int, max_n: int, block_size: int = 1
    ):
        self.model = model
        self.prior = prior
        self.kind = model.kind
        self.n1 = np.zeros(size, dtype=np.int64)
        self.n0 = np.zeros(size, dtype=np.int64)
        count_valued = self.kind == "bernoulli"
        dtype = np.int64 if count_valued else np.float64
        self.s1 = np.zeros(size, dtype=dtype)
        self.s0 = np.zeros(size, dtype=dtype)
        self._table: np.ndarray | None = None
        self._carry: BetaCarry | None = None
        # (arm, outcome) of each replicate's one subject since the last
        # superiority call, when absorb_one has just run
        self._unit: tuple[np.ndarray, np.ndarray] | None = None
        if isinstance(prior, BetaPrior):
            if prior.integral:
                # integer hyperparameters keep the posterior parameters integer
                # arrays.  Blocks of size above 1 take the exact sum; at one
                # subject per block the sum fills the carry at the first block,
                # with its log g from the table, and unit steps advance it
                self.prior = BetaPrior(int(prior.alpha), int(prior.beta))
                if block_size == 1:
                    top = 2 * (self.prior.alpha + self.prior.beta) + 4 * max_n + 16
                    self._table = special.gammaln(np.arange(top, dtype=np.float64))
                    self._carry = BetaCarry()
            else:
                # no exact sum exists: the carry starts at the prior
                self._carry = beta_prior_carry(prior.alpha, prior.beta, size)
        if isinstance(model.family, NormalKnownVar):
            self._sds = (model.family.sd_control, model.family.sd_experimental)
            # each arm's posterior variance at every count 0..N, looked up per block
            counts = np.arange(max_n + 1)
            self._var = tuple(
                normal_posterior(prior, ArmPosterior(counts, 0.0), sd)[1] for sd in self._sds
            )

    def superiority(self, exact: bool = False) -> np.ndarray:
        """P(experimental better) per replicate.

        Beta posteriors step the chunk's carry from the previous call.  They
        take the exact sum where there is no carry (an integer prior at
        blocks of size above 1), and with ``exact`` under an integer prior,
        which leaves the carry alone.  After ``absorb_one`` the carry takes
        one unit step per replicate, picked by that subject's arm and outcome.
        """
        prior = self.prior
        unit, self._unit = self._unit, None
        exp = ArmPosterior(self.n1, self.s1)
        ctrl = ArmPosterior(self.n0, self.s0)
        if isinstance(prior, GammaPrior):
            pi = gamma_superiority_vec(*gamma_posterior(prior, exp), *gamma_posterior(prior, ctrl))
        elif isinstance(prior, BetaPrior):
            pi = beta_superiority_vec(
                *beta_posterior(prior, exp),
                *beta_posterior(prior, ctrl),
                self._table,
                carry=None if exact and prior.integral else self._carry,
                unit=unit,
            )
        else:
            sd0, sd1 = self._sds
            var0, var1 = self._var
            pi = normal_superiority_vec(
                *normal_posterior(prior, exp, sd1, var1[self.n1]),
                *normal_posterior(prior, ctrl, sd0, var0[self.n0]),
            )
        return oriented_probability(pi, self.model.better_direction)

    def absorb(self, k1: np.ndarray, k0: np.ndarray, rng: np.random.Generator) -> None:
        """Draw and fold in the outcome sums for k1/k0 new subjects per arm."""
        self.s1 += _outcome_sums(self.model, 1, k1, rng)
        self.s0 += _outcome_sums(self.model, 0, k0, rng)
        self.n1 += k1
        self.n0 += k0

    def absorb_one(self, k1: np.ndarray, rng: np.random.Generator) -> None:
        """Fold in one new subject per replicate, on the experimental arm where k1 is 1.

        Each subject's outcome comes from one draw per replicate, made after
        the allocation draw and mapped through the parameters of that
        subject's own arm: a Bernoulli outcome is ``u < p``, an exponential
        one ``e / rate`` and a normal one ``mean + sd * z``.  Drawing for
        both arms would throw half of the draws away.
        """
        fam = self.model.family
        size = k1.size
        if self.kind == "bernoulli":
            y = rng.random(size) < _per_arm(fam.p_control, fam.p_experimental, k1)
        elif self.kind == "exponential":
            y = rng.standard_exponential(size)
            y /= _per_arm(fam.rate_control, fam.rate_experimental, k1)
        else:
            y = rng.standard_normal(size)
            y *= _per_arm(fam.sd_control, fam.sd_experimental, k1)
            y += _per_arm(fam.mean_control, fam.mean_experimental, k1)
        y1 = y * k1
        self.s1 += y1
        self.s0 += y - y1  # exactly y where k1 is 0 and 0 where it is 1
        self.n1 += k1
        self.n0 += 1 - k1
        if self._carry is not None:
            self._unit = (k1, y)

    def check(self) -> None:
        """Raise ValueError unless the beta carry's unit steps met the posteriors."""
        if self._carry is not None:
            self._carry.check()


def _per_arm(control: float, experimental: float, k1: np.ndarray) -> np.ndarray:
    """Each subject's arm parameter: ``experimental`` where k1 is 1, else ``control``.

    The same values as ``np.where(k1 == 1, experimental, control)``; a take
    from a two-element table costs a third of that.
    """
    return np.array([control, experimental]).take(k1)


def _outcome_sums(model: OutcomeModel, arm: int, counts: np.ndarray, rng) -> np.ndarray:
    fam = model.family
    if model.kind == "exponential":
        rate = fam.rate_experimental if arm == 1 else fam.rate_control
        return rng.standard_gamma(counts) / rate
    if model.kind == "bernoulli":
        p = fam.p_experimental if arm == 1 else fam.p_control
        return rng.binomial(counts, p)
    mean = fam.mean_experimental if arm == 1 else fam.mean_control
    sd = fam.sd_experimental if arm == 1 else fam.sd_control
    return counts * mean + np.sqrt(counts) * sd * rng.standard_normal(counts.size)


def _simulate_chunk(
    design: DesignConfig,
    model: OutcomeModel,
    prior: PriorSpec,
    tests: tuple[TestSpec, ...],
    size: int,
    rng: np.random.Generator,
) -> BatchResult:
    T = design.num_blocks
    post = _PosteriorVec(model, prior, size, design.total_n, design.block_size)

    ap_specs = [t for t in tests if isinstance(t, APTestSpec)]
    # weight_by_block[name][t] = w_t for t = 0..T+1 (0 outside t_min..T+1)
    weight_by_block = {}
    for spec in ap_specs:
        w = np.zeros(T + 2)
        w[spec.t_min :] = block_weights(spec, T)
        weight_by_block[spec.name] = w
    acc = {spec.name: np.zeros(size) for spec in ap_specs}

    def record(pi: np.ndarray, t: int) -> None:
        for spec in ap_specs:
            w = weight_by_block[spec.name][t]
            if w != 0.0:
                acc[spec.name] += w * apply_transform(spec.f, pi)

    if design.is_adaptive:
        half = design.burn_in // 2
        full = np.full(size, half, dtype=np.int64)
        post.absorb(full, full, rng)

        B = design.block_size
        tuned = design.is_tuned
        for t in range(1, T + 1):
            pi = post.superiority()
            if tuned:
                pi = tune_probability(pi, t, T)
            record(pi, t)
            if B == 1:
                post.absorb_one((rng.random(size) < pi).astype(np.int64), rng)
            else:
                k1 = rng.binomial(B, pi)
                post.absorb(k1, B - k1, rng)

        # Hypothetical final block: untuned posterior probability from all data,
        # from the exact sum rather than the carried recurrence where one exists.
        record(post.superiority(exact=True), T + 1)
        post.check()
    else:
        # equal randomization balances all N subjects; odd N leaves one to a coin
        n1 = np.full(size, design.total_n // 2, dtype=np.int64)
        if design.total_n % 2:
            n1 += rng.integers(0, 2, size)
        post.absorb(n1, design.total_n - n1, rng)

    _add_comparators(acc, tests, post, model)
    return BatchResult(
        statistics=acc,
        n_experimental=post.n1.copy(),
        outcome_total=(post.s1 + post.s0).astype(np.float64),
    )


def _add_comparators(
    out: dict[str, np.ndarray],
    tests: tuple[TestSpec, ...],
    post: _PosteriorVec,
    model: OutcomeModel,
) -> None:
    for t in tests:
        if not isinstance(t, ComparatorTest):
            continue
        if t.kind == "lr":
            stat, _ = lr_exponential_from_counts(post.n1, post.s1, post.n0, post.s0)
        elif t.kind == "fisher":
            stat = fisher_statistic_from_counts(post.n1, post.s1, post.n0, post.s0)
        else:
            fam = model.family
            stat, _ = z_statistic_from_counts(
                post.n1, post.s1, post.n0, post.s0, fam.sd_control, fam.sd_experimental
            )
        if np.isnan(stat).any():
            raise NumericalError(
                f"comparator {t.name!r} statistic is NaN: outcome sums out of "
                "floating-point range"
            )
        if t.two_sided:
            # degenerate replicates are marked -inf and must stay non-rejecting
            stat = np.where(np.isneginf(stat), stat, np.abs(stat))
        out[t.name] = np.asarray(stat, dtype=np.float64)


def _chunk_task(args) -> BatchResult:
    design, model, prior, tests, size, seed, stream, index = args
    rng = derive_rng(seed, *stream, index)
    return _simulate_chunk(design, model, prior, tests, size, rng)


_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def pool_workers(threads: int) -> int:
    """Worker processes of the shared pool at ``threads``: at most the CPU count."""
    return min(threads, os.cpu_count() or 1)


def shared_pool(threads: int) -> ProcessPoolExecutor:
    """The process-wide pool of ``pool_workers(threads)`` workers, every one started.

    Built on first use and replaced only when a call asks for another size.
    Under the fork start method (Linux's default) no worker re-imports numpy
    and scipy, and every worker is forked here, in the calling thread:
    call this before starting threads that submit to the pool, since
    forking a multi-threaded process is unsafe.
    """
    global _pool, _pool_workers
    workers = pool_workers(threads)
    with _pool_lock:
        if _pool is None or _pool_workers != workers:
            if _pool is not None:
                _pool.shutdown()
            _pool = ProcessPoolExecutor(max_workers=workers)
            _pool_workers = workers
            _pool.submit(int).result()  # under fork, the first submit starts every worker
        return _pool


def simulate_batch(
    design: DesignConfig,
    model: OutcomeModel,
    prior: PriorSpec,
    tests: tuple[TestSpec, ...],
    replicates: int,
    seed: int,
    stream: tuple[int, ...] = (),
    threads: int = 1,
) -> BatchResult:
    """Simulate ``replicates`` independent trials and collect every statistic.

    All requested tests share the same simulated trajectories.  Results are
    identical for any ``threads`` value; chunks are reassembled in index
    order.  At ``threads > 1`` every chunk runs on ``shared_pool(threads)``.
    """
    if not 1 <= replicates <= MAX_REPLICATES:
        raise ConfigError(f"replicates must lie in [1, {MAX_REPLICATES}], got {replicates}")
    validate_battery(design, model, prior, tests)
    sizes = [
        min(CHUNK_SIZE, replicates - start) for start in range(0, replicates, CHUNK_SIZE)
    ]
    tasks = [
        (design, model, prior, tests, size, seed, stream, index)
        for index, size in enumerate(sizes)
    ]
    if threads > 1:
        parts = list(shared_pool(threads).map(_chunk_task, tasks))
    else:
        parts = [_chunk_task(task) for task in tasks]
    names = parts[0].statistics.keys()
    return BatchResult(
        statistics={
            name: np.concatenate([p.statistics[name] for p in parts]) for name in names
        },
        n_experimental=np.concatenate([p.n_experimental for p in parts]),
        outcome_total=np.concatenate([p.outcome_total for p in parts]),
    )
