"""Vectorized mass replication of trials with deterministic stream splitting.

Replicates are simulated in lockstep chunks of fixed size: every chunk owns
a counter-based random stream derived from (seed, stream key, chunk index),
so results are bit-identical whether chunks run serially or across worker
processes, and independent of worker count.  Within a chunk the per-block
work is pure array arithmetic; only sufficient statistics are tracked, so
memory stays O(chunk) regardless of trial length.  A chunk returns only what
needs the path, its AP statistics and final counts; ``simulate_batch`` scores
the comparators from each chunk's counts, in the calling process.

The per-block random stream order is: allocation counts (one uniform per
replicate, inverted as NumPy's binomial does, for blocks of up to 60
subjects), experimental-arm outcome sums, control-arm outcome sums.  An
adaptive block of size 1 gives each replicate one subject, so it draws one
array after the allocations (uniform, standard exponential or standard
normal, by family) and maps each replicate's value through the parameters
of the arm its subject went to.  The burn-in, blocks of size above 1 and
equal randomization draw both arms.

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
    GammaCarry,
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

#: Largest block size whose allocation counts ``_allocation_counts`` inverts
#: itself.  NumPy's ``Generator.binomial(n, p)`` inverts one uniform when
#: n * min(p, 1 - p) <= 30, which holds at every p when n <= 60; above that
#: it switches to BTPE rejection, which draws a varying number of uniforms.
INVERSION_MAX_BLOCK = 60


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for one (seed, key...) stream."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *key))))


@dataclass
class BatchResult:
    """Per-replicate statistics and final counts for one batch: each replicate's
    subjects and outcome sum per arm, ``n1, s1`` (experimental) and ``n0, s0``."""

    statistics: dict[str, np.ndarray]
    n1: np.ndarray
    s1: np.ndarray
    n0: np.ndarray
    s0: np.ndarray

    @property
    def replicates(self) -> int:
        return self.n1.size

    @property
    def n_experimental(self) -> np.ndarray:
        return self.n1

    @property
    def outcome_total(self) -> np.ndarray:
        """Each replicate's outcome sum over both arms, as float64."""
        return (self.s1 + self.s0).astype(np.float64)


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
        self._carry: BetaCarry | GammaCarry | None = None
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
        elif isinstance(prior, GammaPrior):
            # betainc fills the carry at the first block; later blocks step it
            self._carry = GammaCarry(prior.shape)
        if isinstance(model.family, NormalKnownVar):
            self._sds = (model.family.sd_control, model.family.sd_experimental)
            # each arm's posterior variance at every count 0..N, looked up per block
            counts = np.arange(max_n + 1)
            self._var = tuple(
                normal_posterior(prior, ArmPosterior(counts, 0.0), sd)[1] for sd in self._sds
            )

    def superiority(self, exact: bool = False) -> np.ndarray:
        """P(experimental better) per replicate.

        Gamma posteriors step the chunk's carry from the previous call, and
        take ``betainc`` with ``exact``, which leaves the carry alone.  Beta
        posteriors step the chunk's carry from the previous call.  They
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
            pi = gamma_superiority_vec(
                *gamma_posterior(prior, exp),
                *gamma_posterior(prior, ctrl),
                carry=None if exact else self._carry,
            )
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
        if isinstance(self._carry, BetaCarry):
            self._unit = (k1, y)

    def check(self) -> None:
        """Raise ValueError unless the beta carry's unit steps met the posteriors."""
        if isinstance(self._carry, BetaCarry):
            self._carry.check()


def _per_arm(control: float, experimental: float, k1: np.ndarray) -> np.ndarray:
    """Each subject's arm parameter: ``experimental`` where k1 is 1, else ``control``.

    The same values as ``np.where(k1 == 1, experimental, control)``; a take
    from a two-element table costs a third of that.
    """
    return np.array([control, experimental]).take(k1)


def _allocation_counts(B: int, pi: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Experimental-arm subjects of each replicate's block of B: ``rng.binomial(B, pi)``.

    Up to ``INVERSION_MAX_BLOCK`` this is NumPy's inversion branch over the
    whole chunk at once: one uniform per replicate, searched through the
    Binomial(B, p') CDF at p' = min(pi, 1 - pi), and mapped back to B - k
    where pi > 1/2 (pi = 1/2 keeps the p' = pi side, as NumPy does).  It takes
    the same uniforms and gives the same counts.  They could differ only
    where a uniform lies within rounding of a CDF step, as NumPy subtracts
    each term from u and forms the terms in another order, or where a count
    lies ten standard deviations above its mean, where NumPy draws again.
    NumPy draws no uniform at pi = 0 or 1, which oriented and tuned
    probabilities never reach.
    """
    if B > INVERSION_MAX_BLOCK:
        return rng.binomial(B, pi)
    u = rng.random(pi.size)
    p = np.minimum(pi, 1.0 - pi)
    q = 1.0 - p
    ratio = p / q
    term = np.exp(B * np.log(q))  # NumPy's first term, exp(n log q)
    cdf = term.copy()
    # counts up to 60 fit int8; adding the comparisons as int8 (a view of
    # the bools, which hold 0 or 1) keeps the sum a same-type loop
    k = np.zeros(pi.size, dtype=np.int8)
    above = np.empty(pi.size, dtype=bool)
    for j in range(1, B + 1):
        np.greater(u, cdf, out=above)
        if not above.any():  # every search has stopped
            break
        k += above.view(np.int8)
        if j < B:
            term *= ratio
            term *= (B - j + 1) / j
            cdf += term
    k1 = k.astype(np.int64)
    np.subtract(B, k1, out=k1, where=pi > 0.5)
    return k1


def _outcome_sums(model: OutcomeModel, arm: int, counts: np.ndarray, rng) -> np.ndarray:
    # Bernoulli sums keep rng.binomial: NumPy draws no uniform for a count
    # of 0, so a vector inversion would shift the stream
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
                k1 = _allocation_counts(B, pi, rng)
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

    return BatchResult(acc, post.n1, post.s1, post.n0, post.s0)


def _comparator(t: ComparatorTest, model: OutcomeModel, part: BatchResult) -> np.ndarray:
    """``t``'s statistic per replicate, from the final counts of one chunk."""
    counts = part.n1, part.s1, part.n0, part.s0
    if t.kind == "lr":
        stat, _ = lr_exponential_from_counts(*counts)
    elif t.kind == "fisher":
        stat = fisher_statistic_from_counts(*counts)
    else:
        fam = model.family
        stat, _ = z_statistic_from_counts(*counts, fam.sd_control, fam.sd_experimental)
    if np.isnan(stat).any():
        raise NumericalError(
            f"comparator {t.name!r} statistic is NaN: outcome sums out of floating-point range"
        )
    if t.two_sided:
        # degenerate replicates are marked -inf and must stay non-rejecting
        stat = np.where(np.isneginf(stat), stat, np.abs(stat))
    return np.asarray(stat, dtype=np.float64)


def _chunk_task(args) -> BatchResult:
    design, model, prior, tests, size, seed, stream, index = args
    rng = derive_rng(seed, *stream, index)
    return _simulate_chunk(design, model, prior, tests, size, rng)


_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def pool_workers(threads: int) -> int:
    """Worker processes of the shared pool at ``threads``: at most the CPU count."""
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
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
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    pool_workers(threads)  # raises ConfigError below one thread
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
    statistics = {n: np.concatenate([p.statistics[n] for p in parts]) for n in parts[0].statistics}
    for t in tests:
        if isinstance(t, ComparatorTest):
            statistics[t.name] = np.concatenate([_comparator(t, model, p) for p in parts])
    counts = (np.concatenate([getattr(p, f) for p in parts]) for f in ("n1", "s1", "n0", "s0"))
    return BatchResult(statistics, *counts)
