"""Batched replication engine: correctness against the scalar path and
determinism under chunking and process-level parallelism."""

import hashlib
import os
import sys
import threading
import time

import numpy as np
import pytest
from scipy import special

from aptest import engine
from aptest.allocation import (
    DesignConfig,
    StandardBRAR,
    TunedBRAR,
    simulate_trial,
    tune_probability,
)
from aptest.engine import CHUNK_SIZE, derive_rng, simulate_batch
from aptest.errors import ConfigError, NumericalError
from aptest.harness import equal_randomization_design
from aptest.models import (
    PROB_FLOOR,
    ArmPosterior,
    Bernoulli,
    BetaPrior,
    Exponential,
    GammaPrior,
    NormalKnownVar,
    NormalPrior,
    OutcomeModel,
    beta_posterior,
    beta_superiority_vec,
    gamma_superiority_vec,
    hypergeom_upper_tail_scalar,
    normal_posterior,
    normal_superiority_vec,
    oriented_probability,
)
from aptest.stats import (
    ComparatorTest,
    fisher_statistic_from_counts,
    lastblock_ap_test,
    original_ap_test,
    timedirect_ap_test,
)
from tests.beta_oracle import beta_superiority_closed

PRIOR = GammaPrior(1.0, 0.001)


class TestVectorizedSuperiority:
    def test_gamma_matches_scalar(self, rng):
        a1 = rng.integers(1, 120, 300).astype(float)
        a0 = rng.integers(1, 120, 300).astype(float)
        b1 = rng.uniform(0.001, 50.0, 300)
        b0 = rng.uniform(0.001, 50.0, 300)
        vec = gamma_superiority_vec(a1, b1, a0, b0)
        for i in range(300):
            assert vec[i] == gamma_superiority_vec(a1[i], b1[i], a0[i], b0[i])

    def test_beta_matches_scalar(self, rng):
        moderate = np.array([rng.integers(1, 80, 300) for _ in range(4)])
        # parameters up to 1000 with one small integral parameter in a random
        # slot: both sums run over it
        lopsided = rng.integers(1, 1001, (4, 2000))
        lopsided[rng.integers(0, 4, 2000), np.arange(2000)] = rng.integers(1, 12, 2000)
        # every parameter 200..1000: the scalar sum carries hundreds of terms
        long_sums = rng.integers(200, 1001, (4, 300))
        table = special.gammaln(np.arange(0, 4010, dtype=float))
        for params in (moderate, lopsided, long_sums):
            vec = beta_superiority_vec(*params, table)
            scalar = [beta_superiority_closed(*map(float, column)) for column in params.T]
            assert np.abs(vec - scalar).max() < 1e-11

    def test_beta_stays_inside_the_unit_interval(self, rng):
        # near-certain states at N = 1000, many summed directly over hundreds
        # of terms whose rounding reaches 1e-12, and the same with arms swapped
        n1 = rng.binomial(1000, rng.uniform(0.2, 0.8, 4000))
        y1, y0 = rng.binomial(n1, 0.9), rng.binomial(1000 - n1, 0.7)
        better = (1 + y1, 1 + n1 - y1, 1 + y0, 1001 - n1 - y0)
        table = special.gammaln(np.arange(4100, dtype=float))
        for params in (better, better[2:] + better[:2]):
            p = beta_superiority_vec(*params, table)
            assert np.all((p >= 0.0) & (p <= 1.0))

    def test_normal_variance_table_has_the_posterior_bits(self, rng):
        # unequal sds, so a table read on the wrong arm would show
        model = OutcomeModel(NormalKnownVar(0.3, -1.0, 2.0, 0.5))
        prior = NormalPrior(0.4, 30.0)
        post = engine._PosteriorVec(model, prior, 500, 400)
        post.n1 = rng.integers(0, 401, 500)
        post.n0 = 400 - post.n1
        post.s1 = rng.normal(0.0, 20.0, 500)
        post.s0 = rng.normal(0.0, 20.0, 500)
        direct = normal_superiority_vec(
            *normal_posterior(prior, ArmPosterior(post.n1, post.s1), 0.5),
            *normal_posterior(prior, ArmPosterior(post.n0, post.s0), 2.0),
        )
        expected = oriented_probability(direct, model.better_direction)
        assert post.superiority().tobytes() == expected.tobytes()


class TestBetaCarry:
    """The engine's carried beta recurrence against the exact sum per block."""

    @pytest.mark.parametrize("block_size", [1, 5])
    @pytest.mark.parametrize("tuned", [False, True])
    @pytest.mark.parametrize("direction", ["larger", "smaller"])
    def test_carried_run_matches_exact_run(self, monkeypatch, block_size, tuned, direction):
        design = DesignConfig(
            60, 10, block_size, 50 // block_size, design=TunedBRAR() if tuned else StandardBRAR()
        )
        model = OutcomeModel(Bernoulli(0.55, 0.7), direction)
        prior = BetaPrior(1.0, 1.0)
        tests = (original_ap_test(), timedirect_ap_test(), lastblock_ap_test())
        carried = simulate_batch(design, model, prior, tests, 3000, seed=11)

        kernel = engine.beta_superiority_vec
        calls = []

        def exact_only(*args, carry=None, unit=None):
            calls.append(carry is not None)
            return kernel(*args)

        monkeypatch.setattr(engine, "beta_superiority_vec", exact_only)
        exact = simulate_batch(design, model, prior, tests, 3000, seed=11)
        # at one subject per block every adaptive block offers the carry and
        # the final block T+1 does not; larger blocks take the exact sum throughout
        offered = block_size == 1
        assert calls == [offered] * design.num_blocks + [False]
        assert np.array_equal(carried.n_experimental, exact.n_experimental)
        for name in exact.statistics:
            np.testing.assert_allclose(
                carried.statistics[name], exact.statistics[name], rtol=1e-9, atol=0
            )

    @pytest.mark.parametrize("tuned", [False, True])
    def test_real_prior_carry_follows_scalar_trajectory(self, tuned):
        # a Jeffreys prior has no exact sum: the engine and the scalar path
        # each carry from the prior through block T+1
        design = DesignConfig(
            121, 12, 1, 109, design=TunedBRAR() if tuned else StandardBRAR()
        )
        model = OutcomeModel(Bernoulli(0.55, 0.7))
        prior = BetaPrior(0.5, 0.5)
        traj = simulate_trial(design, model, prior, np.random.default_rng(5))
        post = engine._PosteriorVec(model, prior, 1, design.total_n)
        T = design.num_blocks
        for t, (arms, ys) in enumerate(zip(traj.allocations, traj.outcomes)):
            post.n1 += int(arms.sum())
            post.n0 += int(arms.size - arms.sum())
            post.s1 += int(ys[arms == 1].sum())
            post.s0 += int(ys[arms == 0].sum())
            if t < T:
                pi = post.superiority()
                if tuned:
                    pi = tune_probability(pi, t + 1, T)
            else:
                pi = post.superiority(exact=True)
            assert abs(pi[0] - traj.alloc_probs[t]) < 1e-12

    @pytest.mark.parametrize("prior", [BetaPrior(1.0, 1.0), BetaPrior(0.5, 0.5)])
    @pytest.mark.parametrize("block_size", [1, 3])
    def test_unit_steps_follow_one_subject_blocks(self, monkeypatch, prior, block_size):
        # at one subject per replicate the kernel hears each subject's arm
        # and outcome; the first block follows the burn-in, and the final
        # block under an integer prior takes the exact sum
        kernel = engine.beta_superiority_vec
        units = []

        def spy(*args, carry=None, unit=None):
            units.append(carry is not None and unit is not None)
            return kernel(*args, carry=carry, unit=unit)

        monkeypatch.setattr(engine, "beta_superiority_vec", spy)
        T = 30 // block_size
        design = DesignConfig(40, 10, block_size, T)
        simulate_batch(design, OutcomeModel(Bernoulli(0.6, 0.8)), prior, (), 500, seed=2)
        if block_size > 1:
            assert units == [False] * (T + 1)
        else:
            real = not float(prior.alpha).is_integer()
            assert units == [False] + [True] * (T - 1) + [real]

    @pytest.mark.parametrize("prior", [BetaPrior(1.0, 1.0), BetaPrior(0.5, 0.5)])
    def test_forged_subject_fails_the_chunk_check(self, monkeypatch, prior):
        absorb_one = engine._PosteriorVec.absorb_one
        blocks = []

        def forged(self, k1, rng):
            absorb_one(self, k1, rng)
            blocks.append(None)
            if len(blocks) == 7:  # one replicate's outcome reaches the kernel flipped
                _, y = self._unit
                y[0] = not y[0]

        monkeypatch.setattr(engine._PosteriorVec, "absorb_one", forged)
        design = DesignConfig(40, 10, 1, 30)
        with pytest.raises(ValueError, match="unit steps missed"):
            simulate_batch(design, OutcomeModel(Bernoulli(0.6, 0.8)), prior, (), 500, seed=2)


def dispatch_level() -> tuple[str, ...]:
    """The CPU targets of NumPy's float64 exp, log and power loops in this process.

    The targets round some results differently, so the raw bits of a batch
    depend on them; ``NPY_DISABLE_CPU_FEATURES`` moves them.
    """
    from numpy.lib.introspect import opt_func_info

    info = opt_func_info(func_name="^(exp|log|power)$", signature="float64")
    return tuple(next(iter(info[name].values()))["current"] for name in ("exp", "log", "power"))


class TestGoldenPin:
    """SHA-256 of small Bernoulli batches: each statistic by name, then n_experimental.

    One digest set per NumPy dispatch level: the AVX-512 loops, and the
    AVX2/baseline loops that ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
    AVX512_SPR"`` selects on an AVX-512 CPU, and that a CPU without AVX-512
    selects by itself.  A change meant to move these numerics updates the
    digests and says so.
    """

    DIGESTS = {
        ("X86_V4", "X86_V4", "X86_V4"): {
            (1.0, 1, False): "429b3cbcdd35c47c",
            (1.0, 1, True): "c03c54e288a35fea",
            (1.0, 3, False): "6e4736fe4532f260",
            (1.0, 3, True): "6a35564e4ac03089",
            (0.5, 1, False): "3d3eeb46a34f92d0",
            (0.5, 1, True): "429b63959a4e480c",
            (0.5, 3, False): "51cc6ad8467c2f51",
            (0.5, 3, True): "632a9df4ec5103d4",
        },
        ("X86_V3", "X86_V3", "baseline(X86_V2)"): {
            (1.0, 1, False): "74959e9fc51b1188",
            (1.0, 1, True): "e11819bb2e8d1cc5",
            (1.0, 3, False): "f5d37c9b12cd7ae1",
            (1.0, 3, True): "4326557edb4d9784",
            (0.5, 1, False): "b8f2946e4998abb9",
            (0.5, 1, True): "3c87de6fde63ec6e",
            (0.5, 3, False): "cd5b368180f9ebf2",
            (0.5, 3, True): "dbacc42a473f5f6d",
        },
    }

    #: exponential outcomes at blocks of 10: gamma-kernel probabilities and
    #: the allocation counts of ``engine._allocation_counts``, by ``tuned``
    EXPONENTIAL_DIGESTS = {
        ("X86_V4", "X86_V4", "X86_V4"): {False: "24720d02502c308f", True: "dc01fd49245eb347"},
        ("X86_V3", "X86_V3", "baseline(X86_V2)"): {
            False: "8050437586ced98d",
            True: "668bdce3a1e9ade8",
        },
    }

    @staticmethod
    def digest(result) -> str:
        digest = hashlib.sha256()
        for name in sorted(result.statistics):
            digest.update(result.statistics[name].tobytes())
        digest.update(result.n_experimental.tobytes())
        return digest.hexdigest()[:16]

    @staticmethod
    def level(digests) -> tuple[str, ...]:
        level = dispatch_level()
        assert level in digests, f"no digests recorded at NumPy dispatch level {level}"
        return level

    @pytest.mark.parametrize("prior_param, block_size, tuned", sorted(DIGESTS[("X86_V4",) * 3]))
    def test_statistics_keep_their_bytes(self, prior_param, block_size, tuned):
        design = DesignConfig(
            40, 10, block_size, 30 // block_size, design=TunedBRAR() if tuned else StandardBRAR()
        )
        tests = (
            original_ap_test(), timedirect_ap_test(), lastblock_ap_test(),
            ComparatorTest("fisher", "fisher"),
        )
        result = simulate_batch(
            design, OutcomeModel(Bernoulli(0.6, 0.8)), BetaPrior(prior_param, prior_param),
            tests, 2000, seed=7,
        )
        key = (prior_param, block_size, tuned)
        assert self.digest(result) == self.DIGESTS[self.level(self.DIGESTS)][key]

    @pytest.mark.parametrize("tuned", [False, True])
    def test_exponential_blocks_of_ten_keep_their_bytes(self, tuned):
        design = DesignConfig(100, 10, 10, 9, design=TunedBRAR() if tuned else StandardBRAR())
        tests = (
            original_ap_test(), timedirect_ap_test(), lastblock_ap_test(),
            ComparatorTest("lr", "lr"),
        )
        result = simulate_batch(
            design, OutcomeModel(Exponential(1.0, 1.5)), PRIOR, tests, 2000, seed=7
        )
        level = self.level(self.EXPONENTIAL_DIGESTS)
        assert self.digest(result) == self.EXPONENTIAL_DIGESTS[level][tuned]


class TestAllocationCounts:
    """Blocks of up to 60 subjects invert one uniform each, as NumPy's binomial does."""

    @staticmethod
    def probabilities() -> np.ndarray:
        rng = np.random.default_rng(27)
        tails = np.logspace(-15, np.log10(0.5), 400)
        half = np.array([np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)])
        pi = np.concatenate([
            rng.random(2000), tails, 1.0 - tails, np.repeat(half, 200),
            np.repeat([PROB_FLOOR, 1.0 - PROB_FLOOR], 50),
        ])
        rng.shuffle(pi)
        return pi

    def test_counts_and_stream_equal_numpy_binomial(self):
        pi = self.probabilities()
        for B in range(2, engine.INVERSION_MAX_BLOCK + 1):
            ours, numpys = derive_rng(11, B), derive_rng(11, B)
            k1 = engine._allocation_counts(B, pi, ours)
            expected = numpys.binomial(B, pi)
            assert k1.dtype == expected.dtype
            assert np.array_equal(k1, expected), f"B={B}: {np.sum(k1 != expected)} counts differ"
            assert ours.random() == numpys.random(), f"B={B}: the streams part"

    @pytest.mark.parametrize("block_size", [10, 61, 100])
    def test_blocks_above_sixty_keep_numpy_binomial(self, monkeypatch, block_size):
        # NumPy's BTPE branch draws a varying number of uniforms, so larger
        # blocks stay with it; exponential outcomes draw no binomial of their own
        calls = []

        class Spy:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def binomial(self, n, p):
                calls.append(n)
                return self.rng.binomial(n, p)

        derive = engine.derive_rng
        monkeypatch.setattr(engine, "derive_rng", lambda *key: Spy(derive(*key)))
        design = DesignConfig(10 + 3 * block_size, 10, block_size, 3)
        simulate_batch(
            design, OutcomeModel(Exponential(1.0, 1.5)), PRIOR, (lastblock_ap_test(),), 300, seed=1
        )
        expected = [block_size] * 3 if block_size > engine.INVERSION_MAX_BLOCK else []
        assert calls == expected


class TestLastBlockTies:
    """Block T+1 under an integer prior is the exact sum: a function of the final state."""

    @pytest.mark.parametrize("replicates", [CHUNK_SIZE + 5, CHUNK_SIZE + 1696])
    @pytest.mark.parametrize("prior", [BetaPrior(1.0, 1.0), BetaPrior(2.0, 3.0)])
    @pytest.mark.parametrize("block_size", [1, 3])
    def test_equal_final_states_carry_equal_bits(self, monkeypatch, replicates, prior, block_size):
        # chunks of different sizes hold different parameter ranges, so a
        # summing order chosen per chunk would split ties between them
        finals = []
        check = engine._PosteriorVec.check

        def capture(self):
            finals.append(np.stack([self.s1, self.n1 - self.s1, self.s0, self.n0 - self.s0]))
            check(self)

        monkeypatch.setattr(engine._PosteriorVec, "check", capture)
        design = DesignConfig(40, 10, block_size, 30 // block_size)
        batch = simulate_batch(
            design, OutcomeModel(Bernoulli(0.5, 0.5)), prior, (lastblock_ap_test(),),
            replicates, seed=4,
        )
        a1, b1, a0, b0 = np.concatenate(finals, axis=1) + np.array(
            [prior.alpha, prior.beta, prior.alpha, prior.beta]
        )[:, None].astype(np.int64)
        # swapping a1 with b0, or b1 with a0, keeps P(X1 > X0)
        key = np.stack([
            np.minimum(a1, b0), np.maximum(a1, b0), np.minimum(a0, b1), np.maximum(a0, b1)
        ])
        classes, cls = np.unique(key, axis=1, return_inverse=True)
        cls = cls.ravel()
        lastblock = batch.statistics["lastblock"]
        low = np.full(classes.shape[1], np.inf)
        high = np.full(classes.shape[1], -np.inf)
        np.minimum.at(low, cls, lastblock)
        np.maximum.at(high, cls, lastblock)
        assert np.count_nonzero(low != high) == 0
        # some classes hold distinct states, which the swaps must not tell apart
        assert classes.shape[1] < np.unique(np.stack([a1, b1, a0, b0]), axis=1).shape[1]


class TestExactSumAtLargerBlocks:
    """Under an integer prior every block of size above 1 reads the exact sum of its state."""

    @pytest.mark.parametrize("prior", [BetaPrior(1.0, 1.0), BetaPrior(2.0, 3.0)])
    @pytest.mark.parametrize("tuned", [False, True])
    def test_each_block_is_the_exact_sum_of_its_own_state(self, monkeypatch, prior, tuned):
        # two chunks of different sizes: a value that depended on the chunk's
        # path or on its other replicates would differ from the one-table sum
        kernel = engine.beta_superiority_vec
        calls = []

        def spy(*args, carry=None, unit=None):
            pi = kernel(*args, carry=carry, unit=unit)
            calls.append((np.stack(args[:4]), pi.copy()))
            return pi

        monkeypatch.setattr(engine, "beta_superiority_vec", spy)
        design = DesignConfig(40, 10, 3, 10, design=TunedBRAR() if tuned else StandardBRAR())
        simulate_batch(
            design, OutcomeModel(Bernoulli(0.6, 0.8)), prior, (), CHUNK_SIZE + 1696, seed=4
        )
        assert len(calls) == 2 * (design.num_blocks + 1)
        for params, pi in calls:
            states, inverse = np.unique(params, axis=1, return_inverse=True)
            expected = np.array([
                # symmetric states read exactly 1/2; others Altham's table, as the kernel maps it
                0.5 if (a1 == a0 and b1 == b0) or (a1 == b1 and a0 == b0)
                else hypergeom_upper_tail_scalar(a0 + a1 - 1, a0, b0 + b1 - 1, b0 - 1)
                for a1, b1, a0, b0 in states.T.tolist()
            ])
            assert expected[inverse.ravel()].tobytes() == pi.tobytes()


class TestDeterminism:
    def test_same_seed_same_results(self):
        design = DesignConfig(40, 10, 2, 15)
        model = OutcomeModel(Exponential(1.0, 1.6))
        tests = (lastblock_ap_test(), ComparatorTest("lr", "lr"))
        a = simulate_batch(design, model, PRIOR, tests, 5000, seed=42, stream=(4,))
        b = simulate_batch(design, model, PRIOR, tests, 5000, seed=42, stream=(4,))
        for name in a.statistics:
            assert np.array_equal(a.statistics[name], b.statistics[name])
        assert np.array_equal(a.n_experimental, b.n_experimental)

    def test_stream_separation(self):
        design = DesignConfig(40, 10, 2, 15)
        model = OutcomeModel(Exponential(1.0, 1.6))
        a = simulate_batch(design, model, PRIOR, (), 1000, seed=42, stream=(1,))
        b = simulate_batch(design, model, PRIOR, (), 1000, seed=42, stream=(2,))
        assert not np.array_equal(a.n_experimental, b.n_experimental)

    @pytest.mark.parametrize(
        "model, prior",
        [
            (OutcomeModel(Exponential(1.0, 1.4)), PRIOR),
            (OutcomeModel(Bernoulli(0.4, 0.6)), BetaPrior(1.0, 1.0)),
            (OutcomeModel(NormalKnownVar(0.0, 0.5, 1.0, 1.5)), NormalPrior(0.0, 100.0)),
        ],
        ids=["exponential", "bernoulli", "normal"],
    )
    def test_parallel_equals_serial(self, model, prior):
        # block size 1: each family's one draw per subject, on the pool and off it
        design = DesignConfig(30, 6, 1, 24)
        tests = (timedirect_ap_test(), lastblock_ap_test())
        replicates = CHUNK_SIZE + 1234  # forces two chunks
        serial = simulate_batch(design, model, prior, tests, replicates, seed=8, threads=1)
        parallel = simulate_batch(design, model, prior, tests, replicates, seed=8, threads=2)
        for name in serial.statistics:
            assert np.array_equal(serial.statistics[name], parallel.statistics[name])
        assert np.array_equal(serial.n_experimental, parallel.n_experimental)
        assert np.array_equal(serial.outcome_total, parallel.outcome_total)

    def test_replicate_count_not_multiple_of_chunk(self):
        design = DesignConfig(20, 10, 1, 10)
        model = OutcomeModel(Exponential(1.0, 1.0))
        batch = simulate_batch(design, model, PRIOR, (), CHUNK_SIZE + 5, seed=1)
        assert batch.replicates == CHUNK_SIZE + 5


class TestSharedPool:
    def test_one_pool_sized_at_cpu_count(self, inline_pool):
        design = equal_randomization_design(10)
        model = OutcomeModel(Exponential(1.0, 1.0))
        for replicates in (2 * CHUNK_SIZE + 1, 5):
            batch = simulate_batch(design, model, PRIOR, (), replicates, seed=1, threads=500)
            assert batch.replicates == replicates
        assert inline_pool == [min(500, os.cpu_count())]

    def test_concurrent_callers_share_one_pool(self, inline_pool):
        pools = []
        callers = [
            threading.Thread(target=lambda: pools.append(engine.shared_pool(2)))
            for _ in range(16)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert inline_pool == [engine.pool_workers(2)]
        assert len(pools) == 16 and all(p is pools[0] for p in pools)

    def test_new_size_replaces_the_pool(self, inline_pool, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)  # both sizes fit under the CPU cap
        shut = []
        monkeypatch.setattr(engine.ProcessPoolExecutor, "shutdown", lambda pool: shut.append(pool))
        first = engine.shared_pool(2)
        assert engine.shared_pool(2) is first
        second = engine.shared_pool(3)
        assert engine.shared_pool(3) is second is not first
        assert inline_pool == [2, 3] and shut == [first]


class TestBatteryValidation:
    def test_prior_family_mismatch(self):
        design = DesignConfig(20, 10, 1, 10)
        model = OutcomeModel(Bernoulli(0.5, 0.5))
        with pytest.raises(ConfigError):
            simulate_batch(design, model, PRIOR, (), 100, seed=0)

    def test_duplicate_test_names(self):
        design = DesignConfig(20, 10, 1, 10)
        model = OutcomeModel(Exponential(1.0, 1.0))
        tests = (lastblock_ap_test(), lastblock_ap_test())
        with pytest.raises(ConfigError):
            simulate_batch(design, model, PRIOR, tests, 100, seed=0)

    def test_comparator_family_mismatch(self):
        design = DesignConfig(20, 10, 1, 10)
        model = OutcomeModel(Exponential(1.0, 1.0))
        with pytest.raises(ConfigError):
            simulate_batch(design, model, PRIOR, (ComparatorTest("fisher", "f"),), 100, seed=0)

    def test_budget_above_ceiling_rejected_before_chunking(self, monkeypatch):
        monkeypatch.setattr(engine, "_chunk_task", lambda task: pytest.fail("simulated"))
        design = DesignConfig(20, 10, 1, 10)
        model = OutcomeModel(Exponential(1.0, 1.0))
        with pytest.raises(ConfigError, match="replicates must lie in"):
            simulate_batch(design, model, PRIOR, (), engine.MAX_REPLICATES + 1, seed=0)

    def test_negative_seed_rejected(self):
        # NumPy's SeedSequence raised a bare ValueError
        design = DesignConfig(20, 10, 1, 10)
        model = OutcomeModel(Exponential(1.0, 1.0))
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            simulate_batch(design, model, PRIOR, (), 100, seed=-1)


class TestFisherAgainstScipy:
    @pytest.mark.parametrize("equal", [False, True], ids=["standard", "er"])
    def test_statistic_is_minus_hypergeom_tail(self, monkeypatch, equal):
        from scipy.stats import hypergeom  # the oracle; no simulation path loads it

        tables = []

        def recording(n1, s1, n0, s0):
            tables.append(np.stack([n1, s1, n0, s0]))
            return fisher_statistic_from_counts(n1, s1, n0, s0)

        monkeypatch.setattr(engine, "fisher_statistic_from_counts", recording)
        design = equal_randomization_design(121) if equal else DesignConfig(121, 12, 1, 109)
        model = OutcomeModel(Bernoulli(0.7, 0.9))
        test = ComparatorTest("fisher", "fisher")
        batch = simulate_batch(design, model, BetaPrior(1.0, 1.0), (test,), 20000, seed=3)
        n1, s1, n0, s0 = np.concatenate(tables, axis=1)
        oracle = hypergeom.sf(s1 - 1, n1 + n0, s1 + s0, n1)
        assert batch.replicates == oracle.size == 20000
        assert np.max(np.abs(batch.statistics["fisher"] + oracle) / oracle) < 1e-12


class TestNonFiniteNumbers:
    # rates this small make every outcome overflow to inf
    MODEL = OutcomeModel(Exponential(1.0e-310, 2.0e-310))

    def test_nan_probability_raises(self):
        design = DesignConfig(20, 10, 1, 10)
        with pytest.raises(NumericalError, match="not finite"):
            simulate_batch(design, self.MODEL, PRIOR, (lastblock_ap_test(),), 100, seed=0)

    def test_nan_comparator_raises_on_er_design(self):
        # the equal-randomization design computes no probability at all
        design = equal_randomization_design(20)
        with pytest.raises(NumericalError, match="'lr' statistic is NaN"):
            simulate_batch(design, self.MODEL, PRIOR, (ComparatorTest("lr", "lr"),), 100, seed=0)


class TestOneDrawAtBlockSizeOne:
    # (model, prior, reference draw, outcome of that draw on the control and
    # on the experimental arm)
    FAMILIES = {
        "bernoulli": (
            OutcomeModel(Bernoulli(0.3, 0.6)),
            BetaPrior(1.0, 1.0),
            lambda rng: rng.random(8),
            lambda u: u < 0.3,
            lambda u: u < 0.6,
        ),
        "exponential": (
            OutcomeModel(Exponential(2.0, 0.5)),
            PRIOR,
            lambda rng: rng.standard_exponential(8),
            lambda e: e / 2.0,
            lambda e: e / 0.5,
        ),
        "normal": (
            OutcomeModel(NormalKnownVar(0.3, -1.0, 2.0, 0.5)),
            NormalPrior(0.0, 100.0),
            lambda rng: rng.standard_normal(8),
            lambda z: 0.3 + 2.0 * z,
            lambda z: -1.0 + 0.5 * z,
        ),
    }

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_one_draw_scaled_to_each_subjects_arm(self, family):
        model, prior, draw, control, experimental = self.FAMILIES[family]
        post = engine._PosteriorVec(model, prior, 8, 10)
        k1 = np.array([1, 0, 0, 1, 1, 0, 1, 0])
        rng = derive_rng(7)
        post.absorb_one(k1, rng)
        ref = derive_rng(7)
        x = draw(ref)
        np.testing.assert_array_equal(post.s1, np.where(k1 == 1, experimental(x), 0))
        np.testing.assert_array_equal(post.s0, np.where(k1 == 0, control(x), 0))
        np.testing.assert_array_equal(post.n1, k1)
        np.testing.assert_array_equal(post.n0, 1 - k1)
        assert rng.random() == ref.random()  # nothing else was drawn


class TestAgainstPerTrialSimulation:
    """The batch path must match the per-subject path in distribution."""

    def test_final_probability_and_allocation_moments(self):
        design = DesignConfig(30, 6, 2, 12)
        model = OutcomeModel(Exponential(1.0, 1.8))
        tests = (lastblock_ap_test(), original_ap_test(), timedirect_ap_test())
        batch = simulate_batch(design, model, PRIOR, tests, 20000, seed=3, stream=(1,))

        reps = 3000
        finals = np.empty(reps)
        n1s = np.empty(reps)
        from aptest.stats import ap_statistic

        originals = np.empty(reps)
        for i in range(reps):
            traj = simulate_trial(design, model, PRIOR, derive_rng(999, i))
            finals[i] = traj.alloc_probs[-1]
            n1s[i] = traj.n_by_arm[1]
            originals[i] = ap_statistic(traj, original_ap_test())

        se = lambda x: x.std() / np.sqrt(x.size)
        assert abs(finals.mean() - batch.statistics["lastblock"].mean()) < 4 * (
            se(finals) + se(batch.statistics["lastblock"])
        )
        assert abs(n1s.mean() - batch.n_experimental.mean()) < 4 * (
            se(n1s) + se(batch.n_experimental.astype(float))
        )
        assert abs(originals.mean() - batch.statistics["original"].mean()) < 4 * (
            se(originals) + se(batch.statistics["original"])
        )

    # block size 1 draws one outcome per replicate for the one subject
    @pytest.mark.parametrize(
        "design",
        [
            DesignConfig(30, 6, 2, 12, design=TunedBRAR()),
            DesignConfig(30, 6, 1, 24, design=TunedBRAR()),
        ],
        ids=["B2", "B1"],
    )
    def test_tuned_design_agreement(self, design):
        model = OutcomeModel(Exponential(1.0, 1.8))
        batch = simulate_batch(design, model, PRIOR, (lastblock_ap_test(),), 20000, seed=3)
        reps = 2000
        finals = np.empty(reps)
        totals = np.empty(reps)
        for i in range(reps):
            traj = simulate_trial(design, model, PRIOR, derive_rng(998, i))
            finals[i] = traj.alloc_probs[-1]
            totals[i] = traj.final_posteriors.control.total + traj.final_posteriors.experimental.total
        se = finals.std() / np.sqrt(reps)
        assert abs(finals.mean() - batch.statistics["lastblock"].mean()) < 5 * se
        se_t = totals.std() / np.sqrt(reps)
        assert abs(totals.mean() - batch.outcome_total.mean()) < 5 * se_t

    @pytest.mark.parametrize(
        "design", [DesignConfig(24, 6, 2, 9), DesignConfig(24, 6, 1, 18)], ids=["B2", "B1"]
    )
    def test_bernoulli_family_agreement(self, design):
        model = OutcomeModel(Bernoulli(0.4, 0.7))
        prior = BetaPrior(1.0, 1.0)
        batch = simulate_batch(design, model, prior, (lastblock_ap_test(),), 20000, seed=5)
        reps = 2000
        finals = np.empty(reps)
        succ = np.empty(reps)
        for i in range(reps):
            traj = simulate_trial(design, model, prior, derive_rng(997, i))
            finals[i] = traj.alloc_probs[-1]
            succ[i] = traj.final_posteriors.control.total + traj.final_posteriors.experimental.total
        se = finals.std() / np.sqrt(reps)
        assert abs(finals.mean() - batch.statistics["lastblock"].mean()) < 5 * se
        se_s = succ.std() / np.sqrt(reps)
        assert abs(succ.mean() - batch.outcome_total.mean()) < 5 * se_s

    @pytest.mark.parametrize(
        "design", [DesignConfig(24, 6, 2, 9), DesignConfig(24, 6, 1, 18)], ids=["B2", "B1"]
    )
    def test_normal_family_agreement(self, design):
        model = OutcomeModel(NormalKnownVar(0.0, 0.8, 1.0, 1.5))
        prior = NormalPrior(0.0, 1e6)
        batch = simulate_batch(design, model, prior, (lastblock_ap_test(),), 20000, seed=5)
        reps = 2000
        finals = np.empty(reps)
        totals = np.empty(reps)
        for i in range(reps):
            traj = simulate_trial(design, model, prior, derive_rng(996, i))
            finals[i] = traj.alloc_probs[-1]
            totals[i] = traj.final_posteriors.control.total + traj.final_posteriors.experimental.total
        se = finals.std() / np.sqrt(reps)
        assert abs(finals.mean() - batch.statistics["lastblock"].mean()) < 5 * se
        se_t = totals.std() / np.sqrt(reps)
        assert abs(totals.mean() - batch.outcome_total.mean()) < 5 * se_t

    @pytest.mark.parametrize(
        "total_n, burn_in, block_size, prior, model",
        [
            (40, 10, 1, BetaPrior(1.0, 1.0), OutcomeModel(Bernoulli(0.5, 0.5))),
            (40, 10, 3, BetaPrior(1.0, 1.0), OutcomeModel(Bernoulli(0.5, 0.5))),
            (121, 12, 1, BetaPrior(1.0, 1.0), OutcomeModel(Bernoulli(0.7, 0.9))),
            (121, 12, 1, BetaPrior(2.0, 3.0), OutcomeModel(Bernoulli(0.9, 0.7), "smaller")),
        ],
        ids=["N40-B1", "N40-B3", "N121-B1", "N121-B1-prior23-smaller"],
    )
    def test_final_probability_is_the_engine_exact_sum(
        self, total_n, burn_in, block_size, prior, model
    ):
        # Under an integer prior a trial's pi_{T+1} and the engine's block
        # T+1 read the same exact sum of the final state, bit for bit, so a
        # strict comparison of the two never turns on rounding.
        design = DesignConfig(total_n, burn_in, block_size, (total_n - burn_in) // block_size)
        differ = []
        for seed in range(100, 130):
            traj = simulate_trial(design, model, prior, derive_rng(seed))
            final = traj.final_posteriors
            params = (*beta_posterior(prior, final.experimental), *beta_posterior(prior, final.control))
            larger = beta_superiority_vec(*(np.array([v]) for v in params), None)
            engine_pi = oriented_probability(larger, model.better_direction)[0]
            if engine_pi.tobytes() != traj.alloc_probs[-1].tobytes():
                differ.append(seed)
        assert differ == []

    def test_non_integer_gamma_prior_agreement(self):
        from tests.test_properties import engine_superiority

        design = DesignConfig(24, 4, 4, 5)
        model = OutcomeModel(Exponential(1.0, 1.8))
        prior = GammaPrior(0.5, 0.001)
        batch = simulate_batch(design, model, prior, (lastblock_ap_test(),), 20000, seed=4)
        trajs = [simulate_trial(design, model, prior, derive_rng(995, i)) for i in range(1000)]
        finals = np.array([traj.alloc_probs[-1] for traj in trajs])
        # the engine's map on the scalar trials' final states
        states = [(t.final_posteriors.experimental, t.final_posteriors.control) for t in trajs]
        assert np.max(np.abs(engine_superiority(model, prior, states) - finals)) < 1e-12
        se = finals.std() / np.sqrt(finals.size)
        assert abs(finals.mean() - batch.statistics["lastblock"].mean()) < 5 * se

    @pytest.mark.parametrize("total_n", [40, 41, 43, 121])
    def test_er_counts_balanced(self, total_n):
        # N // 2 subjects per arm; an odd N leaves one subject to a fair coin
        design = equal_randomization_design(total_n)
        model = OutcomeModel(Exponential(1.0, 1.0))
        batch = simulate_batch(design, model, PRIOR, (), 20000, seed=6)
        half = total_n // 2
        if total_n % 2 == 0:
            assert set(np.unique(batch.n_experimental)) == {half}
        else:
            assert set(np.unique(batch.n_experimental)) == {half, half + 1}
            assert abs((batch.n_experimental == half + 1).mean() - 0.5) < 0.02
