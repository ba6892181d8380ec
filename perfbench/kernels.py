"""Per-family, per-N table of the vectorized superiority kernels.

Each cell calls the public kernel of ``aptest.engine`` on one
seed-generated, chunk-wide set of two-arm posteriors after N subjects.  One
warm-up call precedes ``REPEATS`` timed calls; the cell reports the median
in ns per element, with its base of ``WIDTH`` elements.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import CHUNK

WIDTH = CHUNK
SIZES = (121, 500, 1000)
REPEATS = 5


def _states(family: str, n: int, rng: np.random.Generator):
    share = rng.uniform(0.2, 0.8, WIDTH)
    n1 = rng.binomial(n, share)
    n0 = n - n1
    if family == "gamma":
        s1 = rng.standard_gamma(np.maximum(n1, 1)) / 1.5
        s0 = rng.standard_gamma(np.maximum(n0, 1)) / 1.0
        return (1.0 + n1, 0.001 + s1, 1.0 + n0, 0.001 + s0)
    if family == "beta":
        y1 = rng.binomial(n1, 0.9)
        y0 = rng.binomial(n0, 0.7)
        return (1 + y1, 1 + n1 - y1, 1 + y0, 1 + n0 - y0)
    s1 = 0.3 * n1 + np.sqrt(n1) * rng.standard_normal(WIDTH)
    s0 = np.sqrt(n0) * rng.standard_normal(WIDTH)
    v1 = 1.0 / (1.0 / 100.0 + n1)
    v0 = 1.0 / (1.0 / 100.0 + n0)
    return (v1 * s1, v1, v0 * s0, v0)


def table(seed: int) -> dict:
    from aptest import engine
    from scipy import special

    out = {}
    for fi, family in enumerate(("gamma", "beta", "normal")):
        for n in SIZES:
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, fi, n))))
            args = _states(family, n, rng)
            kernel = getattr(engine, f"{family}_superiority_vec")
            if family == "beta":  # the log-gamma lookup table the beta kernel reads
                args = (*args, special.gammaln(np.arange(4 * n + 32, dtype=np.float64)))
            result = kernel(*args)
            if result.shape != (WIDTH,) or not np.all((result >= 0) & (result <= 1)):
                raise ValueError(f"kernel {family} N={n} returned values outside [0, 1]")
            times = []
            for _ in range(REPEATS):
                started = time.perf_counter()
                kernel(*args)
                times.append(time.perf_counter() - started)
            out[f"engine.kernel_{family}_n{n}_ns"] = statistics.median(times) / WIDTH * 1e9
    return out
