"""Shared helpers for the test suite."""

from __future__ import annotations

import time
from concurrent.futures import Executor, Future

import numpy as np
import pytest
from hypothesis import settings

from aptest import engine

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic; no example database is written, and there is no per-example
# deadline because the quadrature oracle's run time varies with its inputs.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240809)


def binomial_se(p: float, n: int) -> float:
    return float(np.sqrt(p * (1.0 - p) / n))


@pytest.fixture
def inline_pool(monkeypatch):
    """A stand-in for the engine's process pool: records the worker count of
    every pool built and runs chunks in-process, so no worker is started."""
    built = []

    class InlinePool(Executor):
        def __init__(self, max_workers):
            built.append(max_workers)
            time.sleep(0.01)  # a real pool takes this long to start, so racing callers overlap

        def submit(self, fn, *args, **kwargs):
            done = Future()
            done.set_result(fn(*args, **kwargs))
            return done

    monkeypatch.setattr(engine, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(engine, "_pool", None)
    monkeypatch.setattr(engine, "_pool_workers", 0)
    return built
