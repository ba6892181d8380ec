"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

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
