"""The term-ratio beta sum: an independent reference for P(X1 > X0).

The package sums integer beta posteriors as a hypergeometric tail (Altham
1969).  This sum runs over one integral parameter instead, with a
different series and different rounding, so the two check each other.
It also takes real values for the other three parameters.
"""

import math

from scipy import special

from aptest.errors import ConfigError
from aptest.models import is_integral


def _beta_superiority_core(a1: float, b1: float, a0: float, b0: float) -> float:
    # P(X1 > X0) for X1 ~ Beta(a1, b1), X0 ~ Beta(a0, b0); requires a1 integer.
    # Term i of the sum is B(a0+i, b0+b1) / ((b1+i) B(1+i, b1) B(a0, b0)):
    # term 0 is B(a0, b0+b1) / B(a0, b0), and each next term is the last
    # times (a0+i)(b1+i) / ((a0+b0+b1+i)(i+1)).  Terms are carried in logs,
    # because the first can fall below the double range.
    log_term = float(special.betaln(a0, b0 + b1) - special.betaln(a0, b0))
    params_sum = a0 + b0 + b1
    total = 0.0
    for i in range(int(round(a1))):
        total += math.exp(log_term)
        log_term += math.log((a0 + i) * (b1 + i) / ((params_sum + i) * (i + 1)))
    return total


def _smallest_integral(a1: float, b1: float, a0: float, b0: float) -> float | None:
    # the parameter the finite sum runs over, or None when none is integral
    integral = [v for v in (a0, a1, b0, b1) if is_integral(v)]
    return min(integral) if integral else None


def beta_superiority_closed(a1: float, b1: float, a0: float, b0: float) -> float:
    """P(X1 > X0) for beta posteriors via the finite sum over an integer parameter.

    Any one of the four parameters being an integer suffices; the sum runs
    over the smallest integral one (mirroring x -> 1-x or swapping the arms
    as needed).
    """
    low = _smallest_integral(a1, b1, a0, b0)
    if low is None:
        raise ConfigError("beta superiority closed form requires an integer parameter")
    # ties go to the first of a0, a1, b0, b1
    if a0 == low:
        return 1.0 - _beta_superiority_core(a0, b0, a1, b1)
    if a1 == low:
        return _beta_superiority_core(a1, b1, a0, b0)
    if b0 == low:
        # X1 > X0  <=>  (1-X0) > (1-X1), with 1-X ~ Beta(b, a)
        return _beta_superiority_core(b0, a0, b1, a1)
    return 1.0 - _beta_superiority_core(b1, a1, b0, a0)
