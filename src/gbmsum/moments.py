"""Closed-form positive moments, inverse-moment bounds and exact finite means.

Moments of the stopped sum follow a binomial recursion driven by the
multiplier's integer moments; the infinite-sum case also has an explicit
sum over increasing index chains which must agree with the recursion
exactly and serves as a cross-check.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Callable

from .errors import ParameterError
from .params import as_reduced, require_count, require_finite, require_positive

MultiplierMoments = Callable[[float], float]


def _exp(x: float) -> float:
    """e^x, or inf past the largest float, where math.exp raises."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def gbm_multiplier_moments(params) -> MultiplierMoments:
    """k -> E[A^k] for the log-normal one-period multiplier, inf past the
    largest float."""
    rp = as_reduced(params)

    def mm(k: float) -> float:
        return _exp(0.5 * rp.beta * k * (k - 1.0) + k * rp.rho)

    return mm


def levy_multiplier_moments(cumulant: Callable[[float], float], m: float,
                            tau: float) -> MultiplierMoments:
    """k -> E[A^k] = exp(kappa(k) tau + m k tau) for an exponential-Levy
    multiplier with user-supplied cumulant function kappa, inf past the
    largest float."""
    require_finite(m=m)
    require_positive(tau=tau)
    if not abs(cumulant(0.0)) <= 1e-12:  # a NaN fails too
        raise ParameterError(f"cumulant must satisfy kappa(0) = 0, got {cumulant(0.0)}")

    def mm(k: float) -> float:
        return _exp(cumulant(k) * tau + m * k * tau)

    return mm


def moment_exists(k: int, mm: MultiplierMoments, p: float = 0.0) -> bool:
    """E[X^k] is finite iff (1-p) E[A^k] < 1, or p = 1, where X is A itself.
    ParameterError names an order below 1 or a p outside [0, 1], NaN included."""
    if not k >= 1:
        raise ParameterError(f"moment order must be >= 1, got {k}")
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"stopping probability p must lie in [0, 1], got {p}")
    return p == 1.0 or (1.0 - p) * mm(k) < 1.0


def _require_moments(kmax: int, mm: MultiplierMoments, p: float) -> int:
    """kmax as a count, once E[X^k] exists for every k = 1..kmax, else a ParameterError."""
    kmax = require_count("kmax", kmax)
    for k in range(1, kmax + 1):
        if not moment_exists(k, mm, p):
            raise ParameterError(f"moment of order {k} does not exist: (1-p) E[A^{k}] = "
                                 f"{(1.0 - p) * mm(k):.6g} >= 1")
    return kmax


def moments_geometric(kmax: int, mm: MultiplierMoments, p: float = 0.0) -> list[float]:
    """E[X^k] for k = 1..kmax of the geometrically stopped sum (p = 0 gives
    the infinite sum).  Raises naming the first k whose moment diverges."""
    kmax = _require_moments(kmax, mm, p)
    out = [1.0]  # E[X^0]
    for k in range(1, kmax + 1):
        ak = mm(k)
        inner = sum(math.comb(k, j) * out[j] for j in range(k))
        out.append(ak / (1.0 - (1.0 - p) * ak) * ((1.0 - p) * inner + p))
    return out[1:]


def moments_infinite_product_form(kmax: int, mm: MultiplierMoments) -> list[float]:
    """E[X_inf^k] as the explicit sum over increasing index chains
    0 = i_0 < i_1 < ... < i_m = k of prod_j C(i_j, i_{j-1}) q(i_j),
    q(i) = E[A^i] / (1 - E[A^i]).  Identical to the p = 0 recursion."""
    kmax = _require_moments(kmax, mm, 0.0)

    def q(i: int) -> float:
        ai = mm(i)
        return ai / (1.0 - ai)

    out = []
    for k in range(1, kmax + 1):
        total = 0.0
        for size in range(k):
            for middle in combinations(range(1, k), size):
                chain = (0,) + middle + (k,)
                prod = 1.0
                for prev, cur in zip(chain, chain[1:]):
                    prod *= math.comb(cur, prev) * q(cur)
                total += prod
        out.append(total)
    return out


def inverse_moment_bound(n: int, params) -> float:
    """Upper bound exp(beta n(n+1)/2 - n rho) on E[X_inf^(-n)], inf past the
    largest float."""
    n = require_count("n", n)
    rp = as_reduced(params)
    return _exp(0.5 * rp.beta * n * (n + 1.0) - n * rp.rho)


def mean_finite_sum(n: int, r: float, tau: float, s0: float) -> float:
    """Exact E[sum of n sampled GBM values] = s0 (e^{n r tau} - 1)/(1 - e^{-r tau});
    ParameterError where that form overflows a float."""
    n = require_count("n", n)
    require_finite(r=r)
    require_positive(tau=tau, s0=s0)
    if r == 0.0:
        return n * s0
    try:
        mean = s0 * math.expm1(n * r * tau) / (-math.expm1(-r * tau))
    except OverflowError:
        mean = math.inf
    if not math.isfinite(mean):
        raise ParameterError(f"the mean of the {n}-term sum, s0 (e^(n r tau) - 1) / "
                             f"(1 - e^(-r tau)) at r tau = {r * tau:.6g}, overflows a float")
    return mean
