"""Self-contained scalar special functions.

Normal CDF, upper incomplete gamma, Beta, Kummer's confluent
hypergeometric function and the Riemann zeta at small integer arguments,
built on stdlib ``math`` only.  Accuracy targets sit well below the density
solver tolerance (1e-9 .. 1e-12) so special-function error never dominates.
"""

from __future__ import annotations

import math

from .errors import ParameterError

_SQRT2 = math.sqrt(2.0)
_LOG_DBL_MAX = 709.0


def norm_cdf(x: float) -> float:
    """Standard normal cumulative distribution function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _gamma_q_series(a: float, x: float, tol: float = 1e-15) -> float:
    # lower-incomplete series, returns regularized Q = 1 - P; good for x < a+1
    if x == 0.0:
        return 1.0
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(500):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * tol:
            break
    p = total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    return 1.0 - p


def _gamma_q_contfrac(a: float, x: float, tol: float = 1e-15) -> float:
    # Lentz continued fraction for regularized Q; good for x >= a+1
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gamma_upper_regularized(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a), in [0, 1], non-increasing in x."""
    if a <= 0.0:
        raise ParameterError(f"gamma_upper requires a > 0, got a = {a}")
    if x < 0.0:
        raise ParameterError(f"gamma_upper requires x >= 0, got x = {x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        q = _gamma_q_series(a, x)
    else:
        q = _gamma_q_contfrac(a, x)
    return min(1.0, max(0.0, q))


def gamma_upper(a: float, x: float) -> float:
    """Upper incomplete gamma Gamma(a, x) = int_x^inf t^(a-1) e^-t dt."""
    return gamma_upper_regularized(a, x) * math.gamma(a)


def beta_fn(a: float, b: float) -> float:
    """Beta function via log-gamma differences; no overflow for large args."""
    if a <= 0.0 or b <= 0.0:
        raise ParameterError(f"beta_fn requires positive arguments, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def _hyp1f1_series(a: float, b: float, z: float, max_terms: int = 700) -> float:
    term = 1.0
    total = 1.0
    for k in range(1, max_terms):
        term *= (a + k - 1.0) / (b + k - 1.0) * z / k
        total += term
        if abs(term) <= 1e-17 * abs(total):
            return total
    raise ParameterError(f"hyp1f1 series did not converge for a={a}, b={b}, z={z}")


def _hyp1f1_asym_log(a: float, b: float, z: float) -> float:
    # log of 1F1(a,b,z) from the large-positive-z expansion
    #   Gamma(b)/Gamma(a) e^z z^(a-b) sum_k (b-a)_k (1-a)_k / (k! z^k),
    # truncated at the smallest term.  Requires a, b > 0 and z large enough
    # that the leading factor is positive.
    if a <= 0.0 or b <= 0.0:
        raise ParameterError(
            f"asymptotic hyp1f1 branch requires positive parameters, got ({a}, {b})"
        )
    total = 1.0
    term = 1.0
    prev = abs(term)
    for k in range(1, 80):
        term *= (b - a + k - 1.0) * (k - a) / (k * z)
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if abs(term) <= 1e-17 * abs(total):
            break
    if total <= 0.0:
        raise ParameterError(f"hyp1f1 asymptotic series failed for a={a}, b={b}, z={z}")
    return math.lgamma(b) - math.lgamma(a) + z + (a - b) * math.log(z) + math.log(total)


def _is_nonpositive_int(v: float) -> bool:
    return v <= 0.0 and v == math.floor(v)


def hyp1f1(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric function M(a, b, z).

    Taylor series on -5 < z <= 50 (and for terminating polynomial cases),
    Kummer transform e^z M(b-a, b, -z) for z <= -5 to avoid cancellation,
    large-argument asymptotics in log space for z > 50, so huge negative
    arguments neither overflow nor lose the tiny result to rounding.
    """
    if _is_nonpositive_int(b):
        raise ParameterError(f"hyp1f1 undefined for non-positive integer b = {b}")
    if z == 0.0:
        return 1.0
    if z > 50.0:
        if _is_nonpositive_int(a):
            return _hyp1f1_series(a, b, z)  # terminating polynomial
        logv = _hyp1f1_asym_log(a, b, z)
        if logv > _LOG_DBL_MAX:
            raise OverflowError(f"hyp1f1({a}, {b}, {z}) overflows: log value {logv:.3g}")
        return math.exp(logv)
    if z > -5.0:
        return _hyp1f1_series(a, b, z)
    # Kummer transform; inner argument -z > 5 is cancellation-free
    a2 = b - a
    if -z <= 50.0 or _is_nonpositive_int(a2):
        inner = _hyp1f1_series(a2, b, -z)
        if inner <= 0.0:
            # rare sign change: combine without the log-space shortcut
            return math.exp(z) * inner
        logv = z + math.log(inner)
    else:
        logv = z + _hyp1f1_asym_log(a2, b, -z)
    if logv > _LOG_DBL_MAX:
        raise OverflowError(f"hyp1f1({a}, {b}, {z}) overflows: log value {logv:.3g}")
    return math.exp(logv)  # underflows gracefully to 0.0


def zeta_int(p: int) -> float:
    """Riemann zeta at an integer argument p >= 2.

    Direct series with an Euler-Maclaurin tail correction; accurate to
    better than 1e-12 for every p >= 2 (only small p is ever needed).
    """
    if int(p) != p or p < 2:
        raise ParameterError(f"zeta_int requires an integer p >= 2, got {p}")
    p = int(p)
    n = 50
    total = sum(j ** (-float(p)) for j in range(1, n))
    # tail: integral + boundary + first Bernoulli corrections
    total += n ** (1.0 - p) / (p - 1.0)
    total += 0.5 * n ** (-float(p))
    total += p / 12.0 * n ** (-(p + 1.0))
    total -= p * (p + 1.0) * (p + 2.0) / 720.0 * n ** (-(p + 3.0))
    return total
