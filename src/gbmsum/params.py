"""Model parameterizations and power-law tail descriptors.

Two equivalent parameterizations describe the one-period log-normal
multiplier of the discrete GBM sum: the physical one (volatility sigma,
drift m, time step tau, optional stopping intensity lam) and the reduced
dimensionless one (beta = sigma^2 tau, rho = m tau, per-period stopping
probability p = lam tau).  All numerical routines work in reduced form.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .errors import ParameterError

# the largest x whose e^x is a finite float: math.exp overflows past it
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def require_finite(**values) -> None:
    """Raise ParameterError naming the first of `values` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def require_positive(**values) -> None:
    """The values pass require_finite and are > 0; ParameterError names the first that is not."""
    require_finite(**values)
    for name, value in values.items():
        if value <= 0.0:
            raise ParameterError(f"{name} must be positive, got {value}")


def require_nonnegative(**values) -> None:
    """The values pass require_finite and are >= 0; ParameterError names the first that is not."""
    require_finite(**values)
    for name, value in values.items():
        if value < 0.0:
            raise ParameterError(f"{name} must be non-negative, got {value}")


def _require_finite_exp(what: str, x: float) -> None:
    """Raise ParameterError naming `what`, the quantity e^x, where e^x overflows a float."""
    if x > _LOG_FLOAT_MAX:
        raise ParameterError(f"{what} = e^{x:.6g} overflows a float")


def require_count(name: str, value, least: int = 1) -> int:
    """value as an int, for a count of at least `least`: an int or a numpy
    integer, not a bool; ParameterError names any other value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the sampled geometric Brownian motion.

    sigma : volatility per sqrt(unit time), > 0
    m     : drift per unit time
    tau   : sampling time step, > 0
    lam   : stopping (mortality) intensity per unit time, >= 0
    """

    sigma: float
    m: float
    tau: float
    lam: float = 0.0

    def __post_init__(self):
        require_finite(m=self.m)
        require_positive(sigma=self.sigma, tau=self.tau)
        require_nonnegative(lam=self.lam)


@dataclass(frozen=True)
class ReducedParams:
    """Dimensionless multiplier-law parameters (beta, rho, p).

    The one-period multiplier is log-normal with log-mean rho - beta/2 and
    log-variance beta; p is the per-period stopping probability.
    """

    beta: float
    rho: float
    p: float = 0.0

    def __post_init__(self):
        require_positive(beta=self.beta)
        require_finite(rho=self.rho)
        if not (0.0 <= self.p <= 1.0):
            raise ParameterError(f"p must lie in [0, 1], got {self.p}")

    @property
    def perpetuity_feasible(self) -> bool:
        """True when the infinite sum exists (rho < beta/2)."""
        return self.rho < 0.5 * self.beta


def reduce(params: ModelParams) -> ReducedParams:
    """Map physical parameters to the reduced (beta, rho, p) triple."""
    p = params.lam * params.tau
    if p > 1.0:
        raise ParameterError(
            f"lam*tau = {p} exceeds 1; not a valid per-period stopping probability"
        )
    return ReducedParams(
        beta=params.sigma**2 * params.tau, rho=params.m * params.tau, p=p
    )


def as_reduced(params) -> ReducedParams:
    """Accept either parameterization and return the reduced one."""
    if isinstance(params, ReducedParams):
        return params
    if isinstance(params, ModelParams):
        return reduce(params)
    raise ParameterError(f"expected ModelParams or ReducedParams, got {type(params)!r}")


def front_speed(rp: ReducedParams) -> float:
    """sqrt((rho - beta/2)^2 - 2 beta log(1 - p)), or beta/2 - rho at p = 0:
    the speed in u of the power-law tail front per transform application."""
    return math.sqrt((rp.rho - 0.5 * rp.beta) ** 2 - 2.0 * rp.beta * math.log1p(-rp.p))


def tail_exponent(params) -> float:
    """Power-law decay exponent of the survival function of the sum stopped
    at a geometric(p) time, 0 <= p < 1; p = 0 is the infinite sum.

    The positive root mu of (1 - p) E[M^mu] = 1 for the one-period
    multiplier M: 1 - 2 rho / beta at p = 0, where rho < beta/2 is needed,
    and strictly positive for any drift when 0 < p < 1.
    """
    rp = as_reduced(params)
    if rp.p >= 1.0:
        raise ParameterError("p = 1 has a log-normal law with no power tail")
    if rp.p == 0.0 and not rp.perpetuity_feasible:
        raise ParameterError(
            f"infinite sum does not exist: rho = {rp.rho} >= beta/2 = {0.5 * rp.beta}"
        )
    return (-rp.rho + 0.5 * rp.beta + front_speed(rp)) / rp.beta


@dataclass(frozen=True)
class TailAsymptote:
    """Power-law survival asymptote P(X > x) ~ constant * x**(-exponent)."""

    exponent: float
    constant: float

    def __post_init__(self):
        require_positive(exponent=self.exponent, constant=self.constant)

    def survival(self, x: float) -> float:
        return self.constant * x ** (-self.exponent)

    def level(self, prob: float) -> float:
        """The x with survival(x) = prob > 0; an x that is not finite overflowed."""
        try:
            x = math.pow(self.constant / prob, 1.0 / self.exponent)
        except OverflowError:
            x = math.inf
        if not math.isfinite(x):
            raise ParameterError(f"the level of tail probability {prob:.6g} overflows: "
                                 f"(c / p)^(1/mu) lies beyond the largest float")
        return x
