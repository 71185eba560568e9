"""Finite-sum densities, discrete-monitoring Asian options, annuity mixtures
and Makeham-based calibration of the geometric stopping probability.

Finite-sum densities come from repeated application of the one-step
transform to the one-period multiplier law; an independent alternating
derivative expansion of the geometric-stopping density reproduces them and
serves as a cross-check.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import solver
from .errors import (
    AccuracyWarning,
    CancellationWarning,
    DivergentExpectationError,
    NoRootError,
    ParameterError,
)
from .mc import GeneralHorizon
from .moments import mean_finite_sum
from .params import ReducedParams, as_reduced, require_finite, tail_exponent
from .solver import GaussianStepOperator, Grid, GridDensity, _multiplier_values

_PAYOFF_TRUNCATION_TOL = 1e-6
# Finite-sum powers zero their values below this.  A product of a larger value
# with the smallest kernel entry, about pref h e^-32, stays above 2.2e-308, so
# no apply meets subnormal arithmetic, which takes a slow hardware path.
_POWER_FLOOR = 1e-290
_MIXTURE_MEAN_RTOL = 1e-5


@dataclass(frozen=True)
class AsianSpec:
    """Contract and model parameters of a discretely monitored Asian option."""

    s0: float
    strike: float
    rate: float
    dividend: float
    sigma: float
    maturity: float
    n_fixings: int

    def __post_init__(self):
        require_finite(s0=self.s0, strike=self.strike, rate=self.rate,
                       dividend=self.dividend, sigma=self.sigma, maturity=self.maturity)
        if self.s0 <= 0.0:
            raise ParameterError(f"spot must be positive, got {self.s0}")
        if self.strike < 0.0:
            raise ParameterError(f"strike must be non-negative, got {self.strike}")
        if self.sigma <= 0.0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        if self.maturity <= 0.0:
            raise ParameterError(f"maturity must be positive, got {self.maturity}")
        if self.n_fixings < 1:
            raise ParameterError(f"n_fixings must be >= 1, got {self.n_fixings}")

    @property
    def tau(self) -> float:
        return self.maturity / self.n_fixings

    @property
    def drift(self) -> float:
        return self.rate - self.dividend

    def reduced(self) -> ReducedParams:
        return ReducedParams(beta=self.sigma**2 * self.tau, rho=self.drift * self.tau)


# -- finite-sum densities ------------------------------------------------------


def _finite_sum_grid(n: int, rp: ReducedParams, u_max: float | None = None) -> Grid:
    """The grid of the n-term law: the solves' default step min(0.01,
    sqrt(beta)/3) (solver._default_step), which the kernel sets, as prices
    take their kinked last step in closed form; and a span from the sum's
    mean and log-normal spread."""
    if u_max is None:
        mean = mean_finite_sum(n, rp.rho, 1.0, 1.0)
        margin = math.sqrt(2.0 * rp.beta * n * 46.0) + 1.0
        u_max = math.log1p(max(mean, 1.0) * math.exp(margin))
    return Grid.spanning(solver._default_step(rp.beta), u_max)


def _powers(n: int, rp: ReducedParams, grid: Grid):
    """The k-term densities f1, T f1, ..., T^(n-1) f1 on grid, from one running
    pass of the step operator; each power is zeroed below _POWER_FLOOR, f1 is
    the multiplier law exactly."""
    op = GaussianStepOperator(grid, rp)
    vals = _multiplier_values(grid, rp)
    yield vals
    for _ in range(n - 1):
        vals = op.apply(vals)
        vals[vals < _POWER_FLOOR] = 0.0
        yield vals


@functools.lru_cache(maxsize=8)
def _finite_sum_laws(n: int, rp: ReducedParams,
                     grid: Grid) -> tuple[np.ndarray | None, np.ndarray]:
    """Grid values of the (n-1)- and the n-term density from one pass,
    cached read-only per (n, law, grid); at n = 1 the law one step back is
    the point mass at 0, given as None."""
    prev = last = None
    for vals in _powers(n, rp, grid):
        prev, last = last, vals
        vals.setflags(write=False)
    return prev, last


def finite_sum_density(n: int, params) -> GridDensity:
    """Density of the n-term sum: n-1 applications of the one-step transform
    to the one-period multiplier law.  No power-law tail is attached (finite
    sums have log-normal-type tails)."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rp = as_reduced(params)
    grid = _finite_sum_grid(n, rp)
    return GridDensity(grid, _finite_sum_laws(n, rp, grid)[1])


def finite_sum_density_derivative_form(n: int, params) -> GridDensity:
    """The same n-term density from the alternating derivative expansion of
    the geometric-stopping law around p = 1.

    Validation path only: each term is one transform application scaled by
    -k, summed with (-1)^k/k! coefficients.  All n terms are always used;
    catastrophic cancellation is flagged.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if n > 150:
        raise ParameterError(
            f"expansion order {n} exceeds double-precision factorial range; "
            f"use finite_sum_density for large horizons"
        )
    rp = as_reduced(params)
    grid = _finite_sum_grid(n, rp)
    op = GaussianStepOperator(grid, rp)
    f1 = _multiplier_values(grid, rp)
    total = f1.copy()
    deriv = f1  # d^k/dp^k of the stopped density at p = 1, unscaled
    max_term = float(np.max(np.abs(f1)))
    for k in range(1, n):
        if k == 1:
            deriv = f1 - op.apply(f1)
        else:
            deriv = -k * op.apply(deriv)
        term = ((-1.0) ** k / math.factorial(k)) * deriv
        total = total + term
        max_term = max(max_term, float(np.max(np.abs(term))))
    peak = float(np.max(np.abs(total)))
    if peak > 0.0 and max_term / peak > 1e3:
        warnings.warn(
            f"alternating expansion lost ~{math.log10(max_term / peak):.1f} digits "
            f"to cancellation at n = {n}",
            CancellationWarning,
            stacklevel=2,
        )
    floor = -max(1e-14, 64.0 * 2.2e-16 * max_term)
    if total.min() < floor:
        warnings.warn(
            f"alternating expansion produced negative density values down to "
            f"{total.min():.3g}; clipping",
            CancellationWarning,
            stacklevel=2,
        )
    total = np.where(total < 0.0, 0.0, total)
    total[0] = 0.0
    return GridDensity(grid, total)


def mixture_density(horizon: GeneralHorizon, params, u_max: float | None = None) -> GridDensity:
    """Density of the sum stopped at a general random horizon: the weighted
    combination of finite-sum densities, built with one running transform
    pass.  An AccuracyWarning names a grid mean that misses the exact mean,
    sum_k w_k E[X_k], by more than _MIXTURE_MEAN_RTOL relative: the span cuts
    mass the law still has."""
    if not isinstance(horizon, GeneralHorizon):
        raise ParameterError(f"mixture_density needs a GeneralHorizon, got {horizon!r}")
    rp = as_reduced(params)
    weights = np.asarray(horizon.weights)
    cap = weights.size
    means = np.array([mean_finite_sum(k, rp.rho, 1.0, 1.0) for k in range(1, cap + 1)])
    exact_mean = float(weights @ means)
    if u_max is None:
        u_max = math.log1p(1000.0 * max(exact_mean, 1.0))
    grid = _finite_sum_grid(cap, rp, u_max)
    F = GridDensity(grid, sum(w * vals for w, vals in zip(weights, _powers(cap, rp, grid))))
    rel_err = solver._mean_rel_err(F, exact_mean)
    if rel_err > _MIXTURE_MEAN_RTOL:
        warnings.warn(f"mixture grid mean misses the exact mean {exact_mean:.6g} by {rel_err:.3g} "
                      f"relative, above {_MIXTURE_MEAN_RTOL}: the span u_max = {grid.u_max:.4g} "
                      f"cuts the law's mass", AccuracyWarning, stacklevel=2)
    return F


# -- Asian options --------------------------------------------------------------


def _edge_decay_mass(grid: Grid, integrand: np.ndarray) -> float:
    """Estimate of the integral beyond the grid from the edge log-slope."""
    tail = integrand[-40:]
    if np.any(tail <= 0.0):
        return 0.0
    slope = np.polyfit(grid.u()[-40:], np.log(tail), 1)[0]
    if slope >= -0.1:
        return math.inf
    return float(integrand[-1] / (-slope))


def asian_prices(spec: AsianSpec) -> dict:
    """Discounted call and put prices, the relative error of the law's grid
    mean and the grid's h, u_max and n_points.

    The prices take the last step in closed form: X_n = M (1 + X_{n-1}) with
    M log-normal, so each is one Black-Scholes row in a = 1 + X_{n-1}
    (solver._lognormal_option_rows) integrated over the (n-1)-term law with
    the trapezoid mass weights, and no price depends on where the strike
    falls in a grid cell.  At n = 1 that law is the point mass at 0 and the
    prices are Black-Scholes's.  Two AccuracyWarnings read the trapezoid call
    integral of the n-term law: one where the estimated call-payoff mass
    beyond the grid is above 1e-6 of it, which a strike beyond the grid top
    always raises, and one for a truncation-dominated result; the CLI's
    --strict escalates them to errors.
    """
    rp = spec.reduced()
    n = spec.n_fixings
    kappa = n * spec.strike / spec.s0
    disc = math.exp(-spec.rate * spec.maturity)
    grid = _finite_sum_grid(n, rp)
    prev, last = _finite_sum_laws(n, rp, grid)
    F = GridDensity(grid, last)
    x = grid.x()
    mass_integrand = solver._mass_integrand(grid, F.values)
    call_integrand = mass_integrand * np.maximum(x - kappa, 0.0)
    call_exp = float(np.trapezoid(call_integrand, dx=grid.h))
    beyond = _edge_decay_mass(grid, call_integrand)
    if not (call_exp > 0.0 and beyond <= _PAYOFF_TRUNCATION_TOL * call_exp):
        warnings.warn(
            f"call price unresolved on the law's grid (x_max = {float(x[-1]):.4g}, strike "
            f"level x = {kappa:.4g}): truncated call-payoff mass ~{beyond:.3g} is not "
            f"below {_PAYOFF_TRUNCATION_TOL} of the integral {call_exp:.3g}",
            AccuracyWarning,
            stacklevel=2,
        )
    density_beyond = _edge_decay_mass(grid, mass_integrand)
    # a call integral of 0 means a strike beyond the grid, which the check above names
    if (call_exp > 0.0 and math.isfinite(density_beyond)
            and density_beyond * float(x[-1]) > 1e-5 * call_exp):
        warnings.warn(
            f"truncation-dominated result: beyond-grid mass * x_max = "
            f"{density_beyond * float(x[-1]):.3g} exceeds 1e-5 of the payoff integral",
            AccuracyWarning,
            stacklevel=2,
        )
    if prev is None:
        u, weights = np.zeros(1), np.ones(1)
    else:
        u, weights = grid.u(), solver._mass_weights(grid) * prev
    call_row, put_row = solver._lognormal_option_rows(u, kappa, rp)
    return dict(
        call=disc * spec.s0 / n * float(weights @ call_row),
        put=disc * spec.s0 / n * float(weights @ put_row),
        mean_rel_err=solver._mean_rel_err(F, mean_finite_sum(n, spec.drift, spec.tau, 1.0)),
        u_max=grid.u_max,
        h=grid.h,
        n_points=grid.n_points,
    )


def asian_call(spec: AsianSpec) -> float:
    """Discounted arithmetic-average call price by density integration."""
    return asian_prices(spec)["call"]


def put_call_parity_gap(spec: AsianSpec, convention: str = "discrete") -> float:
    """(C - P) - e^{-rT} (E[average] - K).

    'discrete' uses the exact discretely sampled mean; 'continuous_average'
    uses the continuous-average mean (S0/(rT))(e^{rT} - 1) for comparison.
    """
    return _parity_gap(spec, asian_prices(spec), convention)


def _parity_gap(spec: AsianSpec, prices: dict, convention: str) -> float:
    """put_call_parity_gap from prices already computed by asian_prices."""
    disc = math.exp(-spec.rate * spec.maturity)
    if convention == "discrete":
        mean_avg = spec.s0 * mean_finite_sum(spec.n_fixings, spec.drift, spec.tau, 1.0) / spec.n_fixings
    elif convention == "continuous_average":
        if spec.rate == 0.0:
            mean_avg = spec.s0
        else:
            mean_avg = spec.s0 / (spec.rate * spec.maturity) * math.expm1(spec.rate * spec.maturity)
    else:
        raise ParameterError(f"unknown parity convention {convention!r}")
    return (prices["call"] - prices["put"]) - disc * (mean_avg - spec.strike)


# -- geometric-maturity option block ---------------------------------------------


def geometric_maturity_option(F: GridDensity, kappa: float) -> float:
    """E[(X_N - kappa)+] for geometric stopping, on a law F from solve_geometric
    with 0 < p < 1: the building block of the generating-function route to
    fixed-maturity prices.  A strike ladder reuses the one solve."""
    rp = solver._solved_params(F, "geometric_maturity_option")
    if not (0.0 < rp.p < 1.0):
        raise ParameterError(f"needs 0 < p < 1, got p = {rp.p}")
    if not (kappa >= 0.0):
        raise ParameterError(f"kappa must be non-negative, got {kappa}")
    mu = tail_exponent(rp)
    if mu <= 1.0:
        raise DivergentExpectationError(
            f"tail exponent mu = {mu:.4g} <= 1: E[(X_N - kappa)+] is infinite"
        )
    return solver.expectation(F, lambda x: np.maximum(x - kappa, 0.0))


# -- Makeham calibration ----------------------------------------------------------


def _makeham_cumulative_hazard(a: float, b: float, beta: float, t0: float,
                               t1: float) -> float:
    if beta == 0.0:
        return (a + b) * (t1 - t0)
    return a * (t1 - t0) + b / beta * (math.exp(beta * t1) - math.exp(beta * t0))


def makeham_match_p(a0: float, method: str = "life_expectancy",
                    a: float = 0.0007, b: float = 5e-5,
                    beta: float = 0.0921) -> float:
    """Match the geometric stopping probability to a Makeham hazard at age a0.

    life_expectancy: solve E[age at death | alive at a0] = a0 + 1/p with the
    conditional expectation integrated numerically (truncated at age 130,
    where survival is below 1e-12).

    hazard_rate: match the one-year death probability at a0,
    p = 1 - exp(-integral of the hazard over [a0, a0+1]).  (The raw hazard
    equated to the geometric pmf has no root in (0,1) at realistic ages.)
    """
    if not (0.0 <= a0 <= 120.0):
        raise ParameterError(f"age must lie in [0, 120], got {a0}")
    if a < 0.0 or b < 0.0:
        raise ParameterError("Makeham parameters must be non-negative")
    if method == "life_expectancy":
        if a == 0.0 and b == 0.0:
            raise NoRootError("zero hazard: conditional life expectancy diverges")

        def death_age_density(t: float) -> float:
            hz = a + b * math.exp(beta * t)
            return t * hz * math.exp(-_makeham_cumulative_hazard(a, b, beta, a0, t))

        expect, _ = quad(death_age_density, a0, 130.0, epsabs=1e-12, epsrel=1e-11,
                         limit=400)
        if expect - a0 <= 1.0:
            raise NoRootError(
                f"conditional life expectancy {expect:.4g} leaves no p in (0, 1)"
            )
        return 1.0 / (expect - a0)
    if method == "hazard_rate":
        cum = _makeham_cumulative_hazard(a, b, beta, a0, a0 + 1.0)
        p = -math.expm1(-cum)
        if not (0.0 < p < 1.0):
            raise NoRootError(f"one-year death probability {p:.4g} is not in (0, 1)")
        return p
    raise ParameterError(
        f"method must be 'life_expectancy' or 'hazard_rate', got {method!r}"
    )
