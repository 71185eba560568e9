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

from . import solver
from .distributions import _de_integrate, multiplier_pdf
from .errors import (
    AccuracyWarning,
    CancellationWarning,
    DivergentExpectationError,
    NoRootError,
    ParameterError,
)
from .mc import GeneralHorizon
from .moments import mean_finite_sum
from .params import (ReducedParams, _require_finite_exp, as_reduced, require_count,
                     require_finite, require_nonnegative, require_positive, tail_exponent)
from .solver import GaussianStepOperator, Grid, GridDensity

# Finite-sum powers past this many terms take their steps on every other node.
# An apply resolves the product of its input with the kernel (width sqrt(beta)
# in u); f1 is about sqrt(beta)/2 wide in u and needs the step sqrt(beta)/3,
# while the 16-term law is about 2.3 sqrt(beta) wide, and at 2 sqrt(beta)/3 the
# kernel's own trapezoid sum errs by about e^(-2 pi^2 9/4) = 5e-20.
_FINE_POWERS = 16
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
        require_positive(s0=self.s0, sigma=self.sigma, maturity=self.maturity)
        require_nonnegative(strike=self.strike)
        require_finite(rate=self.rate, dividend=self.dividend)
        object.__setattr__(self, "n_fixings", require_count("n_fixings", self.n_fixings))

    @property
    def tau(self) -> float:
        return self.maturity / self.n_fixings

    @property
    def drift(self) -> float:
        return self.rate - self.dividend

    def reduced(self) -> ReducedParams:
        return ReducedParams(beta=self.sigma**2 * self.tau, rho=self.drift * self.tau)


# -- finite-sum densities ------------------------------------------------------


def _finite_sum_grid(n: int, rp: ReducedParams) -> Grid:
    """The grid the n-term law's first powers run on: the solves' default step
    min(0.01, sqrt(beta)/3) (solver._default_step), which the kernel sets, as
    prices take their kinked last step in closed form; and a span from the
    sum's mean and log-normal spread.  Past _FINE_POWERS terms the powers run
    on every other node of it (_finite_sum_laws)."""
    mean = mean_finite_sum(n, rp.rho, 1.0, 1.0)
    margin = math.sqrt(2.0 * rp.beta * n * 46.0) + 1.0
    return Grid.spanning(solver._default_step(rp.beta),
                         math.log1p(max(mean, 1.0) * math.exp(margin)))


@functools.lru_cache(maxsize=8)
def _finite_sum_laws(n: int, rp: ReducedParams) -> solver._Law:
    """The n-term law at rp = ReducedParams(beta, rho), from one power pass,
    cached read-only; its law one step back is the (n-1)-term values, or at
    n = 1 the point mass at 0, given as None, where no operator is built.

    The first _FINE_POWERS powers run on _finite_sum_grid; past them the
    _FINE_POWERS-term values, restricted to the even nodes (exact there),
    take the remaining n - _FINE_POWERS steps on the grid of step 2h, whose
    operator is built once the fine one is dropped.  The law lives on the
    grid its last step was taken on."""
    grid = _finite_sum_grid(n, rp)
    if n == 1:
        return solver._Law(grid, multiplier_pdf(grid.x(), rp), params=rp)
    op = GaussianStepOperator(grid, rp)
    prev = last = None
    for vals in op.powers(multiplier_pdf(grid.x(), rp), min(n, _FINE_POWERS) - 1):
        prev, last = last, vals
        vals.setflags(write=False)
    if n > _FINE_POWERS:
        del op  # its blocks go back before the coarse ones are built
        m = (grid.n_points - 1) // 2 + 1
        grid = Grid(2.0 * grid.h, m)
        op = GaussianStepOperator._for_wide_inputs(grid, rp)
        for vals in op.powers(last[: 2 * m - 1 : 2].copy(), n - _FINE_POWERS):
            prev, last = last, vals
            vals.setflags(write=False)
    return solver._Law(grid, last, params=rp, col_scale=op._col_scale, prev=prev)


def finite_sum_density(n: int, params) -> GridDensity:
    """Density of the n-term sum: n-1 applications of the one-step transform
    to the one-period multiplier law, built once per (n, beta, rho), as no
    stopping p enters, and refined by density_at and left_tail_cdf as a
    solve is.  Past 16 terms the law's grid is every other node of the
    first powers' grid, at twice their step (_finite_sum_laws).  No
    power-law tail is attached (log-normal-type tails)."""
    n = require_count("n", n)
    rp = as_reduced(params)
    return _finite_sum_laws(n, ReducedParams(rp.beta, rp.rho))


def finite_sum_density_derivative_form(n: int, params) -> GridDensity:
    """The same n-term density from the alternating derivative expansion of
    the geometric-stopping law around p = 1.

    Validation path only: each term is one transform application scaled by
    -k, summed with (-1)^k/k! coefficients.  All n terms are always used;
    catastrophic cancellation is flagged.
    """
    n = require_count("n", n)
    if n > 150:
        raise ParameterError(
            f"expansion order {n} exceeds double-precision factorial range; "
            f"use finite_sum_density for large horizons"
        )
    rp = as_reduced(params)
    grid = _finite_sum_grid(n, rp)
    op = GaussianStepOperator(grid, rp)
    f1 = multiplier_pdf(grid.x(), rp)
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
    grid = Grid.spanning(solver._default_step(rp.beta), u_max)
    powers = GaussianStepOperator(grid, rp).powers(multiplier_pdf(grid.x(), rp), cap - 1)
    F = GridDensity(grid, sum(w * vals for w, vals in zip(weights, powers)))
    rel_err = solver._mean_rel_err(F, exact_mean)
    if rel_err > _MIXTURE_MEAN_RTOL:
        warnings.warn(f"mixture grid mean misses the exact mean {exact_mean:.6g} by {rel_err:.3g} "
                      f"relative, above {_MIXTURE_MEAN_RTOL}: the span u_max = {grid.u_max:.4g} "
                      f"cuts the law's mass", AccuracyWarning, stacklevel=2)
    return F


# -- Asian options --------------------------------------------------------------


def asian_prices(spec: AsianSpec) -> dict:
    """The Asian record: discounted call and put, their put-call parity gaps
    under both conventions (put_call_parity_gap), the relative error of the
    law's grid mean and, under "grid", the h, u_max and n_points of the grid
    the law was priced on: past 16 fixings, twice the step of its first
    powers (finite_sum_density).

    The prices take the last step in closed form: X_n = M (1 + X_{n-1}) with
    M log-normal, so each is one Black-Scholes row in a = 1 + X_{n-1}
    (solver._lognormal_option_rows) summed over the (n-1)-term law by
    solver._last_step, the sum left_tail_cdf reads, and no price depends on
    where the strike falls in a grid cell.  At n = 1 that law is the point
    mass at 0 and the prices are Black-Scholes's, which read no grid and
    never warn.  For n >= 2, one AccuracyWarning names a strike level nK/S0
    at or above the grid top expm1(u_max), where the grid cannot check the
    call; the CLI's --strict escalates it to an error.
    """
    rp = spec.reduced()
    n = spec.n_fixings
    kappa = n * spec.strike / spec.s0
    rt = spec.rate * spec.maturity
    _require_finite_exp("the discount factor e^(-rT)", -rt)
    disc = math.exp(-rt)
    law = _finite_sum_laws(n, rp)
    grid = law.grid
    x_max = math.expm1(grid.u_max)
    if n > 1 and kappa >= x_max:
        warnings.warn(f"call price unresolved on the law's grid (x_max = {x_max:.4g}, strike "
                      f"level x = {kappa:.4g}): a strike at or above the grid top leaves only "
                      f"truncated call-payoff mass", AccuracyWarning, stacklevel=2)
    call, put = map(float, disc * spec.s0 / n * solver._last_step(
        law, "asian_prices", lambda u: solver._lognormal_option_rows(u, kappa, rp)))
    mean = mean_finite_sum(n, spec.drift, spec.tau, 1.0)
    _require_finite_exp("the continuous-average growth e^(rT)", rt)
    continuous_mean = spec.s0 if rt == 0.0 else spec.s0 / rt * math.expm1(rt)
    return {
        "call": call,
        "put": put,
        "parity_gap_discrete": (call - put) - disc * (spec.s0 * mean / n - spec.strike),
        "parity_gap_continuous_average": (call - put) - disc * (continuous_mean - spec.strike),
        "mean_rel_err": solver._mean_rel_err(law, mean),
        "grid": {"h": grid.h, "u_max": grid.u_max, "n_points": grid.n_points},
    }


def put_call_parity_gap(spec: AsianSpec, convention: str = "discrete") -> float:
    """(C - P) - e^{-rT} (E[average] - K).

    'discrete' uses the exact discretely sampled mean; 'continuous_average'
    uses the continuous-average mean (S0/(rT))(e^{rT} - 1) for comparison.
    """
    if convention not in ("discrete", "continuous_average"):
        raise ParameterError(f"unknown parity convention {convention!r}")
    return asian_prices(spec)["parity_gap_" + convention]


# -- geometric-maturity option block ---------------------------------------------


def geometric_maturity_option(F: GridDensity, kappa: float) -> float:
    """E[(X_N - kappa)+] for geometric stopping, on a law F from solve_geometric
    with 0 < p < 1: the building block of the generating-function route to
    fixed-maturity prices.  A strike ladder reuses the one solve.

    The grid part is a trapezoid sum; the part beyond the grid top x_max is
    the tail closure c mu x^(-mu-1) integrated in closed form, kink included:
    c k^(-mu) (mu k / (mu - 1) - kappa) with k = max(kappa, x_max)."""
    rp = solver._law(F, "geometric_maturity_option", fixed_point=True).params
    if not (0.0 < rp.p < 1.0):
        raise ParameterError(f"needs 0 < p < 1, got p = {rp.p}")
    require_nonnegative(kappa=kappa)
    mu = tail_exponent(rp)  # the exponent of F's tail closure, which the solve sets from it
    if mu <= 1.0:
        raise DivergentExpectationError(
            f"tail exponent mu = {mu:.4g} <= 1: E[(X_N - kappa)+] is infinite"
        )
    call = solver.expectation(GridDensity(F.grid, F.values), lambda x: np.maximum(x - kappa, 0.0))
    if F.tail is None:
        return call
    k = max(kappa, float(F.grid.x()[-1]))
    return call + F.tail.survival(k) * (mu * k / (mu - 1.0) - kappa)


# -- Makeham calibration ----------------------------------------------------------


def _makeham_cumulative_hazard(a: float, b: float, beta: float, t0: float, t1):
    """Integral of the hazard a + b e^(beta t) from t0 to t1 (a float or an array)."""
    if beta == 0.0:
        return (a + b) * (t1 - t0)
    return a * (t1 - t0) + b / beta * (np.exp(beta * t1) - math.exp(beta * t0))


def makeham_match_p(a0: float, method: str = "life_expectancy",
                    a: float = 0.0007, b: float = 5e-5,
                    beta: float = 0.0921) -> float:
    """Match the geometric stopping probability to a Makeham hazard at age a0.

    life_expectancy: solve E[age at death | alive at a0] = a0 + 1/p with the
    conditional expectation integrated by the double-exponential rule
    (distributions._de_integrate) up to age 130, where survival is below 1e-12.

    hazard_rate: match the one-year death probability at a0,
    p = 1 - exp(-integral of the hazard over [a0, a0+1]).  (The raw hazard
    equated to the geometric pmf has no root in (0,1) at realistic ages.)
    """
    if not (0.0 <= a0 <= 120.0):
        raise ParameterError(f"age must lie in [0, 120], got {a0}")
    require_nonnegative(a=a, b=b)
    require_finite(beta=beta)
    if method == "life_expectancy":
        if a == 0.0 and b == 0.0:
            raise NoRootError("zero hazard: conditional life expectancy diverges")

        def death_age_density(t: np.ndarray) -> np.ndarray:
            hz = a + b * np.exp(beta * t)
            return t * hz * np.exp(-_makeham_cumulative_hazard(a, b, beta, a0, t))

        expect = _de_integrate(death_age_density, a0, 130.0)
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
