"""Tail exponents, tail constants, shortfall probabilities and Value-at-Risk.

Right tails of the geometrically stopped sums are power laws, the infinite
sum being the p = 0 case; the prefactor comes from one renewal-theoretic
expectation formula evaluated on the solved density.  Left tails scale like
log-normal left tails: log P(X <= eps) / (log eps)^2 approaches a constant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import solver
from .distributions import yor_survival
from .errors import ParameterError, RegimeWarning
from .params import (TailAsymptote, as_reduced, front_speed, require_count,
                     require_nonnegative, require_positive, tail_exponent)


def _stable_power_gap(x: np.ndarray, mu: float) -> np.ndarray:
    # (1+x)^mu - x^mu, from x = 1 on in the expm1 form: the direct one cancels
    out = np.empty_like(x)
    small = x < 1.0
    out[small] = (1.0 + x[small]) ** mu - x[small] ** mu
    xl = x[~small]
    out[~small] = xl**mu * np.expm1(mu * np.log1p(1.0 / xl))
    return out


def tail_constant(F: solver.GridDensity) -> float:
    """Renewal-formula prefactor of P(X > x) ~ c x^(-mu) for a law solved
    at 0 <= p < 1: c = (p + (1-p) E[(1+X)^mu - X^mu]) / (mu (1-p) front_speed).

    The expectation runs over the solved density as one combined payoff,
    which grows like x^(mu-1) and so converges; the two terms taken
    separately each diverge at the exponent boundary.
    """
    rp = solver._law(F, "the tail constant", fixed_point=True).params
    mu = tail_exponent(rp)
    gap = solver.expectation(F, lambda x: _stable_power_gap(x, mu))
    return (rp.p + (1.0 - rp.p) * gap) / (mu * (1.0 - rp.p) * front_speed(rp))


def left_tail_coefficient(params) -> float:
    """Limit of log P(X <= eps) / (log eps)^2: -1/(2 beta) for the infinite,
    the geometrically stopped and every finite sum."""
    return -1.0 / (2.0 * as_reduced(params).beta)


def finite_sum_right_tail_coefficient(params, n: int) -> float:
    """Limit of log P(X_n >= x) / (log x)^2 = -1/(2 beta n) for finite sums."""
    n = require_count("n", n)
    return -1.0 / (2.0 * as_reduced(params).beta * n)


def _threshold(K: float, q: float) -> float:
    """The shortfall level (1+q) K, for finite K > 0 and q >= 0."""
    require_positive(K=K)
    require_nonnegative(q=q)
    return (1.0 + q) * K


def shortfall_probability(F: solver.GridDensity, K: float, q: float = 0.0) -> float:
    """P(X > (1+q) K) on the solved discrete-time density."""
    return solver.survival(F, _threshold(K, q))


def shortfall_continuous(sigma: float, m: float, lam: float, K: float,
                         q: float = 0.0) -> float:
    """Continuous-time-limit shortfall: survival of the exponential-time
    integral law at (1+q) K."""
    return yor_survival(_threshold(K, q), sigma, m, lam)


@dataclass(frozen=True)
class VarEstimate:
    threshold: float
    method: str  # "tail_inversion" | "grid_inversion"


def value_at_risk(ta: TailAsymptote, p_level: float,
                  density: solver.GridDensity | None = None) -> VarEstimate:
    """Threshold K with P(X > K) = p_level from the tail asymptote.

    K = (constant / p_level)^(1/exponent) (TailAsymptote.level, which names
    a K beyond the largest float).  When a density is supplied and K falls
    inside the grid body (below the 99th percentile), the power-law regime
    does not apply: the exact grid inversion is returned and flagged.
    """
    if not (0.0 < p_level < 1.0):
        raise ParameterError(f"p_level must be in (0, 1), got {p_level}")
    k = ta.level(p_level)
    if density is not None:
        x99 = solver.quantile(density, 0.99)
        if k <= x99:
            warnings.warn(
                f"VaR threshold {k:.6g} falls inside the grid body (99th "
                f"percentile {x99:.6g}); using exact grid inversion",
                RegimeWarning,
                stacklevel=2,
            )
            return VarEstimate(solver.quantile(density, 1.0 - p_level), "grid_inversion")
    return VarEstimate(k, "tail_inversion")


# -- empirical fits on solved densities -----------------------------------------


def fit_survival_powerlaw(F: solver.GridDensity) -> tuple[float, float, float]:
    """Fit the survival power law over the last decade of the grid (at least
    its last 20 points), the window the solver fits the tail constant on.

    Returns (fitted_exponent, plateau_constant, plateau_variation): the
    log-log regression slope, the median of survival * x^fitted over the
    window, and the relative max-min spread of survival * x^exponent using
    the density's own tail exponent (flatness diagnostic).  Both plateaus
    are formed in logs; one past the largest float raises ParameterError.
    """
    if F.tail is None:
        raise ParameterError("density carries no tail asymptote to fit against")
    surv = solver.survival_on_grid(F)
    sel = solver._tail_window(F.grid) & (surv > 0.0)
    fitted_exponent = -float(np.polyfit(np.log(F.grid.x()[sel]), np.log(surv[sel]), 1)[0])
    plateau = solver._window_power(F.grid, sel, surv, F.tail.exponent)
    constant = solver._median(solver._window_power(F.grid, sel, surv, fitted_exponent))
    if not np.isfinite(np.append(plateau, constant)).all():
        raise ParameterError(f"the survival plateau S(x) x^mu at mu = {F.tail.exponent:.6g} "
                             f"overflows a float")
    variation = float((plateau.max() - plateau.min()) / solver._median(plateau))
    return fitted_exponent, constant, variation


def fit_left_tail_coefficient(F: solver.GridDensity, params) -> float:
    """Quadratic-in-log(eps) fit of log P(X <= eps) at 12 levels eps from
    1e-4 to 1e-2.

    `params` must be the law's own.  Returns the leading
    coefficient, comparable to -1/(2 beta); the linear and constant terms
    absorb the subleading log-normal structure.
    """
    rp = as_reduced(params)
    if rp != solver._law(F, "left-tail refinement").params:
        raise ParameterError(f"the law was solved at {F.params}, not at {rp}")
    eps = np.geomspace(1e-4, 1e-2, 12)
    probs = solver.left_tail_cdf(F, eps)
    if np.any(probs <= 0.0):
        raise ParameterError(f"P(X <= {eps[probs <= 0.0].max():.6g}) underflows a double")
    coeffs = np.polyfit(np.log(eps), np.log(probs), 2)
    return float(coeffs[0])

