"""Closed-form reference laws.

The one-period log-normal multiplier law, the inverse-Gamma law of the
infinite-horizon continuous time integral of GBM, and the Beta/Gamma-ratio
law of the integral up to an exponential time (with its survival function
and moment identity).  All densities accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.integrate import quad

from .errors import ParameterError
from .params import as_reduced

_Y_TAIL_SWITCH = 10.0
# The small-y series is asymptotic: within 3e-16 below this y, but off by up
# to 1.4e-10 at y = 0.0199.  The Kummer form is within 6e-14 above it and
# turns into 0 * inf below y ~ 0.0014, where 1/y passes 709.
_Y_SERIES_SWITCH = 0.002


def multiplier_pdf(x, params) -> np.ndarray | float:
    """Density of the one-period multiplier: log-normal with log-mean
    rho - beta/2 and log-variance beta.  Zero for x <= 0."""
    rp = as_reduced(params)
    x_arr = np.asarray(x, dtype=float)
    out = np.zeros_like(x_arr)
    pos = x_arr > 0.0
    xp = x_arr[pos]
    mu = rp.rho - 0.5 * rp.beta
    out[pos] = np.exp(-((np.log(xp) - mu) ** 2) / (2.0 * rp.beta)) / (
        np.sqrt(2.0 * math.pi * rp.beta) * xp
    )
    return out if out.ndim else float(out)


def _inv_gamma_shape_scale(sigma: float, m: float) -> tuple[float, float]:
    if sigma <= 0.0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    if m >= 0.5 * sigma**2:
        raise ParameterError(
            f"inverse-Gamma limit law requires m < sigma^2/2, got m = {m}, "
            f"sigma^2/2 = {0.5 * sigma ** 2}"
        )
    return 1.0 - 2.0 * m / sigma**2, 2.0 / sigma**2


def inv_gamma_pdf(z, sigma: float, m: float) -> np.ndarray | float:
    """Density of the infinite-horizon GBM time integral (inverse Gamma)."""
    a, s = _inv_gamma_shape_scale(sigma, m)
    z_arr = np.asarray(z, dtype=float)
    out = np.zeros_like(z_arr)
    pos = z_arr > 0.0
    zp = z_arr[pos]
    out[pos] = np.exp(
        a * math.log(s) - (a + 1.0) * np.log(zp) - s / zp - math.lgamma(a)
    )
    return out if out.ndim else float(out)


def inv_gamma_cdf(x, sigma: float, m: float) -> np.ndarray | float:
    """P(Y_inf < x) = Q(1 - 2m/sigma^2, 2/(sigma^2 x))."""
    a, s = _inv_gamma_shape_scale(sigma, m)
    x_arr = np.asarray(x, dtype=float)
    out = np.zeros_like(x_arr)
    pos = x_arr > 0.0
    # P(Y < x) = P(Gamma(a) > s/x): regularized upper gamma of the reciprocal
    out[pos] = special.gammaincc(a, s / x_arr[pos])
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class YorParams:
    """Shape parameters of the Beta(1, alpha)/Gamma(beta_g) ratio law."""

    alpha: float
    beta_g: float

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ParameterError(f"alpha must be non-negative, got {self.alpha}")
        if not (self.beta_g > 0.0):
            raise ParameterError(f"beta_g must be positive, got {self.beta_g}")


def yor_params(sigma: float, m: float, lam: float) -> YorParams:
    """Shape parameters of the exponential-time GBM integral law.

    lam = 0 is allowed as the degenerate limit (alpha = 0) when the infinite
    integral exists.
    """
    if sigma <= 0.0:
        raise ParameterError(f"sigma must be positive, got {sigma}")
    if lam < 0.0:
        raise ParameterError(f"lam must be non-negative, got {lam}")
    s2 = sigma**2
    if lam == 0.0 and m >= 0.5 * s2:
        raise ParameterError("lam = 0 with m >= sigma^2/2: no limiting law exists")
    # alpha and beta_g are (+-d + root) / (2 sigma^2) with d = 2m - sigma^2;
    # form the one without cancellation, the other from alpha beta_g = 2 lam / sigma^2
    d = 2.0 * m - s2
    big = (abs(d) + math.sqrt(d * d + 8.0 * lam * s2)) / (2.0 * s2)
    small = 2.0 * lam / (s2 * big)
    alpha, beta_g = (big, small) if d > 0.0 else (small, big)
    return YorParams(alpha=alpha, beta_g=beta_g)


def _ratio_pdf_small_y(yv: float, a: float, b: float) -> float:
    # near the origin the density approaches a*b; the power prefactor and the
    # confluent function cancel analytically, leaving the asymptotic series
    # a*b * sum_k (b+1)_k (1-a)_k y^k / k! (truncated at its smallest term)
    total = 1.0
    term = 1.0
    prev = 1.0
    for k in range(1, 60):
        term *= (b + k) * (k - a) * yv / k
        if abs(term) >= prev:
            break
        total += term
        prev = abs(term)
        if abs(term) <= 1e-17 * abs(total):
            break
    return a * b * total


def _ratio_pdf(y, yp: YorParams) -> np.ndarray | float:
    """Density of Beta(1, alpha)/Gamma(beta_g) at y > 0."""
    a, b = yp.alpha, yp.beta_g
    log_pref = math.log(a) + math.log(b) + math.lgamma(a) - math.lgamma(a + b + 1.0)
    y_arr = np.asarray(y, dtype=float)
    out = np.zeros_like(y_arr)
    small = (y_arr > 0.0) & (y_arr < _Y_SERIES_SWITCH)
    out[small] = [_ratio_pdf_small_y(yv, a, b) for yv in y_arr[small]]
    body = y_arr >= _Y_SERIES_SWITCH
    yb = y_arr[body]
    # Kummer form of 1F1(b+1, a+b+1, -1/y): a series of positive terms
    out[body] = np.exp(log_pref - (b + 1.0) * np.log(yb) - 1.0 / yb) * special.hyp1f1(
        a, a + b + 1.0, 1.0 / yb
    )
    return out if out.ndim else float(out)


def yor_pdf(z, sigma: float, m: float, lam: float) -> np.ndarray | float:
    """Density of the GBM time integral up to an Exp(lam) time."""
    if lam <= 0.0:
        raise ParameterError("yor_pdf requires lam > 0; use inv_gamma_pdf for lam = 0")
    yp = yor_params(sigma, m, lam)
    half_s2 = 0.5 * sigma**2
    return half_s2 * _ratio_pdf(np.asarray(z, dtype=float) * half_s2, yp)


def _ratio_survival_tail(y0: float, yp: YorParams) -> float:
    # Exact term-by-term integral of the ratio density beyond y0 >= ~10:
    # the 1F1 Taylor series in -1/y integrates to sum_k c_k (-1)^k y0^(-b-k)/(b+k).
    a, b = yp.alpha, yp.beta_g
    pref = math.exp(math.log(a) + math.log(b) + math.lgamma(a) - math.lgamma(a + b + 1.0))
    ck = 1.0  # (b+1)_k / ((a+b+1)_k k!)
    total = 0.0
    powy = y0 ** (-b)
    for k in range(0, 200):
        term = ck * powy / (b + k)
        if k % 2 == 1:
            term = -term
        total += term
        if abs(term) <= 1e-17 * abs(total):
            break
        ck *= (b + 1.0 + k) / ((a + b + 1.0 + k) * (k + 1.0))
        powy /= y0
    return pref * total


def yor_survival(z: float, sigma: float, m: float, lam: float) -> float:
    """P(Y_{T_lam} > z): quadrature on the body plus an analytic tail sum."""
    if z <= 0.0:
        return 1.0
    if lam <= 0.0:
        raise ParameterError("yor_survival requires lam > 0")
    yp = yor_params(sigma, m, lam)
    y0 = 0.5 * sigma**2 * z
    if y0 >= _Y_TAIL_SWITCH:
        return _ratio_survival_tail(y0, yp)
    body, _ = quad(lambda y: _ratio_pdf(y, yp), y0, _Y_TAIL_SWITCH,
                   epsabs=1e-12, epsrel=1e-11, limit=200)
    return body + _ratio_survival_tail(_Y_TAIL_SWITCH, yp)


def yor_moment_residual(theta: float, mu: float, lam: float) -> float:
    """Residual of the fractional-moment identity satisfied by the
    exponential-time integral law (with sigma = 2, m = 2 mu + 2):

        (2 theta^2 + 2 theta mu - lam) E[Y^theta] + theta E[Y^(theta-1)] = 0.

    Uses the closed-form Beta/Gamma moments; vanishes identically when the
    shape parameters are consistent.
    """
    if not (0.0 < theta < 1.0):
        raise ParameterError(f"theta must lie in (0, 1), got {theta}")
    yp = yor_params(2.0, 2.0 * mu + 2.0, lam)
    alpha, beta_g = yp.alpha, yp.beta_g
    if beta_g - theta <= 0.0:
        raise ParameterError(
            f"moment of order theta = {theta} does not exist (beta_g = {beta_g})"
        )

    def alpha_beta(x: float) -> float:
        # alpha B(x, alpha), finite at alpha = 0 since alpha Gamma(alpha) = Gamma(alpha + 1)
        return math.exp(math.lgamma(x) + math.lgamma(alpha + 1.0) - math.lgamma(x + alpha))

    e_theta = (
        alpha_beta(theta + 1.0) / 2.0**theta
        * math.exp(math.lgamma(beta_g - theta) - math.lgamma(beta_g))
    )
    e_theta_m1 = (
        alpha_beta(theta) / 2.0 ** (theta - 1.0)
        * math.exp(math.lgamma(beta_g - theta + 1.0) - math.lgamma(beta_g))
    )
    return (2.0 * theta**2 + 2.0 * theta * mu - lam) * e_theta + theta * e_theta_m1
