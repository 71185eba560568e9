"""Closed-form reference laws and the library's quadrature rule.

The one-period log-normal multiplier law, the inverse-Gamma law of the
infinite-horizon continuous time integral of GBM, and the Beta/Gamma-ratio
law of the integral up to an exponential time (with its survival function
and moment identity).  All densities accept scalars or numpy arrays.

`_de_integrate`, a double-exponential rule in numpy alone, takes every integral
the library neither sums on a grid nor has in closed form: tanh-sinh nodes on
a finite interval, exp-sinh nodes on a half line (Takahasi and Mori, Publ.
RIMS 9, 1974), for one interval or a stack.  `_ndtr`, the standard normal cdf
in numpy alone, serves the Asian prices' Black-Scholes rows and the left-tail
probabilities.  `inv_gamma_cdf` (an incomplete gamma), `yor_survival` and
`yor_pdf` are integrals over their law's Gamma factor by that rule, through
one helper, `_gamma_factor`, in numpy alone too.  A density or cdf refuses a
NaN point.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, ConvergenceError, ParameterError
from .params import as_reduced, require_finite, require_nonnegative, require_positive

# how far outside [0, 1] a survival probability may round: 10 times the
# double-exponential rule's target _DE_RTOL
_SURVIVAL_SLACK = 1e-12

# The double-exponential rule: trapezoid sums in t, the step halving from
# 1/2, until two successive sums agree to _DE_RTOL.
_DE_RTOL = 1e-13
_DE_LEVELS = 7  # sums, the last at step 1/128
_DE_T_FINITE = (-4.0, 4.0)  # tanh-sinh: the end nodes lie within e^-85 (b - a) of a and b
_DE_T_HALF_LINE = (-4.0, 2.0)  # exp-sinh: x - a runs from 2.3e-19 to 299


def _de_nodes(t: np.ndarray, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x(t) and weights dx/dt of the rule on [a, b]: tanh-sinh for
    finite b, exp-sinh x = a + exp(pi/2 sinh t) for b = inf.  Tanh-sinh
    nodes are placed from the nearer end, so they keep their distance to it."""
    s = 0.5 * math.pi * np.sinh(t)
    ds = 0.5 * math.pi * np.cosh(t)
    if np.isinf(b).all():
        e = np.exp(s)
        return a + e, ds * e
    e = np.exp(-2.0 * np.abs(s))
    gap = (b - a) * e / (1.0 + e)
    return np.where(t < 0.0, a + gap, b - gap), 2.0 * (b - a) * ds * e / (1.0 + e) ** 2


def _de_integrate(f, a, b, scale: float = 0.0, args=()):
    """Integral of the vectorized f over [a, b] (b may be inf) by the
    double-exponential rule.

    Each halving of the step adds the new midpoints to the last sum.  The
    sums must agree to _DE_RTOL relative to the integral of |f|, or to
    `scale` where that is larger (the size of what the caller adds the
    result to).  An AccuracyWarning names a rule that runs out of levels
    first, as a kink or jump in f makes it do.  On a half line the nodes end
    at x - a = 299, so f must decay there; an f that does not leaves its
    last node's term in every sum at that sum's step, and the sums disagree.

    Arrays a and b (broadcast together; b all finite or all inf) are a stack
    of intervals, and the result has their shape.  f then takes nodes of
    shape (intervals, nodes) and, after them, each array in `args` at those
    intervals as a column.  Each interval stops on its own test, and f sees
    only the intervals still open.
    """
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape, rows = lo.shape, np.arange(lo.size)
    lo, hi = lo.reshape(-1, 1), hi.reshape(-1, 1)
    cols = [np.broadcast_to(np.asarray(c, dtype=float), shape).reshape(-1, 1) for c in args]
    t_lo, t_hi = _DE_T_HALF_LINE if np.isinf(hi).all() else _DE_T_FINITE

    def sums(t):  # the sum of the terms and of their sizes, for each open interval
        x, dx = _de_nodes(t, lo, hi)
        terms = np.asarray(f(x, *cols) if shape else f(x[0], *(c[0] for c in cols)),
                           dtype=float) * dx
        return terms.sum(axis=-1), np.abs(terms).sum(axis=-1)

    h = 0.5
    level_total, level_norm = sums(np.arange(t_lo, t_hi + 0.5 * h, h))
    total, norm = np.full(rows.size, h * level_total), np.full(rows.size, h * level_norm)
    for _ in range(_DE_LEVELS - 1):
        h *= 0.5
        level_total, level_norm = sums(np.arange(t_lo + h, t_hi, 2.0 * h))
        prev = total[rows]
        total[rows] = 0.5 * prev + h * level_total
        norm[rows] = 0.5 * norm[rows] + h * level_norm
        # an integrand 0 at every node has norm 0 and agrees
        limit = np.maximum(np.maximum(norm[rows], scale), np.finfo(float).tiny)
        going = ~(np.abs(total[rows] - prev) <= _DE_RTOL * limit)
        if not going.any():
            break
        if not going.all():
            rows, lo, hi, prev, limit = rows[going], lo[going], hi[going], prev[going], limit[going]
            cols = [c[going] for c in cols]
    else:
        gaps = np.abs(total[rows] - prev) / limit
        k = np.argmax(gaps)
        stack = f" ({rows.size} of {total.size} intervals)" if shape else ""
        warnings.warn(f"double-exponential rule on [{lo[k, 0]:.6g}, {hi[k, 0]:.6g}]{stack} "
                      f"stopped at step {h}: its last two sums differ by {gaps[k]:.3g} "
                      f"relative, above {_DE_RTOL}", AccuracyWarning, stacklevel=2)
    return total.reshape(shape) if shape else float(total[0])


# The Cephes rational approximations of erf on |x| <= 1 and of
# erfc(x) e^(x^2) on 1 <= x < 8 and x >= 8 (ndtr.c, Cephes Math Library 2.8),
# highest power first; the denominators' leading 1 is implicit.
_ERF_NUM = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
            7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_DEN = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
            2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_NEAR = ((2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
               4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
               9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2),
              (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
               9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
               1.65666309194161350182E3, 5.57535340817727675546E2))
_ERFC_FAR = ((5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
              6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0),
             (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
              1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0))
# |a| bounds of the cdf's branches at a: erf below sqrt 2 (x = a/sqrt 2 below 1),
# then the two erfc rationals, and 0 or 1 from where e^(-a^2/2) underflows
_NDTR_TAILS = ((math.sqrt(2.0), 8.0 * math.sqrt(2.0), _ERFC_NEAR),
               (8.0 * math.sqrt(2.0), math.sqrt(2.0 * 709.782712893384), _ERFC_FAR))


def _rational(x: np.ndarray, num, den) -> np.ndarray:
    """num(x) / den(x) by Horner's rule, den monic (Cephes polevl / p1evl)."""
    p = num[0] * x + num[1]
    for c in num[2:]:
        p *= x
        p += c
    q = x + den[0]
    for c in den[1:]:
        q *= x
        q += c
    return p / q


def _ndtr(a) -> np.ndarray:
    """The standard normal cdf at each a from Cephes' rational approximations
    of erf (|a| < sqrt 2) and erfc (beyond), within 2e-15 relative on
    [-37, 8.3]; -inf and inf give exactly 0 and 1.  In the tails e^(-a^2/2) is split as Cephes expx2 splits
    it: with m the multiple of 1/128 nearest |a|, e^(-m^2/2) is exact in its
    argument and e^(-(m f + f^2/2)), f = |a| - m, small, so the rounding of
    a^2, which costs an unsplit exponential up to 2.4e-13 near a = -37, does
    not enter."""
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    mag = np.abs(flat)
    out = 0.5 + 0.5 * np.sign(flat)  # 0 or 1 beyond the tails, NaN stays NaN
    idx = np.flatnonzero(mag < _NDTR_TAILS[0][0])
    x = flat[idx] * math.sqrt(0.5)
    out[idx] = 0.5 + 0.5 * x * _rational(x * x, _ERF_NUM, _ERF_DEN)
    for lo, hi, (num, den) in _NDTR_TAILS:
        idx = np.flatnonzero((mag >= lo) & (mag < hi))
        mag_i = mag[idx]
        m = np.round(128.0 * mag_i) / 128.0  # mag_i - m is exact
        f = mag_i - m
        lower = (0.5 * np.exp(-0.5 * m * m) * np.exp(-(m * f + 0.5 * f * f))
                 * _rational(mag_i * math.sqrt(0.5), num, den))
        out[idx] = np.where(flat[idx] > 0.0, 1.0 - lower, lower)
    return out.reshape(a.shape)


def _on_positive(x, caller: str, name: str, f) -> np.ndarray | float:
    """f at the points of x above 0, and 0 at the others, shaped as x (a float
    for a scalar); ParameterError names the point `name` if any is NaN."""
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise ParameterError(f"{caller} needs a point {name}, got NaN")
    out = np.zeros_like(arr)
    pos = arr > 0.0
    out[pos] = f(arr[pos])
    return out if out.ndim else float(out)


# the Taylor coefficients of (expm1(x) - x) / x^2, highest first; x^17/17! < 1e-20 at |x| = 1/2
_EXPM1MX_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(16, 1, -1))


def _expm1mx(x) -> np.ndarray:
    """expm1(x) - x, by its Taylor series where the two cancel (|x| < 1/2)."""
    x = np.asarray(x, dtype=float)
    out, near = np.expm1(x) - x, np.abs(x) < 0.5
    xn = x[near]
    series = np.full_like(xn, _EXPM1MX_TAYLOR[0])
    for c in _EXPM1MX_TAYLOR[1:]:
        series *= xn
        series += c
    out[near] = series * xn * xn
    return out


def _gamma_factor(b: float, level, payoff=None, power: float = 0.0, root=None, excess=None):
    """The reference laws' integrals over their Gamma factor G ~ Gamma(b).

    In v = log(G / b), G has density w(v) / total, w(v) = e^(-b (expm1 v - v)).
    Returns the total and, for each level L of the stack `level`, the integral
    of w(v) payoff(v, L - v) over v < L, or without a payoff that of w over
    v > L, for L >= 0 from the excess e^L - 1 of the caller's own ratio.  Below
    L it is split at the mode of w (1 - e^(v - L))^power: under it the rule runs
    in v, down to v0, below which a head in closed form takes w = e^(b (v + 1))
    and the payoff at its limit; above it, in the distance to L, so the nodes
    keep their gap to the root.  A payoff whose mass crowds the root closer
    than the nodes reach gives root(L, D), its integral over that side of width
    D: the rule then takes (w(v) - w(L)) payoff there.  The rule skips where w
    is below e^-750 of its peak, so a narrow peak (b large) spans a few steps."""
    def w(v):
        return np.exp(-b * _expm1mx(v))

    v0 = math.log(1e-17 / (1.0 + b))
    # below cut and above hi, w < e^-750: expm1(-s) + s >= s^2 / (2 + s)
    cut = -(750.0 + math.sqrt(750.0 * (750.0 + 8.0 * b))) / (2.0 * b)
    hi = math.log1p((750.0 + math.sqrt(1500.0 * b)) / b) + 1.0
    head, upper = math.exp(b * (v0 + 1.0)) / b, _de_integrate(w, 0.0, hi)
    total = head + _de_integrate(w, max(v0, cut), 0.0) + upper
    level = np.asarray(level, dtype=float)
    if payoff is None:
        out = np.zeros_like(level)
        down, up = level < 0.0, (level >= 0.0) & (level < hi)
        out[down] = (head * -np.expm1(-b * np.maximum(v0 - level[down], 0.0)) + upper
                     + _de_integrate(w, np.maximum(level[down], max(v0, cut)), 0.0))
        # with u = e^L - 1, w(L) = e^(-b (u - L)), w(L + d) = w(L) e^(-b e^L (expm1 d - d) - b u d)
        lu, u = level[up], np.asarray(excess, dtype=float)[up]
        out[up] = np.exp(-b * np.where(u > 0.5, u - lu, _expm1mx(lu))) * _de_integrate(
            lambda d, bu: np.exp(-(b + bu) * _expm1mx(d) - bu * d), 0.0, hi - lu, args=(b * u,))
        return total, out
    # the mode: the smaller root of a quadratic in e^v (in e^(v - L) if L < 0)
    e, k = np.exp(-np.abs(level)), power / b * np.exp(-np.maximum(level, 0.0))
    mode = np.minimum(level, 0.0) - np.log(
        0.5 * (1.0 + e + k + np.sqrt((1.0 - e) ** 2 + k * (2.0 * (1.0 + e) + k))))
    v0_at = np.minimum(v0, level - 40.0 - math.log1p(power))  # (1 - e^(v - L))^power is 1 there
    end = np.minimum(level, hi)

    def near(d, end, gap):
        v, d = end - d, d + gap
        if root is None:
            return w(v) * payoff(v, d)
        above = b * (np.exp(v) * np.expm1(np.minimum(d, 700.0)) - d)  # log w(v) - log w(L)
        return w(v) * payoff(v, d) * -np.expm1(-above)

    out = (np.exp(b * (v0_at + 1.0)) / b * payoff(np.array(-math.inf), np.array(math.inf))
           + _de_integrate(lambda v, top: w(v) * payoff(v, top - v),
                           np.minimum(np.maximum(v0_at, cut), mode), mode, args=(level,))
           + _de_integrate(near, 0.0, end - mode, args=(end, level - end)))
    if root is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # w(L) is 0 where expm1 L overflows
            w_top = np.exp(-b * _expm1mx(level))
            out = out + np.where(w_top > 0.0, w_top * root(level, level - mode), 0.0)
    return total, out


def multiplier_pdf(x, params) -> np.ndarray | float:
    """Density of the one-period multiplier: log-normal with log-mean
    rho - beta/2 and log-variance beta.  Zero for x <= 0."""
    rp = as_reduced(params)
    mu = rp.rho - 0.5 * rp.beta
    return _on_positive(x, "multiplier_pdf", "x", lambda xp: np.exp(
        -((np.log(xp) - mu) ** 2) / (2.0 * rp.beta)) / (np.sqrt(2.0 * math.pi * rp.beta) * xp))


def _inv_gamma_shape_scale(sigma: float, m: float) -> tuple[float, float]:
    require_positive(sigma=sigma)
    require_finite(m=m)
    if m >= 0.5 * sigma**2:
        raise ParameterError(
            f"inverse-Gamma limit law requires m < sigma^2/2, got m = {m}, "
            f"sigma^2/2 = {0.5 * sigma ** 2}"
        )
    return 1.0 - 2.0 * m / sigma**2, 2.0 / sigma**2


def inv_gamma_pdf(z, sigma: float, m: float) -> np.ndarray | float:
    """Density of the infinite-horizon GBM time integral (inverse Gamma)."""
    a, s = _inv_gamma_shape_scale(sigma, m)
    return _on_positive(z, "inv_gamma_pdf", "z", lambda zp: np.exp(
        a * math.log(s) - (a + 1.0) * np.log(zp) - s / zp - math.lgamma(a)))


def inv_gamma_cdf(x, sigma: float, m: float) -> np.ndarray | float:
    """P(Y_inf < x) = Q(a, t): the upper tail of G ~ Gamma(a) at t = s/x, with
    a = 1 - 2m/sigma^2 and s = 2/sigma^2.  The level log(t/a) is taken from the
    excess (t - a)/a, exact near the mode, except far below it."""
    a, s = _inv_gamma_shape_scale(sigma, m)

    def upper_tail(xp):
        with np.errstate(over="ignore", divide="ignore"):  # t = inf or 0 at the ends
            t = s / xp
            excess = (t - a) / a
            total, above = _gamma_factor(
                a, np.where(t < 0.5 * a, np.log(t / a), np.log1p(excess)), excess=excess)
        return above / total

    return _on_positive(x, "inv_gamma_cdf", "x", upper_tail)


@dataclass(frozen=True)
class YorParams:
    """Shape parameters of the Beta(1, alpha)/Gamma(beta_g) ratio law."""

    alpha: float
    beta_g: float

    def __post_init__(self):
        require_nonnegative(alpha=self.alpha)
        require_positive(beta_g=self.beta_g)


def yor_params(sigma: float, m: float, lam: float) -> YorParams:
    """Shape parameters of the exponential-time GBM integral law.

    lam = 0 is allowed as the degenerate limit (alpha = 0) when the infinite
    integral exists.
    """
    require_positive(sigma=sigma)
    require_finite(m=m)
    require_nonnegative(lam=lam)
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


def _root_level(z, sb) -> np.ndarray:
    """-log(y beta_g) at each z, where y G = 1, from the one product y beta_g = sb z
    (which keeps the level to rounding near the mode) unless that under- or overflows."""
    with np.errstate(over="ignore", under="ignore"):
        p = sb * np.asarray(z, dtype=float)
    return np.where((p > 0.0) & (p < math.inf), -np.log(np.where(p > 0.0, p, 1.0)),
                    -math.log(sb) - np.log(z))


def yor_pdf(z, sigma: float, m: float, lam: float) -> np.ndarray | float:
    """Density of the GBM time integral up to an Exp(lam) time.

    In ratio units y = sigma^2 z / 2 it is f(y) = alpha E[G (1 - y G)_+^(alpha - 1)]:
    over its Gamma factor (_gamma_factor), the integral below L = -log(y beta_g)
    of w times alpha beta_g e^v (1 - e^(v - L))^(alpha - 1), which tends to
    alpha beta_g as y -> 0.  For alpha < 1/2 a share e^(-85 alpha) of that
    payoff's mass lies closer to the root than the rule's nearest node, so w(L)
    times its integral near the root, (1 - e^-D)^alpha / y, is taken in closed
    form, from a split where w is within e^(1/2) of w(L)."""
    if lam <= 0.0:
        raise ParameterError("yor_pdf requires lam > 0; use inv_gamma_pdf for lam = 0")
    yp = yor_params(sigma, m, lam)
    a, b = yp.alpha, yp.beta_g
    half_s2 = 0.5 * sigma**2

    def density(zp):
        out = np.zeros_like(zp)
        finite = zp < math.inf
        total, below = _gamma_factor(
            b, _root_level(zp[finite], half_s2 * b),
            lambda v, d: a * b * np.exp(v) * (-np.expm1(-d)) ** (a - 1.0), max(a, 0.5),
            (lambda level, gap: b * np.exp(level) * (-np.expm1(-gap)) ** a) if a < 0.5 else None)
        out[finite] = half_s2 * below / total
        return out

    return _on_positive(z, "yor_pdf", "z", density)


def yor_survival(z: float, sigma: float, m: float, lam: float) -> float:
    """P(Y_{T_lam} > z).  In ratio units y = sigma^2 z / 2 the law is B/G, B ~
    Beta(1, alpha), G ~ Gamma(beta_g), so P(Y > z) = E[(1 - y G)_+^alpha]: the
    integral of w times the payoff below L = -log(y beta_g) over the total
    (_gamma_factor).  A value outside [0, 1] by more than _SURVIVAL_SLACK raises
    ConvergenceError (the rule stopped short); one within it is rounding and is
    clipped."""
    if math.isnan(z):
        raise ParameterError("yor_survival needs a level z, got NaN")
    if z <= 0.0:
        return 1.0
    if lam <= 0.0:
        raise ParameterError("yor_survival requires lam > 0")
    yp = yor_params(sigma, m, lam)
    if z == math.inf:
        return 0.0
    a, b = yp.alpha, yp.beta_g
    level = _root_level(z, 0.5 * sigma**2 * b)
    total, below = _gamma_factor(b, level, lambda v, d: (-np.expm1(-d)) ** a, a)
    value = float(below) / total
    if not -_SURVIVAL_SLACK <= value <= 1.0 + _SURVIVAL_SLACK:
        raise ConvergenceError(f"P(Y > {z:.6g}) evaluated to {value!r}, outside [0, 1]: the "
                               f"quadrature of the exponential-time law did not converge "
                               f"(sigma = {sigma:.6g}, m = {m:.6g}, lam = {lam:.6g})")
    return min(max(value, 0.0), 1.0)


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
