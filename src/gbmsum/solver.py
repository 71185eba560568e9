"""Grid densities in u = log(1+x) coordinates and the fixed-point solvers.

The one-step integral transform of the sum recursion becomes, after the
change of variables u = log(1+x), a Gaussian-kernel integral operator whose
trapezoidal discretization is a banded matrix.  Fixed points of that
operator (optionally with a source term for geometric stopping) give the
stationary densities; repeated application gives finite-sum densities.
"""

from __future__ import annotations

import logging
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.integrate import quad
from scipy.sparse.linalg import LinearOperator, gmres

from . import distributions
from .errors import (
    AccuracyWarning,
    CoarseGridWarning,
    ConvergenceError,
    DivergentExpectationError,
    ParameterError,
)
from .moments import gbm_multiplier_moments, moment_exists, moments_geometric
from .params import ReducedParams, TailAsymptote, as_reduced, require_finite, tail_exponent

TRUNCATION_TOL = 1e-7  # default analytic tail mass allowed beyond the grid
_BAND_SIGMAS = 8.0
_NEG_CLIP = -1e-14
_U_MAX_CAP = 60.0
_LEFT_TAIL_RTOL = 3e-5  # bias of the left_tail_cdf rule, relative
_POLISH_RESTART = 60  # GMRES Krylov dimension between restarts
_POLISH_RTOL = 1e-13  # GMRES target, relative to the scaled right-hand side
_PICARD_SWITCH = 1e-4  # sup-norm delta at which Picard hands over to GMRES
_BLOCK_ROWS = 16  # rows per dense operator block

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Grid:
    """Uniform grid u_j = j*h, j = 0 .. n_points-1, in u = log(1+x)."""

    h: float
    n_points: int

    def __post_init__(self):
        require_finite(h=self.h)
        if not (self.h > 0.0):
            raise ParameterError(f"grid step must be positive, got {self.h}")
        if self.n_points < 16:
            raise ParameterError(f"grid needs at least 16 points, got {self.n_points}")

    @classmethod
    def spanning(cls, h: float, u_max: float) -> Grid:
        """The step-h grid whose top is the grid point nearest u_max."""
        require_finite(h=h, u_max=u_max)
        if not (h > 0.0 and u_max > 0.0):
            raise ParameterError(f"grid step and span must be positive, got h = {h}, "
                                 f"u_max = {u_max}")
        return cls(h, int(round(u_max / h)) + 1)

    @property
    def u_max(self) -> float:
        return (self.n_points - 1) * self.h

    def u(self) -> np.ndarray:
        return np.arange(self.n_points) * self.h

    def x(self) -> np.ndarray:
        return np.expm1(self.u())


@dataclass(frozen=True)
class GridDensity:
    """A density of X sampled in u coordinates: values[j] = f(e^{u_j} - 1).

    The optional tail asymptote extends the law analytically beyond the
    grid; integrals over the density use it for closure.  Only the solver
    sets params, the law's parameters, and col_scale: on a law solved at
    0 <= p < 1, the column scales of the operator it is the fixed point of,
    cropped to the grid, which off-grid refinement applies.
    """

    grid: Grid
    values: np.ndarray
    tail: TailAsymptote | None = None
    params: ReducedParams | None = field(default=None, init=False, repr=False, compare=False)
    col_scale: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_points,):
            raise ParameterError(f"values shape {vals.shape} does not match grid "
                                 f"({self.grid.n_points},)")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("density values must be finite")
        if vals[0] != 0.0:
            raise ParameterError("density must vanish at x = 0 (values[0] == 0)")
        if vals.min() < _NEG_CLIP:
            raise ParameterError(f"density has negative values below the clip threshold: "
                                 f"min = {vals.min()}")
        vals = np.where(vals < 0.0, 0.0, vals)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass
class SolveReport:
    """Diagnostics of a fixed-point solve.  The traces cover the Picard steps
    alone, so the last delta is the sup-norm fixed-point residual; iterations
    counts every apply.  mean_rel_err is None where the mean is infinite."""

    iterations: int
    final_delta: float
    normalization_drift: float
    quadrature_bound: float
    delta_trace: list = field(default_factory=list)
    mass_trace: list = field(default_factory=list)
    polish_matvecs: int = 0
    mean_rel_err: float | None = None


class GaussianStepOperator:
    """Banded trapezoidal discretization of the one-step transform: the
    unscaled kernel as dense blocks of _BLOCK_ROWS rows plus a vector of
    column scales, which every apply multiplies its input by.

    Row j integrates the input density against a Gaussian kernel of variance
    beta centered at w0(u_j) = log(e^{u_j} - 1) + 3 beta/2 - rho; the kernel
    is truncated at _BAND_SIGMAS = 8 standard deviations (relative mass
    beyond 8 sigma is ~1e-15).  Row j holds columns k0[j] .. k0[j] + bw - 1,
    with k0 nondecreasing; block b holds its rows over the W columns from
    cols[b] on, exact zeros beside each band (see _kernel_rows).  An apply
    computes only the blocks whose window meets the input's nonzero span;
    every other row is exactly 0.
    """

    def __init__(self, grid: Grid, params):
        start = time.perf_counter()
        rp = as_reduced(params)
        if math.sqrt(rp.beta) < 3.0 * grid.h:
            warnings.warn(f"Gaussian kernel width sqrt(beta) = {math.sqrt(rp.beta):.4g} is "
                          f"below 3h = {3.0 * grid.h:.4g}; refine the grid step",
                          CoarseGridWarning, stacklevel=2)
        u = grid.u()
        w0 = np.empty(grid.n_points)
        w0[0] = 0.0  # row 0 is zeroed below; kernel center sits at -inf
        w0[1:] = np.log(np.expm1(u[1:])) + 1.5 * rp.beta - rp.rho
        blocks, cols = _kernel_rows(grid, rp, w0)
        blocks[0, 0] = 0.0  # row 0
        # Conservative correction: scale each input column so the discrete
        # transform preserves trapezoidal mass exactly (the continuous kernel
        # satisfies int e^u K(u, w) du = e^w).  The factors are 1 + O(h^3),
        # the same order as the row quadrature error, and they pin the mass
        # eigenvalue to 1 so the fixed-point iteration can converge below
        # the per-application quadrature drift.  They scale each apply's
        # input vector.
        mass_w = _mass_weights(grid)
        rows_w = np.zeros(blocks.shape[:2])
        rows_w.flat[: grid.n_points] = mass_w
        window = cols[:, None] + np.arange(blocks.shape[2])  # the columns each block covers
        col_mass = np.bincount(window.ravel(), (rows_w[:, None, :] @ blocks).ravel(),
                               minlength=grid.n_points)
        with np.errstate(divide="ignore", invalid="ignore"):
            col_scale = np.where(col_mass > 0.0, mass_w / col_mass, 1.0)
        self._col_scale = col_scale
        self._mass_w = mass_w  # trapezoid mass weights: mass_w @ apply(v) == mass_w @ v
        self._blocks, self._cols = blocks, cols
        _log.debug("step operator built: n = %d, blocks %d x %d x %d, %.4f s", grid.n_points,
                   *blocks.shape, time.perf_counter() - start)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """T values, the block product with col_scale * values over the blocks
        whose window meets the first or last nonzero of col_scale * values or
        lies between them; the other rows are 0."""
        if np.shape(values) != self._col_scale.shape:  # would broadcast against the scales
            raise ParameterError(f"apply needs {self._col_scale.size} values, got shape "
                                 f"{np.shape(values)}")
        y = self._col_scale * values
        live = np.flatnonzero(y)
        b0 = b1 = 0
        if live.size:
            b0 = int(np.searchsorted(self._cols, live[0] - self._blocks.shape[2] + 1))
            b1 = int(np.searchsorted(self._cols, live[-1], side="right"))
        return _block_product(self._blocks, self._cols, y, b0, b1)[: y.size]


def _block_product(blocks: np.ndarray, cols: np.ndarray, y: np.ndarray, b0: int,
                   b1: int) -> np.ndarray:
    """The rows of blocks b0 .. b1-1 times y, the other rows 0, for blocks
    of shape (nb, R, W) over the columns cols[b] .. cols[b] + W - 1 of a
    contiguous float vector y: one matmul of the blocks with the gathered
    windows of y, which a sliding view of y without a copy indexes."""
    nb, rows, width = blocks.shape
    out = np.zeros(nb * rows)
    # every window of y as one view: the ndarray constructor takes about 1 us
    # where sliding_window_view takes 17 us, on each of thousands of applies
    windows = np.ndarray((y.size - width + 1, width), y.dtype, y, 0, (y.itemsize, y.itemsize))
    np.matmul(blocks[b0:b1], windows[cols[b0:b1], :, None],
              out=out[b0 * rows : b1 * rows].reshape(b1 - b0, rows, 1))
    return out


def _kernel_rows(grid: Grid, rp: ReducedParams, w0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled kernel rows centred at w0, each a run of bw contiguous
    columns of the grid, as blocks of shape (nb, _BLOCK_ROWS, W) and the
    first column cols of each block's window (nondecreasing for sorted w0).

    Block b holds rows b*_BLOCK_ROWS onwards over columns cols[b] ..
    cols[b] + W - 1, each band at its own offset with exact zeros beside it;
    W is the widest span of any block's bands, and rows past len(w0) are 0.
    The values are computed in place; the largest other allocation is the
    boolean mask of the gaps beside the bands, an eighth of the blocks'
    bytes.  Every column carries the full weight h, with no trapezoid half
    weights at the grid's ends: in an operator the column scales would
    divide them back out, as every row holding column n-1 is clipped alike,
    and column 0 meets only values[0] = 0.
    """
    n, h, m = grid.n_points, grid.h, w0.size
    bw = min(n, 2 * int(math.ceil(_BAND_SIGMAS * math.sqrt(rp.beta) / h)) + 1)
    pref = math.exp(rp.beta - rp.rho) / math.sqrt(2.0 * math.pi * rp.beta)
    nb = -(-m // _BLOCK_ROWS)
    centre = np.full(nb * _BLOCK_ROWS, w0[-1])  # padding rows repeat the last row
    centre[:m] = w0
    centre = centre.reshape(nb, _BLOCK_ROWS)
    k0 = np.clip(np.rint(centre / h).astype(np.int64) - (bw - 1) // 2, 0, n - bw)
    width = int(np.max(k0[:, -1] - k0[:, 0])) + bw
    cols = np.minimum(k0[:, 0], n - width)
    blocks = np.empty((nb, _BLOCK_ROWS, width))
    np.add((cols[:, None] * h - centre)[:, :, None], np.arange(width) * h, out=blocks)  # w_k - w0
    np.square(blocks, out=blocks)
    blocks *= -0.5 / rp.beta
    np.exp(blocks, out=blocks)
    blocks *= pref * h
    # in the flat blocks, runs that alternate between the gap before a band
    # and the band: zero the gaps, which hold the padding rows too
    first = np.arange(m) * width + (k0 - cols[:, None]).ravel()[:m]
    edges = np.column_stack([first, first + bw]).ravel()
    runs = np.diff(edges, prepend=0, append=blocks.size)
    gaps = np.repeat(np.arange(runs.size) % 2 == 0, runs).reshape(blocks.shape)
    np.copyto(blocks, 0.0, where=gaps)
    return blocks, cols


# -- default grid construction ------------------------------------------------


def _default_u_max(rp: ReducedParams, exponent: float) -> float:
    c_est = 10.0 * max(2.0 / rp.beta, 1.0)
    x_tail = (c_est / TRUNCATION_TOL) ** (1.0 / exponent)
    mean_mult = math.exp(rp.rho)
    denom = 1.0 - (1.0 - rp.p) * mean_mult
    body_x = 100.0 * max(mean_mult / denom, 1.0) if denom > 0.0 else 100.0
    u_max = max(math.log1p(x_tail), math.log1p(body_x), 6.0)
    if u_max > _U_MAX_CAP:
        warnings.warn(f"default grid span capped at u_max = {_U_MAX_CAP} (tail exponent "
                      f"{exponent:.3g} would need {u_max:.3g}); truncated tail mass may "
                      f"exceed {TRUNCATION_TOL}", AccuracyWarning, stacklevel=2)
        u_max = _U_MAX_CAP
    return u_max


def _default_step(beta: float) -> float:
    """The default grid step of every law, min(0.01, sqrt(beta)/3): the
    widest step the operator takes without a CoarseGridWarning, as its check
    3h <= sqrt(beta) holds bit for bit (a rounded sqrt(beta)/3 can put 3h one
    ulp above sqrt(beta); the next float below it cannot), capped at 0.01."""
    root = math.sqrt(beta)
    h = min(0.01, root / 3.0)
    if 3.0 * h > root:
        h = math.nextafter(h, 0.0)
    return h


def _grid_pair(rp: ReducedParams, exponent: float, h: float | None,
               u_max: float | None) -> tuple[Grid, Grid]:
    """Requested grid plus the padded internal grid the iteration runs on.

    The operator's truncated top rows are biased low (the kernel center sits
    3 beta/2 - rho above the output point), so the solve runs on a padded
    grid and the result is cropped to the clean span.
    """
    if h is None:
        h = _default_step(rp.beta)
    if u_max is None:
        u_max = _default_u_max(rp, exponent)
    grid_ret = Grid.spanning(h, u_max)
    pad = 1.5 * rp.beta + abs(rp.rho) + 6.0 * math.sqrt(rp.beta) + 1.0
    return grid_ret, Grid(h, grid_ret.n_points + int(math.ceil(pad / h)))


# -- integrals over grid densities ---------------------------------------------


def _mass_integrand(grid: Grid, values: np.ndarray) -> np.ndarray:
    return values * np.exp(grid.u())


def _mass_weights(grid: Grid) -> np.ndarray:
    """The trapezoid weights of the mass integral: weights @ values is the
    grid mass of a law's values."""
    weights = grid.h * np.exp(grid.u())
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return weights


def _grid_mass(grid: Grid, values: np.ndarray) -> float:
    return float(np.trapezoid(_mass_integrand(grid, values), dx=grid.h))


def _tail_mass(F: GridDensity) -> float:
    if F.tail is None:
        return 0.0
    return F.tail.survival(float(np.expm1(F.grid.u_max)))


def survival_on_grid(F: GridDensity) -> np.ndarray:
    """P(X > x_j) for every grid point, tail closure included."""
    g = _mass_integrand(F.grid, F.values)
    cells = 0.5 * (g[1:] + g[:-1]) * F.grid.h
    rev = np.concatenate([np.cumsum(cells[::-1])[::-1], [0.0]])
    return rev + _tail_mass(F)


def survival(F: GridDensity, x: float) -> float:
    """P(X > x) by grid integration with analytic tail closure."""
    if math.isnan(x):
        raise ParameterError("survival needs a level x, got NaN")
    if x <= 0.0:
        return float(_grid_mass(F.grid, F.values) + _tail_mass(F))
    u_x = math.log1p(x)
    if u_x >= F.grid.u_max:
        return F.tail.survival(x) if F.tail is not None else 0.0
    g = _mass_integrand(F.grid, F.values)
    h = F.grid.h
    j = min(int(u_x / h), F.grid.n_points - 2)
    frac = u_x / h - j
    g_x = g[j] * (1.0 - frac) + g[j + 1] * frac
    partial = 0.5 * (g_x + g[j + 1]) * (1.0 - frac) * h
    cells = 0.5 * (g[j + 2 :] + g[j + 1 : -1]) * h
    return float(partial + cells.sum() + _tail_mass(F))


def cdf(F: GridDensity, x: float) -> float:
    """P(X <= x); cdf + survival equals the total mass exactly."""
    return survival(F, 0.0) - survival(F, x)


def quantile(F: GridDensity, q: float) -> float:
    """Smallest grid-interpolated x with P(X <= x) >= q.

    Bisects the survival function within the bracketing grid cell so the
    result is exactly consistent with cdf/survival evaluation.
    """
    if not (0.0 < q < 1.0):
        raise ParameterError(f"quantile level must be in (0, 1), got {q}")
    surv = survival_on_grid(F)
    total = surv[0]
    target = total * (1.0 - q)
    j = int(np.searchsorted(-surv, -target))
    x = F.grid.x()
    if j == 0:
        return float(x[0])
    if j >= F.grid.n_points:
        return float(x[-1])
    lo, hi = float(x[j - 1]), float(x[j])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if survival(F, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _payoff_values(payoff, x: np.ndarray) -> np.ndarray:
    return np.asarray(payoff(x), dtype=float).reshape(x.shape)


def expectation(F: GridDensity, payoff) -> float:
    """E[payoff(X)] over the grid with analytic power-law tail closure.

    `payoff` must be vectorized (ndarray -> ndarray).  With a tail attached,
    payoffs growing at least as fast as the tail exponent are rejected.
    """
    u = F.grid.u()
    x = np.expm1(u)
    integrand = _mass_integrand(F.grid, F.values) * _payoff_values(payoff, x)
    total = float(np.trapezoid(integrand, dx=F.grid.h))
    if F.tail is None:
        return total
    x_max = float(x[-1])
    probes = _payoff_values(payoff, np.array([x_max, 2.0 * x_max, 4.0 * x_max]))
    if np.all(probes == 0.0):
        return total
    mu, c = F.tail.exponent, F.tail.constant
    if probes[0] != 0.0 and probes[2] != 0.0 and probes[0] * probes[2] > 0.0:
        growth = math.log(abs(probes[2] / probes[0])) / math.log(4.0)
        if growth >= mu:
            raise DivergentExpectationError(
                f"payoff grows like x^{growth:.3g} >= tail exponent {mu:.3g}"
            )

    def tail_integrand(t: float) -> float:
        xv = x_max / t
        pv = float(_payoff_values(payoff, np.array([xv]))[0])
        return pv * c * mu * x_max ** (-mu) * t ** (mu - 1.0)

    tail_term, _ = quad(tail_integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-10,
                        limit=200)
    return total + tail_term


def _lognormal_option_rows(u: np.ndarray, kappa: float,
                           rp: ReducedParams) -> tuple[np.ndarray, np.ndarray]:
    """E[(M a - kappa)+] and E[(kappa - M a)+] at each a = e^u, for the
    one-period multiplier M, log-normal with log-mean rho - beta/2 and
    log-variance beta: the Black-Scholes call and put rows on the factor a.
    Integrated against a law of w = a - 1, they give the payoff of
    X = M (1 + w) in closed form over its last step; kappa = 0 gives puts of
    exactly 0.  Each row evaluates the out-of-the-money option, whose value
    is the time value of both, and adds the intrinsic value: two normal
    cdfs a row, and no row subtracts from an in-the-money value."""
    root = math.sqrt(rp.beta)
    log_kappa = math.log(kappa) if kappa > 0.0 else -math.inf
    d2 = (u - log_kappa + rp.rho - 0.5 * rp.beta) / root
    fwd = np.exp(u + rp.rho)
    sign = np.where(fwd < kappa, 1.0, -1.0)  # +1 where the call is out of the money
    time_value = sign * (fwd * special.ndtr(sign * (d2 + root)) - kappa * special.ndtr(sign * d2))
    return (time_value + np.maximum(fwd - kappa, 0.0),
            time_value + np.maximum(kappa - fwd, 0.0))


# -- off-grid refinement --------------------------------------------------------


def _solved_params(F: GridDensity, use: str) -> ReducedParams:
    """The parameters F was solved at, for a use that reads them."""
    if F.params is None:
        raise ParameterError(f"{use} needs a law from solve_infinite or solve_geometric, "
                             "which records its parameters")
    return F.params


def _refined(F: GridDensity, x_points: np.ndarray) -> np.ndarray:
    """p f1(x) + (1-p) (T F)(x) at points x > 0, T F by one kernel row per
    point on F's grid, weighted by the column scales of F's solve.  The rows
    follow the sorted points, so a block's window spans the bands of 16
    neighbouring points; points far apart widen every block, up to the
    whole grid."""
    if not np.all(np.isfinite(x_points) & (x_points > 0.0)):
        raise ParameterError("off-grid refinement needs finite points x > 0")
    rp = _solved_params(F, "off-grid refinement")
    if rp.p == 1.0 or x_points.size == 0:  # the law is f1 itself, or no point to refine
        return np.asarray(distributions.multiplier_pdf(x_points, rp))
    order = np.argsort(x_points)
    blocks, cols = _kernel_rows(F.grid, rp, np.log(x_points[order]) + 1.5 * rp.beta - rp.rho)
    vals = np.empty(x_points.size)
    vals[order] = _block_product(blocks, cols, F.col_scale * F.values, 0, cols.size)[: vals.size]
    if rp.p > 0.0:
        vals = rp.p * np.asarray(distributions.multiplier_pdf(x_points, rp)) + (1.0 - rp.p) * vals
    return vals


def density_at(F: GridDensity, x_points) -> np.ndarray:
    """Refine a law from solve_infinite or solve_geometric at points x > 0.

    Evaluates one operator row per point (plus the stopping source when
    p > 0), which reproduces the fixed point off-grid to quadrature
    accuracy.  Intended for the left tail; near the grid top the row bands
    are truncated.  The result has the shape of `x_points`.
    """
    x_points = np.asarray(x_points, dtype=float)
    return _refined(F, x_points.reshape(-1)).reshape(x_points.shape)


def left_tail_cdf(F: GridDensity, eps_values) -> np.ndarray:
    """P(X <= eps) for eps far below the grid step, via off-grid refinement.

    Integrates f(e^v) e^v over one window in v = log x shared by every eps,
    each log eps a node, exactly for the log-linear interpolant on each cell
    (the trapezoid where a value is 0).  Near a Gaussian of variance beta in
    v, the rule is low by about dv^2 / (12 beta), which the step sets to
    _LEFT_TAIL_RTOL; the integrand decays super-exponentially to the left,
    so a fixed window suffices.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    if not np.all(np.isfinite(eps_values) & (eps_values > 0.0)):
        raise ParameterError("left-tail levels eps must be finite and positive")
    rp = _solved_params(F, "off-grid refinement")
    if eps_values.size == 0:
        return np.zeros(eps_values.shape)
    log_eps = np.log(eps_values).reshape(-1)
    width = 14.0 * math.sqrt(rp.beta) + 3.0 * rp.beta + 2.0 * abs(rp.rho) + 2.0
    lo, hi = float(log_eps.min()) - width, float(log_eps.max())
    n_cells = int(math.ceil((hi - lo) / math.sqrt(12.0 * rp.beta * _LEFT_TAIL_RTOL)))
    v = np.union1d(np.linspace(lo, hi, n_cells + 1), log_eps)
    xv = np.exp(v)
    gv = _refined(F, xv) * xv
    g0, g1, dv = gv[:-1], gv[1:], np.diff(v)
    cells = 0.5 * (g0 + g1) * dv
    loglin = (g0 > 0.0) & (g1 > 0.0) & (g0 != g1)
    cells[loglin] = ((g1 - g0) * dv)[loglin] / np.log(g1[loglin] / g0[loglin])
    cum = np.concatenate([[0.0], np.cumsum(cells)])
    return cum[np.searchsorted(v, log_eps)].reshape(eps_values.shape)


# -- quadrature error bound -----------------------------------------------------

_DERIV_STENCIL = np.array([-0.5, 1.0, 0.0, -1.0, 0.5])  # third derivative, times h^3


def quadrature_error_bound(F: GridDensity) -> float:
    """Trapezoidal quadrature error bound h^3 M zeta(3) / (4 pi^3).

    M is the integral of the third derivative magnitude of the mass-form
    integrand F(u) e^u (the function whose trapezoidal sums give the
    normalization and expectations), estimated by central finite differences
    on the grid; warns when the estimate is dominated by rounding noise.
    """
    h = F.grid.h
    integrand = _mass_integrand(F.grid, F.values)
    deriv = np.convolve(integrand, _DERIV_STENCIL[::-1], mode="same") / h**3
    m_est = float(np.trapezoid(np.abs(deriv[2:-2]), dx=h))
    noise = (2.2e-16 * float(np.max(integrand)) * float(np.abs(_DERIV_STENCIL).sum())
             / h**3 * F.grid.u_max)
    if m_est < 5.0 * noise:
        warnings.warn(f"derivative estimate for the quadrature bound is noise-dominated "
                      f"(M = {m_est:.3g}, noise floor ~ {noise:.3g})", AccuracyWarning,
                      stacklevel=2)
    return h**3 * m_est * float(special.zeta(3)) / (4.0 * math.pi**3)


# -- the multiplier law and the tail fit ---------------------------------------


def _multiplier_values(grid: Grid, rp: ReducedParams) -> np.ndarray:
    """The one-period multiplier law on the grid (0 at x = 0): the source at
    p > 0, the p = 1 law and the first term of every finite sum."""
    return distributions.multiplier_pdf(grid.x(), rp)


def _tail_window(grid: Grid) -> np.ndarray:
    """Mask of the grid's last decade of 1 + x (x > 0), or of its last 20
    points if that holds fewer: the window every tail fit reads."""
    sel = grid.u() >= max(grid.u_max - math.log(10.0), grid.h)
    if sel.sum() < 20:
        sel = np.zeros_like(sel)
        sel[-20:] = True
    return sel


def _fit_tail_constant(grid: Grid, values: np.ndarray, exponent: float) -> float | None:
    """Median of f(x) x^(exponent+1) / exponent over the tail window."""
    sel = _tail_window(grid)
    u = grid.u()
    v = values[sel]
    if np.any(v <= 0.0):
        return None
    logx = np.log(np.expm1(u[sel]))
    c = float(np.median(np.exp(np.log(v) + (exponent + 1.0) * logx))) / exponent
    return c if math.isfinite(c) and c > 0.0 else None


# -- fixed-point solvers ----------------------------------------------------------


def _iterate(op: GaussianStepOperator, grid_int: Grid, f: np.ndarray,
             source: np.ndarray | None, damp: float, tol: float, budget: int,
             deltas: list | None = None, masses: list | None = None):
    """Picard iteration F <- source + damp T F from f until the sup-norm
    step is at most tol, in at most `budget` steps; returns the iterate and
    the delta and mass traces, extending the ones given."""
    deltas, masses = ([], [_grid_mass(grid_int, f)]) if deltas is None else (deltas, masses)
    for _ in range(budget):
        f_new = damp * op.apply(f)  # exact at damp = 1
        if source is not None:
            f_new = f_new + source
        delta = float(np.max(np.abs(f_new - f)))
        deltas.append(delta)
        if not math.isfinite(delta):
            raise ConvergenceError(f"Picard step {len(deltas)} produced non-finite values",
                                   delta_trace=deltas)
        masses.append(_grid_mass(grid_int, f_new))
        f = f_new
        if delta <= tol:
            return f, deltas, masses
    raise ConvergenceError(f"fixed-point iteration did not reach tol = {tol} within max_iter "
                           f"applies ({len(deltas)} Picard steps, last delta {deltas[-1]:.3g})",
                           delta_trace=deltas)


def _polish(op: GaussianStepOperator, v: np.ndarray, source: np.ndarray | None,
            damp: float, budget: int) -> tuple[np.ndarray, int]:
    """F = source + damp T F by GMRES from the Picard iterate v, with the
    applies made.  Solves (I - damp T + v m^T / m^T v) F = source + v M / m^T v
    scaled by v, so every tail decade weighs alike, with F = 0 where v = 0.
    As m^T T = m^T for the trapezoid weights m, the rank-one term deflates the
    mass direction (I - damp T is singular at p = 0) and fixes M: m^T v at
    p = 0, m^T source / p at p > 0.  Keeps v and warns if GMRES misses
    _POLISH_RTOL within `budget` applies or F is not finite and >= 0."""
    pos = v > 0.0
    vp, m, full = v[pos], op._mass_w, np.zeros_like(v)
    mv = float(m @ v)
    rhs = (np.ones(vp.size) if source is None
           else source[pos] / vp + float(m @ source) / ((1.0 - damp) * mv))
    applies, residual = [0], []  # residual: GMRES estimates relative to |rhs|

    def matvec(y):
        if applies[0] == budget:
            raise ConvergenceError("polish budget spent")
        applies[0] += 1
        full[pos] = vp * np.ravel(y)
        return np.ravel(y) + float(m @ full) / mv - damp * op.apply(full)[pos] / vp

    try:
        y, info = gmres(LinearOperator((vp.size, vp.size), matvec=matvec, dtype=float), rhs,
                        x0=np.ones(vp.size), rtol=_POLISH_RTOL, atol=0.0, restart=_POLISH_RESTART,
                        maxiter=max(budget, 1), callback=residual.append, callback_type="pr_norm")
    except ConvergenceError:
        y, info = None, 1
    if info == 0 and np.all(np.isfinite(y)) and y.min() >= 0.0:
        full[pos] = vp * y
        return full, applies[0]
    last = f"last estimate {residual[-1]:.3g}" if residual else "no estimate yet"
    warnings.warn(f"GMRES polish missed scaled residual {_POLISH_RTOL} within {applies[0]} "
                  f"applies ({last}); keeping the Picard iterate, whose deep tail may be degraded",
                  AccuracyWarning, stacklevel=4)
    return v, applies[0]


def _mean_rel_err(F: GridDensity, exact: float | None) -> float | None:
    """|E[X] - exact| / exact for F's mean E[X] and the law's exact mean;
    None where the exact mean is None, infinite."""
    return None if exact is None else abs(expectation(F, lambda x: x) - exact) / exact


def _solve(rp: ReducedParams, tol: float, max_iter: int, h: float | None,
           u_max: float | None) -> tuple[GridDensity, SolveReport]:
    """Fixed point of F = p f1 + (1-p) T F for 0 <= p <= 1, where f1 is the
    one-period multiplier density (no source term at p = 0, F = f1 at p = 1)."""
    if not (tol > 0.0 and max_iter >= 1):
        raise ParameterError(f"need tol > 0 and max_iter >= 1, got {tol} and {max_iter}")
    mm = gbm_multiplier_moments(rp)
    exact_mean = moments_geometric(1, mm, rp.p)[0] if moment_exists(1, mm, rp.p) else None
    if rp.p == 1.0:
        # N = 1 almost surely: the law is exactly the multiplier law
        grid_ret, _ = _grid_pair(rp, 2.0, h, u_max if u_max is not None else 6.0)
        vals = _multiplier_values(grid_ret, rp)
        total = _grid_mass(grid_ret, vals)
        density = GridDensity(grid_ret, vals / total)
        object.__setattr__(density, "params", rp)
        return density, SolveReport(0, 0.0, abs(total - 1.0), quadrature_error_bound(density),
                                    mean_rel_err=_mean_rel_err(density, exact_mean))
    exponent = tail_exponent(rp)
    grid_ret, grid_int = _grid_pair(rp, exponent, h, u_max)
    op = GaussianStepOperator(grid_int, rp)
    # the inverse Gamma whose tail exponent is the law's own: at p = 0 the limit law
    f0 = distributions.inv_gamma_pdf(grid_int.x(), math.sqrt(rp.beta),
                                     0.5 * rp.beta * (1.0 - exponent))
    source = rp.p * _multiplier_values(grid_int, rp) if rp.p > 0.0 else None
    damp = 1.0 - rp.p
    f, deltas, masses = _iterate(op, grid_int, f0, source, damp, max(tol, _PICARD_SWITCH), max_iter)
    f, matvecs = _polish(op, f, source, damp, max(max_iter - len(deltas) - 1, 0))
    # from the polished law the first Picard delta is the true fixed-point residual
    f, deltas, masses = _iterate(op, grid_int, f, source, damp, tol,
                                 max_iter - len(deltas) - matvecs, deltas, masses)
    vals = np.array(f[: grid_ret.n_points])
    c = _fit_tail_constant(grid_ret, vals, exponent)
    tail_mass = 0.0 if c is None else c * float(np.expm1(grid_ret.u_max)) ** (-exponent)
    total = _grid_mass(grid_ret, vals) + tail_mass
    vals /= total
    tail = None if c is None else TailAsymptote(exponent=exponent, constant=c / total)
    density = GridDensity(grid_ret, vals, tail=tail)
    col_scale = op._col_scale[: grid_ret.n_points]
    col_scale.setflags(write=False)
    object.__setattr__(density, "params", rp)
    object.__setattr__(density, "col_scale", col_scale)
    return density, SolveReport(
        iterations=len(deltas) + matvecs, final_delta=deltas[-1],
        normalization_drift=abs(total - 1.0), quadrature_bound=quadrature_error_bound(density),
        delta_trace=deltas, mass_trace=masses, polish_matvecs=matvecs,
        mean_rel_err=_mean_rel_err(density, exact_mean))


def solve_infinite(params, tol: float = 1e-8, max_iter: int = 500, h: float | None = None,
                   u_max: float | None = None) -> tuple[GridDensity, SolveReport]:
    """Stationary density of the infinite sum; requires p = 0 and rho < beta/2.

    Picard iteration runs from the inverse-Gamma limit law until its delta
    is at most max(tol, 1e-4), GMRES polishes that iterate, and Picard goes
    on until its delta, the sup-norm fixed-point residual, is at most `tol`
    (one step unless the polish missed).  `max_iter` bounds all applies.
    Renormalizes once and fits the power-law tail closure.
    """
    rp = as_reduced(params)
    if rp.p != 0.0:
        raise ParameterError(f"solve_infinite needs p = 0, got p = {rp.p}")
    return _solve(rp, tol, max_iter, h, u_max)


def solve_geometric(params, tol: float = 1e-8, max_iter: int = 500, h: float | None = None,
                    u_max: float | None = None) -> tuple[GridDensity, SolveReport]:
    """Stationary density of the geometrically stopped sum.

    Solves F = source + (1-p) T F, the source being p times the multiplier
    law, as solve_infinite does, from the inverse Gamma whose tail exponent
    is the law's own; no drift condition is needed for p > 0.
    """
    rp = as_reduced(params)
    if not (0.0 < rp.p <= 1.0):
        raise ParameterError(f"solve_geometric needs 0 < p <= 1, got p = {rp.p}")
    return _solve(rp, tol, max_iter, h, u_max)
