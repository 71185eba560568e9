"""Grid densities in u = log(1+x) coordinates and the fixed-point solvers.

The one-step integral transform of the sum recursion becomes, after the
change of variables u = log(1+x), a Gaussian-kernel integral operator whose
trapezoidal discretization is a banded matrix.  Fixed points of that
operator (optionally with a source term for geometric stopping) give the
stationary densities; repeated application gives finite-sum densities.
"""

from __future__ import annotations

import contextlib
import logging
import math
import mmap
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import distributions
from .errors import (
    AccuracyWarning,
    CoarseGridWarning,
    ConvergenceError,
    DivergentExpectationError,
    ParameterError,
)
from .moments import gbm_multiplier_moments, moment_exists, moments_geometric
from .params import (ReducedParams, TailAsymptote, as_reduced, require_count,
                     require_finite, require_positive, tail_exponent)

TRUNCATION_TOL = 1e-7  # default analytic tail mass allowed beyond the grid
# the solves' default fixed-point tolerance and apply budget, the CLI's too
_SOLVE_TOL = 1e-8
_SOLVE_MAX_ITER = 500
_BAND_SIGMAS = 8.0
_NEG_CLIP = -1e-14
_U_MAX_CAP = 60.0
_POLISH_RESTART = 60  # GMRES Krylov dimension between restarts
_POLISH_RTOL = 1e-13  # GMRES target, relative to the scaled right-hand side
# scaled polish values below 0 by at most this fraction of the largest are
# rounding and become 0: GMRES meets _POLISH_RTOL in the 2-norm over the whole
# grid, not entry by entry, and the law at (0.001, -0.1, 0.5) converges with a
# minimum of -4.4e-17 times its largest
_POLISH_NEG_TOL = 1e-10
_PICARD_SWITCH = 1e-4  # sup-norm delta at which Picard hands over to GMRES
_BLOCK_ROWS = 16  # rows per dense operator block
_BUILD_CHUNK_BYTES = 1 << 20  # bytes of bands, or of blocks, one pass of a build works on
# blocks of at least this many bytes get a mapping of their own (_block_zeros): the
# size from which numpy itself advises huge pages
_MAPPED_BYTES = 4 << 20
# Operator powers zero their values below this.  A product of a larger value with
# the smallest kernel entry, about pref h e^-32 (pref 2h e^-32 on a finite sum's
# coarse grid), stays above 2.2e-308, so no apply meets subnormal arithmetic,
# which takes a slow hardware path.
_POWER_FLOOR = 1e-290

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Grid:
    """Uniform grid u_j = j*h, j = 0 .. n_points-1, in u = log(1+x)."""

    h: float
    n_points: int

    def __post_init__(self):
        require_positive(h=self.h)
        object.__setattr__(self, "n_points", require_count("n_points", self.n_points))
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
    grid; integrals over the density use it for closure.  The solves and
    finite_sum_density return a subclass, _Law, that carries its last step.
    """

    grid: Grid
    values: np.ndarray
    tail: TailAsymptote | None = None

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


@dataclass(frozen=True)
class _Law(GridDensity):
    """A law X = M (1 + X') built by the step operator T, with params, T's
    column scales on the grid and prev, the values of X': its density is
    p f1 + (1-p) T prev, or f1 where prev is None (p = 1, or one term).  A
    fixed point (p < 1) is its own X': given its values as prev, prev is values."""

    params: ReducedParams = field(kw_only=True, repr=False, compare=False)
    col_scale: np.ndarray | None = field(default=None, kw_only=True, repr=False, compare=False)
    prev: np.ndarray | None = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        given = self.values
        super().__post_init__()
        if self.prev is given:
            object.__setattr__(self, "prev", self.values)


@dataclass
class SolveReport:
    """Diagnostics of a fixed-point solve.  The delta trace covers the Picard
    steps alone, so its last delta is the sup-norm fixed-point residual;
    iterations counts every apply.  mean_rel_err is None where the mean is
    infinite."""

    iterations: int
    final_delta: float
    normalization_drift: float
    quadrature_bound: float
    delta_trace: list = field(default_factory=list)
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
    every other row is exactly 0.  The build stores, for every column, the
    first block whose window reaches it and the end of the blocks that
    start at or before it, so an apply looks its blocks up.  powers carries
    each power's span to the next apply, which then skips its scan.
    """

    def __init__(self, grid: Grid, params):
        rp = as_reduced(params)
        if math.sqrt(rp.beta) < 3.0 * grid.h:
            warnings.warn(f"Gaussian kernel width sqrt(beta) = {math.sqrt(rp.beta):.4g} is "
                          f"below 3h = {3.0 * grid.h:.4g}; refine the grid step",
                          CoarseGridWarning, stacklevel=2)
        self._build(grid, rp)

    @classmethod
    def _for_wide_inputs(cls, grid: Grid, rp: ReducedParams) -> GaussianStepOperator:
        """The operator on a grid up to twice as coarse as __init__ takes, for
        inputs wider than the kernel (finite-sum powers past their first
        few): there the rows need resolve only the kernel, whose trapezoid
        sum at step h errs by about e^(-2 pi^2 beta / h^2), 5e-20 at its bound
        h = 2 sqrt(beta)/3.  A CoarseGridWarning names a step beyond that
        bound, sqrt(beta) < 1.5 h; twice a step __init__ takes never is."""
        if math.sqrt(rp.beta) < 1.5 * grid.h:
            warnings.warn(f"Gaussian kernel width sqrt(beta) = {math.sqrt(rp.beta):.4g} is "
                          f"below 1.5h = {1.5 * grid.h:.4g}, even for inputs wider than "
                          f"the kernel; refine the grid step", CoarseGridWarning, stacklevel=2)
        op = cls.__new__(cls)
        op._build(grid, rp)
        return op

    def _build(self, grid: Grid, rp: ReducedParams) -> None:
        start = time.perf_counter()
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
        # each block's column masses, added to the columns it covers block by
        # block: in the order of one bincount over all blocks, without its
        # full-size index and weights
        col_mass = np.zeros(grid.n_points)
        span = np.arange(blocks.shape[2])
        size = max(1, _BUILD_CHUNK_BYTES // blocks[0].nbytes)
        for b in range(0, blocks.shape[0], size):
            np.add.at(col_mass, (cols[b : b + size, None] + span).ravel(),
                      (rows_w[b : b + size, None, :] @ blocks[b : b + size]).ravel())
        with np.errstate(divide="ignore", invalid="ignore"):
            col_scale = np.where(col_mass > 0.0, mass_w / col_mass, 1.0)
        col_scale.setflags(write=False)  # laws keep them, and views of them, for refinement
        self._col_scale = col_scale
        self._mass_w = mass_w  # trapezoid mass weights: mass_w @ apply(v) == mass_w @ v
        self._blocks, self._cols = blocks, cols
        # the blocks a nonzero span [first, last] meets are _first_block[first] up to
        # _end_block[last]: the window of block b covers cols[b] .. cols[b] + W - 1
        col = np.arange(grid.n_points)
        self._first_block = np.searchsorted(cols, col - blocks.shape[2] + 1)
        self._end_block = np.searchsorted(cols, col, side="right")
        _log.debug("step operator built: n = %d, blocks %d x %d x %d (%.2f MiB), %.4f s",
                   grid.n_points, *blocks.shape, blocks.nbytes / 2**20,
                   time.perf_counter() - start)

    def apply(self, values: np.ndarray, *, span: tuple[int, int] | None = None) -> np.ndarray:
        """T values, the block product with col_scale * values over the blocks
        whose window meets the first or last nonzero of col_scale * values or
        lies between them; the other rows are 0.  A caller that knows the
        first and last nonzero of values gives them as span, and the apply
        does not scan for them: the column scales are positive, so a block
        beyond the nonzeros of col_scale * values computes exact zeros."""
        if np.shape(values) != self._col_scale.shape:  # would broadcast against the scales
            raise ParameterError(f"apply needs {self._col_scale.size} values, got shape "
                                 f"{np.shape(values)}")
        y = self._col_scale * values
        if span is None:
            span = _true_span(y != 0.0)
        b0, b1 = self._block_range(span)
        return _block_product(self._blocks, self._cols, y, b0, b1)[: y.size]

    def _block_range(self, span: tuple[int, int] | None) -> tuple[int, int]:
        """The blocks b0 .. b1-1 whose window meets the columns span[0] ..
        span[1], or none for no span."""
        if span is None:
            return 0, 0
        return self._first_block[span[0]], self._end_block[span[1]]

    def powers(self, values: np.ndarray, count: int):
        """values, T values, ..., T^count values, from one running pass; each
        after values is zeroed below _POWER_FLOOR.  Every power goes through
        apply.  An apply computes only the rows of the blocks its input's
        span meets, so only those rows are floored, and their first and last
        nonzero are the span the next apply is given.  values itself is not
        floored, so the first apply scans it and its result is floored whole."""
        yield values
        span, lo, hi = None, 0, values.size
        for _ in range(count):
            values = self.apply(values, span=span)
            seg = values[lo:hi]
            keep = seg >= _POWER_FLOOR
            np.multiply(seg, keep, out=seg)  # non-negative and finite: seg[~keep] = 0, bit for bit
            span = _true_span(keep)
            if span is None:  # no nonzero left: the next apply scans, and gives 0
                lo, hi = 0, values.size
            else:
                span = lo + span[0], lo + span[1]
                b0, b1 = self._block_range(span)
                lo, hi = b0 * _BLOCK_ROWS, b1 * _BLOCK_ROWS
            yield values


def _true_span(mask: np.ndarray) -> tuple[int, int] | None:
    """The first and last index where the boolean vector mask is True, or
    None where it is nowhere: the first and last byte 1 of its bytes, which
    bytes.find and rfind read in C without a full index (argmax over a
    reversed view copies it first)."""
    found = mask.tobytes()
    first = found.find(1)
    return None if first < 0 else (first, found.rfind(1))


def _block_product(blocks: np.ndarray, cols: np.ndarray, y: np.ndarray, b0: int,
                   b1: int) -> np.ndarray:
    """The rows of blocks b0 .. b1-1 times y, the other rows 0, for blocks
    of shape (nb, R, W) over the columns cols[b] .. cols[b] + W - 1 of a
    contiguous float vector y: one matmul of the blocks with the gathered
    windows of y, which a sliding view of y without a copy indexes."""
    nb, rows, width = blocks.shape
    out = np.zeros(nb * rows)
    np.matmul(blocks[b0:b1], _windows(y, width)[cols[b0:b1], :, None],
              out=out[b0 * rows : b1 * rows].reshape(b1 - b0, rows, 1))
    return out


def _windows(a: np.ndarray, width: int) -> np.ndarray:
    """Every run of width consecutive entries of a contiguous vector a, as
    the rows of one view of it.  The ndarray constructor takes about 1 us
    where sliding_window_view takes 17 us, on each of thousands of applies."""
    return np.ndarray((a.size - width + 1, width), a.dtype, a, 0, (a.itemsize, a.itemsize))


def _kernel_rows(grid: Grid, rp: ReducedParams, w0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled kernel rows centred at w0, each a run of bw contiguous
    columns of the grid, as blocks of shape (nb, _BLOCK_ROWS, W) and the
    first column cols of each block's window (nondecreasing for sorted w0).

    Block b holds rows b*_BLOCK_ROWS onwards over columns cols[b] ..
    cols[b] + W - 1, each band at its own offset with exact zeros beside it;
    W is the widest span of any block's bands, and rows past len(w0) are 0.
    Blocks of _MAPPED_BYTES or more live in an anonymous mapping of their
    own (see _block_zeros), so the OS takes their pages back when the last
    array over them goes.  Only the bands are computed, about
    _BUILD_CHUNK_BYTES of them at a time, and written into the zeroed
    blocks, whose zeros are the gaps: no other allocation grows with the
    blocks but a few arrays of one value per row.  Every column carries the
    full weight h, with no trapezoid half weights at the grid's ends: in an
    operator the column scales would divide them back out, as every row
    holding column n-1 is clipped alike, and column 0 meets only
    values[0] = 0.
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
    start = (cols[:, None] * h - centre).ravel()[:m]  # w_k - w0 at each row's window start
    lo = (k0 - cols[:, None]).ravel()[:m]  # each row's band start in its window
    blocks = _block_zeros((nb, _BLOCK_ROWS, width))
    bands = _windows(blocks.reshape(-1), bw)
    first = np.arange(m) * width + lo  # row j's band is bands[first[j]]
    steps = _windows(np.arange(width) * h, bw)
    rows = min(m, max(1, _BUILD_CHUNK_BYTES // (8 * bw)))
    chunk = np.empty((rows, bw))
    for j in range(0, m, rows):
        lo_j = lo[j : j + rows]
        # every lo is in range; mode "raise" would gather into a buffer of its own
        d = np.take(steps, lo_j, axis=0, out=chunk[: lo_j.size], mode="clip")
        d += start[j : j + rows, None]  # w_k - w0 over each band
        np.square(d, out=d)
        d *= -0.5 / rp.beta
        np.exp(d, out=d)
        d *= pref * h
        bands[first[j : j + rows]] = d
    return blocks, cols


def _block_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A float array of zeros.  From _MAPPED_BYTES on it lies in a private
    anonymous mapping of its own, which the array keeps alive: dropping the
    array unmaps it, and its pages go back to the OS whatever malloc's mmap
    threshold is by then.  Like numpy's own large arrays, it is advised to
    use huge pages.  Below that size np.zeros gives it, on pages the process
    already holds where malloc has them, where a mapping of its own would
    fault in fresh ones."""
    nbytes = 8 * math.prod(shape)
    if nbytes < _MAPPED_BYTES:
        return np.zeros(shape)
    mapping = mmap.mmap(-1, nbytes, access=mmap.ACCESS_COPY)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        with contextlib.suppress(OSError):  # a kernel without transparent huge pages
            mapping.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(mapping).reshape(shape)


# -- default grid construction ------------------------------------------------


def _default_u_max(rp: ReducedParams, exponent: float) -> float:
    c_est = 10.0 * max(2.0 / rp.beta, 1.0)
    # u = log1p(x) at the tail point x = (c_est / tol)^(1/exponent), taken in logs:
    # below exponent ~0.03 that x overflows a float, and the cap applies anyway
    u_tail = math.log(c_est / TRUNCATION_TOL) / exponent
    if u_tail <= _U_MAX_CAP:
        u_tail = math.log1p((c_est / TRUNCATION_TOL) ** (1.0 / exponent))
    mean_mult = math.exp(rp.rho)
    denom = 1.0 - (1.0 - rp.p) * mean_mult
    body_x = 100.0 * max(mean_mult / denom, 1.0) if denom > 0.0 else 100.0
    u_max = max(u_tail, math.log1p(body_x), 6.0)
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
    """P(X > x) by grid integration with analytic tail closure, clipped to [0, 1]."""
    if math.isnan(x):
        raise ParameterError("survival needs a level x, got NaN")
    return min(max(_survival(F, x), 0.0), 1.0)


def _survival(F: GridDensity, x: float) -> float:
    if x <= 0.0:
        return float(_mass_weights(F.grid) @ F.values + _tail_mass(F))
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
    """P(X <= x) = survival(F, 0) - survival(F, x), clipped to [0, 1]."""
    return min(max(survival(F, 0.0) - survival(F, x), 0.0), 1.0)


def quantile(F: GridDensity, q: float) -> float:
    """Smallest grid-interpolated x with P(X <= x) >= q.

    Bisects the survival function within the bracketing grid cell so the
    result is exactly consistent with cdf/survival evaluation; beyond the
    grid top it inverts the tail closure, which survival reads there.
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
    if j >= F.grid.n_points:  # beyond the grid top survival reads the tail closure
        return F.tail.level(target)
    lo, hi = float(x[j - 1]), float(x[j])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if survival(F, mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _payoff_values(payoff, x: np.ndarray) -> np.ndarray:
    values = np.asarray(payoff(x), dtype=float)
    if values.shape != x.shape:
        raise ParameterError(f"payoff gave values of shape {values.shape} for points of shape "
                             f"{x.shape}; it must keep its input's shape")
    return values


def expectation(F: GridDensity, payoff) -> float:
    """E[payoff(X)] over the grid with analytic power-law tail closure.

    `payoff` must be vectorized (ndarray -> ndarray of the same shape); the
    grid part reads it at the nodes x > 0 only, so log x and 1/x are fine
    payoffs there, and a payoff times density that is not finite there
    raises ParameterError naming the first such node, with no numpy warning.
    With a tail attached, the closure's density c mu x^(-mu-1) beyond x_max
    is integrated in w = mu log(x/x_max) as c x_max^(-mu) times the integral
    over w > 0 of payoff(x_max e^(w/mu)) e^(-w).  The payoff's growth is
    read at the half-line rule's two farthest nodes, far beyond any kink
    near the grid (both scaled down together where the farther one would put
    x past the largest float): growth at or above the tail exponent raises
    DivergentExpectationError.  Where the payoff is not finite at a probe,
    its growth is read on both probes scaled down to the last x where it is
    finite; growth below the exponent then raises ParameterError naming
    where the payoff stops being finite, as the closure cannot be
    integrated.  The power law through those two payoff values is
    integrated in closed form and stands in for the payoff beyond the
    farther one; the double-exponential rule takes the rest, so a payoff
    growing nearly as fast as the tail decays loses nothing far out.  A kink
    or jump of the payoff beyond x_max slows the rule, which then warns
    (AccuracyWarning).
    """
    x = F.grid.x()[1:]  # the node x = 0 carries no mass (values[0] = 0): no payoff is read there
    with np.errstate(over="ignore", invalid="ignore"):  # a term that is not finite is named below
        terms = F.values[1:] * _payoff_values(payoff, x)
    if not np.all(np.isfinite(terms)):
        raise ParameterError(f"payoff times density is not finite at the grid node x = "
                             f"{x[np.argmin(np.isfinite(terms))]:.6g}")
    total = float(_mass_weights(F.grid)[1:] @ terms)
    if F.tail is None:
        return total
    x_max = float(x[-1])
    mu = F.tail.exponent
    unit = F.tail.survival(x_max)  # the closure's mass beyond x_max
    if unit == 0.0:  # x_max^(-mu) underflows at a large exponent: the closure adds nothing
        return total

    def tail_payoff(w):
        return _payoff_values(payoff, x_max * np.exp(w / mu))

    # the payoff at the rule's two farthest nodes gives its growth per unit w, at
    # most w_top, where x is a factor e below the largest float
    t_far = distributions._DE_T_HALF_LINE[1]
    probes = distributions._de_nodes(np.array([t_far - 0.5, t_far]), 0.0, math.inf)[0]
    w_top = mu * (math.log(np.finfo(float).max) - math.log(x_max) - 1.0)
    w_near, w_far = probes * min(1.0, w_top / probes[1])
    w_bad = None
    with np.errstate(over="ignore", invalid="ignore"):
        p_near, p_far = map(float, tail_payoff(np.array([w_near, w_far])))
        if not (math.isfinite(p_near) and math.isfinite(p_far)):
            # the payoff stops being finite short of the probes: find where, and
            # read its growth on the probes scaled down to the last finite point
            w_ok, w_bad = 0.0, w_near if not math.isfinite(p_near) else w_far
            for _ in range(60):
                mid = 0.5 * (w_ok + w_bad)
                if math.isfinite(float(tail_payoff(np.array([mid]))[0])):
                    w_ok = mid
                else:
                    w_bad = mid
            w_near, w_far = probes * (w_ok / probes[1])
            p_near, p_far = map(float, tail_payoff(np.array([w_near, w_far])))
    # the power law amp e^(growth w) through the farther one is integrated in closed
    # form and stands in for the payoff beyond it
    growth = amp = 0.0
    if p_near * p_far > 0.0:
        growth = math.log(p_far / p_near) / (w_far - w_near)
        # within rounding of the exponent counts as reaching it: amp / (1 - growth)
        # would exceed 1e12 amp
        if not growth < 1.0 - 1e-12:
            raise DivergentExpectationError(
                f"payoff grows like x^{mu * growth:.3g} >= tail exponent {mu:.3g}"
            )
        growth = max(growth, 0.0)  # a decaying fit's e^(-growth w_far) could overflow
        amp = p_far * math.exp(-growth * w_far)
    if w_bad is not None:  # the growth converges, but the closure cannot read the payoff
        raise ParameterError(f"payoff is not finite beyond x = {x_max * math.exp(w_bad / mu):.6g}, "
                             f"where the tail closure reads it (x_max = {x_max:.6g})")
    closure = amp / (1.0 - growth)

    def rest(w):
        w_in = np.minimum(w, w_far)
        return (tail_payoff(w_in) - amp * np.exp(growth * w_in)) * np.exp(-w)

    rest_term = distributions._de_integrate(rest, 0.0, math.inf,
                                            scale=abs(closure) + abs(total) / unit)
    return total + unit * (closure + rest_term)


def _lognormal_option_rows(u: np.ndarray, kappa: float, rp: ReducedParams) -> np.ndarray:
    """E[(M a - kappa)+] and E[(kappa - M a)+] at each a = e^u, stacked, for
    the one-period multiplier M, log-normal with log-mean rho - beta/2 and
    log-variance beta: the Black-Scholes call and put rows on the factor a.
    Over a law of w = a - 1 (_last_step), they give the payoff of
    X = M (1 + w) in closed form over its last step; kappa = 0 gives puts of
    exactly 0.  Each row evaluates the out-of-the-money option, whose value
    is the time value of both, and adds the intrinsic value: two normal
    cdfs a row, and no row subtracts from an in-the-money value."""
    root = math.sqrt(rp.beta)
    log_kappa = math.log(kappa) if kappa > 0.0 else -math.inf
    d2 = (u - log_kappa + rp.rho - 0.5 * rp.beta) / root
    fwd = np.exp(u + rp.rho)
    sign = np.where(fwd < kappa, 1.0, -1.0)  # +1 where the call is out of the money
    cdf_1, cdf_2 = distributions._ndtr(sign * np.stack([d2 + root, d2]))
    time_value = sign * (fwd * cdf_1 - kappa * cdf_2)
    return np.stack([time_value + np.maximum(fwd - kappa, 0.0),
                     time_value + np.maximum(kappa - fwd, 0.0)])


# -- off-grid refinement --------------------------------------------------------


def _law(F: GridDensity, use: str, fixed_point: bool = False) -> _Law:
    """F, for a use that reads its last step; with fixed_point, for one that
    takes a law solved at p < 1 only, whose law one step back is itself."""
    if not isinstance(F, _Law) or (fixed_point and F.prev is not F.values):
        need = ("a fixed point, from solve_infinite or from solve_geometric at 0 < p < 1"
                if fixed_point else "a law from a solve or finite_sum_density")
        raise ParameterError(f"{use} needs {need}")
    return F


def density_at(F: GridDensity, x_points) -> np.ndarray:
    """Refine a law from a solve or finite_sum_density at points x > 0:
    p f1(x) + (1-p) (T prev)(x), or f1(x) where prev is None, T prev by one
    kernel row per point weighted by F's column scales, which reproduces the
    law off-grid to quadrature accuracy.  Near the grid top the row bands are
    truncated.  The rows follow the sorted points, so a block's window spans
    the bands of 16 neighbouring points; points far apart widen every block,
    up to the whole grid.  The result has the shape of `x_points`.
    """
    x_points = np.asarray(x_points, dtype=float)
    x = x_points.reshape(-1)
    if not np.all(np.isfinite(x) & (x > 0.0)):
        raise ParameterError("off-grid refinement needs finite points x > 0")
    rp = _law(F, "off-grid refinement").params
    if F.prev is None or x.size == 0:  # the law is f1 itself, or no point to refine
        return distributions.multiplier_pdf(x, rp).reshape(x_points.shape)
    order = np.argsort(x)
    blocks, cols = _kernel_rows(F.grid, rp, np.log(x[order]) + 1.5 * rp.beta - rp.rho)
    vals = np.empty(x.size)
    vals[order] = _block_product(blocks, cols, F.col_scale * F.prev, 0, cols.size)[: x.size]
    if rp.p > 0.0:
        vals = rp.p * distributions.multiplier_pdf(x, rp) + (1.0 - rp.p) * vals
    return vals.reshape(x_points.shape)


def _last_step(F: GridDensity, use: str, rows) -> np.ndarray:
    """E[g(X)] over the last step X = M (1 + X') in closed form, for a law F
    from a solve or finite_sum_density and rows(u) holding E[g(M e^u)] along
    its last axis: p rows(0) + (1-p) sum_k h e^(u_k) s_k prev_k rows(u_k), s
    F's column scales, or rows(0) where prev is None.  Each row is summed on
    its own; rows(0) is computed only where it enters."""
    p = _law(F, use).params.p
    if F.prev is None:
        return rows(np.zeros(1))[..., 0]
    u = F.grid.u()
    total = (rows(u) * (F.grid.h * np.exp(u) * F.col_scale * F.prev)).sum(axis=-1)
    return total if p == 0.0 else p * rows(np.zeros(1))[..., 0] + (1.0 - p) * total


def left_tail_cdf(F: GridDensity, eps_values) -> np.ndarray:
    """P(X <= eps) at each level eps > 0, the exact integral over (0, eps] of
    the law density_at refines: one row Phi(d(u)) per level over the last
    step (_last_step), d(u) = (log eps - u - rho + beta/2) / sqrt(beta).  A
    level's value does not depend on the levels beside it; a probability
    below the smallest normal double may read 0."""
    eps_values = np.asarray(eps_values, dtype=float)
    if not np.all(np.isfinite(eps_values) & (eps_values > 0.0)):
        raise ParameterError("left-tail levels eps must be finite and positive")
    rp = _law(F, "the left-tail cdf").params
    root = math.sqrt(rp.beta)
    level = np.log(eps_values.reshape(-1, 1)) + 0.5 * rp.beta - rp.rho  # d(u) = (level - u) / root
    probs = _last_step(F, "the left-tail cdf",
                       lambda u: distributions._ndtr((level - u) / root))
    return probs.reshape(eps_values.shape)


# -- quadrature error bound -----------------------------------------------------

_DERIV_STENCIL = np.array([-0.5, 1.0, 0.0, -1.0, 0.5])  # third derivative, times h^3
_ZETA_3 = 1.2020569031595942  # Apery's constant zeta(3), correctly rounded


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
    return h**3 * m_est * _ZETA_3 / (4.0 * math.pi**3)


# -- the multiplier law and the tail fit ---------------------------------------


def _tail_window(grid: Grid) -> np.ndarray:
    """Mask of the grid's last decade of 1 + x (x > 0), or of its last 20
    points if that holds fewer: the window every tail fit reads."""
    sel = grid.u() >= max(grid.u_max - math.log(10.0), grid.h)
    if sel.sum() < 20:
        sel = np.zeros_like(sel)
        sel[-20:] = True
    return sel


def _median(a: np.ndarray) -> float:
    """np.median of a, bit for bit, from one sort: the first np.median of a
    process imports numpy.ma, which takes 15-19 ms."""
    s = np.sort(a, axis=None)
    mid = s.size // 2
    if math.isnan(s[-1]):  # a NaN sorts last, and makes the median NaN
        return math.nan
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2.0)


def _fit_tail_constant(grid: Grid, values: np.ndarray, exponent: float) -> float | None:
    """Median of f(x) x^(exponent+1) / exponent over the tail window."""
    sel = _tail_window(grid)
    u = grid.u()
    v = values[sel]
    if np.any(v <= 0.0):
        return None
    logx = np.log(np.expm1(u[sel]))
    with np.errstate(over="ignore"):  # at a large exponent: an infinite median gives None
        c = _median(np.exp(np.log(v) + (exponent + 1.0) * logx)) / exponent
    return c if math.isfinite(c) and c > 0.0 else None


# -- fixed-point solvers ----------------------------------------------------------


def _iterate(op: GaussianStepOperator, f: np.ndarray, source: np.ndarray | None,
             damp: float, tol: float, budget: int, deltas: list | None = None):
    """Picard iteration F <- source + damp T F from f until the sup-norm
    step is at most tol, in at most `budget` steps; returns the iterate and
    the delta trace, extending the one given."""
    deltas = [] if deltas is None else deltas
    for _ in range(budget):
        f_new = damp * op.apply(f)  # exact at damp = 1
        if source is not None:
            f_new = f_new + source
        delta = float(np.max(np.abs(f_new - f)))
        deltas.append(delta)
        if not math.isfinite(delta):
            raise ConvergenceError(f"Picard step {len(deltas)} produced non-finite values",
                                   delta_trace=deltas)
        f = f_new
        if delta <= tol:
            return f, deltas
    raise ConvergenceError(f"fixed-point iteration did not reach tol = {tol} within max_iter "
                           f"applies ({len(deltas)} Picard steps, last delta {deltas[-1]:.3g})",
                           delta_trace=deltas)


def _gmres(matvec, b: np.ndarray, x: np.ndarray, rtol: float, restart: int,
           budget: int) -> tuple[np.ndarray, bool, int, float | None]:
    """x with |b - A x| <= rtol |b| (2-norms) by GMRES restarted every
    `restart` steps (Saad and Schultz, SIAM J. Sci. Stat. Comput. 7, 1986),
    from x, with at most `budget` applies of A by matvec.  Each cycle takes
    the true residual, then modified Gram-Schmidt Arnoldi steps with Givens
    rotations until the residual estimate meets the target, which ends only
    the cycle.  Returns x, whether its true residual met the target, the
    applies made and the last true residual measured, relative to |b|: None
    before any apply, and not finite where a norm or an estimate overflowed,
    which ends the solve."""
    b_norm = np.linalg.norm(b)
    target = rtol * b_norm
    m = min(restart, b.size)
    v = np.empty((m + 1, b.size))
    hess = np.zeros((m + 1, m))  # the Hessenberg matrix, rotated to upper triangular
    cs, sn = np.zeros(m), np.zeros(m)
    applies, residual = 0, None
    with np.errstate(all="ignore"):  # a norm that is not finite is returned, not warned
        while applies < budget:
            r = b - matvec(x)
            applies += 1
            r_norm = np.linalg.norm(r)
            residual = r_norm / b_norm
            if r_norm <= target:
                return x, True, applies, residual
            if not math.isfinite(r_norm) or applies == budget:
                break
            v[0] = r / r_norm
            g = np.zeros(m + 1)  # |r| e_1, rotated alike
            g[0] = r_norm
            for k in range(min(m, budget - applies)):
                w = matvec(v[k])
                applies += 1
                for i in range(k + 1):
                    hess[i, k] = np.dot(v[i], w)
                    w -= hess[i, k] * v[i]
                hess[k + 1, k] = np.linalg.norm(w)
                v[k + 1] = w / hess[k + 1, k]
                for i in range(k):
                    hess[i, k], hess[i + 1, k] = (cs[i] * hess[i, k] + sn[i] * hess[i + 1, k],
                                                  cs[i] * hess[i + 1, k] - sn[i] * hess[i, k])
                d = math.hypot(hess[k, k], hess[k + 1, k])
                cs[k], sn[k] = hess[k, k] / d, hess[k + 1, k] / d
                hess[k, k], hess[k + 1, k] = d, 0.0
                g[k], g[k + 1] = cs[k] * g[k], -sn[k] * g[k]
                if not math.isfinite(g[k + 1]):
                    return x, False, applies, math.inf
                if abs(g[k + 1]) <= target:
                    break
            x = x + np.linalg.solve(hess[: k + 1, : k + 1], g[: k + 1]) @ v[: k + 1]
    return x, False, applies, residual


def _polish(op: GaussianStepOperator, v: np.ndarray, source: np.ndarray | None,
            damp: float, budget: int) -> tuple[np.ndarray, int]:
    """F = source + damp T F by GMRES from the Picard iterate v, with the
    applies made.  Solves (I - damp T + v m^T / m^T v) F = source + v M / m^T v
    scaled by v, so every tail decade weighs alike, with F = 0 where v = 0.
    As m^T T = m^T for the trapezoid weights m, the rank-one term deflates the
    mass direction (I - damp T is singular at p = 0) and fixes M: m^T v at
    p = 0, m^T source / p at p > 0.  Scaled values below 0 by at most
    _POLISH_NEG_TOL of the largest are rounding and become 0.  Keeps v and
    warns, naming the cause, if a norm overflows, GMRES misses _POLISH_RTOL
    within `budget` applies, or its F is not finite or has a value below
    that."""
    pos = v > 0.0
    vp, m, full = v[pos], op._mass_w, np.zeros_like(v)
    mv = float(m @ v)
    rhs = (np.ones(vp.size) if source is None
           else source[pos] / vp + float(m @ source) / ((1.0 - damp) * mv))

    def matvec(y):
        full[pos] = vp * y
        return y + float(m @ full) / mv - damp * op.apply(full)[pos] / vp

    y, converged, applies, residual = _gmres(matvec, rhs, np.ones(vp.size), _POLISH_RTOL,
                                             _POLISH_RESTART, budget)
    if residual is not None and not math.isfinite(residual):
        cause = f"met a norm that is not finite after {applies} applies"
    elif not converged:
        last = "no residual yet" if residual is None else f"last true residual {residual:.3g}"
        cause = f"missed scaled residual {_POLISH_RTOL} within {applies} applies ({last})"
    elif not np.all(np.isfinite(y)):
        cause = f"gave non-finite values after {applies} applies"
    elif y.min() < -_POLISH_NEG_TOL * y.max():
        cause = (f"gave a scaled value of {y.min():.3g}, below -{_POLISH_NEG_TOL} times the "
                 f"largest, {y.max():.3g}")
    else:
        full[pos] = vp * np.maximum(y, 0.0)
        return full, applies
    warnings.warn(f"GMRES polish {cause}; keeping the Picard iterate, whose deep tail may be "
                  f"degraded", AccuracyWarning, stacklevel=4)
    return v, applies


def _mean_rel_err(F: GridDensity, exact: float | None) -> float | None:
    """|E[X] - exact| / exact for F's mean E[X] and the law's exact mean;
    None where the exact mean is None, infinite."""
    return None if exact is None else abs(expectation(F, lambda x: x) - exact) / exact


def _solve(rp: ReducedParams, tol: float, max_iter: int, h: float | None,
           u_max: float | None) -> tuple[GridDensity, SolveReport]:
    """Fixed point of F = p f1 + (1-p) T F for 0 <= p <= 1, where f1 is the
    one-period multiplier density (no source term at p = 0, F = f1 at p = 1)."""
    require_positive(tol=tol)
    max_iter = require_count("max_iter", max_iter)
    mm = gbm_multiplier_moments(rp)
    exact_mean = moments_geometric(1, mm, rp.p)[0] if moment_exists(1, mm, rp.p) else None
    if rp.p == 1.0:
        # N = 1 almost surely: the law is exactly the multiplier law
        grid_ret, _ = _grid_pair(rp, 2.0, h, u_max if u_max is not None else 6.0)
        vals = distributions.multiplier_pdf(grid_ret.x(), rp)
        total = float(_mass_weights(grid_ret) @ vals)
        density = _Law(grid_ret, vals / total, params=rp)
        return density, SolveReport(0, 0.0, abs(total - 1.0), quadrature_error_bound(density),
                                    mean_rel_err=_mean_rel_err(density, exact_mean))
    exponent = tail_exponent(rp)
    grid_ret, grid_int = _grid_pair(rp, exponent, h, u_max)
    op = GaussianStepOperator(grid_int, rp)
    # the inverse Gamma whose tail exponent is the law's own: at p = 0 the limit law
    f0 = distributions.inv_gamma_pdf(grid_int.x(), math.sqrt(rp.beta),
                                     0.5 * rp.beta * (1.0 - exponent))
    source = rp.p * distributions.multiplier_pdf(grid_int.x(), rp) if rp.p > 0.0 else None
    damp = 1.0 - rp.p
    f, deltas = _iterate(op, f0, source, damp, max(tol, _PICARD_SWITCH), max_iter)
    f, matvecs = _polish(op, f, source, damp, max(max_iter - len(deltas) - 1, 0))
    # from the polished law the first Picard delta is the true fixed-point residual
    f, deltas = _iterate(op, f, source, damp, tol, max_iter - len(deltas) - matvecs, deltas)
    vals = np.array(f[: grid_ret.n_points])
    c = _fit_tail_constant(grid_ret, vals, exponent)
    tail_mass = 0.0 if c is None else c * float(np.expm1(grid_ret.u_max)) ** (-exponent)
    total = float(_mass_weights(grid_ret) @ vals) + tail_mass
    vals /= total
    tail = None if c is None else TailAsymptote(exponent=exponent, constant=c / total)
    density = _Law(grid_ret, vals, tail=tail, params=rp,
                   col_scale=op._col_scale[: grid_ret.n_points], prev=vals)
    return density, SolveReport(
        iterations=len(deltas) + matvecs, final_delta=deltas[-1],
        normalization_drift=abs(total - 1.0), quadrature_bound=quadrature_error_bound(density),
        delta_trace=deltas, polish_matvecs=matvecs,
        mean_rel_err=_mean_rel_err(density, exact_mean))


def solve_infinite(params, tol: float = _SOLVE_TOL, max_iter: int = _SOLVE_MAX_ITER,
                   h: float | None = None,
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


def solve_geometric(params, tol: float = _SOLVE_TOL, max_iter: int = _SOLVE_MAX_ITER,
                    h: float | None = None,
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
