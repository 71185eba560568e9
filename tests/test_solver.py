"""Fixed-point solver, grid-density integrals and quadrature diagnostics."""

import inspect
import logging
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import SHORTFALL_TABLE, fresh_python
from scipy import special
from scipy.integrate import quad

import gbmsum as g
from gbmsum import (
    AccuracyWarning,
    CoarseGridWarning,
    ConvergenceError,
    DivergentExpectationError,
    ParameterError,
    pricing,
    solver,
    tails,
)
from gbmsum.solver import Grid, GridDensity, _iterate


class TestGridTypes:
    def test_public_constructor_takes_grid_values_and_tail(self):
        # the last step a law carries is set by its producer, never by a caller
        params = inspect.signature(GridDensity).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            ("grid", inspect.Parameter.empty), ("values", inspect.Parameter.empty), ("tail", None)]

    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            Grid(0.0, 100)
        with pytest.raises(ParameterError):
            Grid(0.01, 8)
        with pytest.raises(ParameterError, match="h must be finite, got inf"):
            Grid(math.inf, 100)

    @pytest.mark.parametrize("n", [20.5, 30.0, math.inf, math.nan, True])
    def test_grid_count_is_an_integer(self, n):
        # 20.5 gave a grid whose u_max was not (n - 1) h; inf and nan failed in u()
        with pytest.raises(ParameterError, match="n_points must be an integer >= 1"):
            Grid(0.01, n)

    def test_grid_stores_an_int_count(self):
        grid = Grid(0.01, np.int64(30))
        assert type(grid.n_points) is int and grid.u_max == 29 * 0.01

    @pytest.mark.parametrize("bad", [math.nan, -5.0, 0.0, math.inf])
    def test_solvers_reject_bad_span(self, bad):
        # a given u_max is finite and positive; nothing widens or clamps it
        rp = g.ReducedParams(beta=1.0, rho=-0.1)
        with pytest.raises(ParameterError, match="u_max"):
            g.solve_infinite(rp, u_max=bad)
        with pytest.raises(ParameterError, match="u_max"):
            g.mixture_density(g.GeneralHorizon([0.0, 0.0, 1.0]), rp, u_max=bad)

    def test_short_span_rejected(self):
        # 0.1 at h = 0.01 is 11 points, below the grid minimum of 16
        with pytest.raises(ParameterError, match="at least 16 points, got 11"):
            g.solve_infinite(g.ReducedParams(beta=1.0, rho=-0.1), u_max=0.1)

    def test_density_must_vanish_at_origin(self):
        grid = Grid(0.01, 100)
        vals = np.ones(100)
        with pytest.raises(ParameterError):
            GridDensity(grid, vals)

    def test_density_rejects_real_negatives(self):
        grid = Grid(0.01, 100)
        vals = np.zeros(100)
        vals[5] = -1e-10
        with pytest.raises(ParameterError):
            GridDensity(grid, vals)

    def test_density_clips_roundoff_negatives(self):
        grid = Grid(0.01, 100)
        vals = np.zeros(100)
        vals[5] = -5e-15
        assert GridDensity(grid, vals).values[5] == 0.0

    def test_density_rejects_non_finite(self):
        grid = Grid(0.01, 100)
        for bad in (np.nan, np.inf):
            vals = np.zeros(100)
            vals[5] = bad
            with pytest.raises(ParameterError):
                GridDensity(grid, vals)

    def test_values_are_immutable(self):
        grid = Grid(0.01, 100)
        F = GridDensity(grid, np.zeros(100))
        with pytest.raises(ValueError):
            F.values[3] = 1.0


class TestOperator:
    def test_preserves_normalization(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-9)
        F2 = g.GaussianStepOperator(F.grid, g.ReducedParams(beta=1.0, rho=-0.1)).apply(F.values)
        m1 = solver._mass_weights(F.grid) @ F.values
        m2 = solver._mass_weights(F.grid) @ F2
        assert abs(m2 - m1) < 1e-12

    def test_fixed_point_residual(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-8)
        F2 = g.GaussianStepOperator(F.grid, g.ReducedParams(beta=1.0, rho=-0.1)).apply(F.values)
        assert np.max(np.abs(F2 - F.values)) <= 10.0 * 1e-8

    def test_single_step_matches_two_term_sum(self):
        # applying the transform to the one-period law gives the two-term law
        rp = g.ReducedParams(beta=0.1, rho=0.0)
        f2 = g.finite_sum_density(2, rp)
        f1 = g.mixture_density(g.GeneralHorizon([1.0]), rp, u_max=f2.grid.u_max)
        stepped = g.GaussianStepOperator(f1.grid, rp).apply(f1.values)
        assert np.max(np.abs(stepped - f2.values)) < 1e-14

    @pytest.mark.parametrize("shape", [(199,), (201,), (1,), (), (1, 200), (200, 1)])
    def test_apply_rejects_other_shapes(self, shape):
        # a scalar or a length-1 input would broadcast against the column scales
        op = g.GaussianStepOperator(Grid(0.01, 200), g.ReducedParams(beta=1.0, rho=-0.1))
        values = 1.0 if shape == () else np.ones(shape)
        with pytest.raises(ParameterError, match="apply needs 200 values"):
            op.apply(values)

    @pytest.mark.parametrize("span", [(0, 4686), (0, 1), (4685, 4686), (1200, 1300), (2000, 2000)])
    def test_apply_span_matches_every_block(self, span):
        # rows outside the blocks an apply computes are exactly the 0 the full product gives
        rp = g.ReducedParams(beta=0.04 / 1000, rho=0.0)
        op = g.GaussianStepOperator(Grid(solver._default_step(rp.beta), 4686), rp)
        values = np.zeros(4686)
        values[span[0] : span[1]] = np.linspace(1.0, 2.0, span[1] - span[0])
        full = solver._block_product(op._blocks, op._cols, op._col_scale * values, 0,
                                     op._cols.size)[:4686]
        np.testing.assert_array_equal(op.apply(values), full)
        # the span a power pass hands on: the first and last nonzero, or none at all
        hint = (span[0], span[1] - 1) if span[1] > span[0] else None
        np.testing.assert_array_equal(op.apply(values, span=hint), full)

    def test_coarse_grid_warning(self):
        rp = g.ReducedParams(beta=0.0004, rho=0.0)  # sqrt(beta) = 0.02 < 3h
        with pytest.warns(CoarseGridWarning):
            g.GaussianStepOperator(Grid(0.01, 200), rp)

    def test_wide_input_operator_bound(self):
        # for inputs wider than the kernel the bound is sqrt(beta) >= 1.5h, which twice
        # the default step meets bit for bit and the step past it does not
        rp = g.ReducedParams(beta=0.04 / 1000, rho=0.0)
        h = 2.0 * solver._default_step(rp.beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error", CoarseGridWarning)
            op = g.GaussianStepOperator._for_wide_inputs(Grid(h, 300), rp)
        with pytest.warns(CoarseGridWarning, match="below 1.5h"):
            g.GaussianStepOperator._for_wide_inputs(Grid(math.nextafter(h, 1.0), 300), rp)
        with pytest.warns(CoarseGridWarning, match="below 3h"):
            ref = g.GaussianStepOperator(Grid(h, 300), rp)
        values = np.exp(-0.5 * (np.arange(300) - 150.0) ** 2 / 400.0)
        np.testing.assert_array_equal(op.apply(values), ref.apply(values))

    def test_coarse_grid_warning_names_the_constructors_caller(self):
        # both constructors warn from one check, at the line that called the constructor
        rp = g.ReducedParams(beta=0.0004, rho=0.0)  # sqrt(beta) = 0.02
        with pytest.warns(CoarseGridWarning, match="below 3h") as public:
            g.GaussianStepOperator(Grid(0.01, 200), rp)
        with pytest.warns(CoarseGridWarning, match="below 1.5h") as wide:
            g.GaussianStepOperator._for_wide_inputs(Grid(0.02, 200), rp)
        assert [public[0].filename, wide[0].filename] == [__file__, __file__]


class TestKernelPrefactor:
    """A law whose kernel prefactor e^(beta - rho) overflows a float is
    refused by name before any grid work; just below the bound it builds."""

    @pytest.mark.parametrize("beta, rho, p, power", [(1.0, -800.0, 0.0, "801"),
                                                     (720.0, 0.0, 0.5, "720")])
    def test_solve_refuses(self, beta, rho, p, power):
        with pytest.raises(ParameterError,
                           match=rf"kernel prefactor e\^\(beta - rho\) = e\^{power} overflows"):
            solver._solve(g.ReducedParams(beta=beta, rho=rho, p=p), 1e-8, 500, None, None)

    def test_density_at_refuses(self):
        rp = g.ReducedParams(beta=1.0, rho=-800.0)
        grid = Grid(0.1, 100)
        values = np.exp(-grid.u()) * grid.u()
        F = solver._Law(grid, values, params=rp, col_scale=np.ones(100), prev=values)
        with pytest.raises(ParameterError, match=r"e\^\(beta - rho\) = e\^801"):
            g.density_at(F, [1.0])

    def test_bound_is_the_largest_float(self):
        grid = Grid(0.1, 100)
        g.GaussianStepOperator(grid, g.ReducedParams(beta=1.0, rho=-708.7))
        with pytest.raises(ParameterError, match="overflows a float"):
            g.GaussianStepOperator(grid, g.ReducedParams(beta=1.0, rho=-708.8))


class TestDefaultStep:
    """Every law's default step is solver._default_step(beta), the widest
    the operator's coarse-grid check accepts, bit for bit."""

    def test_default_grids_never_coarse(self):
        betas = 10.0 ** np.random.default_rng(21).uniform(-8.0, -2.0, 10_000)
        # where min(0.01, sqrt(beta)/3) rounds 3h above sqrt(beta)
        rounded_up = [b for b in betas if 3.0 * min(0.01, math.sqrt(b) / 3.0) > math.sqrt(b)]
        assert len(rounded_up) > 100
        with warnings.catch_warnings():
            warnings.simplefilter("error", CoarseGridWarning)
            for beta in map(float, betas):
                rp = g.ReducedParams(beta=beta, rho=-0.05, p=0.1)
                h = solver._default_step(beta)
                assert 3.0 * h <= math.sqrt(beta)
                grids = (solver._grid_pair(rp, g.tail_exponent(rp), None, None)[1],
                         pricing._finite_sum_grid(10, rp))
                assert [grid.h for grid in grids] == [h, h]
                if beta in rounded_up and beta >= 1e-4:  # grids of a few thousand points
                    for grid in grids:
                        g.GaussianStepOperator(grid, rp)

    def test_default_solve_does_not_warn(self):
        # min(0.01, sqrt(beta)/3) put 3h one ulp above sqrt(beta) = 0.02995 here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F, _ = g.solve_geometric(g.ReducedParams(8.97e-4, -0.05, 0.1), tol=1e-8)
        assert 3.0 * F.grid.h <= math.sqrt(8.97e-4)


class TestDefaultSpan:
    def test_small_tail_exponent_is_capped_with_a_warning(self):
        # mu = 0.028: the tail point (c / tol)^(1/mu) overflows a float; its log,
        # the span the law would need, is 719, above the cap of 60
        rp = g.ReducedParams(beta=0.359641, rho=0.49595, p=0.008954)
        exponent = g.tail_exponent(rp)
        assert exponent == pytest.approx(0.028, abs=5e-4)
        with pytest.warns(AccuracyWarning, match="would need 719"):
            assert solver._default_u_max(rp, exponent) == solver._U_MAX_CAP


class TestOperatorBuild:
    def test_build_allocates_only_the_operator(self):
        # tracemalloc sees numpy's allocations but not the blocks' own mapping: what
        # it sees of the build is its temporaries, which must stay a small fraction
        # of the blocks (blocks numpy allocated would count whole)
        rp = g.ReducedParams(beta=1.0, rho=0.0)
        grid = solver._grid_pair(rp, g.tail_exponent(rp), None, None)[1]
        tracemalloc.start()
        try:
            op = g.GaussianStepOperator(grid, rp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op._blocks.nbytes > 30e6
        assert peak <= 0.1 * op._blocks.nbytes

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS from /proc")
    def test_dropped_laws_give_their_memory_back(self):
        # each operator's blocks are unmapped when it is dropped: on malloc's heap, the
        # (0.5, -0.1) operator's 17.8 MiB stayed resident once the (1, -0.1) operator's
        # 30.4 MiB had raised glibc's mmap threshold, 22 MiB above the level after import
        script = ("import gc, gbmsum as g\n"
                  "def rss():\n"
                  "    with open('/proc/self/status') as status:\n"
                  "        return next(int(line.split()[1]) for line in status\n"
                  "                    if line.startswith('VmRSS:')) / 1024\n"
                  "base = rss()\n"
                  "for beta in (1.0, 0.5):\n"
                  "    F, _ = g.solve_infinite(g.ReducedParams(beta=beta, rho=-0.1), tol=1e-9,\n"
                  "                            max_iter=2000)\n"
                  "del F\n"
                  "gc.collect()\n"
                  "print(rss() - base)\n")
        assert float(fresh_python(script)) <= 12.0  # MiB

    def test_build_logs_at_debug_only(self, caplog):
        grid = Grid(0.01, 200)
        rp = g.ReducedParams(beta=1.0, rho=-0.1)
        g.GaussianStepOperator(grid, rp)
        assert caplog.records == []
        with caplog.at_level(logging.DEBUG, logger="gbmsum"):
            g.GaussianStepOperator(grid, rp)
        (record,) = caplog.records
        assert record.name == "gbmsum.solver" and record.levelno == logging.DEBUG
        # bw = n: 13 blocks of 16 rows over all 200 columns, 8 padding rows in the
        # last, 13 * 16 * 200 doubles
        assert "n = 200, blocks 13 x 16 x 200 (0.32 MiB)" in record.getMessage()


def reference_band(grid, rp, band_sigmas=8.0):
    """The operator as a dense n x bw band and its column indices, built
    from the kernel formula with np.add.at column masses."""
    n, h = grid.n_points, grid.h
    half = math.ceil(band_sigmas * math.sqrt(rp.beta) / h)
    bw = min(n, 2 * half + 1)
    u = grid.u()
    w0 = np.zeros(n)
    w0[1:] = np.log(np.expm1(u[1:])) + 1.5 * rp.beta - rp.rho
    k0 = np.clip(np.rint(w0 / h).astype(np.int64) - (bw - 1) // 2, 0, n - bw)
    cols = k0[:, None] + np.arange(bw)[None, :]
    pref = math.exp(rp.beta - rp.rho) / math.sqrt(2.0 * math.pi * rp.beta)
    band = np.exp(-((cols * h - w0[:, None]) ** 2) / (2.0 * rp.beta)) * (pref * h)
    band[(cols == 0) | (cols == n - 1)] *= 0.5
    band[0, :] = 0.0
    mass_w = h * np.exp(u)
    mass_w[[0, -1]] *= 0.5
    col_mass = np.zeros(n)
    np.add.at(col_mass, cols, band * mass_w[:, None])
    scale = np.ones(n)
    np.divide(mass_w, col_mass, out=scale, where=col_mass > 0.0)
    return band * scale[cols], cols


def converged_left_tail(F, eps):
    """P(X <= eps) from the refined density by 16-point Gauss-Legendre on
    panels of width sqrt(beta)/4 in log x, converged far below 1e-10
    relative: an independent check of left_tail_cdf's closed form, over a
    window of its own below the smallest eps."""
    rp = F.params
    width = 14.0 * math.sqrt(rp.beta) + 3.0 * rp.beta + 2.0 * abs(rp.rho) + 2.0
    log_eps = np.log(eps)
    edges = np.union1d(
        np.arange(log_eps.min() - width, log_eps.max(), math.sqrt(rp.beta) / 4.0), log_eps
    )
    t, w = np.polynomial.legendre.leggauss(16)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    v = (mid[:, None] + half[:, None] * t).ravel()
    gv = (g.density_at(F, np.exp(v)) * np.exp(v)).reshape(-1, t.size)
    cum = np.concatenate([[0.0], np.cumsum(half * (gv @ w))])
    return cum[np.searchsorted(edges, log_eps)]


def gather_case(solved, case):
    """The grid, the law's parameters and an input density of one
    apply-against-gather case."""
    if case == "narrow-band":  # the solved law on its own grid, bw = 507
        F, _ = solved(0.1, -0.1, tol=1e-9, max_iter=2000)
        positive = F.values[F.values > 0.0]
        assert positive.min() < 1e-50  # far left tail
        return F.grid, F.params, F.values
    rp = g.ReducedParams(beta=1.0, rho=-0.1)
    if case == "wide-band":  # the solved law zero-padded onto its solve grid, bw = 1601 < n
        F, _ = solved(1.0, -0.1, tol=1e-9)
        grid = solver._grid_pair(rp, g.tail_exponent(rp), None, None)[1]
        values = np.zeros(grid.n_points)
        values[: F.grid.n_points] = F.values
        return grid, rp, values
    grid = Grid(0.01, 200)  # bw = n: every row starts at column 0 and ends at n - 1
    return grid, rp, g.multiplier_pdf(grid.x(), rp)


class TestOperatorReference:
    @pytest.mark.parametrize("case", ["narrow-band", "wide-band", "bw-equals-n"])
    def test_apply_matches_gather(self, solved, case):
        grid, rp, law = gather_case(solved, case)
        band, cols = reference_band(grid, rp)
        op = g.GaussianStepOperator(grid, rp)
        for values in (law, np.linspace(0.0, 1.0, grid.n_points)):
            ref = np.einsum("jb,jb->j", band, values[cols])
            out = op.apply(values)
            assert np.all(out[ref == 0.0] == 0.0)
            pos = ref > 0.0
            assert np.max(np.abs(out[pos] - ref[pos]) / ref[pos]) <= 1e-12

    @pytest.mark.parametrize("case", ["narrow-band", "wide-band", "bw-equals-n"])
    def test_trimmed_apply_is_the_full_product(self, solved, case):
        # apply runs only the blocks whose window meets the input's nonzero
        # span; every row must come out as the product over all blocks gives
        # it, bit for bit
        grid, rp, law = gather_case(solved, case)
        op = g.GaussianStepOperator(grid, rp)
        n, cols, width = grid.n_points, op._cols, op._blocks.shape[2]
        # zero prefix and suffix, the last nonzero in the first column of a window
        lo, hi = n // 8, max(int(cols[cols.size // 2]), n // 8)
        inner = np.zeros(n)
        inner[lo : hi + 1] = law[lo : hi + 1] + 1.0
        last = np.zeros(n)
        last[-1] = 1.0
        head = np.zeros(n)  # live only in the first window's columns
        head[:width] = 1.0
        signed = law - op.apply(law)  # as the derivative form passes it
        assert signed.min() < 0.0 < signed.max()
        for values in (inner, np.zeros(n), last, head, signed):
            out = op.apply(values)
            full = solver._block_product(op._blocks, cols, op._col_scale * values, 0, cols.size)
            assert out.tobytes() == full[:n].tobytes()

    @pytest.mark.parametrize("case", ["narrow-band", "wide-band", "bw-equals-n"])
    def test_blocks_hold_their_rows_bands(self, solved, case):
        # row j sits in block j // 16 at its band's columns, scaled as the
        # reference band, with exact zeros beside it; the padding rows are 0
        grid, rp, _ = gather_case(solved, case)
        band, cols = reference_band(grid, rp)
        op = g.GaussianStepOperator(grid, rp)
        n, (nb, rows, width) = grid.n_points, op._blocks.shape
        assert rows == solver._BLOCK_ROWS and nb == -(-n // rows)
        first = op._cols.repeat(rows)[:n, None]  # each row's window start
        assert np.all(np.diff(op._cols) >= 0) and first[-1, 0] + width <= n
        dense = op._blocks.reshape(-1, width)
        assert not dense[n:].any()
        expect = np.zeros((n, width))
        np.put_along_axis(expect, cols - first, band, axis=1)
        scaled = dense[:n] * op._col_scale[first + np.arange(width)]
        assert np.all(scaled[expect == 0.0] == 0.0)
        pos = expect > 0.0
        assert np.max(np.abs(scaled[pos] - expect[pos]) / expect[pos]) <= 1e-12

    def test_unsorted_points_refine_alike(self, solved):
        # refinement builds its rows over the sorted points and returns the
        # values in the caller's order
        F, _ = solved(0.1, -0.1, tol=1e-9, max_iter=2000)  # bw = 507 on 1030 points
        x = F.grid.x()[300:700]
        ascending = g.density_at(F, x)
        shuffle = np.random.default_rng(7).permutation(x.size)
        assert np.array_equal(g.density_at(F, x[::-1])[::-1], ascending)
        assert np.array_equal(g.density_at(F, x[shuffle]), ascending[shuffle])
        # repeats shift the rows between blocks, so each sum may round apart
        twice = g.density_at(F, np.repeat(x[::-1], 2))
        assert np.max(np.abs(twice - np.repeat(ascending[::-1], 2)) / twice) <= 1e-13

    def test_apply_is_the_same_at_one_and_two_blas_threads(self):
        # np.matmul takes each block to BLAS, which may split a block's rows
        # between threads; no row may depend on the thread count
        script = ("import hashlib, numpy as np, gbmsum as g\n"
                  "from gbmsum import solver\n"
                  "rp = g.ReducedParams(beta=1.0, rho=-0.1)\n"
                  "grid = solver._grid_pair(rp, g.tail_exponent(rp), None, None)[1]\n"
                  "op = g.GaussianStepOperator(grid, rp)\n"
                  "law = g.inv_gamma_pdf(grid.x(), 1.0, 0.5 * (1.0 - g.tail_exponent(rp)))\n"
                  "for v in (law, np.linspace(0.0, 1.0, grid.n_points)):\n"
                  "    print(hashlib.sha256(op.apply(v).tobytes()).hexdigest())\n")
        digests = [fresh_python(script, OPENBLAS_NUM_THREADS=threads,
                                OMP_NUM_THREADS=threads).split() for threads in ("1", "2")]
        assert len(digests[0]) == 2 and digests[0] == digests[1]

    @pytest.mark.parametrize("beta, rho, p", [(1.0, -0.1, 0.0), (1.0, 0.0, 0.1),
                                              (0.1, 0.0, 0.01)])
    def test_left_tail_cdf_matches_density_at(self, solved, beta, rho, p):
        F, _ = solved(beta, rho, p, tol=1e-9, max_iter=2000)
        eps = np.geomspace(1e-4, 1e-2, 5)
        ref = converged_left_tail(F, eps)
        probs = g.left_tail_cdf(F, eps)
        assert np.max(np.abs(probs - ref) / ref) <= 1e-10

    @pytest.mark.parametrize("beta, rho", [(0.5, -0.1), (0.1, -0.1)])
    def test_left_tail_cdf_converged_at_small_beta(self, solved, beta, rho):
        # the integrand's log-slope near eps is about |log eps| / beta, so its
        # mass lies closest to eps at small beta
        F, _ = solved(beta, rho, tol=1e-9, max_iter=2000)
        eps = np.geomspace(1e-4, 1e-2, 12)
        ref = converged_left_tail(F, eps)
        probs = g.left_tail_cdf(F, eps)
        assert np.max(np.abs(probs - ref) / ref) <= 1e-10

    def test_left_tail_cdf_at_p_one_is_lognormal_cdf(self, solved):
        # at p = 1 the law is the multiplier's: log X is normal with mean
        # rho - beta/2 and variance beta
        beta, rho = 1.0, -0.1
        F, _ = solved(beta, rho, 1.0)
        eps = np.array([1e-8, 1e-4, 1e-2, 0.5, 2.0])
        exact = special.ndtr((np.log(eps) - rho + 0.5 * beta) / math.sqrt(beta))
        assert np.max(np.abs(g.left_tail_cdf(F, eps) - exact) / exact) <= 1e-12

    @pytest.mark.parametrize("others", [[1e-200], [1e-300], [2.0], [1e-4, 1e-2]])
    def test_left_tail_cdf_reads_each_level_alone(self, solved, others):
        # each level's row of normal cdfs is summed on its own: a level's
        # probability does not depend on the levels beside it, bit for bit
        F, _ = solved(1.0, -0.1, tol=1e-9)
        alone = g.left_tail_cdf(F, [1e-3])[0]
        shared = g.left_tail_cdf(F, others + [1e-3])[-1]
        assert shared == alone

    def test_left_tail_cdf_at_tiny_levels(self, solved):
        # the normal cdfs underflow to 0 far below the grid: those add 0
        F, _ = solved(1.0, -0.1, tol=1e-9)
        probs = g.left_tail_cdf(F, [1e-200, 1e-320, 1e-3])
        assert np.all(np.isfinite(probs) & (probs >= 0.0))
        assert probs[0] <= probs[2] and probs[1] <= probs[2]


class TestSolveInfinite:
    def test_convergence_speed_and_moment(self, solved):
        F, report = solved(1.0, -0.1, tol=1e-8)
        assert report.final_delta <= 1e-8
        hit = next(i + 1 for i, d in enumerate(report.delta_trace) if d <= 1e-8)
        assert hit <= 150
        mean = g.expectation(F, lambda x: x)
        exact = math.exp(-0.1) / (1.0 - math.exp(-0.1))
        assert mean == pytest.approx(exact, abs=5e-4)

    def test_both_inits_agree(self, solved):
        Fa, _ = solved(1.0, -0.1, tol=1e-8)
        # Picard alone, from the log-normal multiplier law, far past tol
        rp = g.ReducedParams(beta=1.0, rho=-0.1)
        grid_ret, grid_int = solver._grid_pair(rp, g.tail_exponent(rp), None, None)
        op = g.GaussianStepOperator(grid_int, rp)
        f, _ = _iterate(op, g.multiplier_pdf(grid_int.x(), rp), None, 1.0, 1e-12, 2000)
        fb = f[: grid_ret.n_points]
        mass = solver._mass_weights(grid_ret)
        fb = fb * (mass @ Fa.values) / (mass @ fb)
        assert np.max(np.abs(Fa.values - fb)) <= 1e-10

    def test_infeasible_parameters(self):
        with pytest.raises(ParameterError):
            g.solve_infinite(g.ReducedParams(beta=1.0, rho=0.6))

    def test_rejects_positive_p(self):
        with pytest.raises(ParameterError):
            g.solve_infinite(g.ReducedParams(beta=1.0, rho=-0.1, p=0.1))

    @pytest.mark.parametrize("solve,p", [(g.solve_infinite, 0.0), (g.solve_geometric, 0.1),
                                         (g.solve_geometric, 1.0)])
    @pytest.mark.parametrize("tol,max_iter", [(1e-8, 0), (0.0, 3), (math.nan, 3),
                                              (math.inf, 3), (1e-8, 2.5), (1e-8, True)])
    def test_rejects_bad_iteration_settings(self, solve, p, tol, max_iter):
        with pytest.raises(ParameterError):
            solve(g.ReducedParams(beta=1.0, rho=-0.1, p=p), tol=tol, max_iter=max_iter)

    def test_non_convergence_carries_trace(self):
        with pytest.raises(ConvergenceError) as err:
            g.solve_infinite(g.ReducedParams(beta=1.0, rho=-0.1), tol=1e-12, max_iter=3)
        assert len(err.value.delta_trace) == 3

    def test_non_finite_iterate_stops_at_once(self):
        grid = Grid(0.05, 200)
        op = g.GaussianStepOperator(grid, g.ReducedParams(beta=1.0, rho=-0.1))
        f0 = np.zeros(200)
        f0[50] = np.nan
        with pytest.raises(ConvergenceError) as err:
            _iterate(op, f0, None, 1.0, 1e-8, 100)
        assert len(err.value.delta_trace) == 1

    def test_positivity_and_origin(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-8)
        assert F.values[0] == 0.0
        assert np.all(F.values >= 0.0)


class TestSolveGeometric:
    def test_p_one_is_multiplier_law(self):
        rp = g.ReducedParams(beta=0.5, rho=0.1, p=1.0)
        F, report = g.solve_geometric(rp)
        ref = np.asarray(g.multiplier_pdf(F.grid.x(), rp))
        assert np.max(np.abs(F.values - ref)) < 1e-6
        assert report.iterations == 0

    def test_mean_target(self, solved):
        F, _ = solved(1.0, 0.0, 0.1, tol=1e-9)
        assert g.expectation(F, lambda x: x) == pytest.approx(10.0, abs=2e-3)

    def test_rejects_p_zero(self):
        with pytest.raises(ParameterError):
            g.solve_geometric(g.ReducedParams(beta=1.0, rho=0.0, p=0.0))

    def test_approaches_infinite_sum_as_p_vanishes(self, solved):
        Fi, _ = solved(1.0, -0.1, tol=1e-9, u_max=16.0)
        sups = []
        for p in (0.01, 0.001):
            Fg, _ = g.solve_geometric(
                g.ReducedParams(beta=1.0, rho=-0.1, p=p), tol=1e-9, u_max=16.0
            )
            sups.append(float(np.max(np.abs(Fg.values - Fi.values))))
        assert sups[0] > sups[1]
        assert sups[1] < 2e-3

    def test_no_drift_condition_needed(self):
        # rho > beta/2 is fine once p > 0
        rp = g.ReducedParams(beta=0.5, rho=0.4, p=0.3)
        F, _ = g.solve_geometric(rp, tol=1e-8)
        assert g.survival(F, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_first_period_stopping_bump(self):
        # early stopping puts a second mode near the one-period law's mode
        from scipy.signal import argrelmax

        rp = g.ReducedParams(beta=0.1, rho=0.0, p=0.1)
        F, _ = g.solve_geometric(rp, tol=1e-9)
        peaks = F.grid.x()[argrelmax(F.values, order=5)[0]]
        assert len(peaks) == 2
        one_period_mode = np.exp(rp.rho - 1.5 * rp.beta)
        assert abs(peaks[0] - one_period_mode) < 0.15

    def test_stochastic_ordering_in_p(self):
        Fa, _ = g.solve_geometric(g.ReducedParams(1.0, 0.0, 0.05), tol=1e-9, u_max=16.0)
        Fb, _ = g.solve_geometric(g.ReducedParams(1.0, 0.0, 0.2), tol=1e-9, u_max=16.0)
        sa = g.survival_on_grid(Fa)
        sb = g.survival_on_grid(Fb)
        assert np.all(sa >= sb - 1e-12)


class TestPolish:
    @pytest.mark.parametrize("beta", [1.0, 0.1])
    def test_tail_constant_at_zero_drift(self, solved, beta):
        # at rho = 0 the infinite sum's tail constant is exactly 2 / beta
        F, _ = solved(beta, 0.0, tol=1e-9)
        assert abs(F.tail.constant * beta / 2.0 - 1.0) <= 1e-6

    @pytest.mark.parametrize("p", [1e-3, 1e-4])
    def test_small_p_converges(self, p):
        # without the mass deflation I - (1-p) T is nearly singular here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, report = g.solve_geometric(g.ReducedParams(beta=1.0, rho=-0.1, p=p), tol=1e-9)
        assert not [w for w in caught if issubclass(w.category, AccuracyWarning)]
        assert 0 < report.polish_matvecs <= 50

    def test_spent_budget_raises_with_whole_trace(self, solved):
        rp = g.ReducedParams(beta=1.0, rho=-0.1)
        _, full = solved(1.0, -0.1, tol=1e-9)
        picard = next(i + 1 for i, d in enumerate(full.delta_trace)
                      if d <= solver._PICARD_SWITCH)
        for spare in (1, 2):  # the check step's reserve, then one polish apply too
            with pytest.warns(AccuracyWarning, match="GMRES polish missed"):
                with pytest.raises(ConvergenceError) as err:
                    g.solve_infinite(rp, tol=1e-9, max_iter=picard + spare)
            trace = err.value.delta_trace
            assert len(trace) == picard + 1  # the Picard phase and the one reserved step
            assert trace[:picard] == full.delta_trace[:picard]
            assert trace[-1] > 1e-9

    @pytest.mark.parametrize("beta, rho", [(0.05, -0.005), (0.01, -0.1)])
    def test_switch_hands_over_to_polish(self, beta, rho):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, report = g.solve_infinite(g.ReducedParams(beta=beta, rho=rho), tol=1e-9)
        assert not [w for w in caught if issubclass(w.category, AccuracyWarning)]
        trace = report.delta_trace
        # Picard stops at the switch; after the polish one step measures the residual
        assert trace[-3] > solver._PICARD_SWITCH >= trace[-2]
        assert report.polish_matvecs > 0
        assert report.final_delta == trace[-1] <= 1e-9

    def test_perpetuity_apply_count(self, solved):
        laws = ((1.0, -0.1), (0.5, -0.1), (0.1, -0.1), (1.0, 0.0), (0.1, 0.0))
        assert sum(solved(beta, rho, tol=1e-9)[1].iterations for beta, rho in laws) <= 250

    def test_annuity_apply_count(self, solved):
        # the 8 stopped laws of the shortfall table take 362 applies in all
        laws = {(beta, rho, p) for beta, rho, p, *_ in SHORTFALL_TABLE}
        assert len(laws) == 8
        assert sum(solved(*law, tol=1e-9, max_iter=2000)[1].iterations for law in laws) <= 400

    def test_overflowing_norm_keeps_the_picard_iterate(self):
        # at (4.9e-5, -0.01, 0.9), mu = 573, the polish residual's norm overflows and the
        # tail fit's powers x^(mu + 1) too; neither may warn beyond the polish's cause
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warnings.simplefilter("error", RuntimeWarning)
            _, report = g.solve_geometric(g.ReducedParams(beta=4.9e-5, rho=-0.01, p=0.9),
                                          tol=1e-8, max_iter=2000)
        assert [(w.category, str(w.message).split(";")[0]) for w in caught] == [
            (AccuracyWarning, "GMRES polish met a norm that is not finite after 1 applies")]
        assert report.final_delta <= 1e-8
        assert report.mean_rel_err <= 1e-8

    def test_infinite_mean_law_against_mc(self):
        # tail exponent 0.56 < 1: no mean to check the solve against
        rp = g.ReducedParams(beta=0.05, rho=0.2, p=0.1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            F, report = g.solve_geometric(rp, tol=1e-9, max_iter=2000)
        assert not [w for w in caught if issubclass(w.category, AccuracyWarning)]
        assert report.mean_rel_err is None
        levels = (1.0, 5.0, 20.0, 100.0, 1000.0)
        cfg = g.McConfig(n_paths=400_000, seed=11, horizon=g.GeometricHorizon(0.1))
        ests = g.simulate_sum(rp, cfg, lambda x: np.stack([x > v for v in levels], axis=1))
        for level, est in zip(levels, ests):
            assert abs(g.survival(F, level) - est.value) <= 3.0 * est.std_error

    def test_gmres_matches_scipy(self, monkeypatch):
        # the (1, -0.1) polish system: scipy's matvecs, and its x to rounding
        from scipy.sparse.linalg import LinearOperator, gmres

        systems, exact = [], solver._gmres

        def record(matvec, b, x0, *args):
            systems.append((matvec, b.copy(), x0.copy(), args))
            return exact(matvec, b, x0, *args)

        monkeypatch.setattr(solver, "_gmres", record)
        g.solve_infinite(g.ReducedParams(beta=1.0, rho=-0.1), tol=1e-9)
        matvec, b, x0, (rtol, restart, budget) = systems[0]
        runs = []
        for solve in ("library", "scipy"):
            count = [0]

            def counted(y):
                count[0] += 1
                return matvec(y)

            if solve == "library":
                x, converged, applies, _ = exact(counted, b, x0, rtol, restart, budget)
                assert converged and applies == count[0]
            else:
                x, info = gmres(LinearOperator((b.size, b.size), matvec=counted, dtype=float), b,
                                x0=x0, rtol=rtol, atol=0.0, restart=restart, maxiter=10)
                assert info == 0
            runs.append((x, count[0]))
        (x_lib, n_lib), (x_sp, n_sp) = runs
        assert n_lib == n_sp > 0
        np.testing.assert_allclose(x_lib, x_sp, rtol=1e-12, atol=0.0)

    @staticmethod
    def _nonsymmetric_system(n=40):
        # I plus a random nonsymmetric part of norm about 0.8: restarted every 5 steps,
        # GMRES takes several cycles
        rng = np.random.default_rng(7)
        a = np.eye(n) + 0.4 * rng.normal(size=(n, n)) / math.sqrt(n)
        return a, rng.normal(size=n)

    def test_gmres_restarts_to_the_true_residual(self):
        a, b = self._nonsymmetric_system()
        count = [0]

        def matvec(y):
            count[0] += 1
            return a @ y

        x, converged, applies, estimate = solver._gmres(matvec, b, np.zeros(b.size), 1e-12, 5,
                                                        1000)
        assert converged and applies == count[0] > 3 * 6  # more than three cycles of 5 + 1
        assert np.linalg.norm(b - a @ x) <= 1e-12 * np.linalg.norm(b)
        assert estimate == pytest.approx(np.linalg.norm(b - a @ x) / np.linalg.norm(b), rel=1e-12,
                                         abs=0.0)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("budget", [0, 1, 2, 5, 6, 7, 13])
    def test_gmres_spends_exactly_its_budget(self, budget):
        a, b = self._nonsymmetric_system()
        count = [0]

        def matvec(y):
            count[0] += 1
            return a @ y

        x, converged, applies, estimate = solver._gmres(matvec, b, np.zeros(b.size), 1e-12, 5,
                                                        budget)
        assert not converged
        assert applies == count[0] == budget
        assert (estimate is None) == (budget == 0)
        assert np.all(np.isfinite(x))

    def test_gmres_quotes_its_last_true_residual(self):
        # the first cycle takes 6 applies, the second's true residual the 7th; a budget
        # of 9 ends inside the second cycle, whose in-cycle estimate is no residual of
        # any x, so it quotes the true residual measured at the 7th apply, as budget 7 does
        a, b = self._nonsymmetric_system()
        (x7, _, _, at7), (_, _, _, at9) = [
            solver._gmres(lambda y: a @ y, b, np.zeros(b.size), 1e-12, 5, budget)
            for budget in (7, 9)]
        assert at9 == at7 == np.linalg.norm(b - a @ x7) / np.linalg.norm(b)
        assert at7 > 1e-12

    def test_rounding_negatives_are_kept_as_zero(self):
        # GMRES converges at (0.001, -0.1, 0.5) to a scaled minimum of -1.1e-16 against
        # a maximum of 2.5: rounding, so the polished law is kept
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            F, report = g.solve_geometric(g.ReducedParams(beta=0.001, rho=-0.1, p=0.5))
        assert not [w for w in caught if issubclass(w.category, AccuracyWarning)]
        assert report.polish_matvecs > 0
        assert report.final_delta <= 1e-12
        assert report.mean_rel_err <= 1e-12
        assert F.values.min() == 0.0

    @pytest.mark.parametrize("bad, cause", [
        (-1e-6, "gave a scaled value of -1e-06, below -1e-10 times the largest"),
        (math.nan, "gave non-finite values"),
    ])
    def test_rejected_solution_names_its_cause(self, monkeypatch, bad, cause):
        exact = solver._gmres

        def spoiled(*args):
            x, converged, applies, estimate = exact(*args)
            x[len(x) // 2] = bad
            return x, converged, applies, estimate

        monkeypatch.setattr(solver, "_gmres", spoiled)
        with pytest.warns(AccuracyWarning, match=f"GMRES polish {cause}") as caught:
            _, report = g.solve_infinite(g.ReducedParams(beta=1.0, rho=-0.1), tol=1e-9)
        assert "missed" not in str(caught[0].message)
        assert report.final_delta <= 1e-9

    @pytest.mark.parametrize("beta, rho, p", [(1.0, -0.1, 0.0), (1.0, 0.0, 0.1)])
    def test_iterations_count_picard_and_polish(self, solved, beta, rho, p):
        _, report = solved(beta, rho, p, tol=1e-9)
        assert report.polish_matvecs > 0
        assert report.iterations == len(report.delta_trace) + report.polish_matvecs


# Part of the mean-oracle sweep over beta, rho and p; each law has a tail
# exponent above 1.05, so a finite mean.
MEAN_SWEEP = [
    (0.05, -0.1, 0.1), (0.05, 0.0, 0.5), (0.2, -0.3, 0.0), (0.2, 0.0, 0.1),
    (0.2, 0.2, 0.5), (1.0, -0.3, 0.5), (1.0, -0.1, 0.0), (1.0, 0.2, 0.5),
] + [pytest.param(2.0, rho, p, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2"))
     for rho, p in ((-0.3, 0.0), (0.0, 0.5))]


# The small-beta block of the law sweep (ROADMAP item 10) at default settings, and
# gate 8's inverse-Gamma (rho = -beta/10, p = 0) and exponential-time
# (rho = -beta/2, p = beta/2) families at beta = 0.01 and 0.005; their beta = 0.02
# members are in the block.  Laws whose mean is off with no warning are strict xfails
# that name the item mending them.
_SILENTLY_OFF = {(0.01, -0.005, 0.005): 3, (0.005, -0.0025, 0.0025): 3, (0.005, -0.002, 0.01): 8}
_SMALL_BETA_LAWS = ([(beta, rho, p) for beta in (0.005, 0.01, 0.02, 0.03)
                     for rho in (-0.002, -0.01, -0.05) for p in (0.0, 0.01)]
                    + [(beta, -0.1 * beta, 0.0) for beta in (0.01, 0.005)]
                    + [(beta, -0.5 * beta, 0.5 * beta) for beta in (0.01, 0.005)])
SMALL_BETA_SWEEP = [
    pytest.param(*law, marks=pytest.mark.xfail(
        strict=True, reason=f"ROADMAP item {_SILENTLY_OFF[law]}")) if law in _SILENTLY_OFF
    else law for law in _SMALL_BETA_LAWS]


class TestSmallBetaSweep:
    @pytest.mark.parametrize("beta, rho, p", SMALL_BETA_SWEEP)
    def test_mean_within_oracle_or_flagged(self, beta, rho, p):
        # the mean is within 1e-5, or the solve warns or raises
        solve = g.solve_geometric if p > 0.0 else g.solve_infinite
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", AccuracyWarning)
            try:
                _, report = solve(g.ReducedParams(beta=beta, rho=rho, p=p))
            except ConvergenceError:
                return
        if not any(issubclass(w.category, AccuracyWarning) for w in caught):
            assert report.mean_rel_err <= 1e-5


class TestMeanOracle:
    @pytest.mark.parametrize("beta, rho, p", MEAN_SWEEP)
    def test_mean_within_oracle(self, solved, beta, rho, p):
        _, report = solved(beta, rho, p, tol=1e-9)
        assert report.mean_rel_err <= 1e-5

    def test_matches_closed_form_mean(self, solved):
        # the mean behind the report's |E[X] - 10| / 10 against E[X] through
        # expectation, compared as means: the two sums round apart by about 2e-15 of
        # 10, which the subtraction of 10 would magnify 1e7 times in the error figure
        F, report = solved(1.0, 0.0, 0.1, tol=1e-9)
        mean = g.expectation(F, lambda x: x)
        reported = 10.0 * (1.0 + math.copysign(report.mean_rel_err, mean - 10.0))
        assert reported == pytest.approx(mean, rel=1e-14, abs=0.0)

    def test_p_one_law_has_oracle(self):
        _, report = g.solve_geometric(g.ReducedParams(beta=0.5, rho=0.1, p=1.0))
        assert report.mean_rel_err <= 1e-5


class TestIntegrals:
    def test_cdf_survival_complement(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-8)
        for x in (0.1, 1.0, 7.3, 200.0):
            assert g.cdf(F, x) + g.survival(F, x) == pytest.approx(
                g.survival(F, 0.0), abs=1e-10
            )

    def test_survival_and_cdf_stay_in_the_unit_interval(self, solved):
        # the grid integral of survival reads 1.0000000000000002 at x = 0.5 here
        F, _ = solved(0.0061, -0.534301)
        assert solver._survival_in_cell(F, solver.survival_on_grid(F), 0.5) > 1.0
        assert g.survival(F, 0.5) == 1.0
        for x in (0.0, 0.5, 1.0, 1e3):
            assert 0.0 <= g.survival(F, x) <= 1.0
            assert 0.0 <= g.cdf(F, x) <= 1.0

    def test_survival_at_zero_is_total_mass(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-8)
        assert g.survival(F, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_unit_payoff(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-8)
        assert g.expectation(F, lambda x: np.ones_like(x)) == pytest.approx(1.0, abs=1e-9)

    def test_divergent_payoff_rejected(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-8)
        with pytest.raises(DivergentExpectationError):
            g.expectation(F, lambda x: x**1.5)  # tail exponent is 1.2

    def test_bounded_payoff_ignores_tail(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-8)
        val = g.expectation(F, lambda x: np.maximum(5.0 - x, 0.0))
        assert 0.0 < val < 5.0

    def test_quantile_survival_roundtrip(self, solved):
        F, _ = solved(1.0, 0.0, 0.1, tol=1e-9)
        for q in (0.5, 0.9, 0.99):
            x = g.quantile(F, q)
            assert g.cdf(F, x) == pytest.approx(q, abs=1e-6)

    @pytest.mark.parametrize("level", [1e-8, 1e-12])
    def test_quantile_beyond_the_grid_top(self, solved, level):
        # at (1, -0.1) the closure holds 1.04e-8 of the mass beyond x_max = 8.29e6:
        # these quantiles invert it, as survival reads it there
        F, _ = solved(1.0, -0.1, tol=1e-9)
        x_max = float(np.expm1(F.grid.u_max))
        assert g.survival(F, x_max) == pytest.approx(1.04e-8, rel=0.01, abs=0.0)
        q = 1.0 - level
        x = g.quantile(F, q)
        assert x > x_max
        assert g.survival(F, x) == pytest.approx(1.0 - q, rel=1e-14, abs=0.0)

    def test_quantile_inside_the_grid(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-9)
        assert g.quantile(F, 0.99) == pytest.approx(84.2542446, rel=1e-9, abs=0.0)

    def test_singular_payoffs_at_the_origin(self):
        # the node x = 0 carries no mass, so no payoff is read there: at p = 1 the
        # law is the multiplier's, E[log X] = rho - beta/2 and E[1/X] = e^(beta - rho)
        F, _ = g.solve_geometric(g.ReducedParams(beta=0.1, rho=0.0, p=1.0))
        assert g.expectation(F, np.log) == pytest.approx(-0.05, abs=1e-14)
        assert g.expectation(F, lambda x: 1.0 / x) == pytest.approx(math.exp(0.1), rel=1e-14,
                                                                    abs=0.0)

    def test_log_moment_of_the_fixed_point(self, solved):
        # X = M (1 + X') in law: E[log X] = rho - beta/2 + E[log(1 + X)], which the
        # grid meets to 7.4e-7; Monte Carlo over 300 terms gave 0.6390 +- 0.0031
        F, _ = solved(1.0, -0.1, tol=1e-9)
        mean_log = g.expectation(F, np.log)
        assert mean_log == pytest.approx(-0.6 + g.expectation(F, np.log1p), abs=2e-6)
        assert mean_log == pytest.approx(0.64296, abs=1e-5)

    def test_quantile_beyond_the_largest_float(self):
        # under a tail c x^-0.02 the 1 - 1e-12 quantile is about 1e587
        grid = Grid(0.02, 400)
        F = GridDensity(grid, g.multiplier_pdf(grid.x(), g.ReducedParams(beta=1.0, rho=0.0)),
                        tail=g.TailAsymptote(exponent=0.02, constant=1.0))
        assert g.quantile(F, 0.99) > float(grid.x()[-1])
        with pytest.raises(ParameterError, match="beyond the largest float"):
            g.quantile(F, 1.0 - 1e-12)

    def test_payoff_changing_shape_is_rejected(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-8)
        with pytest.raises(ParameterError, match=r"shape \(1,\) for points of shape \(\d+,\)"):
            g.expectation(F, lambda x: np.ones(1))


# the perpetuity laws and the shortfall table's stopped laws, as (beta, rho, p)
TAIL_LAWS = [(1.0, -0.1, 0.0), (0.5, -0.1, 0.0), (0.1, -0.1, 0.0), (1.0, 0.0, 0.0),
             (0.1, 0.0, 0.0)] + sorted({row[:3] for row in SHORTFALL_TABLE})


def _tail_solved(solved, beta, rho, p):
    F, _ = solved(beta, rho, p, tol=1e-9, max_iter=2000)
    return F, float(np.expm1(F.grid.u_max)), F.tail.exponent, F.tail.constant


def _quad_expectation(F, payoff, growth):
    """expectation's oracle: the grid trapezoid sum plus the tail closure
    c mu x_max^-mu times the integral over t in (0, 1] of payoff(x_max/t) t^(mu-1)
    (x = x_max/t), which quad takes with the algebraic weight t^(mu-1-growth)
    of a payoff growing like x^growth."""
    x_max, mu, c = float(np.expm1(F.grid.u_max)), F.tail.exponent, F.tail.constant
    x = F.grid.x()
    body = np.trapezoid(F.values * np.exp(F.grid.u()) * payoff(x), dx=F.grid.h)

    def scaled(t):
        t = max(t, 1e-100)  # QAWS samples the end point t = 0
        return float(payoff(np.array([x_max / t]))[0]) * t**growth

    tail, _ = quad(scaled, 0.0, 1.0, weight="alg", wvar=(mu - 1.0 - growth, 0.0),
                   epsabs=0.0, epsrel=1e-12, limit=200)
    return body + c * mu * x_max ** (-mu) * tail


class TestTailClosure:
    @pytest.mark.parametrize("beta, rho, p", TAIL_LAWS)
    def test_matches_quad(self, solved, beta, rho, p):
        F, _, mu, _ = _tail_solved(solved, beta, rho, p)
        payoffs = [(lambda x: tails._stable_power_gap(x, mu), mu - 1.0), (np.sqrt, 0.5),
                   (lambda x: (1.0 + x) ** -3.0, -3.0)]
        if mu > 1.0:
            payoffs.append((lambda x: x, 1.0))
        for payoff, growth in payoffs:
            assert g.expectation(F, payoff) == pytest.approx(
                _quad_expectation(F, payoff, growth), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta, rho, p", [(1.0, 0.3, 0.0), (1.0, 0.3, 0.01)])
    def test_heavy_tail_matches_quad(self, solved, beta, rho, p):
        # mu ~ 0.4: the rule's farthest node, w = 299, would put x = x_max e^(w/mu)
        # past the largest float, so the growth probes are scaled down
        F, x_max, mu, _ = _tail_solved(solved, beta, rho, p)
        assert 299.0 / mu + math.log(x_max) > math.log(np.finfo(float).max)
        payoffs = [(lambda x: tails._stable_power_gap(x, mu), mu - 1.0),
                   (lambda x: x ** (0.5 * mu), 0.5 * mu), (lambda x: (1.0 + x) ** -3.0, -3.0),
                   (lambda x: x / (1.0 + x), 0.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for payoff, growth in payoffs:
                assert g.expectation(F, payoff) == pytest.approx(
                    _quad_expectation(F, payoff, growth), rel=1e-12, abs=0.0)
            assert math.isfinite(tails.tail_constant(F))

    @pytest.mark.parametrize("beta, rho, p", [(1.0, -0.1, 0.0), (0.1, 0.0, 0.01)])
    @pytest.mark.parametrize("level", [0.3, 0.5])
    def test_call_kinked_on_the_grid_converges(self, solved, beta, rho, p, level):
        # the payoff's kink once read as growth x^mu; beyond x_max it is x - kappa
        F, x_max, mu, c = _tail_solved(solved, beta, rho, p)
        kappa = level * x_max
        call = g.expectation(F, lambda x: np.maximum(x - kappa, 0.0))
        body = g.expectation(GridDensity(F.grid, F.values), lambda x: np.maximum(x - kappa, 0.0))
        tail = c * x_max ** (1.0 - mu) * mu / (mu - 1.0) - kappa * c * x_max ** (-mu)
        assert call == pytest.approx(body + tail, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta, rho, p", [(1.0, -0.1, 0.0), (0.1, -0.1, 0.0),
                                              (0.1, 0.0, 0.01)])
    def test_payoff_zero_up_to_4_x_max_keeps_its_tail(self, solved, beta, rho, p):
        # the payoff vanishes on the grid and at x_max, 2 x_max and 4 x_max, where the
        # tail once went unpriced; smooth beyond x_max, the rule converges
        F, x_max, _, _ = _tail_solved(solved, beta, rho, p)

        def payoff(x):
            r = x_max / np.maximum(x, x_max)
            return (1.0 - r) * (1.0 - 2.0 * r) * (1.0 - 4.0 * r)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = g.expectation(F, payoff)
        assert value == pytest.approx(_quad_expectation(F, payoff, 0.0), rel=1e-12, abs=0.0)
        assert value > 0.0

    @pytest.mark.parametrize("level", [2.0, 4.1])
    def test_kink_beyond_the_grid_warns(self, solved, level):
        # the rule resolves a call's kink beyond x_max only to its last step
        F, x_max, mu, c = _tail_solved(solved, 1.0, -0.1, 0.0)
        kappa = level * x_max
        with pytest.warns(AccuracyWarning, match="double-exponential rule"):
            call = g.expectation(F, lambda x: np.maximum(x - kappa, 0.0))
        assert call == pytest.approx(c * kappa ** (1.0 - mu) / (mu - 1.0), rel=1e-3, abs=0.0)

    def test_payoff_overflowing_far_out_is_divergent(self, solved):
        F, _, _, _ = _tail_solved(solved, 1.0, -0.1, 0.0)
        with pytest.raises(DivergentExpectationError):
            g.expectation(F, lambda x: x**5)

    def test_payoff_overflowing_below_the_exponent_is_named(self):
        # x^20 against mu = 21 converges, but is finite only up to x = (largest
        # float)^(1/20) ~ 2.6e15, short of the far probe x_max e^(298/21) ~ 5.2e15
        grid = Grid.spanning(0.01, 22.0)
        x = grid.x()
        F = GridDensity(grid, x * np.exp(-x), tail=g.TailAsymptote(21.0, 1.0))
        with pytest.raises(ParameterError, match="payoff is not finite beyond x = ") as err:
            g.expectation(F, lambda x: x**20)
        named = float(re.search(r"beyond x = (\S+),", str(err.value)).group(1))
        assert named == pytest.approx(np.finfo(float).max ** (1.0 / 20.0), rel=1e-5, abs=0.0)
        # a finite far probe growing past the exponent is still divergent
        with pytest.raises(DivergentExpectationError, match="x\\^22 >= tail exponent 21"):
            g.expectation(F, lambda x: x**22)

    def test_closure_mass_underflowing_adds_nothing(self):
        # c x_max^-mu underflows to 0 at mu = 300 (x_max ~ 403): the grid total is the
        # expectation, where the rule's scale once divided by that mass
        grid = Grid.spanning(0.01, 6.0)
        x = grid.x()
        body = GridDensity(grid, x * np.exp(-x))
        F = GridDensity(grid, body.values, tail=g.TailAsymptote(300.0, 1.0))
        assert float(x[-1]) ** -300.0 == 0.0
        for payoff in (lambda x: x, np.ones_like):
            assert g.expectation(F, payoff) == g.expectation(body, payoff)

    @pytest.mark.parametrize("beta", [1.0, 0.1])
    def test_mean_at_exponent_one_is_divergent(self, solved, beta):
        F, x_max, mu, _ = _tail_solved(solved, beta, 0.0, 0.0)
        assert mu == 1.0
        for payoff in (lambda x: x, lambda x: np.maximum(x - 0.3 * x_max, 0.0)):
            with pytest.raises(DivergentExpectationError):
                g.expectation(F, payoff)


class TestOffGridRefinement:
    def test_matches_grid_values_at_fixed_point(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-10, max_iter=800)
        u_probe = F.grid.u()[50:500:50]
        refined = g.density_at(F, np.expm1(u_probe))
        on_grid = F.values[50:500:50]
        assert np.max(np.abs(refined - on_grid) / np.maximum(on_grid, 1e-12)) < 1e-5

    def test_left_tail_cdf_monotone_positive(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-9)
        eps = np.geomspace(1e-4, 1e-2, 7)
        probs = g.left_tail_cdf(F, eps)
        assert np.all(probs > 0.0)
        assert np.all(np.diff(probs) > 0.0)
        assert probs[-1] < 1e-3

    def test_geometric_variant_includes_source(self, solved):
        F, _ = solved(1.0, 0.0, 0.1, tol=1e-9)
        u_probe = F.grid.u()[100:400:100]
        refined = g.density_at(F, np.expm1(u_probe))
        on_grid = F.values[100:400:100]
        assert np.max(np.abs(refined - on_grid) / on_grid) < 1e-4


def asian_law(n):
    """The n-term law of the sigma = 0.4, r = 0.1, T = 1 Asian sums."""
    spec = g.AsianSpec(s0=100.0, strike=100.0, rate=0.1, dividend=0.0, sigma=0.4,
                       maturity=1.0, n_fixings=n)
    return g.finite_sum_density(n, spec.reduced())


class TestFiniteSumRefinement:
    """A finite sum carries its last step X_n = M (1 + X_{n-1}) and is
    refined as a solve is."""

    @pytest.mark.parametrize("n", [2, 10])
    def test_density_at_matches_grid_values(self, n):
        F = asian_law(n)
        sel = F.values > 1e-200
        refined = g.density_at(F, F.grid.x()[sel])
        assert np.max(np.abs(refined - F.values[sel]) / F.values[sel]) <= 1e-12

    @pytest.mark.parametrize("n, lo, hi", [(2, 0.25, 2.0), (10, 2.2, 10.0)])
    def test_left_tail_cdf_matches_reference(self, n, lo, hi, monkeypatch):
        # levels from about the law's 1e-12 quantile to its median.  The
        # reference integrates density_at, whose rows keep 8 standard deviations
        # of the kernel: at n = 10 the columns cut above a row carry 4e-10 of
        # the density where P = 3e-8, as the left tail falls steeply, so the
        # reference takes 12 (the law itself is built first, at 8)
        F = asian_law(n)
        eps = np.geomspace(lo, hi, 6)
        probs = g.left_tail_cdf(F, eps)
        monkeypatch.setattr(solver, "_BAND_SIGMAS", 12.0)
        ref = converged_left_tail(F, eps)
        assert ref[0] < 1e-11 and ref[-1] > 0.3
        assert np.max(np.abs(probs - ref) / ref) <= 1e-10

    def test_one_term_is_the_multiplier_law(self):
        rp = g.ReducedParams(beta=0.5, rho=0.1)
        F = g.finite_sum_density(1, rp)
        assert F.prev is None
        x = np.geomspace(1e-4, 10.0, 9)
        assert np.array_equal(g.density_at(F, x), np.asarray(g.multiplier_pdf(x, rp)))
        eps = np.array([1e-8, 1e-4, 1e-2, 0.5, 2.0])
        exact = special.ndtr((np.log(eps) - rp.rho + 0.5 * rp.beta) / math.sqrt(rp.beta))
        assert np.max(np.abs(g.left_tail_cdf(F, eps) - exact) / exact) <= 1e-12


class TestRefinementUsesSolveScales:
    @staticmethod
    def count_builds(monkeypatch):
        builds = []
        init = g.GaussianStepOperator.__init__

        def counted(self, *args, **kwargs):
            builds.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(g.GaussianStepOperator, "__init__", counted)
        return builds

    def test_fit_left_tail_builds_no_operator(self, solved, monkeypatch):
        F, _ = solved(1.0, -0.1, tol=1e-9)
        builds = self.count_builds(monkeypatch)
        g.fit_left_tail_coefficient(F, g.ReducedParams(beta=1.0, rho=-0.1))
        assert builds == []

    def test_left_tail_cdf_refines_no_point(self, solved, monkeypatch):
        # the left-tail cdf is a closed form: no kernel row and no quadrature
        F, _ = solved(1.0, -0.1, tol=1e-9)
        probs = g.left_tail_cdf(F, [1e-3, 1e-2])
        for name in ("density_at", "_kernel_rows"):
            monkeypatch.setattr(solver, name, lambda *a, name=name: pytest.fail(f"{name} called"))
        monkeypatch.setattr(g.distributions, "_de_integrate",
                            lambda *a, **k: pytest.fail("_de_integrate called"))
        assert np.array_equal(g.left_tail_cdf(F, [1e-3, 1e-2]), probs)

    def test_density_at_builds_no_operator(self, solved, monkeypatch):
        F, _ = solved(1.0, 0.0, 0.1, tol=1e-9)
        builds = self.count_builds(monkeypatch)
        g.density_at(F, np.geomspace(1e-3, 1.0, 5))
        assert builds == []

    @pytest.mark.parametrize("use, kind", [
        (g.density_at, "mixture"), (g.density_at, "hand-built"),
        (g.left_tail_cdf, "mixture"), (g.left_tail_cdf, "hand-built"),
        (g.tail_constant, "finite-sum"), (g.tail_constant, "mixture"),
        (g.tail_constant, "hand-built")])
    def test_unsolved_density_rejected(self, use, kind):
        # a mixture or a hand-built law records no last step to refine; a tail
        # constant needs a fixed point, which a finite sum is not
        rp = g.ReducedParams(beta=1.0, rho=-0.1)
        if kind == "finite-sum":
            F = g.finite_sum_density(3, rp)
        elif kind == "mixture":
            F = g.mixture_density(g.GeneralHorizon((0.5, 0.5)), rp)
        else:
            grid = Grid(0.02, 400)
            F = GridDensity(grid, np.asarray(g.multiplier_pdf(grid.x(), rp)))
        points = () if use is g.tail_constant else (np.array([1e-3, 1e-2]),)
        with pytest.raises(ParameterError, match="solve"):
            use(F, *points)

    def test_scalar_point_keeps_shape(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-9)
        one = g.density_at(F, 0.5)
        assert np.shape(one) == ()
        assert float(one) == g.density_at(F, np.array([0.5]))[0]
        assert g.density_at(F, np.full((2, 3), 0.5)).shape == (2, 3)

    @pytest.mark.parametrize("points", [[], np.empty((0, 3))])
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_empty_queries_keep_shape(self, solved, points, p):
        F, _ = solved(1.0, -0.1, p, tol=1e-9)
        shape = np.shape(points)
        for query in (g.density_at, g.left_tail_cdf):
            out = query(F, points)
            assert out.shape == shape and out.dtype == float

    def test_other_params_rejected(self, solved):
        # refinement reads the law's own params; fit_left_tail_coefficient,
        # the one function still taking params, rejects any others
        F, _ = solved(1.0, -0.1, tol=1e-9)
        x = F.grid.x()[100]
        assert g.density_at(F, x) == pytest.approx(F.values[100], rel=1e-10, abs=0.0)
        with pytest.raises(ParameterError, match="solved at"):
            g.fit_left_tail_coefficient(F, g.ReducedParams(beta=0.5, rho=-0.1))

    def test_p_one_law_records_params(self):
        F, _ = g.solve_geometric(g.ReducedParams(beta=1.0, rho=-0.1, p=1.0))
        assert F.params == g.ReducedParams(beta=1.0, rho=-0.1, p=1.0)

    def test_p_one_is_multiplier_pdf(self):
        rp = g.ReducedParams(beta=0.5, rho=0.1, p=1.0)
        F, _ = g.solve_geometric(rp)
        x = np.geomspace(1e-4, 10.0, 9)
        assert np.array_equal(g.density_at(F, x), np.asarray(g.multiplier_pdf(x, rp)))


class TestNonFiniteQueries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_density_at_rejects(self, solved, bad):
        F, _ = solved(1.0, -0.1, tol=1e-9)
        with pytest.raises(ParameterError):
            g.density_at(F, np.array([1e-3, bad]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_left_tail_cdf_rejects(self, solved, bad):
        F, _ = solved(1.0, -0.1, tol=1e-9)
        with pytest.raises(ParameterError):
            g.left_tail_cdf(F, np.array([1e-3, bad]))

    @pytest.mark.parametrize("integral", [g.survival, g.cdf])
    def test_integrals_reject_nan(self, solved, integral):
        F, _ = solved(1.0, -0.1, tol=1e-8)
        with pytest.raises(ParameterError):
            integral(F, math.nan)

    def test_survival_at_infinity_is_zero(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-8)
        assert g.survival(F, math.inf) == 0.0


class TestQuadratureBound:
    def test_scaling_in_h(self, solved):
        Fa, _ = solved(1.0, -0.1, tol=1e-9)
        Fb, _ = solved(1.0, -0.1, tol=1e-9, h=0.005)
        ra = g.quadrature_error_bound(Fa)
        rb = g.quadrature_error_bound(Fb)
        assert ra / rb == pytest.approx(8.0, rel=0.25, abs=0.0)


class TestContinuousLimit:
    def test_cdf_distance_decreases_with_beta(self, solved):
        dists = []
        for b in (0.2, 0.1):
            F, _ = solved(b, -0.1 * b, tol=1e-9, max_iter=1200)
            xs = np.geomspace(0.05 / b, 500.0 / b, 120)
            lim = np.asarray(g.inv_gamma_cdf(xs, math.sqrt(b), -0.1 * b))
            disc = np.array([g.cdf(F, float(x)) for x in xs])
            dists.append(float(np.max(np.abs(disc - lim))))
        assert dists[0] > dists[1]


class TestMedian:
    @pytest.mark.parametrize("size", [1, 2, 20, 21, 431])
    def test_bit_identical_to_numpy(self, size):
        values = np.random.default_rng(size).lognormal(0.0, 30.0, size)
        values[::7] = np.inf
        assert solver._median(values) == float(np.median(values))
        values[size // 2] = np.nan
        assert math.isnan(solver._median(values))

    def test_tail_fits_import_no_masked_arrays(self):
        # the first np.median of a process imports numpy.ma (15-19 ms); the solve's
        # tail constant and the power-law fit take their medians without it, and the
        # left-tail fit, whose probabilities are a closed form, within 15% of
        # -1/(2 beta), with every warning an error
        script = ("import sys, warnings, gbmsum as g\n"
                  "warnings.simplefilter('error')\n"
                  "rp = g.ReducedParams(beta=1.0, rho=-0.1)\n"
                  "F, _ = g.solve_infinite(rp, tol=1e-9)\n"
                  "print(g.fit_left_tail_coefficient(F, rp))\n"
                  "g.fit_survival_powerlaw(F)\n"
                  "print('numpy.ma' in sys.modules)\n")
        coef, masked = fresh_python(script).split()
        assert abs(float(coef) / -0.5 - 1.0) <= 0.15
        assert masked == "False"
