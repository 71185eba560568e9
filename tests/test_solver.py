"""Fixed-point solver, grid-density integrals and quadrature diagnostics."""

import logging
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import gbmsum as g
from gbmsum import (
    AccuracyWarning,
    CoarseGridWarning,
    ConvergenceError,
    DivergentExpectationError,
    ParameterError,
    pricing,
    solver,
)
from gbmsum.solver import Grid, GridDensity, _grid_mass, _iterate


class TestGridTypes:
    def test_grid_validation(self):
        with pytest.raises(ParameterError):
            Grid(0.0, 100)
        with pytest.raises(ParameterError):
            Grid(0.01, 8)
        with pytest.raises(ParameterError, match="h must be finite, got inf"):
            Grid(math.inf, 100)

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
        m1 = _grid_mass(F.grid, F.values)
        m2 = _grid_mass(F.grid, F2)
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

    def test_coarse_grid_warning(self):
        rp = g.ReducedParams(beta=0.0004, rho=0.0)  # sqrt(beta) = 0.02 < 3h
        with pytest.warns(CoarseGridWarning):
            g.GaussianStepOperator(Grid(0.01, 200), rp)


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


class TestOperatorBuild:
    def test_build_allocates_only_the_operator(self):
        rp = g.ReducedParams(beta=1.0, rho=0.0)
        grid = solver._grid_pair(rp, g.tail_exponent(rp), None, None)[1]
        tracemalloc.start()
        try:
            op = g.GaussianStepOperator(grid, rp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (op._blocks, op._cols, op._col_scale, op._mass_w))
        assert peak <= 1.25 * held

    def test_build_logs_at_debug_only(self, caplog):
        grid = Grid(0.01, 200)
        rp = g.ReducedParams(beta=1.0, rho=-0.1)
        g.GaussianStepOperator(grid, rp)
        assert caplog.records == []
        with caplog.at_level(logging.DEBUG, logger="gbmsum"):
            g.GaussianStepOperator(grid, rp)
        (record,) = caplog.records
        assert record.name == "gbmsum.solver" and record.levelno == logging.DEBUG
        # bw = n: 13 blocks of 16 rows over all 200 columns, 8 padding rows in the last
        assert "n = 200, blocks 13 x 16 x 200" in record.getMessage()


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
    panels of width sqrt(beta)/4, converged far below 1e-8 relative: an
    independent check of the rule in left_tail_cdf, over the same window."""
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
    return grid, rp, solver._multiplier_values(grid, rp)


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
        src = str(Path(g.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=120, check=True)
            digests.append(run.stdout.split())
        assert len(digests[0]) == 2 and digests[0] == digests[1]

    @pytest.mark.parametrize("beta, rho, p", [(1.0, -0.1, 0.0), (1.0, 0.0, 0.1)])
    def test_left_tail_cdf_matches_density_at(self, solved, beta, rho, p):
        F, _ = solved(beta, rho, p, tol=1e-9)
        eps = np.geomspace(1e-4, 1e-2, 5)
        ref = converged_left_tail(F, eps)
        probs = g.left_tail_cdf(F, eps)
        assert np.max(np.abs(probs - ref) / ref) <= 1e-4

    @pytest.mark.parametrize("beta, rho", [(0.5, -0.1), (0.1, -0.1)])
    def test_left_tail_cdf_converged_at_small_beta(self, solved, beta, rho):
        # the integrand's log-slope near eps is about |log eps| / beta, so a
        # rule with a fixed node count is biased high most at small beta
        F, _ = solved(beta, rho, tol=1e-9, max_iter=2000)
        eps = np.geomspace(1e-4, 1e-2, 12)
        ref = converged_left_tail(F, eps)
        probs = g.left_tail_cdf(F, eps)
        assert np.max(np.abs(probs - ref) / ref) <= 1e-4


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
        f, _, _ = _iterate(op, grid_int, solver._multiplier_values(grid_int, rp), None, 1.0,
                           1e-12, 2000)
        fb = f[: grid_ret.n_points]
        fb = fb * _grid_mass(grid_ret, Fa.values) / _grid_mass(grid_ret, fb)
        assert np.max(np.abs(Fa.values - fb)) <= 1e-10

    def test_infeasible_parameters(self):
        with pytest.raises(ParameterError):
            g.solve_infinite(g.ReducedParams(beta=1.0, rho=0.6))

    def test_rejects_positive_p(self):
        with pytest.raises(ParameterError):
            g.solve_infinite(g.ReducedParams(beta=1.0, rho=-0.1, p=0.1))

    @pytest.mark.parametrize("solve,p", [(g.solve_infinite, 0.0), (g.solve_geometric, 0.1),
                                         (g.solve_geometric, 1.0)])
    @pytest.mark.parametrize("tol,max_iter", [(1e-8, 0), (0.0, 3), (math.nan, 3)])
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
            _iterate(op, grid, f0, None, 1.0, 1e-8, 100)
        assert len(err.value.delta_trace) == 1

    def test_positivity_and_origin(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-8)
        assert F.values[0] == 0.0
        assert np.all(F.values >= 0.0)

    def test_mass_preserved_through_iteration(self, solved):
        F, report = solved(1.0, -0.1, tol=1e-8)
        drift = max(abs(m - report.mass_trace[0]) for m in report.mass_trace)
        assert drift <= len(report.delta_trace) * report.quadrature_bound


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

    @pytest.mark.parametrize("beta, rho, p", [(1.0, -0.1, 0.0), (1.0, 0.0, 0.1)])
    def test_iterations_count_picard_and_polish(self, solved, beta, rho, p):
        _, report = solved(beta, rho, p, tol=1e-9)
        assert report.polish_matvecs > 0
        assert report.iterations == len(report.delta_trace) + report.polish_matvecs
        assert len(report.mass_trace) == len(report.delta_trace) + 1


# Part of the mean-oracle sweep over beta, rho and p; each law has a tail
# exponent above 1.05, so a finite mean.
MEAN_SWEEP = [
    (0.05, -0.1, 0.1), (0.05, 0.0, 0.5), (0.2, -0.3, 0.0), (0.2, 0.0, 0.1),
    (0.2, 0.2, 0.5), (1.0, -0.3, 0.5), (1.0, -0.1, 0.0), (1.0, 0.2, 0.5),
] + [pytest.param(2.0, rho, p, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2"))
     for rho, p in ((-0.3, 0.0), (0.0, 0.5))]


class TestMeanOracle:
    @pytest.mark.parametrize("beta, rho, p", MEAN_SWEEP)
    def test_mean_within_oracle(self, solved, beta, rho, p):
        _, report = solved(beta, rho, p, tol=1e-9)
        assert report.mean_rel_err <= 1e-5

    def test_matches_closed_form_mean(self, solved):
        F, report = solved(1.0, 0.0, 0.1, tol=1e-9)
        mean = g.expectation(F, lambda x: x)
        assert report.mean_rel_err == pytest.approx(abs(mean - 10.0) / 10.0, rel=1e-12)

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

    def test_density_at_builds_no_operator(self, solved, monkeypatch):
        F, _ = solved(1.0, 0.0, 0.1, tol=1e-9)
        builds = self.count_builds(monkeypatch)
        g.density_at(F, np.geomspace(1e-3, 1.0, 5))
        assert builds == []

    @pytest.mark.parametrize("kind", ["finite-sum", "hand-built"])
    @pytest.mark.parametrize("use", [g.density_at, g.left_tail_cdf, g.tail_constant])
    def test_unsolved_density_rejected(self, kind, use):
        # a law no solve produced has no params to refine or to take a tail from
        rp = g.ReducedParams(beta=1.0, rho=-0.1)
        if kind == "finite-sum":
            F = g.finite_sum_density(3, rp)
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
        assert g.density_at(F, x) == pytest.approx(F.values[100], rel=1e-10)
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
        assert ra / rb == pytest.approx(8.0, rel=0.25)


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
