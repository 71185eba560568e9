"""Finite-sum densities, Asian options, mixtures and mortality calibration."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import gbmsum as g
from gbmsum import (
    AccuracyWarning,
    DivergentExpectationError,
    NoRootError,
    ParameterError,
    pricing,
    solver,
)
from gbmsum.distributions import _de_integrate
from gbmsum.solver import GaussianStepOperator, Grid, GridDensity


def table2_spec(n, s0):
    return g.AsianSpec(s0=s0, strike=100.0, rate=0.1, dividend=0.0, sigma=0.4,
                       maturity=1.0, n_fixings=n)


class TestAsianSpec:
    def test_derived_quantities(self):
        spec = table2_spec(10, 100.0)
        assert spec.tau == pytest.approx(0.1)
        assert spec.drift == pytest.approx(0.1)
        rp = spec.reduced()
        assert rp.beta == pytest.approx(0.016)
        assert rp.rho == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ParameterError):
            table2_spec(0, 100.0)
        with pytest.raises(ParameterError):
            g.AsianSpec(s0=-1.0, strike=100.0, rate=0.1, dividend=0.0, sigma=0.4,
                        maturity=1.0, n_fixings=10)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
    def test_fixings_must_be_an_integer(self, n):
        # a float, even a whole one, and a bool are refused before range() sees them
        with pytest.raises(ParameterError, match=f"n_fixings must be an integer >= 1, got {n!r}"):
            table2_spec(n, 100.0)

    def test_numpy_integer_fixings(self):
        spec = table2_spec(np.int64(10), 100.0)
        assert type(spec.n_fixings) is int
        assert g.asian_prices(spec)["call"] == g.asian_prices(table2_spec(10, 100.0))["call"]

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["s0", "strike", "rate", "dividend", "sigma",
                                       "maturity"])
    def test_rejects_non_finite(self, field, value):
        fields = dict(s0=100.0, strike=100.0, rate=0.1, dividend=0.0, sigma=0.4,
                      maturity=1.0, n_fixings=10)
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            g.AsianSpec(**{**fields, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("strike", -1.0, "strike must be non-negative, got -1.0"),
        ("sigma", 0.0, "sigma must be positive, got 0.0"),
        ("maturity", -1.0, "maturity must be positive, got -1.0"),
    ])
    def test_refuses_a_bad_sign(self, field, value, message):
        fields = dict(s0=100.0, strike=100.0, rate=0.1, dividend=0.0, sigma=0.4,
                      maturity=1.0, n_fixings=10)
        with pytest.raises(ParameterError, match=message):
            g.AsianSpec(**{**fields, field: value})


class TestFiniteSumDensity:
    @pytest.mark.parametrize("build", [g.finite_sum_density, g.finite_sum_density_derivative_form])
    @pytest.mark.parametrize("n", [0, 2.5, 3.0, True])
    def test_term_count_must_be_an_integer(self, build, n):
        with pytest.raises(ParameterError, match=f"n must be an integer >= 1, got {n!r}"):
            build(n, g.ReducedParams(beta=0.1, rho=0.0))

    def test_numpy_integer_term_count(self):
        rp = g.ReducedParams(beta=0.1, rho=0.0)
        assert g.finite_sum_density(np.int64(3), rp) is g.finite_sum_density(3, rp)
        derivative = g.finite_sum_density_derivative_form(np.int32(3), rp)
        assert np.array_equal(derivative.values, g.finite_sum_density_derivative_form(3, rp).values)

    def test_single_term_is_multiplier(self):
        rp = g.ReducedParams(beta=0.1, rho=0.0)
        F = g.finite_sum_density(1, rp)
        ref = np.asarray(g.multiplier_pdf(F.grid.x(), rp))
        assert np.max(np.abs(F.values[1:] - ref[1:])) == 0.0

    def test_mean_matches_geometric_series(self):
        spec = table2_spec(10, 100.0)
        F = g.finite_sum_density(10, spec.reduced())
        mean = g.expectation(F, lambda x: x)
        exact = g.mean_finite_sum(10, spec.drift, spec.tau, 1.0)
        assert mean == pytest.approx(exact, rel=1e-6, abs=0.0)

    def test_normalization_drift_bounded(self):
        rp = g.ReducedParams(beta=0.016, rho=0.01)
        n = 25
        F = g.finite_sum_density(n, rp)
        mass = g.survival(F, 0.0)
        bound = g.quadrature_error_bound(F)
        assert abs(mass - 1.0) <= n * max(bound, 1e-12)

    def test_built_once_per_law(self):
        rp = g.ReducedParams(beta=0.016, rho=0.01)
        assert g.finite_sum_density(10, rp) is g.finite_sum_density(10, rp)

    def test_stopping_plays_no_part(self):
        # the powers read beta and rho only: one law serves every p
        F = g.finite_sum_density(3, g.ReducedParams(1, 0))
        assert g.finite_sum_density(3, g.ReducedParams(1, 0, 0.5)) is F
        assert F.params == g.ReducedParams(1, 0)

    def test_step_from_beta_never_coarse(self):
        # h = min(0.01, sqrt(beta)/3), the solves' own step, as coarse as the operator allows
        with warnings.catch_warnings():
            warnings.simplefilter("error", g.CoarseGridWarning)
            F = g.finite_sum_density(3, g.ReducedParams(beta=0.0004, rho=0.0))
        assert F.grid.h == pytest.approx(0.02 / 3.0)
        assert 3.0 * F.grid.h <= math.sqrt(0.0004)


class TestPowerFloor:
    """Finite-sum powers are zeroed below solver._POWER_FLOOR, which keeps
    subnormal products out of the applies and moves no price."""

    @pytest.mark.parametrize("sigma, n", [(0.4, 250), (0.2, 1000)])
    def test_floor_moves_no_price(self, sigma, n, monkeypatch):
        spec = g.AsianSpec(s0=100.0, strike=100.0, rate=0.1, dividend=0.0, sigma=sigma,
                           maturity=1.0, n_fixings=n)
        rp = spec.reduced()
        F = g.finite_sum_density(n, rp)
        # the unfloored powers, in the law's two stages: the first _FINE_POWERS on the
        # fine grid, the rest on every other node of it, which is F's grid
        fine = pricing._finite_sum_grid(n, rp)
        op = GaussianStepOperator(fine, rp)
        vals = g.multiplier_pdf(fine.x(), rp)
        for _ in range(pricing._FINE_POWERS - 1):
            vals = op.apply(vals)
        op = GaussianStepOperator._for_wide_inputs(F.grid, rp)
        prev, vals = None, vals[: 2 * F.grid.n_points - 1 : 2]
        for _ in range(n - pricing._FINE_POWERS):
            prev, vals = vals, op.apply(vals)
        assert np.all((F.values == 0.0) | (F.values >= solver._POWER_FLOOR))
        for law in (prev, vals):
            assert np.any((law > 0.0) & (law < solver._POWER_FLOOR))
        assert np.max(np.abs(F.values - vals)) <= 1e-288
        floored = g.asian_prices(spec)
        read = []

        def unfloored_laws(*args):  # the n-term law the prices read, its last step unfloored
            read.append(args)
            return solver._Law(F.grid, vals, params=F.params, col_scale=F.col_scale, prev=prev)

        monkeypatch.setattr(pricing, "_finite_sum_laws", unfloored_laws)
        unfloored = g.asian_prices(spec)
        assert read
        for key in ("call", "put", "mean_rel_err"):
            assert floored[key] == unfloored[key], key


def fine_only_law(n, rp):
    """The n-term law with every power on the fine grid, through the public
    operator, floored as the library floors its powers."""
    grid = pricing._finite_sum_grid(n, rp)
    op = GaussianStepOperator(grid, rp)
    prev, vals = None, g.multiplier_pdf(grid.x(), rp)
    for _ in range(n - 1):
        prev, vals = vals, op.apply(vals)
        vals[vals < solver._POWER_FLOOR] = 0.0
    return solver._Law(grid, vals, params=rp, col_scale=op._col_scale, prev=prev)


def plain_powers(op, vals, count):
    """vals and its first count powers by the plain loop: apply, then zero
    every value below the floor."""
    powers = [vals]
    for _ in range(count):
        vals = op.apply(vals)
        vals[vals < solver._POWER_FLOOR] = 0.0
        powers.append(vals)
    return powers


class TestPowerPass:
    """GaussianStepOperator.powers floors only the rows each apply computed
    and hands their nonzero span to the next apply: every power is the plain
    loop's bit for bit."""

    def test_two_stage_law(self):
        n = 40
        rp = g.AsianSpec(s0=100.0, strike=100.0, rate=0.1, dividend=0.0, sigma=0.2,
                         maturity=1.0, n_fixings=n).reduced()
        fine = pricing._finite_sum_grid(n, rp)
        op = GaussianStepOperator(fine, rp)
        f1 = g.multiplier_pdf(fine.x(), rp)
        ref = plain_powers(op, f1, pricing._FINE_POWERS - 1)
        got = list(op.powers(f1, pricing._FINE_POWERS - 1))
        # the floor acts: an unfloored apply gives values below it
        tiny = op.apply(ref[1])
        assert np.any((tiny > 0.0) & (tiny < solver._POWER_FLOOR))
        m = (fine.n_points - 1) // 2 + 1
        op = GaussianStepOperator._for_wide_inputs(Grid(2.0 * fine.h, m), rp)
        ref += plain_powers(op, ref[-1][: 2 * m - 1 : 2].copy(), n - pricing._FINE_POWERS)[1:]
        got += list(op.powers(got[-1][: 2 * m - 1 : 2].copy(), n - pricing._FINE_POWERS))[1:]
        assert len(got) == len(ref) == n
        for k, (a, b) in enumerate(zip(got, ref)):
            np.testing.assert_array_equal(a, b, err_msg=f"power {k}")
        F = g.finite_sum_density(n, rp)
        assert np.array_equal(F.values, got[-1]) and np.array_equal(F.prev, got[-2])

    def test_mixture_law(self):
        rp = g.ReducedParams(beta=0.1, rho=0.0)
        weights = 0.1 * 0.9 ** np.arange(60)
        horizon = g.GeneralHorizon(weights / weights.sum())
        F = g.mixture_density(horizon, rp, u_max=16.0)
        op = GaussianStepOperator(F.grid, rp)
        powers = plain_powers(op, g.multiplier_pdf(F.grid.x(), rp), weights.size - 1)
        ref = GridDensity(F.grid, sum(w * vals for w, vals in zip(horizon.weights, powers)))
        np.testing.assert_array_equal(F.values, ref.values)


class TestCoarsePowers:
    """Past pricing._FINE_POWERS terms the finite-sum powers run on every
    other node, with prices as on the fine grid."""

    @pytest.mark.parametrize("n", [1, 2, 10, 16])
    def test_short_laws_are_fine_only(self, n):
        rp = g.AsianSpec(s0=100.0, strike=100.0, rate=0.1, dividend=0.0, sigma=0.4,
                         maturity=1.0, n_fixings=n).reduced()
        F, ref = g.finite_sum_density(n, rp), fine_only_law(n, rp)
        assert F.grid == ref.grid
        assert np.array_equal(F.values, ref.values)
        # the one-term law is f1 itself: no operator, so no column scales
        assert (F.col_scale is None) if n == 1 else np.array_equal(F.col_scale, ref.col_scale)
        assert (F.prev is None) if n == 1 else np.array_equal(F.prev, ref.prev)

    @pytest.mark.parametrize("sigma, n", [(0.2, 1000), (0.4, 1000), (0.6, 1000), (0.4, 250)])
    def test_prices_match_fine_only(self, sigma, n, monkeypatch):
        spec = g.AsianSpec(s0=100.0, strike=100.0, rate=0.1, dividend=0.0, sigma=sigma,
                           maturity=1.0, n_fixings=n)
        prices = g.asian_prices(spec)
        ref_law = fine_only_law(n, spec.reduced())
        monkeypatch.setattr(pricing, "_finite_sum_laws", lambda *args: ref_law)
        ref = g.asian_prices(spec)
        assert prices["grid"]["h"] == 2.0 * ref["grid"]["h"]
        assert prices["call"] == pytest.approx(ref["call"], rel=1e-12, abs=0.0)
        assert prices["put"] == pytest.approx(ref["put"], rel=1e-12, abs=0.0)
        assert abs(prices["mean_rel_err"]) <= 1e-12

    @pytest.mark.parametrize("n", [17, 50, 1000])
    def test_long_laws_on_twice_the_step(self, n):
        rp = g.ReducedParams(beta=0.04 / n, rho=0.1 / n)
        F = g.finite_sum_density(n, rp)
        fine = pricing._finite_sum_grid(n, rp)
        assert F.grid.h == 2.0 * solver._default_step(rp.beta)
        assert F.grid.n_points == (fine.n_points - 1) // 2 + 1
        assert F.prev.shape == F.values.shape == F.col_scale.shape

    def test_no_coarse_grid_warning_and_one_public_build(self, monkeypatch):
        builds = []
        init = GaussianStepOperator.__init__
        monkeypatch.setattr(GaussianStepOperator, "__init__",
                            lambda op, *args: builds.append(1) or init(op, *args))
        pricing._finite_sum_laws.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", g.CoarseGridWarning)
            g.finite_sum_density(1000, g.ReducedParams(beta=0.04 / 1000, rho=0.1 / 1000))
        assert len(builds) == 1


def black_scholes(s0, strike, rate, sigma, maturity):
    """Closed-form European call and put."""
    root = sigma * math.sqrt(maturity)
    d1 = (math.log(s0 / strike) + rate * maturity) / root + 0.5 * root
    d2 = d1 - root

    def ndtr(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    disc_k = strike * math.exp(-rate * maturity)
    return (s0 * ndtr(d1) - disc_k * ndtr(d2), disc_k * ndtr(-d2) - s0 * ndtr(-d1))


class TestLastStep:
    """Prices take the last step X_n = M (1 + X_{n-1}) in closed form."""

    @pytest.mark.parametrize("s0", [80.0, 100.0, 120.0])
    @pytest.mark.parametrize("sigma", [0.2, 0.6])
    def test_single_fixing_is_black_scholes(self, s0, sigma):
        spec = g.AsianSpec(s0=s0, strike=100.0, rate=0.1, dividend=0.0, sigma=sigma,
                           maturity=1.0, n_fixings=1)
        prices = g.asian_prices(spec)
        call, put = black_scholes(s0, 100.0, 0.1, sigma, 1.0)
        assert prices["call"] == pytest.approx(call, rel=1e-13, abs=0.0)
        assert prices["put"] == pytest.approx(put, rel=1e-13, abs=0.0)

    def test_single_fixing_builds_no_operator(self, monkeypatch):
        # the one-term law is f1 itself; the prices are Black-Scholes's even where a
        # kernel prefactor e^(beta - rho) = e^1600 would overflow
        monkeypatch.setattr(GaussianStepOperator, "_build",
                            lambda *args: pytest.fail("an operator was built"))
        pricing._finite_sum_laws.cache_clear()
        for sigma in (0.4, 40.0):
            spec = g.AsianSpec(s0=100.0, strike=100.0, rate=0.1, dividend=0.0, sigma=sigma,
                               maturity=1.0, n_fixings=1)
            F = g.finite_sum_density(1, spec.reduced())
            assert F.col_scale is None and F.prev is None
            prices = g.asian_prices(spec)
            call, put = black_scholes(100.0, 100.0, 0.1, sigma, 1.0)
            assert prices["call"] == pytest.approx(call, rel=1e-13, abs=0.0)
            assert prices["put"] == pytest.approx(put, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("rate, dividend, message", [
        (800.0, 0.0, r"mean of the 10-term sum, .* at r tau = 80, overflows a float"),
        (-800.0, 0.0, r"discount factor e\^\(-rT\) = e\^800 overflows a float"),
        (800.0, 800.0, r"continuous-average growth e\^\(rT\) = e\^800 overflows a float"),
    ], ids=["mean", "discount", "continuous-mean"])
    def test_overflowing_rate_is_named(self, rate, dividend, message):
        spec = g.AsianSpec(s0=100.0, strike=100.0, rate=rate, dividend=dividend, sigma=0.4,
                           maturity=1.0, n_fixings=10)
        with pytest.raises(ParameterError, match=message):
            g.asian_prices(spec)

    def test_single_fixing_far_strike_is_silent(self):
        # the call of ~4.8e-47 reads no law, so no grid check applies to it
        spec = g.AsianSpec(s0=100.0, strike=2000.0, rate=0.1, dividend=0.0, sigma=0.2,
                           maturity=1.0, n_fixings=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prices = g.asian_prices(spec)
        call, _ = black_scholes(100.0, 2000.0, 0.1, 0.2, 1.0)
        assert prices["call"] == pytest.approx(call, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("sigma, n", [(0.2, 10), (0.4, 50), (0.6, 125)])
    def test_matches_finer_step(self, sigma, n, monkeypatch):
        # the reference runs on sqrt(beta)/12, at most a quarter of the capped step
        specs = [g.AsianSpec(s0=s0, strike=100.0, rate=0.1, dividend=0.0, sigma=sigma,
                             maturity=1.0, n_fixings=n) for s0 in (95.0, 100.0, 105.0)]
        prices = [g.asian_prices(spec) for spec in specs]
        monkeypatch.setattr(solver, "_default_step",
                            lambda beta: min(0.0025, math.sqrt(beta) / 12.0))
        # the finite-sum cache is keyed by (n, law), not by step: clear it before the
        # finer prices, and after them, so that no later test reads a finer law
        pricing._finite_sum_laws.cache_clear()
        refs = [g.asian_prices(spec) for spec in specs]
        pricing._finite_sum_laws.cache_clear()
        for price, ref in zip(prices, refs):
            assert ref["grid"]["h"] <= price["grid"]["h"] / 4.0
            assert price["call"] == pytest.approx(ref["call"], rel=1e-9, abs=0.0)
            assert price["put"] == pytest.approx(ref["put"], rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("sigma, n", [(0.4, 10), (0.2, 250), (0.6, 2), (0.4, 1)])
    def test_put_is_the_integral_of_the_cdf(self, sigma, n):
        # for X >= 0, E[(kappa - X)+] = int_0^kappa P(X <= y) dy: the prices and
        # left_tail_cdf read one last step, so the two agree to rounding
        spec = g.AsianSpec(s0=100.0, strike=100.0, rate=0.1, dividend=0.0, sigma=sigma,
                           maturity=1.0, n_fixings=n)
        kappa = n * spec.strike / spec.s0
        put = g.asian_prices(spec)["put"] / (math.exp(-spec.rate * spec.maturity) * spec.s0 / n)
        law = g.finite_sum_density(n, spec.reduced())
        integral = _de_integrate(lambda y: solver.left_tail_cdf(law, y), 0.0, kappa)
        assert put == pytest.approx(integral, rel=1e-12, abs=0.0)

    def test_one_power_pass_per_law(self, monkeypatch):
        # n - 1 applies, counted as perfbench's tracer counts them: it wraps the class
        # attribute and reads a call's size from the positional arguments alone, so a
        # power pass hands its span to apply by keyword
        spec = table2_spec(50, 100.0)
        sizes = []
        apply = GaussianStepOperator.apply

        def traced(*args, **kwargs):
            sizes.append((lambda op, values: values.size)(*args))
            return apply(*args, **kwargs)

        monkeypatch.setattr(GaussianStepOperator, "apply", traced)
        pricing._finite_sum_laws.cache_clear()
        g.asian_prices(spec)
        assert len(sizes) == 49
        g.put_call_parity_gap(spec)
        assert len(sizes) == 49


class TestDerivativeForm:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_matches_operator_powers(self, n):
        rp = g.ReducedParams(beta=0.1, rho=0.0)
        a = g.finite_sum_density(n, rp)
        b = g.finite_sum_density_derivative_form(n, rp)
        assert np.max(np.abs(a.values - b.values)) <= 1e-6

    def test_term_identity(self):
        # d^k/dp^k at p=1 equals (-1)^(k-1) k! T^(k-1) (1 - T) f1
        rp = g.ReducedParams(beta=0.2, rho=-0.05)
        F1 = g.finite_sum_density(1, rp)
        op = GaussianStepOperator(F1.grid, rp)
        f1 = F1.values
        deriv = f1 - op.apply(f1)  # k = 1
        for k in (2, 3):
            deriv = -k * op.apply(deriv)
        lhs = deriv  # k = 3 unscaled derivative
        rhs = op.apply(op.apply(f1 - op.apply(f1))) * math.factorial(3)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


class TestAsianPricing:
    @pytest.mark.parametrize("n,s0", [(10, 100), (250, 95)])
    def test_table_values(self, n, s0):
        from conftest import ASIAN_TABLE

        assert g.asian_prices(table2_spec(n, float(s0)))["call"] == pytest.approx(
            ASIAN_TABLE[(n, s0)], abs=5e-3
        )

    def test_zero_volatility_limit(self):
        spec = g.AsianSpec(s0=100.0, strike=90.0, rate=0.1, dividend=0.0, sigma=0.02,
                           maturity=1.0, n_fixings=10)
        fwd_avg = 100.0 * g.mean_finite_sum(10, 0.1, 0.1, 1.0) / 10.0
        det = math.exp(-0.1) * (fwd_avg - 90.0)
        assert g.asian_prices(spec)["call"] == pytest.approx(det, abs=1e-3)

    def test_zero_strike(self):
        spec = g.AsianSpec(s0=100.0, strike=0.0, rate=0.1, dividend=0.0, sigma=0.4,
                           maturity=1.0, n_fixings=10)
        prices = g.asian_prices(spec)
        disc_mean = math.exp(-0.1) * 100.0 * g.mean_finite_sum(10, 0.1, 0.1, 1.0) / 10.0
        assert prices["put"] == 0.0
        assert prices["call"] == pytest.approx(disc_mean, rel=1e-6, abs=0.0)
        assert g.put_call_parity_gap(spec) == pytest.approx(0.0, abs=1e-6)

    def test_parity(self):
        spec = table2_spec(50, 105.0)
        assert abs(g.put_call_parity_gap(spec)) <= 1e-4
        # the continuous-average convention differs at O(tau)
        gap_cont = g.put_call_parity_gap(spec, convention="continuous_average")
        assert abs(gap_cont) > 1e-4

    def test_record_holds_prices_gaps_and_grid(self):
        # the record asian_report.json holds, spec and MC check apart; each gap is
        # (C - P) - e^-rT (E[average] - K) with its own mean of the average
        spec = table2_spec(50, 105.0)
        prices = g.asian_prices(spec)
        assert set(prices) == {"call", "put", "parity_gap_discrete",
                               "parity_gap_continuous_average", "mean_rel_err", "grid"}
        law_grid = g.finite_sum_density(50, spec.reduced()).grid
        assert prices["grid"] == {"h": law_grid.h, "u_max": law_grid.u_max,
                                  "n_points": law_grid.n_points}
        forward = prices["call"] - prices["put"]
        discrete_avg = 105.0 * g.mean_finite_sum(50, 0.1, 0.02, 1.0) / 50
        continuous_avg = 105.0 / 0.1 * math.expm1(0.1)
        for convention, avg in (("discrete", discrete_avg), ("continuous_average",
                                                             continuous_avg)):
            gap = prices["parity_gap_" + convention]
            assert gap == pytest.approx(forward - math.exp(-0.1) * (avg - 100.0),
                                        rel=1e-12, abs=1e-12)
            assert g.put_call_parity_gap(spec, convention) == gap

    def test_zero_rate_continuous_average_is_spot(self):
        spec = g.AsianSpec(s0=100.0, strike=100.0, rate=0.0, dividend=0.0, sigma=0.4,
                           maturity=1.0, n_fixings=10)
        prices = g.asian_prices(spec)
        assert prices["parity_gap_continuous_average"] == prices["call"] - prices["put"]

    def test_unknown_parity_convention(self, monkeypatch):
        # the convention is checked before any price is computed
        monkeypatch.setattr(pricing, "asian_prices", None)
        with pytest.raises(ParameterError, match="unknown parity convention 'arithmetic'"):
            g.put_call_parity_gap(table2_spec(10, 100.0), convention="arithmetic")

    def test_no_arbitrage_shapes(self):
        strikes = [80.0, 90.0, 100.0, 110.0, 120.0]
        calls = [
            g.asian_prices(g.AsianSpec(s0=100.0, strike=k, rate=0.1, dividend=0.0,
                                       sigma=0.4, maturity=1.0, n_fixings=10))["call"]
            for k in strikes
        ]
        assert all(a > b for a, b in zip(calls, calls[1:]))
        convexity = np.diff(calls, 2)
        assert np.all(convexity > -1e-8)
        lo_vol = g.asian_prices(g.AsianSpec(s0=100.0, strike=100.0, rate=0.1,
                                            dividend=0.0, sigma=0.3, maturity=1.0,
                                            n_fixings=10))["call"]
        hi_vol = g.asian_prices(g.AsianSpec(s0=100.0, strike=100.0, rate=0.1,
                                            dividend=0.0, sigma=0.5, maturity=1.0,
                                            n_fixings=10))["call"]
        assert hi_vol > lo_vol

    def test_grid_depends_on_law_not_strike(self):
        spec = table2_spec(500, 100.0)
        law_grid = g.finite_sum_density(500, spec.reduced()).grid
        for s0 in (95.0, 100.0, 105.0):
            assert g.asian_prices(table2_spec(500, s0))["grid"]["n_points"] == law_grid.n_points

    def test_strike_beyond_grid_warns(self):
        # n K / S0 = 2000 lies beyond the law's grid top x ~ 1330
        spec = g.AsianSpec(s0=100.0, strike=20000.0, rate=0.1, dividend=0.0, sigma=0.4,
                           maturity=1.0, n_fixings=10)
        with pytest.warns(AccuracyWarning) as record:
            prices = g.asian_prices(spec)
        assert any("truncated call-payoff mass" in str(w.message) for w in record)
        assert 0.0 <= prices["call"] < 1e-50  # the closed-form last step resolves ~1e-61

    def test_strike_beyond_grid_warns_once(self):
        # n K / S0 = 2000 and 400 lie above the grid tops x ~ 1338 and ~ 272: the
        # strike check is the prices' one truncation check
        for n in (10, 2):
            spec = g.AsianSpec(s0=100.0, strike=20000.0, rate=0.1, dividend=0.0, sigma=0.4,
                               maturity=1.0, n_fixings=n)
            with pytest.warns(AccuracyWarning) as record:
                g.asian_prices(spec)
            messages = [str(w.message) for w in record]
            assert len(messages) == 1
            assert "truncated call-payoff mass" in messages[0]

    def test_strikes_on_grid_are_silent(self):
        for strike in (100.0, 200.0, 400.0):
            spec = g.AsianSpec(s0=100.0, strike=strike, rate=0.1, dividend=0.0, sigma=0.4,
                               maturity=1.0, n_fixings=10)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g.asian_prices(spec)

    def test_dividend_yield_enters_drift(self):
        spec = g.AsianSpec(s0=100.0, strike=100.0, rate=0.1, dividend=0.03,
                           sigma=0.4, maturity=1.0, n_fixings=10)
        assert spec.drift == pytest.approx(0.07)
        assert g.asian_prices(spec)["call"] < g.asian_prices(table2_spec(10, 100.0))["call"]

    def test_prices_against_mc(self):
        # every tabulated price vs the simulation oracle, three strikes per
        # horizon sharing one path set
        for n in (10, 25, 50, 125, 250, 500, 1000):
            spec0 = table2_spec(n, 100.0)
            rp = spec0.reduced()
            disc = math.exp(-0.1)
            kappas = {s0: n * 100.0 / s0 for s0 in (95.0, 100.0, 105.0)}

            def payoffs(x):
                return np.stack(
                    [s0 / n * disc * np.maximum(x - kap, 0.0)
                     for s0, kap in kappas.items()], axis=1,
                )

            cfg = g.McConfig(n_paths=1_000_000, seed=77, antithetic=True,
                             horizon=g.FixedHorizon(n))
            ests = g.simulate_sum(rp, cfg, payoffs)
            for (s0, _), est in zip(kappas.items(), ests):
                price = g.asian_prices(table2_spec(n, s0))["call"]
                assert abs(price - est.value) <= 3.0 * est.std_error


class TestGeometricMaturityOption:
    def test_zero_threshold_is_mean(self, solved):
        F, _ = solved(0.5, -0.5, 0.2, tol=1e-9)
        val = g.geometric_maturity_option(F, 0.0)
        exact = math.exp(-0.5) / (1.0 - 0.8 * math.exp(-0.5))
        assert val == pytest.approx(exact, rel=1e-4, abs=0.0)

    def test_vanishes_for_large_threshold(self, solved):
        F, _ = solved(0.5, -0.5, 0.2, tol=1e-9)
        assert g.geometric_maturity_option(F, 1e5) < 1e-4

    @pytest.mark.parametrize("beta, rho, p", [(0.5, -0.5, 0.2), (1.0, -0.1, 0.05),
                                              (0.1, 0.0, 0.01)])
    def test_strike_beyond_grid_top_is_closed_form(self, solved, beta, rho, p):
        # a strike at or above x_max leaves the grid no payoff: the call is the tail
        # closure alone, c kappa^(1-mu) / (mu - 1), without a quadrature warning
        F, _ = solved(beta, rho, p, tol=1e-9, max_iter=2000)
        x_max, mu, c = float(F.grid.x()[-1]), F.tail.exponent, F.tail.constant
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for level in (1.0, 1.01, 2.0, 4.0, 4.1, 236.0):
                kappa = level * x_max
                assert g.geometric_maturity_option(F, kappa) == pytest.approx(
                    c * kappa ** (1.0 - mu) / (mu - 1.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kappa, message", [(-1.0, "kappa must be non-negative"),
                                                (math.nan, "kappa must be finite")],
                             ids=["-1.0", "nan"])
    def test_bad_strike_rejected(self, solved, kappa, message):
        F, _ = solved(0.5, -0.5, 0.2, tol=1e-9)
        with pytest.raises(ParameterError, match=message):
            g.geometric_maturity_option(F, kappa)

    def test_infinite_strike_rejected(self, solved):
        F, _ = solved(0.5, -0.5, 0.2, tol=1e-9)
        with pytest.raises(ParameterError, match="kappa must be finite, got inf"):
            g.geometric_maturity_option(F, math.inf)

    def test_mean_infinite_tail_rejected(self, solved):
        F, _ = solved(1.0, 0.1, 0.05, u_max=10.0)  # mu = 0.91
        with pytest.raises(DivergentExpectationError):
            g.geometric_maturity_option(F, 10.0)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_needs_stopping_probability_inside(self, solved, p):
        F, _ = solved(1.0, -0.1, p)
        with pytest.raises(ParameterError, match="0 < p < 1"):
            g.geometric_maturity_option(F, 1.0)

    def test_unsolved_law_rejected(self):
        # a finite-sum law is no fixed point, so it names the solvers
        F = g.finite_sum_density(3, g.ReducedParams(beta=1.0, rho=0.0))
        with pytest.raises(ParameterError, match="solve_geometric"):
            g.geometric_maturity_option(F, 1.0)

    def test_against_mc(self, solved):
        rp = g.ReducedParams(beta=1.0, rho=0.0, p=0.1)
        F, _ = solved(1.0, 0.0, 0.1, tol=1e-9, u_max=25.0)
        val = g.geometric_maturity_option(F, 10.0)
        cfg = g.McConfig(n_paths=2_000_000, seed=13, antithetic=True,
                         horizon=g.GeometricHorizon(0.1))
        est = g.simulate_sum(rp, cfg, lambda x: np.maximum(x - 10.0, 0.0))
        # heavy tail (mu ~ 1.18): the sample mean is biased low, so allow a
        # generous band rather than a strict z-test
        assert est.value < val
        assert abs(val - est.value) <= 12.0 * est.std_error


class TestMixture:
    def test_point_mass_matches_finite_sum(self):
        rp = g.ReducedParams(beta=0.1, rho=0.0)
        weights = np.zeros(4)
        weights[3] = 1.0
        ref = g.finite_sum_density(4, rp)
        mix = g.mixture_density(g.GeneralHorizon(weights), rp, u_max=ref.grid.u_max)
        assert np.max(np.abs(mix.values - ref.values)) < 1e-14

    def test_two_point_mean_linearity(self):
        rp = g.ReducedParams(beta=0.1, rho=0.01)
        mix = g.mixture_density(g.GeneralHorizon([0.3, 0.0, 0.7]), rp, u_max=8.0)
        mean = g.expectation(mix, lambda x: x)
        exact = 0.3 * g.mean_finite_sum(1, 0.01, 1.0, 1.0) + 0.7 * g.mean_finite_sum(
            3, 0.01, 1.0, 1.0
        )
        assert mean == pytest.approx(exact, rel=1e-6, abs=0.0)

    def test_truncated_geometric_matches_stopped_solve(self, solved):
        p = 0.1
        Fg, _ = solved(1.0, 0.0, p, tol=1e-9, u_max=16.0)
        w = p * (1.0 - p) ** np.arange(2000)
        w /= w.sum()
        # the power tail (exponent ~1.18) holds mean far beyond u_max = 16
        with pytest.warns(AccuracyWarning, match="cuts the law's mass"):
            mix = g.mixture_density(
                g.GeneralHorizon(w), g.ReducedParams(beta=1.0, rho=0.0), u_max=16.0
            )
        K = 10.0
        assert g.survival(mix, K) == pytest.approx(g.survival(Fg, K), abs=5e-4)

    def test_span_that_cuts_the_mean_warns(self):
        # the README weights: the mean is low by 3.1e-3 relative at u_max = 8, 7.9e-7 at 16
        weights = 0.1 * 0.9 ** np.arange(400)
        horizon = g.GeneralHorizon(weights / weights.sum())
        rp = g.ReducedParams(beta=0.1, rho=0.0)
        with pytest.warns(AccuracyWarning, match="mixture grid mean misses the exact mean 10"):
            g.mixture_density(horizon, rp, u_max=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AccuracyWarning)
            mix = g.mixture_density(horizon, rp, u_max=16.0)
        assert g.expectation(mix, lambda x: x) == pytest.approx(10.0, rel=1e-5, abs=0.0)

    def test_requires_general_model(self):
        with pytest.raises(ParameterError):
            g.mixture_density(g.GeometricHorizon(0.1), g.ReducedParams(beta=0.1, rho=0.0))


class TestMortalityModel:
    """The general mortality model of mixture_density is a GeneralHorizon."""

    def test_weight_validation(self):
        with pytest.raises(ParameterError):
            g.GeneralHorizon([0.5, 0.4])  # sums to 0.9

    def test_weights_renormalized_exactly(self):
        m = g.GeneralHorizon([0.25, 0.25, 0.25, 0.25 + 1e-12])
        assert sum(m.weights) == pytest.approx(1.0, abs=1e-15)


class TestMakehamCalibration:
    def test_life_expectancy_value(self):
        # oracle: arbitrary-precision quadrature gives p = 0.0644249588
        assert g.makeham_match_p(65.0, "life_expectancy") == pytest.approx(
            0.06443, abs=5e-5
        )

    @pytest.mark.parametrize("age", [0.0, 20.0, 65.0, 80.0, 100.0, 106.0])
    def test_life_expectancy_matches_quad(self, age):
        a, b, beta = 0.0007, 5e-5, 0.0921

        def death_age_density(t):
            cum = a * (t - age) + b / beta * (math.exp(beta * t) - math.exp(beta * age))
            return t * (a + b * math.exp(beta * t)) * math.exp(-cum)

        expect, _ = quad(death_age_density, age, 130.0, epsabs=0.0, epsrel=1e-13, limit=400)
        assert g.makeham_match_p(age, "life_expectancy") == pytest.approx(
            1.0 / (expect - age), rel=1e-11, abs=0.0)

    def test_hazard_rate_value(self):
        # one-year death probability at 65: p = 0.0213157277
        assert g.makeham_match_p(65.0, "hazard_rate") == pytest.approx(0.02132, abs=5e-5)

    def test_zero_hazard_errors(self):
        with pytest.raises(NoRootError):
            g.makeham_match_p(65.0, "life_expectancy", a=0.0, b=0.0)

    def test_age_and_method_validation(self):
        with pytest.raises(ParameterError):
            g.makeham_match_p(150.0, "hazard_rate")
        with pytest.raises(ParameterError):
            g.makeham_match_p(65.0, "nearest_neighbor")

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param(dict(a=-1e-4), "must be non-negative", id="a-negative"),
        pytest.param(dict(b=-1e-5), "must be non-negative", id="b-negative"),
        pytest.param(dict(a=math.nan), "a must be finite, got nan", id="a-nan"),
        pytest.param(dict(beta=math.nan), "beta must be finite, got nan", id="beta-nan"),
    ])
    def test_makeham_parameters_refused(self, kwargs, message):
        for method in ("life_expectancy", "hazard_rate"):
            with pytest.raises(ParameterError, match=message):
                g.makeham_match_p(65.0, method, **kwargs)
