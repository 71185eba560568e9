"""Finite-sum densities, Asian options, mixtures and mortality calibration."""

import math
import warnings

import numpy as np
import pytest

import gbmsum as g
from gbmsum import (
    AccuracyWarning,
    DivergentExpectationError,
    NoRootError,
    ParameterError,
    pricing,
    solver,
)
from gbmsum.solver import GaussianStepOperator, _multiplier_values


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

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["s0", "strike", "rate", "dividend", "sigma",
                                       "maturity"])
    def test_rejects_non_finite(self, field, value):
        fields = dict(s0=100.0, strike=100.0, rate=0.1, dividend=0.0, sigma=0.4,
                      maturity=1.0, n_fixings=10)
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            g.AsianSpec(**{**fields, field: value})


class TestFiniteSumDensity:
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
        assert mean == pytest.approx(exact, rel=1e-6)

    def test_normalization_drift_bounded(self):
        rp = g.ReducedParams(beta=0.016, rho=0.01)
        n = 25
        F = g.finite_sum_density(n, rp)
        mass = g.survival(F, 0.0)
        bound = g.quadrature_error_bound(F)
        assert abs(mass - 1.0) <= n * max(bound, 1e-12)

    def test_step_from_beta_never_coarse(self):
        # h = min(0.01, sqrt(beta)/3), the solves' own step, as coarse as the operator allows
        with warnings.catch_warnings():
            warnings.simplefilter("error", g.CoarseGridWarning)
            F = g.finite_sum_density(3, g.ReducedParams(beta=0.0004, rho=0.0))
        assert F.grid.h == pytest.approx(0.02 / 3.0)
        assert 3.0 * F.grid.h <= math.sqrt(0.0004)


class TestPowerFloor:
    """Finite-sum powers are zeroed below pricing._POWER_FLOOR, which keeps
    subnormal products out of the applies and moves no price."""

    @pytest.mark.parametrize("sigma, n", [(0.4, 250), (0.2, 1000)])
    def test_floor_moves_no_price(self, sigma, n, monkeypatch):
        spec = g.AsianSpec(s0=100.0, strike=100.0, rate=0.1, dividend=0.0, sigma=sigma,
                           maturity=1.0, n_fixings=n)
        rp = spec.reduced()
        F = g.finite_sum_density(n, rp)
        op = GaussianStepOperator(F.grid, rp)
        prev, vals = None, _multiplier_values(F.grid, rp)
        for _ in range(n - 1):  # the unfloored powers
            prev, vals = vals, op.apply(vals)
        assert np.all((F.values == 0.0) | (F.values >= pricing._POWER_FLOOR))
        for law in (prev, vals):
            assert np.any((law > 0.0) & (law < pricing._POWER_FLOOR))
        assert np.max(np.abs(F.values - vals)) <= 1e-288
        floored = g.asian_prices(spec)
        read = []

        def unfloored_laws(*args):  # the (n-1)- and n-term laws the prices read
            read.append(args)
            return prev, vals

        monkeypatch.setattr(pricing, "_finite_sum_laws", unfloored_laws)
        unfloored = g.asian_prices(spec)
        assert read
        for key in ("call", "put", "mean_rel_err"):
            assert floored[key] == unfloored[key], key


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
        assert prices["call"] == pytest.approx(call, rel=1e-13)
        assert prices["put"] == pytest.approx(put, rel=1e-13)

    @pytest.mark.parametrize("sigma, n", [(0.2, 10), (0.4, 50), (0.6, 125)])
    def test_matches_finer_step(self, sigma, n, monkeypatch):
        # the reference runs on sqrt(beta)/12, at most a quarter of the capped step
        specs = [g.AsianSpec(s0=s0, strike=100.0, rate=0.1, dividend=0.0, sigma=sigma,
                             maturity=1.0, n_fixings=n) for s0 in (95.0, 100.0, 105.0)]
        prices = [g.asian_prices(spec) for spec in specs]
        monkeypatch.setattr(solver, "_default_step",
                            lambda beta: min(0.0025, math.sqrt(beta) / 12.0))
        for spec, price in zip(specs, prices):
            ref = g.asian_prices(spec)
            assert ref["h"] <= price["h"] / 4.0
            assert price["call"] == pytest.approx(ref["call"], rel=1e-9)
            assert price["put"] == pytest.approx(ref["put"], rel=1e-9)

    def test_one_power_pass_per_law(self, monkeypatch):
        spec = table2_spec(50, 100.0)
        applies = []
        apply = GaussianStepOperator.apply
        monkeypatch.setattr(GaussianStepOperator, "apply",
                            lambda op, values: applies.append(1) or apply(op, values))
        pricing._finite_sum_laws.cache_clear()
        g.asian_prices(spec)
        assert len(applies) == 49
        g.put_call_parity_gap(spec)
        assert len(applies) == 49


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

        assert g.asian_call(table2_spec(n, float(s0))) == pytest.approx(
            ASIAN_TABLE[(n, s0)], abs=5e-3
        )

    def test_zero_volatility_limit(self):
        spec = g.AsianSpec(s0=100.0, strike=90.0, rate=0.1, dividend=0.0, sigma=0.02,
                           maturity=1.0, n_fixings=10)
        fwd_avg = 100.0 * g.mean_finite_sum(10, 0.1, 0.1, 1.0) / 10.0
        det = math.exp(-0.1) * (fwd_avg - 90.0)
        assert g.asian_call(spec) == pytest.approx(det, abs=1e-3)

    def test_zero_strike(self):
        spec = g.AsianSpec(s0=100.0, strike=0.0, rate=0.1, dividend=0.0, sigma=0.4,
                           maturity=1.0, n_fixings=10)
        prices = g.asian_prices(spec)
        disc_mean = math.exp(-0.1) * 100.0 * g.mean_finite_sum(10, 0.1, 0.1, 1.0) / 10.0
        assert prices["put"] == 0.0
        assert prices["call"] == pytest.approx(disc_mean, rel=1e-6)
        assert g.put_call_parity_gap(spec) == pytest.approx(0.0, abs=1e-6)

    def test_parity(self):
        spec = table2_spec(50, 105.0)
        assert abs(g.put_call_parity_gap(spec)) <= 1e-4
        # the continuous-average convention differs at O(tau)
        gap_cont = g.put_call_parity_gap(spec, convention="continuous_average")
        assert abs(gap_cont) > 1e-4

    def test_no_arbitrage_shapes(self):
        strikes = [80.0, 90.0, 100.0, 110.0, 120.0]
        calls = [
            g.asian_call(g.AsianSpec(s0=100.0, strike=k, rate=0.1, dividend=0.0,
                                     sigma=0.4, maturity=1.0, n_fixings=10))
            for k in strikes
        ]
        assert all(a > b for a, b in zip(calls, calls[1:]))
        convexity = np.diff(calls, 2)
        assert np.all(convexity > -1e-8)
        lo_vol = g.asian_call(g.AsianSpec(s0=100.0, strike=100.0, rate=0.1,
                                          dividend=0.0, sigma=0.3, maturity=1.0,
                                          n_fixings=10))
        hi_vol = g.asian_call(g.AsianSpec(s0=100.0, strike=100.0, rate=0.1,
                                          dividend=0.0, sigma=0.5, maturity=1.0,
                                          n_fixings=10))
        assert hi_vol > lo_vol

    def test_grid_depends_on_law_not_strike(self):
        spec = table2_spec(500, 100.0)
        law_grid = g.finite_sum_density(500, spec.reduced()).grid
        for s0 in (95.0, 100.0, 105.0):
            assert g.asian_prices(table2_spec(500, s0))["n_points"] == law_grid.n_points

    def test_strike_beyond_grid_warns(self):
        # n K / S0 = 2000 lies beyond the law's grid top x ~ 1330
        spec = g.AsianSpec(s0=100.0, strike=20000.0, rate=0.1, dividend=0.0, sigma=0.4,
                           maturity=1.0, n_fixings=10)
        with pytest.warns(AccuracyWarning) as record:
            prices = g.asian_prices(spec)
        assert any("truncated call-payoff mass" in str(w.message) for w in record)
        assert 0.0 <= prices["call"] < 1e-50  # the closed-form last step resolves ~1e-61

    def test_strike_beyond_grid_warns_once(self):
        # a call integral of 0 is a strike beyond the grid, not a truncation-dominated result
        spec = g.AsianSpec(s0=100.0, strike=20000.0, rate=0.1, dividend=0.0, sigma=0.4,
                           maturity=1.0, n_fixings=10)
        with pytest.warns(AccuracyWarning) as record:
            g.asian_prices(spec)
        messages = [str(w.message) for w in record]
        assert len(messages) == 1
        assert "truncated call-payoff mass" in messages[0]

    def test_dividend_yield_enters_drift(self):
        spec = g.AsianSpec(s0=100.0, strike=100.0, rate=0.1, dividend=0.03,
                           sigma=0.4, maturity=1.0, n_fixings=10)
        assert spec.drift == pytest.approx(0.07)
        assert g.asian_call(spec) < g.asian_call(table2_spec(10, 100.0))

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
                price = g.asian_call(table2_spec(n, s0))
                assert abs(price - est.value) <= 3.0 * est.std_error


class TestGeometricMaturityOption:
    def test_zero_threshold_is_mean(self, solved):
        F, _ = solved(0.5, -0.5, 0.2, tol=1e-9)
        val = g.geometric_maturity_option(F, 0.0)
        exact = math.exp(-0.5) / (1.0 - 0.8 * math.exp(-0.5))
        assert val == pytest.approx(exact, rel=1e-4)

    def test_vanishes_for_large_threshold(self, solved):
        F, _ = solved(0.5, -0.5, 0.2, tol=1e-9)
        assert g.geometric_maturity_option(F, 1e5) < 1e-4

    @pytest.mark.parametrize("kappa", [-1.0, math.nan])
    def test_bad_strike_rejected(self, solved, kappa):
        F, _ = solved(0.5, -0.5, 0.2, tol=1e-9)
        with pytest.raises(ParameterError, match="kappa must be non-negative"):
            g.geometric_maturity_option(F, kappa)

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
        # a finite-sum law records no parameters, so it names the solvers
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
        assert mean == pytest.approx(exact, rel=1e-6)

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
        assert g.expectation(mix, lambda x: x) == pytest.approx(10.0, rel=1e-5)

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
