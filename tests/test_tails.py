"""Tail exponents, tail prefactors, shortfall and Value-at-Risk."""

import json
import math
import warnings

import numpy as np
import pytest

import gbmsum as g
from gbmsum import ParameterError, RegimeWarning, cli, solver, tails


class TestExponents:
    def test_infinite_zero_drift(self):
        assert g.tail_exponent(g.ReducedParams(beta=0.7, rho=0.0)) == 1.0

    def test_infinite_substitution(self):
        assert g.tail_exponent(g.ReducedParams(beta=1.0, rho=-0.1)) == pytest.approx(1.2)

    def test_infinite_infeasible(self):
        with pytest.raises(ParameterError):
            g.tail_exponent(g.ReducedParams(beta=1.0, rho=0.5))

    def test_geometric_frozen(self):
        mu = g.tail_exponent(g.ReducedParams(beta=1.0, rho=0.0, p=0.1))
        assert mu == pytest.approx(1.1787643415174758, rel=1e-12, abs=0.0)

    def test_geometric_reduces_to_infinite(self):
        rp0 = g.ReducedParams(beta=1.0, rho=-0.1)
        mu = g.tail_exponent(g.ReducedParams(beta=1.0, rho=-0.1, p=1e-12))
        assert mu == pytest.approx(g.tail_exponent(rp0), abs=1e-7)

    def test_geometric_monotonicity(self):
        base = g.tail_exponent(g.ReducedParams(beta=1.0, rho=0.0, p=0.1))
        assert g.tail_exponent(g.ReducedParams(beta=1.0, rho=0.1, p=0.1)) < base
        assert g.tail_exponent(g.ReducedParams(beta=1.0, rho=0.0, p=0.2)) > base

    def test_geometric_exceeds_infinite_bound(self):
        rp = g.ReducedParams(beta=1.0, rho=-0.1, p=0.05)
        assert g.tail_exponent(rp) > g.tail_exponent(g.ReducedParams(1.0, -0.1))

    def test_p_zero_is_infinite_sum_formula(self):
        for beta, rho in ((1.0, -0.1), (0.5, -0.1), (0.1, -0.1), (0.3, 0.1)):
            mu = g.tail_exponent(g.ReducedParams(beta=beta, rho=rho))
            assert mu == pytest.approx(1.0 - 2.0 * rho / beta, rel=1e-14, abs=0.0)

    def test_p_one_has_no_power_tail(self):
        with pytest.raises(ParameterError):
            g.tail_exponent(g.ReducedParams(beta=1.0, rho=0.0, p=1.0))

    @pytest.mark.parametrize("n, message", [
        (0, r"n must be (an integer )?>= 1, got 0"),
        (2.5, "n must be an integer >= 1, got 2.5"),
        (True, "n must be an integer >= 1, got True"),
    ], ids=["zero", "fractional", "bool"])
    def test_finite_sum_term_count_refused(self, n, message):
        with pytest.raises(ParameterError, match=message):
            g.finite_sum_right_tail_coefficient(g.ReducedParams(beta=1.0, rho=0.0), n)

    def test_matches_exponential_time_shape_as_step_vanishes(self):
        sigma, m, lam = 1.0, -0.3, 0.5
        beta_g = g.yor_params(sigma, m, lam).beta_g
        tau = 1e-3
        mu = g.tail_exponent(
            g.ReducedParams(beta=sigma**2 * tau, rho=m * tau, p=lam * tau)
        )
        assert mu == pytest.approx(beta_g, abs=1e-3)


class TestTailConstants:
    def test_zero_drift_closed_form(self, solved):
        F, _ = solved(1.0, 0.0, tol=1e-9)
        # numerator expectation is the total mass, so c = 2/beta exactly
        assert g.tail_constant(F) == pytest.approx(2.0, rel=1e-9, abs=0.0)

    def test_zero_drift_density_tail(self, solved):
        # x-space density tail ~ c / x^2 with c = 2/beta
        rp = g.ReducedParams(beta=1.0, rho=0.0)
        F, _ = solved(1.0, 0.0, tol=1e-9)
        x = F.grid.x()
        sel = x > 0.1 * x[-1]
        implied = F.values[sel] * x[sel] ** 2
        assert np.median(implied) == pytest.approx(2.0, rel=0.01, abs=0.0)

    def test_plateau_matches_renewal_formula(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-9)
        c = g.tail_constant(F)
        fitted_exp, plateau_c, variation = g.fit_survival_powerlaw(F)
        assert plateau_c == pytest.approx(c, rel=0.05, abs=0.0)
        assert variation < 0.05

    def test_geometric_plateau(self, solved):
        F, _ = solved(1.0, 0.0, 0.1, tol=1e-9)
        c = g.tail_constant(F)
        _, plateau_c, variation = g.fit_survival_powerlaw(F)
        assert plateau_c == pytest.approx(c, rel=0.05, abs=0.0)
        assert variation < 0.05

    def test_short_grid_fits_its_last_20_points(self):
        # 51 points, 12 of them in the last decade: the fits read the last 20
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F, _ = g.solve_infinite(g.ReducedParams(1.0, -0.1), h=0.2, u_max=10.0)
            fitted, _, _ = g.fit_survival_powerlaw(F)
        window = solver._tail_window(F.grid)
        assert F.grid.n_points == 51
        assert window.sum() == 20 and window[-20:].all()
        assert fitted == pytest.approx(1.2, rel=1e-3, abs=0.0)

    def test_plateau_at_a_large_exponent_is_finite(self, solved):
        # mu = 207.7: S(x) x^mu as a direct power overflowed, and the plateau read
        # inf and its variation NaN after numpy warnings; in logs both are finite
        F, _ = solved(0.001, -0.1, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = g.fit_survival_powerlaw(F)
        assert all(math.isfinite(v) and v > 0.0 for v in fit)

    def test_plateau_past_the_largest_float_is_named(self, solved):
        F, _ = solved(0.001, -0.1, 0.5)
        steep = g.GridDensity(F.grid, F.values,
                              tail=g.TailAsymptote(10.0 * F.tail.exponent, F.tail.constant))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="at mu = 2076.75 overflows a float$"):
                g.fit_survival_powerlaw(steep)

    def test_geometric_rejects_p_one(self, solved):
        F, _ = solved(0.5, 0.1, 1.0)
        with pytest.raises(ParameterError):
            g.tail_constant(F)

    @pytest.mark.parametrize("beta, rho, p, node", [(0.00145, -0.198, 0.00278, "12.3298"),
                                                    (0.001, -0.1, 0.5, "29.5694")])
    def test_overflowing_payoff_names_the_grid_node(self, solved, beta, rho, p, node):
        # at mu = 274 and 208 (1+x)^mu overflows on the grid: the constant came out
        # NaN and inf after numpy warnings; now one named error and no warning
        F, _ = solved(beta, rho, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=f"not finite at the grid node x = {node}$"):
                g.tail_constant(F)

    def test_payoff_overflowing_beyond_the_grid_is_named(self, solved):
        # mu = 93.4: the gap grows like x^92.4, below the exponent, so the tail
        # converges; but it overflows past x ~ 2000, short of the closure's probes,
        # where the growth once read as x^inf and the law as divergent
        F, _ = solved(0.014294, -0.660359)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="payoff is not finite beyond x = 1997.51,"):
                g.tail_constant(F)

    def test_continuity_to_infinite_constant(self, solved):
        Fi, _ = solved(1.0, -0.1, tol=1e-9, u_max=16.0)
        ci = g.tail_constant(Fi)
        rp = g.ReducedParams(beta=1.0, rho=-0.1, p=1e-4)
        Fg, _ = g.solve_geometric(rp, tol=1e-9, u_max=16.0)
        cg = g.tail_constant(Fg)
        assert cg == pytest.approx(ci, rel=0.02, abs=0.0)

    @pytest.mark.parametrize("mu", [0.05, 0.3, 1.2, 2.035, 3.0, 10.0])
    def test_power_gap_against_mpmath(self, mu):
        # (1+x)^mu - x^mu cancels in its direct form far above x = 1
        mp = pytest.importorskip("mpmath")
        x = np.array([0.0, 1e-6, 0.5, 1.0, 1e5, 9.99e5, 1e8])
        with mp.workdps(40):
            ref = [float((1 + mp.mpf(v)) ** mu - mp.mpf(v) ** mu) for v in x]
        np.testing.assert_allclose(tails._stable_power_gap(x, mu), ref, rtol=1e-14, atol=0.0)


class TestLeftTailCoefficients:
    def test_values(self):
        assert g.left_tail_coefficient(g.ReducedParams(beta=1.0, rho=0.0, p=0.1)) == -0.5
        assert g.left_tail_coefficient(g.ReducedParams(beta=0.25, rho=-0.1)) == -2.0

    def test_right_tail_finite(self):
        rp = g.ReducedParams(beta=0.25, rho=0.0)
        assert g.finite_sum_right_tail_coefficient(rp, 8) == pytest.approx(-0.25)

    def test_fitted_coefficient(self, solved):
        rp = g.ReducedParams(beta=1.0, rho=-0.1)
        F, _ = solved(1.0, -0.1, tol=1e-9)
        coef = g.fit_left_tail_coefficient(F, rp)
        assert coef == pytest.approx(-0.5, rel=0.15, abs=0.0)

    def test_underflowing_level_is_named(self, solved):
        # at beta = 0.02, P(X <= eps) underflows to 0 at the 10 levels up to 4.3e-3
        F, _ = solved(0.02, -0.01, 0.01, tol=1e-9, max_iter=2000)
        with pytest.raises(ParameterError, match=r"P\(X <= 0\.00432876\) underflows a double"):
            g.fit_left_tail_coefficient(F, g.ReducedParams(beta=0.02, rho=-0.01, p=0.01))


class TestShortfall:
    def test_table_values(self, solved):
        F, _ = solved(1.0, 0.0, 0.1, tol=1e-9)
        assert g.shortfall_probability(F, 10.0, 0.0) == pytest.approx(0.10852, abs=2e-3)
        assert g.shortfall_continuous(1.0, 0.0, 0.1, 10.0, 0.0) == pytest.approx(
            0.10658, abs=5e-4
        )

    def test_vanishes_for_large_buffer(self, solved):
        F, _ = solved(1.0, 0.0, 0.1, tol=1e-9)
        assert g.shortfall_probability(F, 10.0, 1e6) < 1e-4

    def test_validation(self, solved):
        F, _ = solved(1.0, 0.0, 0.1, tol=1e-9)
        with pytest.raises(ParameterError):
            g.shortfall_probability(F, -1.0)
        with pytest.raises(ParameterError):
            g.shortfall_continuous(1.0, 0.0, 0.1, 10.0, q=-0.5)

    @pytest.mark.parametrize("K,q", [(math.nan, 0.0), (math.inf, 0.0), (10.0, math.nan)])
    def test_rejects_non_finite(self, solved, K, q):
        F, _ = solved(1.0, 0.0, 0.1, tol=1e-9)
        with pytest.raises(ParameterError, match="must be finite"):
            g.shortfall_probability(F, K, q)
        with pytest.raises(ParameterError, match="must be finite"):
            g.shortfall_continuous(1.0, 0.0, 0.1, K, q)


class TestValueAtRisk:
    def test_inversion_fixed_point(self):
        ta = g.TailAsymptote(exponent=1.5, constant=0.037)
        assert g.value_at_risk(ta, 0.037).threshold == pytest.approx(1.0)

    def test_power_law_scaling(self):
        ta = g.TailAsymptote(exponent=1.3, constant=2.0)
        k1 = g.value_at_risk(ta, 0.01).threshold
        k2 = g.value_at_risk(ta, 0.005).threshold
        assert k2 / k1 == pytest.approx(2.0 ** (1.0 / 1.3), rel=1e-12, abs=0.0)

    def test_roundtrip_on_density(self, solved):
        rp = g.ReducedParams(beta=1.0, rho=0.0, p=0.1)
        F, _ = solved(1.0, 0.0, 0.1, tol=1e-9)
        ta = g.TailAsymptote(g.tail_exponent(rp), g.tail_constant(F))
        var = g.value_at_risk(ta, 0.01, density=F)
        assert var.method == "tail_inversion"
        assert g.survival(F, var.threshold) == pytest.approx(0.01, rel=0.1, abs=0.0)

    def test_grid_inversion_inside_body(self, solved):
        rp = g.ReducedParams(beta=1.0, rho=0.0, p=0.1)
        F, _ = solved(1.0, 0.0, 0.1, tol=1e-9)
        ta = g.TailAsymptote(g.tail_exponent(rp), g.tail_constant(F))
        with pytest.warns(RegimeWarning):
            var = g.value_at_risk(ta, 0.5, density=F)
        assert var.method == "grid_inversion"
        assert g.survival(F, var.threshold) == pytest.approx(0.5, abs=1e-3)

    def test_level_validation(self):
        ta = g.TailAsymptote(1.2, 2.0)
        with pytest.raises(ParameterError):
            g.value_at_risk(ta, 0.0)

    def test_threshold_beyond_the_largest_float(self):
        # mu = 0.005 is the law (1, 0.4975)'s: 100^200 overflows a float
        with pytest.raises(ParameterError, match="overflows.*beyond the largest float"):
            g.value_at_risk(g.TailAsymptote(0.005, 1.0), 0.01)

    @pytest.mark.parametrize("exponent, constant", [(1.2, math.inf), (math.inf, 1.0),
                                                    (math.nan, 1.0), (1.2, math.nan)])
    def test_asymptote_must_be_finite(self, exponent, constant):
        with pytest.raises(ParameterError, match="must be finite"):
            g.TailAsymptote(exponent, constant)


class TestRiskRecord:
    def test_serializable_shape(self, solved):
        # the annuity command's risk record, built from one solved law
        F, report = solved(1.0, 0.0, 0.1, tol=1e-9)
        _, rec = cli._annuity_rows(solver._exact_mean(F.params), F, report, [0.0], 0.01)
        assert set(rec) == {"exponent", "constant", "shortfall", "var_threshold",
                            "method_flags", "report", "mean"}
        assert rec["method_flags"]["var"] == "tail_inversion"
        assert json.loads(json.dumps(rec)) == rec
