"""Closed-form moment recursions, bounds and finite means."""

import math

import numpy as np
import pytest

import gbmsum as g
from gbmsum import ParameterError


def mm_for(beta, rho):
    return g.gbm_multiplier_moments(g.ReducedParams(beta=beta, rho=rho))


class TestMomentExists:
    def test_gbm_threshold(self):
        mm = mm_for(1.0, -0.1)
        # exists iff k < 1 - 2 rho / beta = 1.2
        assert g.moment_exists(1, mm, 0.0)
        assert not g.moment_exists(2, mm, 0.0)

    def test_p_one_always_exists(self):
        mm = mm_for(1.0, 0.5)
        for k in (1, 2, 5):
            assert g.moment_exists(k, mm, 1.0)

    def test_invalid_order(self):
        with pytest.raises(ParameterError):
            g.moment_exists(0, mm_for(1.0, 0.0))

    def test_moment_past_the_largest_float_reads_infinite(self):
        # E[A^39] = e^737.1 at (1, -0.1): math.exp overflowed inside moment_exists
        mm = mm_for(1.0, -0.1)
        assert mm(39) == math.inf
        assert not g.moment_exists(39, mm, 0.0)
        assert g.moment_exists(39, mm, 1.0)
        levy = g.levy_multiplier_moments(lambda t: 0.5 * (t * t - t), -0.1, 1.0)
        assert levy(39) == math.inf
        assert not g.moment_exists(39, levy, 0.5)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda mm: g.moments_geometric(2, mm, p=2.0),
                     r"p must lie in \[0, 1\], got 2.0", id="geometric-p-2"),
        pytest.param(lambda mm: g.moments_geometric(2, mm, p=math.nan),
                     r"p must lie in \[0, 1\], got nan", id="geometric-nan-p"),
        pytest.param(lambda mm: g.moment_exists(1, mm, 2.0),
                     r"p must lie in \[0, 1\], got 2.0", id="exists-p-2"),
        pytest.param(lambda mm: g.moment_exists(1, mm, -0.1),
                     r"p must lie in \[0, 1\], got -0.1", id="exists-negative-p"),
        pytest.param(lambda mm: g.moment_exists(1, mm, math.nan),
                     r"p must lie in \[0, 1\], got nan", id="exists-nan-p"),
        pytest.param(lambda mm: g.moment_exists(math.nan, mm),
                     "moment order must be >= 1, got nan", id="exists-nan-order"),
    ])
    def test_refuses_a_bad_stopping_probability_or_order(self, call, message):
        with pytest.raises(ParameterError, match=message):
            call(mm_for(0.1, -0.1))


class TestMomentsGeometric:
    def test_perpetuity_mean(self):
        mm = mm_for(1.0, -0.1)
        exact = math.exp(-0.1) / (1.0 - math.exp(-0.1))
        assert g.moments_geometric(1, mm, 0.0)[0] == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_stopped_mean_is_ten(self):
        mm = mm_for(1.0, 0.0)
        assert g.moments_geometric(1, mm, 0.1)[0] == pytest.approx(10.0, rel=1e-14, abs=0.0)

    def test_second_moment_hand_recursion(self):
        # oracle: the recursion unrolled by hand for k = 2 at (0.1, -0.1)
        beta, rho = 0.1, -0.1
        mm = mm_for(beta, rho)
        a1 = math.exp(rho)
        a2 = math.exp(beta + 2.0 * rho)
        mu1 = a1 / (1.0 - a1)
        mu2 = a2 / (1.0 - a2) * (1.0 + 2.0 * mu1)
        got = g.moments_geometric(2, mm, 0.0)
        assert got[0] == pytest.approx(mu1, rel=1e-14, abs=0.0)
        assert got[1] == pytest.approx(mu2, rel=1e-14, abs=0.0)
        assert got[1] == pytest.approx(190.3255, rel=1e-4, abs=0.0)

    def test_error_names_failing_order(self):
        mm = mm_for(1.0, -0.1)
        with pytest.raises(ParameterError, match="order 2"):
            g.moments_geometric(2, mm, 0.0)

    def test_p_one_moments_are_the_multipliers(self):
        # X = A at p = 1: E[A^39] = e^737.1 reads inf, where (1 - p) E[A^39] gave 0 inf = NaN
        mm = mm_for(1.0, -0.1)
        got = g.moments_geometric(39, mm, 1.0)
        assert got == [mm(k) for k in range(1, 40)]
        assert math.isfinite(got[-2]) and got[-1] == math.inf

    def test_orders_past_an_overflow_read_inf(self):
        # every order up to ~2000 exists at (1e-4, -0.1, 0.5), but 306 overflows; from
        # order 1030 on, C(k, j) times that inf raised OverflowError converting C(k, j)
        got = g.moments_geometric(1100, mm_for(1e-4, -0.1), 0.5)
        assert all(map(math.isfinite, got[:305])) and got[305:] == [math.inf] * 795


class TestProductForm:
    def test_single_chain(self):
        mm = mm_for(0.05, -0.2)
        a1 = mm(1)
        assert g.moments_infinite_product_form(1, mm)[0] == pytest.approx(
            a1 / (1.0 - a1), rel=1e-14, abs=0.0
        )

    def test_two_chain_expansion(self):
        mm = mm_for(0.05, -0.2)
        q1, q2 = (mm(k) / (1.0 - mm(k)) for k in (1, 2))
        expected = q2 + 2.0 * q2 * q1
        assert g.moments_infinite_product_form(2, mm)[1] == pytest.approx(expected, rel=1e-14,
                                                                          abs=0.0)

    @pytest.mark.parametrize("beta,rho", [(0.05, -0.2), (0.02, -0.3), (0.1, -0.5)])
    def test_matches_recursion_exactly(self, beta, rho):
        mm = mm_for(beta, rho)
        rec = g.moments_geometric(4, mm, 0.0)
        prod = g.moments_infinite_product_form(4, mm)
        for a, b in zip(rec, prod):
            assert a == pytest.approx(b, rel=1e-12, abs=0.0)

    def test_error_names_failing_order_and_value(self):
        # the same message as the recursion's: E[A^2] = e^0.8 at (1, -0.1)
        with pytest.raises(ParameterError,
                           match=r"order 2 does not exist: \(1-p\) E\[A\^2\] = 2.22554 >= 1"):
            g.moments_infinite_product_form(2, mm_for(1.0, -0.1))


class TestJensenAndConsistency:
    def test_jensen_ordering(self):
        for beta, rho, p in ((0.05, -0.2, 0.0), (0.1, 0.0, 0.3)):
            mm = mm_for(beta, rho)
            m1, m2 = g.moments_geometric(2, mm, p)
            assert m2 >= m1**2

    def test_density_matches_closed_form(self, solved):
        beta, rho = 0.05, -0.2
        F, _ = solved(beta, rho, tol=1e-10, max_iter=800, u_max=20.0)
        mm = mm_for(beta, rho)
        closed = g.moments_geometric(3, mm, 0.0)
        for k, ref in enumerate(closed, start=1):
            got = g.expectation(F, lambda x, k=k: x**k)
            assert got == pytest.approx(ref, rel=1e-4, abs=0.0)

    def test_density_matches_mean_heavy_tail(self, solved):
        F, _ = solved(1.0, -0.1, tol=1e-10, max_iter=800, u_max=36.0)
        mm = mm_for(1.0, -0.1)
        ref = g.moments_geometric(1, mm, 0.0)[0]
        assert g.expectation(F, lambda x: x) == pytest.approx(ref, rel=1e-4, abs=0.0)


class TestInverseMomentBound:
    def test_substitution(self):
        assert g.inverse_moment_bound(1, g.ReducedParams(beta=1.0, rho=0.0)) == pytest.approx(
            math.e, rel=1e-14, abs=0.0
        )

    def test_log_quadratic_growth(self):
        rp = g.ReducedParams(beta=0.3, rho=0.1)
        vals = [g.inverse_moment_bound(n, rp) for n in (1, 2, 3, 4)]
        logs = np.log(vals)
        # exponent n(n+1)/2 scaling: second differences of logs are constant beta
        second = np.diff(logs, 2)
        assert np.allclose(second, 0.3, rtol=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ParameterError):
            g.inverse_moment_bound(0, g.ReducedParams(beta=1.0, rho=0.0))

    def test_bound_past_the_largest_float_is_infinite(self):
        assert g.inverse_moment_bound(40, g.ReducedParams(beta=1.0, rho=0.0)) == math.inf


class TestMeanFiniteSum:
    def test_zero_rate_limit(self):
        assert g.mean_finite_sum(7, 0.0, 0.5, 3.0) == 21.0
        assert g.mean_finite_sum(7, 1e-13, 0.5, 3.0) == pytest.approx(21.0, rel=1e-9, abs=0.0)

    def test_single_term(self):
        assert g.mean_finite_sum(1, 0.07, 0.25, 2.0) == pytest.approx(
            2.0 * math.exp(0.07 * 0.25), rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize("n, r", [(10, 80.0), (1, -800.0)])
    def test_overflow_is_refused(self, n, r):
        # e^(n r tau), or e^(-r tau) in the denominator, is past the largest float
        with pytest.raises(ParameterError, match=f"mean of the {n}-term sum"):
            g.mean_finite_sum(n, r, 1.0, 1.0)

    def test_frozen_value(self):
        # direct evaluation: 100 (e^0.1 - 1)/(1 - e^-0.01) = 1056.976491
        assert g.mean_finite_sum(10, 0.1, 0.1, 100.0) == pytest.approx(1056.976491, abs=5e-4)


class TestLevyHook:
    @pytest.mark.parametrize("m, tau, message", [
        (math.nan, 1.0, "m must be finite, got nan"),
        (0.0, math.inf, "tau must be finite, got inf"),
        (0.0, 0.0, "tau must be positive, got 0.0"),
    ], ids=["nan-m", "inf-tau", "zero-tau"])
    def test_refuses_bad_arguments(self, m, tau, message):
        with pytest.raises(ParameterError, match=message):
            g.levy_multiplier_moments(lambda k: 0.5 * k * (k - 1.0), m, tau)

    def test_gaussian_cumulant_reproduces_gbm(self):
        sigma, m, tau = 0.4, -0.2, 0.5
        mm_levy = g.levy_multiplier_moments(
            lambda t: 0.5 * sigma**2 * (t**2 - t), m, tau
        )
        mm_gbm = g.gbm_multiplier_moments(g.ModelParams(sigma=sigma, m=m, tau=tau))
        for k in (1, 2, 3):
            assert mm_levy(k) == pytest.approx(mm_gbm(k), rel=1e-14, abs=0.0)
        rec_levy = g.moments_geometric(2, mm_levy, 0.1)
        rec_gbm = g.moments_geometric(2, mm_gbm, 0.1)
        assert rec_levy == pytest.approx(rec_gbm, rel=1e-14, abs=0.0)

    def test_cumulant_must_vanish_at_zero(self):
        with pytest.raises(ParameterError):
            g.levy_multiplier_moments(lambda t: t + 1.0, 0.0, 1.0)

    def test_cumulant_nan_at_zero_refused(self):
        # a NaN kappa(0) passed and surfaced later as a moment "= nan >= 1"
        with pytest.raises(ParameterError, match=r"kappa\(0\) = 0, got nan"):
            g.levy_multiplier_moments(lambda t: math.nan, 0.0, 1.0)


class TestBoundaryChecks:
    RP = g.ReducedParams(beta=1.0, rho=-0.1)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda rp: g.moments_geometric(0, g.gbm_multiplier_moments(rp)),
                     r"kmax must be (an integer )?>= 1, got 0", id="geometric-kmax"),
        pytest.param(lambda rp: g.moments_infinite_product_form(0, g.gbm_multiplier_moments(rp)),
                     r"kmax must be (an integer )?>= 1, got 0", id="product-kmax"),
        pytest.param(lambda rp: g.mean_finite_sum(0, 0.1, 1.0, 1.0),
                     r"n must be (an integer )?>= 1, got 0", id="mean-n"),
    ])
    def test_refuses_a_count_below_one(self, call, message):
        with pytest.raises(ParameterError, match=message):
            call(self.RP)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda rp: g.moments_geometric(2.5, g.gbm_multiplier_moments(rp)),
                     "kmax must be an integer >= 1, got 2.5", id="geometric-fractional-kmax"),
        pytest.param(lambda rp: g.inverse_moment_bound(1.5, rp),
                     "n must be an integer >= 1, got 1.5", id="bound-fractional-n"),
        pytest.param(lambda rp: g.mean_finite_sum(2.5, 0.1, 1.0, 1.0),
                     "n must be an integer >= 1, got 2.5", id="mean-fractional-n"),
        pytest.param(lambda rp: g.mean_finite_sum(True, 0.1, 1.0, 1.0),
                     "n must be an integer >= 1, got True", id="mean-bool-n"),
        pytest.param(lambda rp: g.mean_finite_sum(3, math.nan, 1.0, 1.0),
                     "r must be finite, got nan", id="mean-nan-rate"),
        pytest.param(lambda rp: g.mean_finite_sum(3, 0.1, 0.0, 1.0),
                     "tau must be positive, got 0.0", id="mean-zero-step"),
        pytest.param(lambda rp: g.mean_finite_sum(3, 0.1, 1.0, -1.0),
                     "s0 must be positive, got -1.0", id="mean-negative-spot"),
    ])
    def test_refuses_what_used_to_return_a_number(self, call, message):
        with pytest.raises(ParameterError, match=message):
            call(self.RP)

