"""Closed-form law tests: multiplier, inverse-Gamma limit, exponential-time law."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import gbmsum as g
from gbmsum import ParameterError


class TestReduce:
    def test_direct_products(self):
        rp = g.reduce(g.ModelParams(sigma=0.2, m=-0.1, tau=1.0, lam=0.1))
        assert rp.beta == pytest.approx(0.04)
        assert rp.rho == pytest.approx(-0.1)
        assert rp.p == pytest.approx(0.1)

    def test_unit_case(self):
        rp = g.reduce(g.ModelParams(sigma=1.0, m=0.0, tau=1.0))
        assert (rp.beta, rp.rho, rp.p) == (1.0, 0.0, 0.0)

    def test_small_step(self):
        rp = g.reduce(g.ModelParams(sigma=0.4, m=0.1, tau=0.1))
        assert rp.beta == pytest.approx(0.016)
        assert rp.rho == pytest.approx(0.01)

    def test_stopping_probability_out_of_range(self):
        with pytest.raises(ParameterError):
            g.reduce(g.ModelParams(sigma=1.0, m=0.0, tau=2.0, lam=0.6))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["beta", "rho"])
    def test_reduced_params_reject_non_finite(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            g.ReducedParams(**{"beta": 1.0, "rho": 0.0, field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["sigma", "m", "tau", "lam"])
    def test_model_params_reject_non_finite(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            g.ModelParams(**{"sigma": 1.0, "m": 0.0, "tau": 1.0, field: value})

    def test_feasibility_flag(self):
        assert g.ReducedParams(beta=1.0, rho=-0.1).perpetuity_feasible
        assert not g.ReducedParams(beta=1.0, rho=0.6).perpetuity_feasible


class TestMultiplierPdf:
    def test_mode(self):
        rp = g.ReducedParams(beta=0.5, rho=0.1)
        mode = math.exp(rp.rho - 1.5 * rp.beta)
        xs = np.linspace(0.2 * mode, 3.0 * mode, 4001)
        vals = np.asarray(g.multiplier_pdf(xs, rp))
        assert xs[int(np.argmax(vals))] == pytest.approx(mode, rel=2e-3)

    def test_mean_is_exp_rho(self):
        rp = g.ReducedParams(beta=0.3, rho=-0.2)
        mean, _ = quad(lambda x: x * g.multiplier_pdf(x, rp), 0, np.inf, limit=200)
        assert mean == pytest.approx(math.exp(rp.rho), rel=1e-9)

    def test_frozen_point_value(self):
        # direct formula: exp(-1/8)/sqrt(2 pi)
        val = g.multiplier_pdf(1.0, g.ReducedParams(beta=1.0, rho=0.0))
        assert val == pytest.approx(0.35206532676429948, rel=1e-12)

    def test_zero_below_support(self):
        rp = g.ReducedParams(beta=1.0, rho=0.0)
        assert g.multiplier_pdf(0.0, rp) == 0.0
        assert g.multiplier_pdf(-1.0, rp) == 0.0

    def test_normalization(self):
        rp = g.ReducedParams(beta=1.0, rho=0.1)
        total, _ = quad(lambda x: g.multiplier_pdf(x, rp), 0, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestInverseGamma:
    def test_cdf_tends_to_one(self):
        assert g.inv_gamma_cdf(1e9, 1.0, -0.1) == pytest.approx(1.0, abs=1e-6)

    def test_explicit_small_shape(self):
        # sigma^2 = 2, m = 0: pdf(z) = z^-2 exp(-1/z)
        for z in (0.2, 1.0, 3.0):
            ref = z**-2 * math.exp(-1.0 / z)
            assert g.inv_gamma_pdf(z, math.sqrt(2.0), 0.0) == pytest.approx(ref, rel=1e-12)

    def test_cdf_frozen_value(self):
        # regularized upper gamma Q(1.2, 2); oracle mpmath.gammainc
        assert g.inv_gamma_cdf(1.0, 1.0, -0.1) == pytest.approx(0.18230123290896622, rel=1e-11)

    def test_pdf_normalization(self):
        total, _ = quad(lambda z: g.inv_gamma_pdf(z, 1.0, -0.1), 0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_existence_condition(self):
        with pytest.raises(ParameterError):
            g.inv_gamma_pdf(1.0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            g.inv_gamma_cdf(1.0, 1.0, 0.7)


class TestYorParams:
    def test_symmetric_case(self):
        # 2m = sigma^2 makes both shapes sqrt(2 lam)/sigma
        yp = g.yor_params(1.0, 0.5, 2.0)
        assert yp.alpha == pytest.approx(math.sqrt(2.0 * 2.0) / 1.0, rel=1e-12)
        assert yp.alpha == pytest.approx(yp.beta_g, rel=1e-12)

    def test_degenerate_limit(self):
        yp = g.yor_params(1.0, -0.3, 0.0)
        assert yp.alpha == 0.0
        assert yp.beta_g == pytest.approx(1.0 + 0.6, rel=1e-12)

    def test_frozen_values(self):
        yp = g.yor_params(1.0, 0.0, 0.1)
        assert yp.alpha == pytest.approx(0.17082039324993691, rel=1e-12)
        assert yp.beta_g == pytest.approx(1.1708203932499369, rel=1e-12)

    def test_degenerate_requires_drift_condition(self):
        with pytest.raises(ParameterError):
            g.yor_params(1.0, 0.7, 0.0)


class TestYorPdf:
    def test_left_limit_is_intensity(self):
        for sig, m, lam in ((1.0, 0.0, 0.1), (0.7, -0.2, 0.3)):
            assert g.yor_pdf(1e-6, sig, m, lam) == pytest.approx(lam, abs=1e-4)

    def test_ratio_density_left_limit(self):
        yp = g.yor_params(1.0, 0.0, 0.1)
        # phi(y) -> alpha * beta as y -> 0; undo the sigma^2/2 = 1/2 scaling
        val = g.yor_pdf(2e-6, 1.0, 0.0, 0.1) * 2.0
        assert val == pytest.approx(yp.alpha * yp.beta_g, rel=1e-3)

    def test_normalization(self):
        total, _ = quad(lambda z: g.yor_pdf(z, 1.0, 0.0, 0.1), 0, np.inf, limit=300)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_lambda_zero_rejected(self):
        with pytest.raises(ParameterError):
            g.yor_pdf(1.0, 1.0, 0.0, 0.0)

    def test_degenerates_to_inverse_gamma(self):
        zs = np.geomspace(0.05, 50.0, 30)
        sup = [
            max(abs(g.yor_pdf(z, 1.0, -0.3, lam) - g.inv_gamma_pdf(z, 1.0, -0.3)) for z in zs)
            for lam in (1e-2, 1e-4, 1e-6)
        ]
        assert sup[0] > sup[1] > sup[2]
        assert sup[2] < 1e-5


class TestOracle:
    """Pointwise agreement with mpmath at 40 digits, at the floats the
    library evaluates (its shape parameters and reduced arguments)."""

    @pytest.fixture
    def mp(self):
        return pytest.importorskip("mpmath")

    @pytest.mark.parametrize("shape", [0.05, 0.1, 0.3, 0.7, 1.0, 2.5, 6.0, 12.0, 20.0])
    def test_inv_gamma_cdf(self, mp, shape):
        # sigma = 1: P(Y < x) = Q(1 - 2m, 2/x)
        m = (1.0 - shape) / 2.0
        xs = 2.0 / np.geomspace(1e-3, 600.0, 40)
        got = g.inv_gamma_cdf(xs, 1.0, m)
        with mp.workdps(40):
            ref = [float(mp.gammainc(1.0 - 2.0 * m, 2.0 / x, mp.inf, regularized=True))
                   for x in xs]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("sigma,m,lam", [
        (1.0, -0.1, 1e-8), (2.0, -0.3, 1e-8), (0.3, 0.2, 1e-8), (1.0, -0.1, 0.1),
        (0.3, 0.0, 0.05), (1.0, 0.4, 1.0), (2.0, 1.0, 3.0),
    ])
    def test_yor_pdf(self, mp, sigma, m, lam):
        half_s2 = 0.5 * sigma**2
        zs = np.geomspace(0.02, 200.0, 41) / half_s2
        got = g.yor_pdf(zs, sigma, m, lam)
        np.testing.assert_allclose(got, yor_pdf_mp(mp, zs, sigma, m, lam), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("sigma,m,lam", [
        (1.0, -0.1, 1e-8), (2.0, -0.3, 1e-8), (0.3, 0.2, 1e-8), (1.0, 0.4, 1.0),
    ])
    def test_yor_pdf_small_y(self, mp, sigma, m, lam):
        # either side of the switch to the small-y series, down to where the
        # Kummer form would overflow
        ys = np.array([0.0199, 0.01, 0.005, 0.0021, 0.002, 0.0019, 0.001, 1e-4])
        zs = ys / (0.5 * sigma**2)
        got = g.yor_pdf(zs, sigma, m, lam)
        np.testing.assert_allclose(got, yor_pdf_mp(mp, zs, sigma, m, lam), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("sigma,m,lam", [
        (1.0, -0.1, 1e-8), (2.0, -0.3, 1e-8), (2.0, -0.3, 1e-9), (0.3, 0.2, 1e-8),
        (1.0, 0.0, 0.1), (1.0, 0.4, 1.0),
    ])
    def test_yor_params(self, mp, sigma, m, lam):
        # at small lam one of the shapes is a difference of nearly equal terms
        yp = g.yor_params(sigma, m, lam)
        with mp.workdps(40):
            s2 = mp.mpf(sigma) ** 2
            d = 2 * mp.mpf(m) - s2
            root = mp.sqrt(d**2 + 8 * mp.mpf(lam) * s2)
            alpha, beta_g = float((d + root) / (2 * s2)), float((-d + root) / (2 * s2))
        assert yp.alpha == pytest.approx(alpha, rel=1e-15, abs=0.0)
        assert yp.beta_g == pytest.approx(beta_g, rel=1e-15, abs=0.0)


def yor_pdf_mp(mp, zs, sigma, m, lam):
    """yor_pdf at 40 digits, at the library's own shape parameters."""
    half_s2 = 0.5 * sigma**2
    yp = g.yor_params(sigma, m, lam)
    with mp.workdps(40):
        a, b = mp.mpf(yp.alpha), mp.mpf(yp.beta_g)
        pref = a * b * mp.gamma(a) / mp.gamma(a + b + 1)
        ref = []
        for z in zs:
            y = mp.mpf(z * half_s2)
            ref.append(float(half_s2 * pref * y ** (-b - 1) * mp.hyp1f1(b + 1, a + b + 1, -1 / y)))
    return ref


class TestYorSurvival:
    def test_full_mass_at_origin(self):
        assert g.yor_survival(1e-12, 1.0, 0.0, 0.1) == pytest.approx(1.0, abs=1e-9)
        assert g.yor_survival(0.0, 1.0, 0.0, 0.1) == 1.0

    def test_right_tail_asymptote(self):
        sig, m, lam = 1.0, 0.0, 0.1
        yp = g.yor_params(sig, m, lam)
        pref = yp.alpha * math.gamma(yp.alpha) / math.gamma(yp.alpha + yp.beta_g + 1.0)
        for z, tol in ((2e3, 2e-3), (2e5, 2e-5)):
            y = 0.5 * sig**2 * z
            ratio = g.yor_survival(z, sig, m, lam) / (pref * y ** (-yp.beta_g))
            assert abs(ratio - 1.0) < tol

    def test_monotone_decreasing(self):
        vals = [g.yor_survival(z, 1.0, -0.5, 0.5) for z in np.geomspace(0.01, 100, 25)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_inverse_gamma_in_degenerate_limit(self):
        for z in (0.5, 2.0, 10.0):
            sv = g.yor_survival(z, math.sqrt(2.0), 0.0, 1e-8)
            ref = 1.0 - g.inv_gamma_cdf(z, math.sqrt(2.0), 0.0)
            assert sv == pytest.approx(ref, abs=2e-6)


class TestYorMomentIdentity:
    @pytest.mark.parametrize("mu,lam", [(-1.0, 0.5), (0.3, 1.0), (-0.4, 0.25), (-1.0, 0.0)])
    def test_residual_vanishes_on_grid(self, mu, lam):
        for theta in np.arange(0.1, 0.95, 0.1):
            beta_g = 0.5 * (-mu + math.sqrt(mu**2 + 2.0 * lam))
            if beta_g - theta <= 0.0:
                continue
            assert abs(g.yor_moment_residual(float(theta), mu, lam)) <= 1e-8

    def test_residual_continuity_near_zero(self):
        assert abs(g.yor_moment_residual(1e-6, -1.0, 0.5)) < 1e-5

    def test_frozen_case(self):
        assert abs(g.yor_moment_residual(0.5, -1.0, 0.5)) <= 1e-8

    def test_nonexistent_moment_rejected(self):
        with pytest.raises(ParameterError):
            g.yor_moment_residual(0.9, 2.0, 0.1)
