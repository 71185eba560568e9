"""Closed-form law tests: multiplier, inverse-Gamma limit, exponential-time law."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import gbmsum as g
from gbmsum import AccuracyWarning, ConvergenceError, ParameterError
from gbmsum.distributions import _de_integrate


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

    @pytest.mark.parametrize("build, kwargs, message", [
        pytest.param(g.ModelParams, dict(sigma=0.0, m=0.0, tau=1.0),
                     "sigma must be positive, got 0.0", id="sigma"),
        pytest.param(g.ModelParams, dict(sigma=1.0, m=0.0, tau=-1.0),
                     "tau must be positive, got -1.0", id="tau"),
        pytest.param(g.ModelParams, dict(sigma=1.0, m=0.0, tau=1.0, lam=-0.1),
                     "lam must be non-negative, got -0.1", id="lam"),
        pytest.param(g.ReducedParams, dict(beta=-1.0, rho=0.0),
                     "beta must be positive, got -1.0", id="beta"),
        pytest.param(g.TailAsymptote, dict(exponent=0.0, constant=1.0),
                     "exponent must be positive, got 0.0", id="exponent"),
        pytest.param(g.TailAsymptote, dict(exponent=1.0, constant=-2.0),
                     "constant must be positive, got -2.0", id="constant"),
    ])
    def test_params_refuse_a_bad_sign(self, build, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            build(**kwargs)

    def test_feasibility_flag(self):
        assert g.ReducedParams(beta=1.0, rho=-0.1).perpetuity_feasible
        assert not g.ReducedParams(beta=1.0, rho=0.6).perpetuity_feasible


class TestMultiplierPdf:
    def test_mode(self):
        rp = g.ReducedParams(beta=0.5, rho=0.1)
        mode = math.exp(rp.rho - 1.5 * rp.beta)
        xs = np.linspace(0.2 * mode, 3.0 * mode, 4001)
        vals = np.asarray(g.multiplier_pdf(xs, rp))
        assert xs[int(np.argmax(vals))] == pytest.approx(mode, rel=2e-3, abs=0.0)

    def test_mean_is_exp_rho(self):
        rp = g.ReducedParams(beta=0.3, rho=-0.2)
        mean, _ = quad(lambda x: x * g.multiplier_pdf(x, rp), 0, np.inf, limit=200)
        assert mean == pytest.approx(math.exp(rp.rho), rel=1e-9, abs=0.0)

    def test_frozen_point_value(self):
        # direct formula: exp(-1/8)/sqrt(2 pi)
        val = g.multiplier_pdf(1.0, g.ReducedParams(beta=1.0, rho=0.0))
        assert val == pytest.approx(0.35206532676429948, rel=1e-12, abs=0.0)

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
            assert g.inv_gamma_pdf(z, math.sqrt(2.0), 0.0) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_cdf_frozen_value(self):
        # regularized upper gamma Q(1.2, 2); oracle mpmath.gammainc
        assert g.inv_gamma_cdf(1.0, 1.0, -0.1) == pytest.approx(0.18230123290896622, rel=1e-11,
                                                                abs=0.0)

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
        assert yp.alpha == pytest.approx(math.sqrt(2.0 * 2.0) / 1.0, rel=1e-12, abs=0.0)
        assert yp.alpha == pytest.approx(yp.beta_g, rel=1e-12, abs=0.0)

    def test_degenerate_limit(self):
        yp = g.yor_params(1.0, -0.3, 0.0)
        assert yp.alpha == 0.0
        assert yp.beta_g == pytest.approx(1.0 + 0.6, rel=1e-12, abs=0.0)

    def test_frozen_values(self):
        yp = g.yor_params(1.0, 0.0, 0.1)
        assert yp.alpha == pytest.approx(0.17082039324993691, rel=1e-12, abs=0.0)
        assert yp.beta_g == pytest.approx(1.1708203932499369, rel=1e-12, abs=0.0)

    def test_degenerate_requires_drift_condition(self):
        with pytest.raises(ParameterError):
            g.yor_params(1.0, 0.7, 0.0)


class TestBoundaryChecks:
    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: g.inv_gamma_pdf(1.0, -1.0, -0.1),
                     "sigma must be positive, got -1.0", id="inv-gamma-sigma"),
        pytest.param(lambda: g.YorParams(alpha=-0.5, beta_g=1.0),
                     "alpha must be non-negative, got -0.5", id="alpha"),
        pytest.param(lambda: g.YorParams(alpha=0.5, beta_g=0.0),
                     "beta_g must be positive, got 0.0", id="beta_g"),
        pytest.param(lambda: g.yor_params(0.0, 0.0, 0.1),
                     "sigma must be positive, got 0.0", id="yor-sigma"),
        pytest.param(lambda: g.yor_params(1.0, 0.0, -0.1),
                     "lam must be non-negative, got -0.1", id="yor-lam"),
    ])
    def test_refuses_a_bad_sign(self, call, message):
        with pytest.raises(ParameterError, match=message):
            call()

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda: g.inv_gamma_pdf(1.0, math.nan, 0.0),
                     "sigma must be finite, got nan", id="pdf-nan-sigma"),
        pytest.param(lambda: g.inv_gamma_pdf(1.0, math.inf, 0.0),
                     "sigma must be finite, got inf", id="pdf-inf-sigma"),
        pytest.param(lambda: g.inv_gamma_pdf(1.0, 1.0, math.nan),
                     "m must be finite, got nan", id="pdf-nan-m"),
        pytest.param(lambda: g.inv_gamma_cdf(1.0, 1.0, math.nan),
                     "m must be finite, got nan", id="cdf-nan-m"),
        pytest.param(lambda: g.yor_pdf(1.0, 1.0, 0.0, math.inf),
                     "lam must be finite, got inf", id="yor-inf-lam"),
        pytest.param(lambda: g.yor_survival(math.nan, 1.0, 0.0, 0.1),
                     "yor_survival needs a level z, got NaN", id="yor-nan-level"),
        pytest.param(lambda: g.multiplier_pdf(math.nan, g.ReducedParams(beta=1.0, rho=0.0)),
                     "multiplier_pdf needs a point x, got NaN", id="multiplier-nan-point"),
        pytest.param(lambda: g.inv_gamma_pdf(np.array([1.0, math.nan]), 1.0, 0.0),
                     "inv_gamma_pdf needs a point z, got NaN", id="inv-gamma-pdf-nan-point"),
        pytest.param(lambda: g.inv_gamma_cdf(math.nan, 1.0, 0.0),
                     "inv_gamma_cdf needs a point x, got NaN", id="inv-gamma-cdf-nan-point"),
        pytest.param(lambda: g.yor_pdf(np.array([[0.5], [math.nan]]), 1.0, 0.0, 0.1),
                     "yor_pdf needs a point z, got NaN", id="yor-pdf-nan-point"),
    ])
    def test_refuses_a_non_finite_value(self, call, message):
        # each of these gave NaN, 0.0, a raw ValueError or a ConvergenceError
        with pytest.raises(ParameterError, match=message):
            call()

    def test_survival_at_infinity_is_zero(self):
        assert g.yor_survival(math.inf, 1.0, 0.0, 0.1) == 0.0


class TestYorPdf:
    def test_left_limit_is_intensity(self):
        for sig, m, lam in ((1.0, 0.0, 0.1), (0.7, -0.2, 0.3)):
            assert g.yor_pdf(1e-6, sig, m, lam) == pytest.approx(lam, abs=1e-4)

    def test_ratio_density_left_limit(self):
        yp = g.yor_params(1.0, 0.0, 0.1)
        # phi(y) -> alpha * beta as y -> 0; undo the sigma^2/2 = 1/2 scaling
        val = g.yor_pdf(2e-6, 1.0, 0.0, 0.1) * 2.0
        assert val == pytest.approx(yp.alpha * yp.beta_g, rel=1e-3, abs=0.0)

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


@pytest.mark.filterwarnings("error::gbmsum.AccuracyWarning")
class TestOracle:
    """Pointwise agreement with mpmath at 40 digits, at the floats the
    library evaluates (its shape parameters and reduced arguments), with no
    AccuracyWarning."""

    @pytest.fixture
    def mp(self):
        return pytest.importorskip("mpmath")

    @pytest.mark.parametrize("shape", [0.05, 0.1, 0.3, 0.7, 1.0, 2.5, 6.0, 12.0, 20.0, 1e7])
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
        # small ratio levels y, down to 1e-4 where the root sits 9 to 21 above w's
        # mode: the payoff's factor (1 - e^(v - L))^(alpha - 1) tends to 1 and the
        # density to alpha beta_g; at alpha < 1/2 (the 1e-8 laws) w(L) is taken out
        # near the root, and at (0.3, 0.2, 1e-8) w is flat out to v = 16.6
        ys = np.array([0.0199, 0.01, 0.005, 0.0021, 0.002, 0.0019, 0.001, 1e-4])
        zs = ys / (0.5 * sigma**2)
        got = g.yor_pdf(zs, sigma, m, lam)
        np.testing.assert_allclose(got, yor_pdf_mp(mp, zs, sigma, m, lam), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("shape", [1e-8, 1e-4, 0.05, 1.0, 30.0, 1e3, 1e5])
    def test_gamma_factor_sweep(self, mp, shape):
        # the three laws over their Gamma factor's shape: the incomplete gamma from
        # far below the mean to far above it (t from 1e-30 a to 600), and the survival
        # and the density at alpha = 1e-3 (yor_pdf takes w(L) out near the root) and 3,
        # about the bulk; within 1e-13 wherever the value is at least 1e-30, with no
        # warning
        m = (1.0 - shape) / 2.0
        ts = np.concatenate([shape * np.geomspace(1e-30, 0.1, 4),
                             shape + math.sqrt(shape) * np.array([-6.0, -2.0, 0.0, 2.0, 6.0, 12.0]),
                             30.0 + shape * np.array([1.5, 10.0]), [100.0, 427.0, 600.0]])
        xs = 2.0 / ts[ts > 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = list(g.inv_gamma_cdf(xs, 1.0, m))
        ref = [float(gamma_q_mp(mp, 1.0 - 2.0 * m, 2.0 / x)) for x in xs]
        for alpha in (1e-3, 3.0):
            m, lam = (alpha - shape + 1.0) / 2.0, alpha * shape / 2.0
            yp = g.yor_params(1.0, m, lam)
            levels = np.exp(np.array([-3.0, 0.0, 2.0, 6.0]) / math.sqrt(max(yp.beta_g, 1.0)))
            zs = 2.0 * np.append(levels, 1e-3) / yp.beta_g
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got += [g.yor_survival(z, 1.0, m, lam) for z in zs]
                got += list(g.yor_pdf(zs, 1.0, m, lam))
            survival, density = zip(*(yor_mp(mp, yp, z) for z in zs))
            ref += survival + density
        got, ref = np.array(got), np.array(ref)
        keep, far = ref >= 1e-30, (ref >= 1e-300) & (ref < 1e-30)
        assert keep.sum() >= 20
        np.testing.assert_allclose(got[keep], ref[keep], rtol=1e-13, atol=0.0)
        # the incomplete gamma's far tail (t up to 600), where e^v taken from a rounded
        # log(t/a) instead of the excess (t - a)/a was up to 5.6e-13 off
        np.testing.assert_allclose(got[far], ref[far], rtol=2e-13, atol=0.0)

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


def yor_mp(mp, yp, z):
    """P(Y > z) and the density of Y at z for sigma = 1 (y = z / 2), at the
    library's shape parameters and its own product y beta_g, in mpmath: the
    closed forms Gamma(a+1)/Gamma(a+b+1) x^b e^-x 1F1(a+1; a+b+1; x) and a b
    Gamma(a)/Gamma(a+b+1) x^(b+1) e^-x 1F1(a; a+b+1; x) / 2, x = 1/y, with 40
    digits past those e^-x cancels and those the shape's size costs."""
    a, b = yp.alpha, yp.beta_g
    y_b = 0.5 * b * z
    with mp.workdps(40 + int(math.log10(1.0 + b / y_b)) + int(2.0 * math.log10(1.0 + b))):
        a, b = mp.mpf(a), mp.mpf(b)
        x = b / mp.mpf(y_b)
        log_pref = b * mp.log(x) - x - mp.loggamma(a + b + 1)
        survival = mp.exp(mp.loggamma(a + 1) + log_pref) * mp.hyp1f1(a + 1, a + b + 1, x,
                                                                      maxterms=10**6)
        density = a * b * mp.exp(mp.loggamma(a) + log_pref) * x * mp.hyp1f1(a, a + b + 1, x,
                                                                           maxterms=10**6) / 2
        return float(survival), float(density)


def gamma_q_mp(mp, a, t):
    """Q(a, t) in mpmath at 60 digits: 1 - P from P's series below t = a + 1,
    Legendre's continued fraction (modified Lentz) above; mpmath's own
    gammainc stops converging near the mean at shapes of 1e5 and more."""
    with mp.workdps(60):
        a, t = mp.mpf(a), mp.mpf(t)
        scale = mp.exp(a * mp.log(t) - t - mp.loggamma(a))
        if t < a + 1:
            term = total = 1 / a
            k = 0
            while term > total * mp.eps:
                k += 1
                term *= t / (a + k)
                total += term
            return 1 - scale * total
        tiny = mp.mpf(10) ** -120
        b = t + 1 - a
        c, d = 1 / tiny, 1 / b
        h, i = d, 0
        while True:
            i += 1
            an, b = -i * (i - a), b + 2
            d = an * d + b
            d = 1 / (d if d != 0 else tiny)
            c = b + an / c
            c = c if c != 0 else tiny
            h *= d * c
            if abs(d * c - 1) < mp.eps:
                return scale * h


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


    @pytest.mark.parametrize("q, expected", [(0.0, 0.405063025911295),
                                             (0.5, 0.240396439260249)])
    def test_small_sigma_shortfall(self, q, expected):
        # (beta, rho, p) = (0.001, -0.1, 0.5) at K = E[X_N]: beta_g = 1000.5, where
        # the integral of the ratio density stopped 5% short and raised
        rho, p = -0.1, 0.5
        mean = math.exp(rho) / (1.0 - (1.0 - p) * math.exp(rho))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = g.shortfall_continuous(math.sqrt(0.001), rho, p, mean, q)
        assert value == pytest.approx(expected, rel=1e-13, abs=0.0)

    @staticmethod
    def _inject(monkeypatch, value):
        # the first two integrals make up the total mass of G, the last two the
        # mass above the level: the survival evaluates to `value` (to 1e-20, the
        # closed-form head both share)
        sums = iter([0.5, 0.5, 0.5 * value, 0.5 * value])
        monkeypatch.setattr(g.distributions, "_de_integrate", lambda *a, **k: next(sums))

    @pytest.mark.parametrize("tail, expected", [(1.0 + 1e-13, 1.0), (-1e-13, 0.0)])
    def test_rounding_outside_unit_interval_is_clipped(self, monkeypatch, tail, expected):
        self._inject(monkeypatch, tail)
        assert g.yor_survival(100.0, 1.0, 0.0, 0.1) == expected

    def test_beyond_rounding_raises(self, monkeypatch):
        self._inject(monkeypatch, 1.0 + 1e-9)
        with pytest.raises(ConvergenceError, match="outside"):
            g.yor_survival(100.0, 1.0, 0.0, 0.1)

    @pytest.mark.parametrize("sigma, m, lam, z", [
        (1.0, 0.0, 0.1, 1e-12), (1.0, 0.0, 0.1, 0.02), (1.0, 0.0, 0.1, 1.5),
        (1.0, -0.1, 0.01, 3.0), (math.sqrt(0.1), 0.0, 0.1, 0.4), (0.3, -0.1, 0.01, 100.0),
        (math.sqrt(2.0), 0.0, 1e-8, 2.0), (1.0, -0.5, 0.5, 19.9),
    ])
    def test_body_matches_quad(self, sigma, m, lam, z):
        # mpmath's quadrature of the Kummer-form ratio density from y to inf, at 30 digits
        mp = pytest.importorskip("mpmath")
        yp = g.yor_params(sigma, m, lam)
        with mp.workdps(30):
            a, b = mp.mpf(yp.alpha), mp.mpf(yp.beta_g)
            pref = a * b * mp.gamma(a) / mp.gamma(a + b + 1)
            y = mp.mpf(0.5 * sigma**2 * z)
            ref = mp.quad(lambda t: pref * t ** (-b - 1) * mp.exp(-1 / t)
                          * mp.hyp1f1(a, a + b + 1, 1 / t), [y, 2 * y, 10 * y, mp.inf])
        assert g.yor_survival(z, sigma, m, lam) == pytest.approx(float(ref), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("sigma, m, lam, z", [
        # small sigma: beta_g = 1000.5, 2001.1 and 10002, where the integral of the
        # ratio density stopped short
        (math.sqrt(0.001), -0.1, 0.5, 1.5 * math.exp(-0.1) / (1.0 - 0.5 * math.exp(-0.1))),
        (0.01, -0.1, 0.01, 9.086), (0.01, -0.5, 0.5, 1.0),
        # (alpha, beta_g) = (59, 206), (3e-4, 1e4), (0.7, 1e5), (59, 1e5), (3e-4, 0.0034),
        # (59, 0.02), (20, 1e4), (3e-4, 1) and (5, 1e4), where m = (alpha - beta_g + 1)/2
        # and lam = alpha beta_g/2; the last three need the payoff's own mode, its
        # root taken from the gap to it and y beta_g formed as one product
        (1.0, -73.0, 6077.0, 1.62e-4), (1.0, -73.0, 6077.0, 4.85e-3),
        (1.0, -4999.49985, 1.5, 2.01e-4), (1.0, -49999.15, 35000.0, 1.9e-5),
        (1.0, -49970.0, 2.95e6, 3.33e-13), (1.0, 0.49845, 5.1e-7, 5.88e-10),
        (1.0, 0.49845, 5.1e-7, 5.88e10), (1.0, 29.99, 0.59, 1.67e6),
        (1.0, -4989.5, 1e5, 2.02e-4), (1.0, 1.5e-4, 1.5e-4, 386.0),
        (1.0, -4997.0, 25000.0, 1.998e-4),
        # (1, 1e7) and (1, 1e8), whose w peak is about 3e-4 and 1e-4 wide, at y beta_g =
        # 0.9 and at the root one standard deviation of G above its mean
        (1.0, -4999999.0, 5e6, 1.8e-7), (1.0, -4999999.0, 5e6, 2.0 * (1.0 - 10**-3.5) / 1e7),
        (1.0, -49999999.0, 5e7, 1.8e-8), (1.0, -49999999.0, 5e7, 2.0 * (1.0 - 1e-4) / 1e8),
    ])
    def test_matches_closed_form(self, sigma, m, lam, z):
        # P(B/G > y) = Gamma(alpha+1)/Gamma(alpha+beta_g+1) y^-beta_g 1F1(beta_g;
        # alpha+beta_g+1; -1/y), taken by Kummer's transformation as
        # e^(-1/y) 1F1(alpha+1; alpha+beta_g+1; 1/y) with the digits e^(-1/y) cancels;
        # at alpha = 1 (the beta_g >= 1e7 laws, where mpmath's 1F1 does not converge)
        # it is P(beta_g, 1/y) - y beta_g P(beta_g + 1, 1/y) in regularized lower
        # gammas, at the library's own product y beta_g (the value at the root one
        # standard deviation above G's mean is 7800 times as sensitive to it at 1e8)
        mp = pytest.importorskip("mpmath")
        yp = g.yor_params(sigma, m, lam)
        y = 0.5 * sigma**2 * z
        with mp.workdps(35 + int(math.log10(1.0 + 1.0 / y))):
            a, b, x = mp.mpf(yp.alpha), mp.mpf(yp.beta_g), 1 / mp.mpf(y)
            if yp.alpha == 1.0 and yp.beta_g >= 1e7:
                x = b / mp.mpf(0.5 * sigma**2 * yp.beta_g * z)
                ref = 1 - gamma_q_mp(mp, b, x) - b / x * (1 - gamma_q_mp(mp, b + 1, x))
            else:
                ref = (mp.exp(mp.loggamma(a + 1) - mp.loggamma(a + b + 1) + b * mp.log(x) - x)
                       * mp.hyp1f1(a + 1, a + b + 1, x, maxterms=10**6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = g.yor_survival(z, sigma, m, lam)
        assert value == pytest.approx(float(ref), rel=1e-13, abs=0.0)


class TestDoubleExponentialRule:
    @pytest.mark.parametrize("f, a, b, exact", [
        (np.sqrt, 0.0, 1.0, 2.0 / 3.0),
        (lambda x: 1.0 / np.sqrt(x), 0.0, 4.0, 4.0),
        (np.cos, -1.0, 2.0, math.sin(2.0) + math.sin(1.0)),
        (lambda x: np.exp(-x), 0.0, math.inf, 1.0),
        (lambda x: x**2.5 * np.exp(-x), 0.0, math.inf, math.gamma(3.5)),
        (lambda x: x * np.exp(3.0 - x), 3.0, math.inf, 4.0),
    ])
    def test_known_integrals(self, f, a, b, exact):
        assert _de_integrate(f, a, b) == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_stacked_intervals_match_one_at_a_time(self):
        # each interval stops on its own test, at its own level, with its own sum
        a = np.array([[0.0, 0.5], [-1.0, 2.0]])
        b = np.array([1.0, 3.0])

        def f(x, k):
            return np.exp(-k * x * x)

        k = np.array([[0.5, 40.0], [3.0, 1e3]])
        stacked = _de_integrate(f, a, b, args=(k,))
        assert stacked.shape == (2, 2)
        for i in np.ndindex(2, 2):
            assert stacked[i] == _de_integrate(lambda x: f(x, k[i]), a[i], b[i[1]])

    def test_jump_runs_out_of_levels(self):
        with pytest.warns(AccuracyWarning, match="stopped at step"):
            value = _de_integrate(lambda x: (x > 0.3).astype(float), 0.0, 1.0)
        assert value == pytest.approx(0.7, abs=5e-3)

    def test_slow_decay_cut_by_the_span_warns(self):
        # e^(-x/100) keeps e^-3 of its mass beyond the farthest node, x = 299
        with pytest.warns(AccuracyWarning, match="stopped at step"):
            _de_integrate(lambda x: np.exp(-0.01 * x), 0.0, math.inf)


class TestImport:
    @staticmethod
    def _scipy_after(code):
        """What a fresh interpreter prints after each step of code, with gbmsum from
        the tree under test: the scipy modules loaded by then."""
        src = str(Path(g.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        return out.stdout.split()

    SCIPY = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"

    def test_no_scipy_after_import_solve_price_and_mc(self):
        # the reference laws are integrals over their Gamma factor, so none loads scipy
        code = ("import sys, gbmsum as g\n"
                "g.solve_infinite(g.ReducedParams(beta=1.0, rho=-0.1))\n"
                "g.solve_geometric(g.ReducedParams(beta=0.1, rho=0.0, p=0.01))\n"
                "g.asian_prices(g.AsianSpec(100.0, 100.0, 0.1, 0.0, 0.2, 1.0, 10))\n"
                "g.simulate_sum(g.ReducedParams(beta=0.1, rho=0.0),\n"
                "               g.McConfig(n_paths=2000, seed=1), lambda x: x)\n"
                + self.SCIPY + "g.yor_survival(1.0, 1.0, 0.0, 0.1)\n"
                + self.SCIPY + "g.yor_pdf([0.5, 2.0], 1.0, 0.0, 0.1)\n"
                + self.SCIPY + "g.inv_gamma_cdf([0.5, 2.0], 1.0, -0.1)\n" + self.SCIPY)
        assert self._scipy_after(code) == ["[]"] * 4

    def test_density_command_loads_no_scipy(self, tmp_path):
        # its f_continuous_limit column calls yor_pdf at each of 1829 grid nodes
        code = ("import sys\nfrom gbmsum.cli import main\n"
                "print(main(['density', '--beta', '0.1', '--rho', '0', '--p', '0.01',\n"
                f"            '--out', {str(tmp_path)!r}]))\n" + self.SCIPY)
        assert self._scipy_after(code) == ["0", "[]"]


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
