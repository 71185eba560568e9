"""The special functions the library evaluates, against identities and an
arbitrary-precision oracle.

The library's own: the regularized upper incomplete gamma, which
`inv_gamma_cdf` takes as an integral over its Gamma factor
(`distributions._gamma_factor`, the helper behind `yor_survival` and `yor_pdf`
too, whose mpmath oracles are `test_distributions.py::TestOracle`); the normal
cdf `distributions._ndtr` (Cephes' rational approximations in numpy), which
backs the Black-Scholes rows of the Asian prices; and zeta(3), a constant of
`quadrature_error_bound`.  From scipy.special, which the library does not use:
beta and zeta, the closed forms of the tests' own oracles.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import special

import gbmsum as g
from gbmsum import solver
from gbmsum.distributions import _ndtr


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        yield mpmath


def gamma_q(a, x):
    """The library's Q(a, x): inv_gamma_cdf at sigma = 1 is Q(1 - 2m, 2/z) at z,
    so m = (1 - a)/2 and z = 2/x (inf at x = 0)."""
    return float(g.inv_gamma_cdf(2.0 / x if x > 0.0 else math.inf, 1.0, (1.0 - a) / 2.0))


class TestGammaUpper:
    def test_a_one_is_exp(self):
        for x in (0.0, 0.3, 2.0, 10.0):
            assert gamma_q(1.0, x) == pytest.approx(math.exp(-x), rel=1e-13, abs=0.0)

    def test_x_zero_is_gamma(self):
        # Gamma(a, 0) = Gamma(a): the regularized form is exactly one
        for a in (0.3, 1.7, 5.0):
            assert gamma_q(a, 0.0) == 1.0

    def test_regularized_in_unit_interval_and_monotone(self):
        for a in (0.4, 1.2, 3.7):
            prev = 1.0
            for x in np.linspace(0.0, 30.0, 40):
                q = gamma_q(a, float(x))
                assert 0.0 <= q <= prev
                prev = q

    def test_against_oracle(self, mp):
        # at the floats inv_gamma_cdf evaluates: its shape 1 - 2m and its t = 2/z
        rng = np.random.default_rng(3)
        for _ in range(80):
            a = float(rng.uniform(0.05, 20.0))
            x = float(rng.uniform(0.0, 40.0))
            ref = float(mp.gammainc(1.0 - 2.0 * ((1.0 - a) / 2.0), 2.0 / (2.0 / x), mp.inf,
                                    regularized=True))
            assert gamma_q(a, x) == pytest.approx(ref, rel=1e-12, abs=1e-280)


class TestBetaFn:
    def test_first_argument_one(self):
        for b in (0.5, 2.0, 7.3):
            assert special.beta(1.0, b) == pytest.approx(1.0 / b, rel=1e-13, abs=0.0)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = rng.uniform(0.1, 10.0, 2)
            assert special.beta(a, b) == pytest.approx(special.beta(b, a), rel=1e-13, abs=0.0)

    def test_frozen_value(self):
        # oracle: mpmath.beta(2.5, 3.5)
        assert special.beta(2.5, 3.5) == pytest.approx(0.036815538909255390, rel=1e-12, abs=0.0)

    def test_large_arguments_no_overflow(self):
        assert special.beta(400.0, 350.0) > 0.0


class TestZeta:
    def test_two(self):
        assert special.zeta(2) == pytest.approx(math.pi**2 / 6.0, abs=1e-11)

    @pytest.mark.parametrize("p,ref", [(3, 1.2020569031595943),
                                       (5, 1.0369277551433699),
                                       (7, 1.0083492773819228)])
    def test_odd_values(self, p, ref):
        # oracle: mpmath.zeta
        assert special.zeta(p) == pytest.approx(ref, abs=1e-11)

    def test_bounds(self):
        for p in range(2, 12):
            assert 1.0 < special.zeta(p) <= 2.0


class TestLibraryZeta3:
    def test_constant_is_zeta_3(self, mp):
        assert solver._ZETA_3 == float(mp.zeta(3)) == float(special.zeta(3))


class TestNdtr:
    # the branch switches: erf below |a| = sqrt 2, the two erfc rationals
    # meet at 8 sqrt 2; each with its neighbouring floats
    SWITCHES = [s * np.nextafter(v, d) for v in (math.sqrt(2.0), 8.0 * math.sqrt(2.0))
                for d in (0.0, math.inf) for s in (1.0, -1.0)] + [
                   s * v for v in (math.sqrt(2.0), 8.0 * math.sqrt(2.0)) for s in (1.0, -1.0)]

    def test_matches_mpmath(self, mp):
        # scipy.special.ndtr's own worst on these points is about 2e-13, at a ~ -36;
        # at the switches a jump between branches would show above 2e-15
        points = np.concatenate([np.linspace(-37.0, 8.3, 1001), self.SWITCHES])
        ref = np.array([float(mp.ncdf(mp.mpf(float(a)))) for a in points])
        rel = np.abs(_ndtr(points) / ref - 1.0)
        assert rel.max() <= 2e-13
        assert rel[-len(self.SWITCHES):].max() <= 2e-15

    def test_exact_values_without_warnings(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = _ndtr(np.array([-math.inf, math.inf, 0.0, -0.0]))
        assert got.tolist() == [0.0, 1.0, 0.5, 0.5]

    def test_far_tails_are_0_and_1(self):
        assert _ndtr(np.array([-40.0, -1e300, 40.0, 1e300])).tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_keeps_the_shape(self):
        a = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        got = _ndtr(a)
        assert got.shape == (3, 4)
        np.testing.assert_array_equal(got.ravel(), _ndtr(a.ravel()))
        assert _ndtr(0.3).shape == ()
