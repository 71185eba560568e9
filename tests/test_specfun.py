"""The special functions the library evaluates, against identities and an
arbitrary-precision oracle.

From scipy.special, which only inv_gamma_cdf and yor_pdf load: gammaincc
backs `inv_gamma_cdf` and hyp1f1 backs `yor_pdf` (through Kummer's
transformation, checked here on both sides); beta and zeta are the
closed forms of the tests' own oracles.  The library's own: the normal cdf
`distributions._ndtr` (Cephes' rational approximations in numpy) backs the
Black-Scholes rows of the Asian prices, and zeta(3) is a constant of
`quadrature_error_bound`.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from gbmsum import solver
from gbmsum.distributions import _ndtr


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        yield mpmath


class TestGammaUpper:
    def test_a_one_is_exp(self):
        for x in (0.0, 0.3, 2.0, 10.0):
            assert special.gammaincc(1.0, x) == pytest.approx(math.exp(-x), rel=1e-13)

    def test_x_zero_is_gamma(self):
        # Gamma(a, 0) = Gamma(a): the regularized form is exactly one
        for a in (0.3, 1.7, 5.0):
            assert special.gammaincc(a, 0.0) == 1.0

    def test_regularized_in_unit_interval_and_monotone(self):
        for a in (0.4, 1.2, 3.7):
            prev = 1.0
            for x in np.linspace(0.0, 30.0, 40):
                q = float(special.gammaincc(a, float(x)))
                assert 0.0 <= q <= prev
                prev = q

    def test_against_oracle(self, mp):
        rng = np.random.default_rng(3)
        for _ in range(80):
            a = float(rng.uniform(0.05, 20.0))
            x = float(rng.uniform(0.0, 40.0))
            ref = float(mp.gammainc(a, x, mp.inf, regularized=True))
            got = float(special.gammaincc(a, x))
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-280)


class TestHyp1f1:
    def test_equal_parameters_give_exp(self):
        assert special.hyp1f1(2.3, 2.3, 1.0) == pytest.approx(math.e, rel=1e-13)

    def test_zero_argument(self):
        assert special.hyp1f1(0.7, 1.9, 0.0) == 1.0

    def test_kummer_pair_frozen(self):
        # oracle: mpmath gives 0.0102654605111478770 for both sides
        lhs = special.hyp1f1(1.5, 3.2, -40.0)
        rhs = math.exp(-40.0) * special.hyp1f1(1.7, 3.2, 40.0)
        assert lhs == pytest.approx(0.010265460511147877, rel=1e-9)
        assert rhs == pytest.approx(0.010265460511147877, rel=1e-9)

    def test_kummer_identity_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = float(rng.uniform(0.2, 4.0))
            b = a + float(rng.uniform(0.2, 4.0))
            z = float(rng.uniform(-50.0, 50.0))
            lhs = special.hyp1f1(a, b, z)
            rhs = math.exp(z) * special.hyp1f1(b - a, b, -z)
            assert abs(lhs - rhs) <= 1e-8 * abs(lhs)

    def test_against_oracle(self, mp):
        rng = np.random.default_rng(5)
        for _ in range(60):
            a = float(rng.uniform(0.2, 5.0))
            b = a + float(rng.uniform(0.1, 4.0))
            z = float(rng.uniform(-200.0, 60.0))
            ref = float(mp.hyp1f1(a, b, z))
            assert special.hyp1f1(a, b, z) == pytest.approx(ref, rel=1e-9)


class TestBetaFn:
    def test_first_argument_one(self):
        for b in (0.5, 2.0, 7.3):
            assert special.beta(1.0, b) == pytest.approx(1.0 / b, rel=1e-13)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = rng.uniform(0.1, 10.0, 2)
            assert special.beta(a, b) == pytest.approx(special.beta(b, a), rel=1e-13)

    def test_frozen_value(self):
        # oracle: mpmath.beta(2.5, 3.5)
        assert special.beta(2.5, 3.5) == pytest.approx(0.036815538909255390, rel=1e-12)

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
