"""The scipy.special functions the library evaluates, against identities and
an arbitrary-precision oracle.

gammaincc backs `inv_gamma_cdf`, hyp1f1 backs `yor_pdf` (through Kummer's
transformation, checked here on both sides), beta backs
`yor_moment_residual` and zeta(2k+1) backs `quadrature_error_bound`.
"""

import math

import numpy as np
import pytest
from scipy import special


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
