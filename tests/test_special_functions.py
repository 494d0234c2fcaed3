import math

import mpmath
import numpy as np
import pytest

from fbjacobi.special_functions import (
    bessel_j,
    beta,
    mittag_leffler,
)


class TestBeta:
    def test_known_values(self):
        assert abs(beta(1.0, 1.0) - 1.0) < 1e-13
        assert abs(beta(0.5, 0.5) - math.pi) < 1e-12 * math.pi

    def test_against_adaptive_integral(self):
        # B(1-theta, gamma+1) with theta=1/2, gamma=sqrt(2), vs mpmath.quad;
        # extra digits keep the endpoint singularity from polluting the oracle
        theta, gamma = 0.5, math.sqrt(2.0)
        with mpmath.workdps(30):
            g = mpmath.mpf(repr(gamma))
            ref = float(mpmath.quad(lambda x: x ** mpmath.mpf("-0.5") * (1 - x) ** g, [0, 1]))
        assert abs(beta(1.0 - theta, gamma + 1.0) - ref) <= 1e-11 * ref

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a, b = rng.uniform(1e-3, 10.0, 2)
            assert abs(beta(a, b) - beta(b, a)) <= 1e-13 * beta(a, b)

    def test_domain(self):
        with pytest.raises(ValueError, match="beta requires positive arguments"):
            beta(0.0, 1.0)

    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.inf)])
    def test_infinite_argument_is_refused(self, a, b):
        # lgamma(inf) - lgamma(inf) gave a silent nan
        with pytest.raises(ValueError) as info:
            beta(a, b)
        assert str(info.value) == f"beta requires finite arguments, got ({a}, {b})"


class TestBesselJ:
    def test_at_origin(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.5, 0.0) == 0.0
        assert bessel_j(-0.25, 0.0) == math.inf

    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x
        assert abs(bessel_j(0.5, 1.0) - math.sqrt(2.0 / math.pi) * math.sin(1.0)) < 1e-12
        for x in (0.1, 0.5, 1.0):
            lhs = bessel_j(0.5, x) * math.sqrt(math.pi * x / 2.0)
            assert abs(lhs - math.sin(x)) <= 1e-12

    def test_series_oracle(self):
        # brute-force ascending series, 500 terms at 50 digits
        with mpmath.workdps(50):
            nu, x = mpmath.mpf("0.25"), mpmath.mpf("0.5")
            acc = mpmath.mpf(0)
            for i in range(500):
                acc += (-(x / 2) ** 2) ** i / (mpmath.factorial(i) * mpmath.gamma(nu + i + 1))
            ref = float((x / 2) ** nu * acc)
        assert abs(bessel_j(0.25, 0.5) - ref) <= 1e-12 * abs(ref)

    def test_negative_order_range(self):
        for theta in (0.51, 2.0 / 3.0, 0.9):
            nu = 0.5 - theta
            ref = float(mpmath.besselj(nu, 0.3))
            assert abs(bessel_j(nu, 0.3) - ref) <= 1e-12 * abs(ref)

    def test_against_scipy_on_intended_range(self):
        import scipy.special

        for nu in (-0.4, -1.0 / 6.0, 0.0, 0.25, 0.5):
            for x in (1e-8, 0.01, 0.3, 0.5, 1.0):
                ref = float(scipy.special.jv(nu, x))
                assert abs(bessel_j(nu, x) - ref) <= 1e-12 * max(abs(ref), 1e-30)

    def test_domain(self):
        with pytest.raises(ValueError, match="bessel_j requires nu > -1"):
            bessel_j(-1.0, 1.0)
        with pytest.raises(ValueError, match="bessel_j requires x >= 0"):
            bessel_j(0.5, -0.1)
        with pytest.raises(ValueError, match="bessel_j requires x >= 0"):
            bessel_j(0.5, np.array([0.5, -0.1]))
        with pytest.raises(ValueError, match="bessel_j requires x >= 0"):
            bessel_j(0.5, math.nan)

    @pytest.mark.parametrize("nu", [-0.4, -1.0 / 6.0, 0.0, 0.25, 1.5])
    def test_array_equals_scalar_series(self, nu):
        # each element runs the series' own terms and stopping rule, so the
        # array value is the scalar series' value bit for bit
        def series(nu, x):
            if x == 0.0:
                return 1.0 if nu == 0.0 else (0.0 if nu > 0.0 else math.inf)
            half = 0.5 * x
            term = math.exp(nu * math.log(half) - math.lgamma(nu + 1.0))
            total = term
            for i in range(1, 200):
                term *= -half * half / (i * (nu + i))
                total += term
                if abs(term) < 1e-16 * abs(total):
                    break
            return total

        x = np.concatenate([[0.0, 1e-300, 1e-8, 4.0, 9.5],
                            np.random.default_rng(3).uniform(0.0, 1.0, 300)])
        got = bessel_j(nu, x)
        assert got.tolist() == [series(nu, v) for v in x.tolist()]
        assert got.tolist() == [bessel_j(nu, v) for v in x.tolist()]

    def test_zero_dimensional_rule(self):
        assert type(bessel_j(0.25, 0.5)) is np.float64
        assert type(bessel_j(0.25, np.array(0.5))) is np.float64
        assert type(bessel_j(0.25, 0.0)) is np.float64
        x = np.array([[0.0, 0.5, 1.0], [2.0, 1e-8, 0.25]])
        got = bessel_j(-0.25, x)
        assert got.shape == (2, 3)
        assert got[0, 0] == math.inf and np.array_equal(got.ravel(), bessel_j(-0.25, x.ravel()))
        assert bessel_j(0.5, np.empty((0, 2))).shape == (0, 2)


class TestMittagLeffler:
    def test_exponential_case(self):
        assert abs(mittag_leffler(1.0, 1.0) - math.e) <= 1e-12 * math.e
        for z in np.arange(-5.0, 5.01, 0.5):
            ref = math.exp(z)
            assert abs(mittag_leffler(1.0, float(z)) - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("sigma, z", [
        (1.0, -20.0),  # the series gave 7.55e-9 for e^-20 = 2.06e-9
        (1.0, -40.0),  # 0.268 for e^-40 = 4.2e-18
        (0.5, -10.0),  # -7.6e28 for e^100 erfc(10) = 0.056
    ])
    def test_cancellation_is_refused(self, sigma, z):
        with pytest.raises(ValueError, match="cancels more than four digits"):
            mittag_leffler(sigma, z)

    def test_zero_argument(self):
        for sigma in (0.3, 1.0, 2.5):
            assert mittag_leffler(sigma, 0.0) == 1.0

    def test_cosh_case(self):
        assert abs(mittag_leffler(2.0, 1.0) - math.cosh(1.0)) <= 1e-12 * math.cosh(1.0)

    def test_against_mpmath_series(self):
        with mpmath.workdps(40):
            sigma, z = mpmath.mpf(1) / 3, mpmath.mpf("2.6789")
            ref = float(mpmath.nsum(lambda n: z**n / mpmath.gamma(sigma * n + 1), [0, mpmath.inf]))
        assert abs(mittag_leffler(1.0 / 3.0, 2.6789) - ref) <= 1e-11 * ref

    def test_domain_and_overflow(self):
        with pytest.raises(ValueError, match="mittag_leffler requires sigma > 0"):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(OverflowError):
            mittag_leffler(0.1, 50.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    def test_non_finite_argument_is_refused(self, sigma, z):
        # a NaN z summed 500 NaN terms and raised OverflowError, which reads
        # like an infinite value
        with pytest.raises(ValueError, match="requires a finite z"):
            mittag_leffler(sigma, z)

    @pytest.mark.parametrize("z", [0.0, 1.0])
    def test_infinite_sigma_is_refused(self, z):
        # round(inf) raised OverflowError, as if the series had overflowed
        with pytest.raises(ValueError, match="mittag_leffler requires a finite sigma, got inf"):
            mittag_leffler(math.inf, z)

    @pytest.mark.parametrize("sigma, z, message", [
        # e^705 = 1.5e306 needs about 930 terms; the first 500 sum to 2.4e290
        (1.0, 705.0, "has not converged in 500 terms"),
        # E_{1/4}(Gamma(1/4)) = 4.41e75 needs over 1000 terms
        (0.25, math.gamma(0.25), "has not converged in 500 terms"),
        # E_{1/5}(Gamma(1/5)) is about 2.1e886, beyond double precision
        (0.2, math.gamma(0.2), "has not converged in 500 terms"),
        # cosh(711.5) overflows in the sum though every term is finite
        (2.0, 506232.0, "intermediate overflow in fsum"),
    ])
    def test_no_truncated_partial_sum(self, sigma, z, message):
        with pytest.raises(OverflowError, match=message):
            mittag_leffler(sigma, z)
