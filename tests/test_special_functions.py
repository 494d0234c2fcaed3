import math

import mpmath
import numpy as np
import pytest

from fbjacobi.special_functions import (
    bessel_j,
    beta,
    gamma_ratio,
    log_gamma,
    mittag_leffler,
)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == 0.0
        assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13 * math.log(24.0)
        assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-13

    def test_domain(self):
        with pytest.raises(ValueError, match="log_gamma requires x > 0"):
            log_gamma(0.0)
        with pytest.raises(ValueError, match="log_gamma requires x > 0"):
            log_gamma(-3.5)

    def test_recurrence(self):
        # Gamma(x+1) = x Gamma(x) across the first decade of arguments
        for k in range(1, 101):
            x = 0.1 * k
            lhs = math.exp(log_gamma(x + 1.0))
            rhs = x * math.exp(log_gamma(x))
            assert abs(lhs - rhs) <= 1e-12 * lhs

    def test_accuracy_against_mpmath(self):
        for x in (1e-3, 0.37, 1.0, 2.0, 7.3, 41.0, 123.4, 200.0):
            ref = float(mpmath.loggamma(x))
            assert abs(log_gamma(x) - ref) <= 1e-13 * max(abs(ref), 1.0)


class TestGammaRatio:
    def test_integer_values(self):
        assert abs(gamma_ratio(5.0, 4.0) - 4.0) < 1e-12
        assert gamma_ratio(1.0, 1.0) == 1.0

    def test_derivative_factor_value(self):
        # r=3, k=2, mu=upsilon=0: the factor is (r+1)(r+2) = 20
        r, k = 3, 2
        val = gamma_ratio(r + k + 1.0, r + 1.0)
        assert abs(val - 20.0) < 1e-12 * 20.0

    def test_large_arguments_no_overflow(self):
        # both gamma values alone exceed double range; the ratio is modest
        val = gamma_ratio(180.5, 176.25)
        ref = float(mpmath.gamma("180.5") / mpmath.gamma("176.25"))
        assert abs(val - ref) <= 1e-12 * ref

    def test_domain(self):
        with pytest.raises(ValueError, match="gamma_ratio requires positive arguments"):
            gamma_ratio(-1.0, 2.0)
        with pytest.raises(ValueError, match="gamma_ratio requires positive arguments"):
            gamma_ratio(2.0, 0.0)


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
