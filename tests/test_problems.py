import math

import numpy as np
import pytest

import fbjacobi.problems
from fbjacobi.backward_basis import BackwardSpec
from fbjacobi.jacobi_core import JacobiParams, NumericalError
from fbjacobi.problems import (
    _oracle_core,
    _panel_rule,
    case_i,
    case_ii,
    example1,
    oracle_kr,
    regularity_index,
)
from fbjacobi.special_functions import beta
from fbjacobi.volterra_solver import ProblemDefinition, solve

UNIT_K = lambda t, p: 1.0
SQRT2, SQRT3 = math.sqrt(2.0), math.sqrt(3.0)


def layout_value(u, theta, kernel, t, panels, points):
    """oracle_kr's integral at one scalar t on a single panel layout, without
    the doubling check."""
    w = np.array([1.0 - t])
    rule = _panel_rule(panels, points)
    return float(_oracle_core(theta, w, kernel, lambda w_rho: u(1.0 - w_rho), rule)[0])


class TestOracleKr:
    def test_constant_function(self):
        # int_0^1 p^{-1/2} dp = 2
        assert abs(oracle_kr(lambda p: 1.0, 0.5, UNIT_K, 0.0) - 2.0) <= 1e-12

    def test_beta_identity(self):
        rng = np.random.default_rng(9)
        ts = np.array([0.0, 0.3, 0.6, 0.9])
        for _ in range(10):
            theta = rng.uniform(0.1, 0.9)
            gamma = rng.uniform(0.2, 3.5)
            t = rng.uniform(0.0, 0.9)
            u = lambda p, g=gamma: (1.0 - p) ** g
            got = oracle_kr(u, theta, UNIT_K, t)
            ref = beta(1.0 - theta, gamma + 1.0) * (1.0 - t) ** (1.0 - theta + gamma)
            assert abs(got - ref) <= 1e-11
            # one array call over all t gives exactly the scalar results
            grid = np.append(ts, t)
            scalar = np.array([oracle_kr(u, theta, UNIT_K, x) for x in grid])
            assert np.array_equal(oracle_kr(u, theta, UNIT_K, grid), scalar)

    def test_panel_doubling_stability(self):
        fns = (
            lambda p: (1.0 - p) ** SQRT2 + (1.0 - p) ** SQRT3,
            lambda p: math.sin((1.0 - p) ** SQRT2 + (1.0 - p) ** SQRT3),
            lambda p: (1.0 - p) ** 0.5 * math.sin(1.0 - p) / max(1.0 - p, 1e-300),
        )
        for theta in (0.5, 2.0 / 3.0):
            for u in fns:
                for t in (0.0, 0.5, 0.9):
                    a = layout_value(u, theta, UNIT_K, t, 24, 16)
                    # twice the points refine the s -> 1 panels, twice the
                    # panels reach deeper toward s -> 0
                    for panels, points in ((24, 32), (48, 16)):
                        b = layout_value(u, theta, UNIT_K, t, panels, points)
                        assert abs(a - b) <= 1e-11

    @pytest.mark.parametrize("gamma, raises", [(1.5, False), (0.5, False), (-0.3, False),
                                               (-0.5, True), (-0.9, True), (-0.97, True)])
    def test_check_refines_the_terminal_panels(self, gamma, raises):
        # (1-p)^gamma is singular at s = 1, where the grading stops at
        # 1 - s = 1e-12; the last panel cannot resolve gamma <= -0.5 (3.1e-2
        # off at -0.9), and only more points per panel show it
        u = lambda p: (1.0 - p) ** gamma
        if raises:
            with pytest.raises(NumericalError, match="oracle unstable"):
                oracle_kr(u, 0.5, UNIT_K, 0.25)
        else:
            ref = beta(0.5, gamma + 1.0) * 0.75 ** (0.5 + gamma)
            assert abs(oracle_kr(u, 0.5, UNIT_K, 0.25) - ref) <= 1e-10 * ref

    def test_nan_fails_doubling_check(self):
        u = lambda p: math.nan if 0.3 < p < 0.31 else 1.0
        with pytest.raises(NumericalError, match="oracle unstable"):
            oracle_kr(u, 0.5, UNIT_K, 0.0)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            oracle_kr(lambda p: 1.0, 1.2, UNIT_K, 0.0)
        with pytest.raises(ValueError):
            oracle_kr(lambda p: 1.0, 0.5, UNIT_K, 1.0)


class TestExample1:
    def test_terminal_source_value(self):
        prob = example1(0.5)
        assert prob.source(1.0) == 0.0
        assert prob.source_at(1.0, 0.0) == 0.0

    def test_source_matches_oracle_route(self):
        for theta in (0.5, 2.0 / 3.0):
            prob = example1(theta)
            ts = np.array([0.0, 0.25, 0.5, 0.75, 0.95])
            ref = prob.exact(ts) - oracle_kr(prob.exact, theta, UNIT_K, ts)
            for t, r in zip(ts, ref):
                assert abs(prob.source(t) - r) <= 1e-9

    def test_theta_validation(self):
        for theta in (0.0, 1.0):
            with pytest.raises(ValueError, match="theta must lie in"):
                example1(theta)

    def test_source_mismatch_raises(self, monkeypatch):
        bessel_j = fbjacobi.problems.bessel_j
        monkeypatch.setattr(fbjacobi.problems, "bessel_j",
                            lambda nu, x: bessel_j(nu, x) * (1.0 + 1e-6))
        with pytest.raises(NumericalError, match="closed-form source"):
            example1(0.5)

    def test_exact_solution_values(self):
        prob = example1(0.5)
        # (1-t)^{-1/2} sin(1-t) at t = 3/4 is 2 sin(1/4)
        assert abs(float(prob.exact(0.75)) - 2.0 * math.sin(0.25)) <= 1e-14
        # continuous limit at the terminal endpoint
        assert float(prob.exact(1.0)) == 0.0

    def test_source_w_agrees_with_source(self):
        prob = example1(2.0 / 3.0)
        for t in (0.0, 0.3, 0.8, 0.99):
            assert abs(prob.source_w(1.0 - t) - prob.source(t)) <= 1e-15

    @pytest.mark.parametrize("theta", [0.3, 0.5, 2.0 / 3.0])
    def test_source_w_on_arrays(self, theta):
        # elementwise the 0-d values; 0 at and below the terminal endpoint
        g_w = example1(theta).source_w
        w = np.array([[-0.5, -0.0, 0.0, 1e-12], [0.01, 0.3, 0.75, 1.0]])
        got = g_w(w)
        assert got.shape == w.shape
        assert got.tolist() == [[g_w(v) for v in row] for row in w.tolist()]
        assert got[0, :3].tolist() == [0.0, 0.0, 0.0]
        assert type(g_w(0.5)) is np.float64 and g_w(0.0) == 0.0

    def test_solve_reads_source_and_kernel_once(self):
        # nine scalar kernel probes at construction, then one array call each
        prob = example1(0.4)
        log = []

        def counting(f, name):
            def wrapper(*args):
                log.append((name, any(np.ndim(a) for a in args)))
                return f(*args)
            return wrapper

        counted = ProblemDefinition(theta=prob.theta, kernel=counting(prob.kernel, "kernel"),
                                    source_w=counting(prob.source_w, "source"),
                                    exact_w=prob.exact_w)
        solve(counted, BackwardSpec(JacobiParams(-0.25, -0.25), 0.5), 48)
        assert [a for name, a in log if name == "kernel"] == [False] * 9 + [True]
        assert [a for name, a in log if name == "source"] == [True]


class TestCaseI:
    def test_closed_form_values(self):
        # g(0) = 2 - 2 B(1/2, 2) = 2 - 8/3
        prob = case_i(0.5, 1.0, 1.0)
        assert abs(float(prob.source(0.0)) - (2.0 - 8.0 / 3.0)) <= 1e-14
        assert float(prob.source(1.0)) == 0.0

    def test_against_oracle(self):
        prob = case_i(2.0 / 3.0, SQRT2, SQRT3)
        got = float(prob.source(0.5))
        ref = float(prob.exact(0.5)) - oracle_kr(prob.exact, 2.0 / 3.0, UNIT_K, 0.5)
        assert abs(got - ref) <= 1e-10

    def test_validates_exponents(self):
        with pytest.raises(ValueError):
            case_i(0.5, -1.0, 2.0)
        with pytest.raises(ValueError, match="positive and finite"):
            case_i(0.5, math.inf, 2.0)


class TestCaseII:
    def test_terminal_source_value(self):
        prob = case_ii(0.5, SQRT2, SQRT3)
        assert prob.source_at(1.0, 0.0) == 0.0

    def test_equal_exponents_doubling(self):
        prob = case_ii(0.5, SQRT2, SQRT2)

        def u(t):
            return float(prob.exact(t))

        for t in (0.1, 0.6):
            a = layout_value(u, 0.5, UNIT_K, t, 24, 16)
            b = layout_value(u, 0.5, UNIT_K, t, 24, 32)
            assert abs(a - b) <= 1e-11

    def test_config_independence(self):
        # the source from the fixed layout against u - K_R u on another layout
        prob = case_ii(0.5, SQRT2, SQRT3)
        u = lambda t: float(prob.exact(t))
        other = u(0.25) - layout_value(u, 0.5, prob.kernel, 0.25, 30, 20)
        assert abs(float(prob.source(0.25)) - other) <= 1e-11

    def test_validates_exponents(self):
        for gammas in ((0.0, 2.0), (SQRT2, -1.0), (SQRT2, math.inf), (math.nan, SQRT3)):
            with pytest.raises(ValueError, match="positive and finite"):
                case_ii(0.5, *gammas)

    def test_source_is_deterministic(self):
        prob = case_ii(0.5, SQRT2, SQRT3)
        first = prob.source(0.37)
        second = prob.source(0.37)
        assert first == second

    def test_source_consistency_probes(self):
        prob = case_ii(0.5, SQRT2, SQRT3)
        ts = np.array([0.0, 0.25, 0.5, 0.75, 0.95])
        ref = prob.exact(ts) - oracle_kr(prob.exact, 0.5, UNIT_K, ts)
        for t, r in zip(ts, ref):
            assert abs(prob.source_at(t, 1.0 - t) - r) <= 1e-9


class TestRegularityIndex:
    def test_case_table(self):
        assert regularity_index(2.0, 3.0) == math.inf
        assert regularity_index(SQRT2, 3.0) == SQRT2
        assert regularity_index(3.0, SQRT2) == SQRT2
        assert regularity_index(SQRT2, SQRT3) == SQRT2
        assert regularity_index(SQRT3, SQRT2) == SQRT2

    def test_positive_exponents_required(self):
        with pytest.raises(ValueError):
            regularity_index(0.0, 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            regularity_index(SQRT2, math.inf)
