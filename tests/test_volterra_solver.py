import math
import warnings

import mpmath
import numpy as np
import pytest

from fbjacobi import approximation, volterra_solver
from fbjacobi.approximation import MAX_N, cardinal_matrix
from fbjacobi.backward_basis import BackwardSpec, fb_nodes
from fbjacobi.jacobi_core import JacobiParams, NumericalError, gauss_rule
from fbjacobi.problems import case_i, oracle_kr
from fbjacobi.special_functions import beta
from fbjacobi.volterra_solver import (
    CollocationSolution,
    ProblemDefinition,
    _assemble_from,
    _Assembly,
    singular_ratio,
    solve,
)

EPS = np.finfo(float).eps


def spec_of(mu, up, rho):
    return BackwardSpec(JacobiParams(mu, up), rho)


def unit_problem(theta):
    return ProblemDefinition(theta=theta, kernel=lambda t, p: 1.0, source=lambda t: 0.0)


def assemble(problem, spec, n):
    return _assemble_from(_Assembly(problem, spec, n))


def apply_operator(ctx, phi, i):
    """The discrete operator applied to phi (an array callable) at node i."""
    return float(ctx.chi @ (ctx.kbar[i] * phi(ctx.quad_t[i])))


def kernel_transform(problem, spec, t_i, eta):
    """Scalar reference for one entry of `_Assembly.kbar`: the transformed
    kernel ((1-t_i)^{1-theta}/rho) * (s(eta)/eta)^{-theta} * K(t_i, rho_i(eta))
    at collocation point t_i and quadrature variable eta, with
    s(eta) = 1 - (1-eta)^{1/rho} and rho_i(eta) = t_i + (1-t_i) s(eta)."""
    w = 1.0 - t_i
    s_eta = -math.expm1(math.log1p(-eta) / spec.rho)
    ratio = s_eta / eta if eta > 0.0 else 1.0 / spec.rho
    varrho = t_i + w * s_eta
    return (w ** (1.0 - problem.theta) / spec.rho * ratio ** (-problem.theta)
            * float(problem.kernel(t_i, varrho)))


def cardinal_reference(ctx):
    """The collocation matrix assembled row by row from `cardinal_matrix`."""
    mat = np.eye(ctx.n + 1)
    for i in range(ctx.n + 1):
        mat[i] -= (ctx.chi * ctx.kbar[i]) @ cardinal_matrix(ctx.nodes_z, ctx.bary,
                                                            ctx.quad_z[i])
    return mat


def assert_rows_close(mat, ref):
    """Each row within 4 eps of that row's largest entry."""
    row_err = np.max(np.abs(mat - ref), axis=1)
    bound = 4.0 * EPS * np.max(np.abs(ref), axis=1)
    assert np.all(row_err <= bound), np.max(row_err / bound)


class TestProblemDefinition:
    def test_theta_bounds(self):
        with pytest.raises(ValueError):
            unit_problem(0.0)
        with pytest.raises(ValueError):
            unit_problem(1.0)

    def test_kernel_finiteness_sampled(self):
        with pytest.raises(ValueError):
            ProblemDefinition(
                theta=0.5,
                kernel=lambda t, p: 1.0 / (p - t + (0.0 if t < p else 0.0))
                if p > t else math.inf,
                source=lambda t: 0.0,
            )

    def test_source_w_preferred(self):
        prob = ProblemDefinition(
            theta=0.5,
            kernel=lambda t, p: 1.0,
            source=lambda t: -1.0,
            source_w=lambda w: float(w),
        )
        assert prob.source_at(0.75, 0.25) == 0.25

    def test_t_forms_derived_from_w_forms(self):
        prob = ProblemDefinition(
            theta=0.5,
            kernel=lambda t, p: 1.0,
            source_w=lambda w: w * w - 2.0 * w,
            exact_w=lambda w: 3.0 * w + 1.0,
        )
        ts = np.array([0.0, 0.25, 0.9, 1.0])
        for f, f_w in ((prob.source, prob.source_w), (prob.exact, prob.exact_w)):
            assert isinstance(f(0.25), float)
            assert f(0.25) == f_w(0.75)
            assert np.array_equal(f(ts), f_w(1.0 - ts))

    def test_source_required(self):
        with pytest.raises(ValueError, match="source"):
            ProblemDefinition(theta=0.5, kernel=lambda t, p: 1.0)


class TestKernelTransform:
    def test_ratio_limit_and_splice(self):
        # the bounded factor tends to 1/rho at eta -> 0 and the Taylor/direct
        # branches agree at the splice point
        for rho in (1.0, 0.5, 0.25, 1.0 / 3.0):
            assert abs(singular_ratio(rho, 0.0) - 1.0 / rho) < 1e-15
            lo = singular_ratio(rho, 1e-6 * (1 - 1e-10))
            hi = singular_ratio(rho, 1e-6 * (1 + 1e-10))
            assert abs(lo - hi) <= 1e-12 * abs(hi)
            # an array takes the same branch per entry as the scalar calls
            etas = [0.0, 1e-6 * (1 - 1e-10), 1e-6 * (1 + 1e-10), 0.5, 0.99]
            assert np.array_equal(singular_ratio(rho, np.array(etas)),
                                  [singular_ratio(rho, e) for e in etas])

    def test_unit_rho_middle_factor_is_one(self):
        # for rho = 1 the bounded factor is 1, so kbar_ik = (1 - t_i)^{1/2}
        ctx = _Assembly(unit_problem(0.5), spec_of(-0.25, -0.25, 1.0), 6)
        ref = np.broadcast_to(ctx.w_nodes[:, None] ** 0.5, ctx.kbar.shape)
        assert np.max(np.abs(ctx.kbar - ref)) <= 1e-14

    def test_transform_value(self):
        # rho=1/2, theta=1/2, K=1, t=0, eta=3/4:
        # prefactor (1-t)^{1/2}/rho = 2, ratio = (1-(1/4)^2)/(3/4) = 5/4
        prob = unit_problem(0.5)
        spec = spec_of(-0.25, -0.25, 0.5)
        ref = 2.0 * (5.0 / 4.0) ** -0.5
        assert abs(kernel_transform(prob, spec, 0.0, 0.75) - ref) <= 1e-14 * ref
        # on the solver's grid the ratio is (1-(1-eta)^2)/eta = 2 - eta, so
        # kbar_ik = 2 (1-t_i)^{1/2} (2 - eta_k)^{-1/2}
        n = 8
        ctx = _Assembly(prob, spec, n)
        eta = gauss_rule(JacobiParams(1.0 / 0.5 - 1.0, -0.5), n + 1).nodes
        ref = 2.0 * ctx.w_nodes[:, None] ** 0.5 * (2.0 - eta) ** -0.5
        assert np.max(np.abs(ctx.kbar - ref) / ref) <= 1e-14

    def test_terminal_point_rejected(self, monkeypatch):
        # a node whose 1 - t underflows to 0 at small rho is the terminal point
        spec = spec_of(0, 0, 0.01)
        nodes_z = np.array([0.5, np.nextafter(1.0, 0.0)])
        monkeypatch.setattr(volterra_solver, "_node_set",
                            lambda spec, n: (nodes_z, 1.0 - (1.0 - nodes_z) ** 100,
                                             np.array([1.0, -1.0])))
        with pytest.raises(ValueError, match="terminal endpoint"):
            _Assembly(unit_problem(0.5), spec, 1)

    def test_transform_reproduces_integral(self):
        # summing the transformed kernel against the Jacobi rule reproduces
        # int_t^1 (p-t)^{-theta} dp = (1-t)^{1-theta}/(1-theta)
        prob = unit_problem(0.5)
        for rho in (1.0, 0.5):
            ctx = _Assembly(prob, spec_of(-0.25, -0.25, rho), 11)
            got = ctx.kbar @ ctx.chi
            ref = ctx.w_nodes ** 0.5 / 0.5
            assert np.max(np.abs(got - ref) / ref) <= 1e-12


class TestDiscreteOperator:
    def test_zero_function(self):
        ctx = _Assembly(unit_problem(0.5), spec_of(-0.25, -0.25, 0.5), 6)
        assert apply_operator(ctx, np.zeros_like, 3) == 0.0

    def test_constant_against_weight_mass(self):
        # with K=1 the rule integrates constants exactly:
        # value at node i is (1-t_i)^{1-theta} * B(1, 1-theta) for rho=1
        spec = spec_of(-0.25, -0.25, 1.0)
        ctx = _Assembly(unit_problem(0.5), spec, 6)
        nodes = fb_nodes(spec, 6)
        for i in (0, 3, 6):
            got = apply_operator(ctx, np.ones_like, i)
            ref = 2.0 * (1.0 - nodes[i]) ** 0.5
            assert abs(got - ref) <= 1e-13 * ref

    def test_polynomial_against_beta_closed_form(self):
        # int_t^1 (p-t)^{-1/2} (1-p)^2 dp = (1-t)^{5/2} B(1/2, 3),
        # cross-checked against adaptive quadrature at t = 1/4
        ref = (0.75) ** 2.5 * beta(0.5, 3.0)
        with mpmath.workdps(30):
            ada = float(
                mpmath.quad(
                    lambda p: (p - mpmath.mpf("0.25")) ** mpmath.mpf("-0.5") * (1 - p) ** 2,
                    [mpmath.mpf("0.25"), 1],
                )
            )
        assert abs(ref - ada) <= 1e-12 * ref
        # a 5-point rule is exact for the quadratic in eta; at rho = 1 the
        # quadrature points are t_i + (1 - t_i) eta_k
        ctx = _Assembly(unit_problem(0.5), spec_of(-0.25, -0.25, 1.0), 4)
        for i in range(5):
            got = apply_operator(ctx, lambda p: (1.0 - p) ** 2, i)
            ref = ctx.w_nodes[i] ** 2.5 * beta(0.5, 3.0)
            assert abs(got - ref) <= 1e-13 * ref

    def test_refinement_consistency_for_entire_integrands(self):
        for theta, rho in ((0.5, 1.0), (0.5, 0.5), (2.0 / 3.0, 1.0 / 3.0)):
            prob = unit_problem(theta)
            spec = spec_of(-0.25, -0.25, rho)
            n = 24
            ctx = _Assembly(prob, spec, n)
            nodes = fb_nodes(spec, n)
            for i in (0, 12, 24):
                a = apply_operator(ctx, np.exp, i)
                b = oracle_kr(math.exp, theta, prob.kernel, float(nodes[i]))
                assert abs(a - b) < 1e-8

    def test_matches_kernel_transform_reference(self):
        # the kernel sampled on the whole (node, quadrature point) grid gives
        # the same Gauss sums as the scalar transform, for a kernel in t and p;
        # the reference forms 1 - t_i from the rounded t_i, hence the 1e-12
        prob = ProblemDefinition(theta=0.4, kernel=lambda t, p: np.exp(t) * p,
                                 source=lambda t: 0.0)
        spec = spec_of(-0.25, -0.25, 0.5)
        n = 8
        rule = gauss_rule(JacobiParams(1.0 / 0.5 - 1.0, -0.4), n + 1)
        nodes = fb_nodes(spec, n)
        ctx = _Assembly(prob, spec, n)
        for i in (0, 4, 8):
            ref = sum(w * kernel_transform(prob, spec, float(nodes[i]), float(e))
                      for e, w in zip(rule.nodes, rule.weights))
            got = apply_operator(ctx, np.ones_like, i)
            assert abs(got - ref) <= 1e-12 * abs(ref)


class TestAssemble:
    def test_zero_kernel_gives_identity(self):
        prob = ProblemDefinition(theta=0.5, kernel=lambda t, p: 0.0,
                                 source=lambda t: math.sin(3.0 * t))
        spec = spec_of(-0.25, -0.25, 0.5)
        mat, rhs = assemble(prob, spec, 7)
        assert np.array_equal(mat, np.eye(8))
        nodes = fb_nodes(spec, 7)
        assert np.max(np.abs(rhs - np.sin(3.0 * nodes))) <= 1e-15

    def test_row_sums_match_operator_on_one(self):
        prob = unit_problem(0.4)
        spec = spec_of(-0.25, -0.25, 0.5)
        n = 9
        mat, _ = assemble(prob, spec, n)
        operator_part = np.eye(n + 1) - mat
        ctx = _Assembly(prob, spec, n)
        for i in range(n + 1):
            ref = apply_operator(ctx, np.ones_like, i)
            assert abs(operator_part[i, :].sum() - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_source_failure_reports_node(self):
        # each source fails for t > threshold; the error names the first such node
        spec, n = spec_of(-0.25, -0.25, 0.5), 8
        nodes = fb_nodes(spec, n)
        mid = int(np.sum(nodes <= 0.5))
        assert 0 < mid <= n
        for threshold, first in ((-1.0, 0), (0.5, mid)):
            def bad_source(t):
                if t > threshold:
                    raise RuntimeError("boom")
                return 1.0

            prob = ProblemDefinition(theta=0.5, kernel=lambda t, p: 1.0, source=bad_source)
            with pytest.raises(NumericalError, match="source evaluation failed") as info:
                assemble(prob, spec, n)
            message = str(info.value)
            assert f"node {first} (t = {float(nodes[first])!r})" in message
            assert "np.float64" not in message

    def test_source_failing_only_on_the_array(self):
        # every node succeeds alone, so no node can be named
        def source(t):
            if np.ndim(t):
                raise RuntimeError("array boom")
            return 1.0

        prob = ProblemDefinition(theta=0.5, kernel=lambda t, p: 1.0, source=source)
        with pytest.raises(NumericalError,
                           match="source evaluation failed on the node array") as info:
            assemble(prob, spec_of(-0.25, -0.25, 0.5), 8)
        assert str(info.value.__cause__) == "array boom"

    @pytest.mark.parametrize("n", [8, 64, 200])
    @pytest.mark.parametrize("mu, up, rho", [(-0.5, -0.5, 0.5), (0.5, -0.25, 1.0 / 3.0)])
    def test_rows_match_cardinal_matrix_reference(self, n, mu, up, rho):
        ctx = _Assembly(case_i(0.5, 1.5, 2.5), spec_of(mu, up, rho), n)
        assert_rows_close(_assemble_from(ctx)[0], cardinal_reference(ctx))

    def test_node_hit_row_falls_back_to_cardinal_matrix(self):
        # a quadrature point exactly on a node: its reciprocal gap is infinite,
        # and only the cardinal_matrix fallback gives a finite row
        ctx = _Assembly(case_i(0.5, 1.5, 2.5), spec_of(-0.5, -0.5, 0.5), 8)
        i, k, j = 3, 2, 5
        ctx.quad_z[i, k] = ctx.nodes_z[j]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mat, _ = _assemble_from(ctx)
        assert np.all(np.isfinite(mat[i]))
        assert_rows_close(mat, cardinal_reference(ctx))

    def test_hit_free_system_never_takes_the_fallback(self, monkeypatch):
        def no_fallback(*args):
            raise AssertionError("cardinal_matrix called for a hit-free row")

        monkeypatch.setattr(volterra_solver, "cardinal_matrix", no_fallback)
        sol = solve(case_i(0.5, 1.5, 2.5), spec_of(-0.5, -0.5, 0.5), 64)
        assert np.all(np.isfinite(sol.values))


class TestSolve:
    def test_array_source_read_once(self):
        calls = []

        def g_w(w):
            calls.append(np.shape(w))
            return 1.0 / (1.0 + w) + w * w

        prob = ProblemDefinition(theta=0.5, kernel=lambda t, p: 1.0, source_w=g_w)
        spec, n = spec_of(-0.25, -0.25, 0.5), 16
        solve(prob, spec, n)
        assert calls == [(n + 1,)]
        _, rhs = assemble(prob, spec, n)
        w_nodes = np.exp(np.log1p(-gauss_rule(spec.params, n + 1).nodes) / spec.rho)
        assert np.array_equal(rhs, [g_w(float(w)) for w in w_nodes])

    def test_zero_kernel_interpolates_source(self):
        prob = ProblemDefinition(theta=0.5, kernel=lambda t, p: 0.0,
                                 source=lambda t: math.cos(2.0 * t))
        spec = spec_of(-0.25, -0.25, 0.5)
        sol = solve(prob, spec, 8)
        assert np.max(np.abs(sol.values - np.cos(2.0 * sol.nodes_t))) <= 1e-15

    def test_manufactured_polynomial_recovery(self):
        spec = spec_of(-0.25, -0.25, 1.0)
        for theta in (0.3, 0.5, 0.7):
            for n in (6, 10, 14):
                prob = case_i(theta, 2.0, 5.0)
                sol = solve(prob, spec, n)
                err = np.max(np.abs(sol.values - prob.exact(sol.nodes_t)))
                assert err <= 1e-10, (theta, n, err)

    def test_nodal_evaluation_is_exact(self):
        prob = case_i(0.5, math.sqrt(2.0), 2.0)
        sol = solve(prob, spec_of(-0.25, -0.25, 0.5), 10)
        got = np.array([sol(float(t)) for t in sol.nodes_t])
        assert np.array_equal(got, sol.values)

    def test_discrete_residual(self):
        prob = case_i(0.5, math.sqrt(2.0), math.sqrt(3.0))
        spec = spec_of(-0.5, -0.5, 0.5)
        n = 12
        sol = solve(prob, spec, n)
        ctx = _Assembly(prob, spec, n)
        scale = 1.0 + float(np.max(np.abs(sol.values)))
        for i in range(n + 1):
            lhs = sol.values[i]
            rhs = prob.source_at(sol.nodes_t[i], 1.0 - sol.nodes_t[i]) + apply_operator(
                ctx, sol.interpolant, i
            )
            assert abs(lhs - rhs) <= 1e-10 * scale
        assert sol.diagnostics.residual <= 1e-10 * scale

    def test_example1_reference_accuracy(self):
        from fbjacobi.problems import example1

        prob = example1(0.5)
        spec = spec_of(-0.25, -0.25, 0.5)
        sol = solve(prob, spec, 20)
        from fbjacobi.approximation import linf_error

        assert linf_error(prob.exact, sol.interpolant, 2001, rho=0.5) <= 1e-6

    def test_vanishing_singularity_limit(self):
        # theta -> 0 turns the problem into u = g + int_t^1 u, equivalent to
        # u' = g' - u with u(1) = g(1); integrate that by RK4 as the oracle
        prob = ProblemDefinition(theta=1e-6, kernel=lambda t, p: 1.0,
                                 source=lambda t: float(t))
        spec = spec_of(-0.25, -0.25, 1.0)
        sol = solve(prob, spec, 16)

        def rhs(t, u):
            return 1.0 - u

        steps = 20000
        h = -1.0 / steps
        u = 1.0  # u(1) = g(1)
        t = 1.0
        grid = {round(t, 12): u}
        for _ in range(steps):
            k1 = rhs(t, u)
            k2 = rhs(t + h / 2, u + h * k1 / 2)
            k3 = rhs(t + h / 2, u + h * k2 / 2)
            k4 = rhs(t + h, u + h * k3)
            u += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
            t += h
            grid[round(t, 12)] = u
        # the closed form of the limit equation is u = 1 everywhere
        assert abs(u - 1.0) <= 1e-12
        assert np.max(np.abs(sol.values - 1.0)) <= 1e-4

    def test_diagnostics_populated(self):
        prob = case_i(0.5, 1.0, 2.0)
        sol = solve(prob, spec_of(-0.25, -0.25, 1.0), 6)
        d = sol.diagnostics
        assert d.condition > 1.0 and math.isfinite(d.condition)
        assert d.assembly_seconds >= 0.0 and d.solve_seconds >= 0.0
        assert not d.near_singular

    def test_singular_matrix_raises(self, monkeypatch):
        def zero_pivot(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", zero_pivot)
        with pytest.raises(NumericalError, match="singular collocation matrix"):
            solve(unit_problem(0.5), spec_of(-0.25, -0.25, 0.5), 4)

    def test_n_above_limit_refused_before_any_rule(self, monkeypatch):
        def no_rule(*args):
            raise AssertionError("gauss_rule called above MAX_N")

        monkeypatch.setattr(volterra_solver, "gauss_rule", no_rule)
        monkeypatch.setattr(approximation, "gauss_rule", no_rule)
        with pytest.raises(ValueError, match="exceeds MAX_N = 1200"):
            solve(unit_problem(0.5), spec_of(-0.25, -0.25, 0.5), MAX_N + 1)

    def test_condition_matches_inverse_norms(self):
        prob = case_i(0.5, math.sqrt(2.0), math.sqrt(3.0))
        spec = spec_of(-0.5, -0.5, 0.5)
        n = 12
        mat, _ = assemble(prob, spec, n)
        with mpmath.workdps(40):
            inv = mpmath.inverse(mpmath.matrix(mat.tolist()))
            inv_norm = max(sum(abs(inv[r, c]) for r in range(n + 1)) for c in range(n + 1))
        ref = float(np.abs(mat).sum(axis=0).max() * inv_norm)
        cond = solve(prob, spec, n).diagnostics.condition
        assert abs(cond - ref) <= 1e-10 * ref

    def test_nan_condition_is_near_singular(self, monkeypatch):
        # a finite system whose condition estimate comes out NaN
        monkeypatch.setattr(np.linalg, "cond", lambda a, p: math.nan)
        with pytest.warns(RuntimeWarning, match="nearly singular"):
            sol = solve(unit_problem(0.5), spec_of(-0.25, -0.25, 0.5), 16)
        assert math.isnan(sol.diagnostics.condition)
        assert sol.diagnostics.near_singular is True

    # the NaN kernel passes the construction probes but is NaN at some
    # quadrature points, so the matrix has NaN entries
    @pytest.mark.parametrize("kernel, source_w, message", [
        (lambda t, p: math.nan if 0.9 < p < 0.95 else 1.0, lambda w: 1.0 + 0.0 * w,
         r"^non-finite matrix: \d+ of 289 entries$"),
        (lambda t, p: 1.0, lambda w: np.where(w < 0.5, math.inf, 1.0),
         r"^non-finite rhs: \d+ of 17 entries$"),
    ], ids=["nan-kernel", "inf-source"])
    def test_non_finite_system_refused_before_lapack(self, monkeypatch, kernel,
                                                     source_w, message):
        def no_lapack(a, b):
            raise AssertionError("np.linalg.solve called on a non-finite system")

        monkeypatch.setattr(np.linalg, "solve", no_lapack)
        prob = ProblemDefinition(theta=0.5, kernel=kernel, source_w=source_w)
        with pytest.raises(NumericalError, match=message):
            solve(prob, spec_of(-0.25, -0.25, 0.5), 16)

    def test_non_finite_solution_raises(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, math.nan))
        with pytest.raises(NumericalError, match=r"^non-finite solution: 17 of 17 entries$"):
            solve(unit_problem(0.5), spec_of(-0.25, -0.25, 0.5), 16)

    def test_array_kernel_matches_scalar_kernel(self):
        calls = []

        def array_kernel(t, p):
            calls.append(np.shape(p))
            return np.exp(t) * p

        def scalar_kernel(t, p):
            return math.exp(t) * p

        spec = spec_of(-0.25, -0.25, 0.5)
        n = 16
        mats = [
            assemble(ProblemDefinition(theta=0.5, kernel=k, source=math.cos), spec, n)[0]
            for k in (array_kernel, scalar_kernel)
        ]
        assert np.max(np.abs(mats[0] - mats[1])) <= 1e-14 * np.max(np.abs(mats[1]))
        prob = ProblemDefinition(theta=0.5, kernel=array_kernel, source=math.cos)
        calls.clear()  # drop the construction-time probes
        solve(prob, spec, n)
        assert calls == [(n + 1, n + 1)]

    def test_solution_matches_oracle_assembled_system(self):
        # independent route: build the same collocation system but integrate
        # the operator applied to each cardinal with the graded-panel oracle
        # instead of the transformed Gauss rule, then compare solutions
        from fbjacobi.approximation import Interpolant, barycentric_weights
        from fbjacobi.problems import example1

        theta, rho, n = 0.5, 0.5, 8
        prob = example1(theta)
        spec = spec_of(-0.25, -0.25, rho)
        sol = solve(prob, spec, n)

        rule = gauss_rule(spec.params, n + 1)
        bary = barycentric_weights(rule.nodes)
        nodes_t = sol.nodes_t
        mat = np.eye(n + 1)
        for j in range(n + 1):
            values = np.zeros(n + 1)
            values[j] = 1.0
            card = Interpolant(spec, rule.nodes, nodes_t, values, bary)
            mat[:, j] -= oracle_kr(card, theta, prob.kernel, nodes_t)
        rhs = np.array([prob.source_at(t, 1.0 - t) for t in nodes_t])
        ref_values = np.linalg.solve(mat, rhs)
        assert np.max(np.abs(sol.values - ref_values)) <= 1e-9
