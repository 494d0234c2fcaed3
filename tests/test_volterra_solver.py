import contextlib
import io
import math
import os
import pathlib
import sys
import threading
import warnings

import mpmath
import numpy as np
import pytest

from fbjacobi import approximation, volterra_solver
from fbjacobi.approximation import MAX_N, cardinal_matrix, linf_error
from fbjacobi.backward_basis import BackwardSpec, fb_nodes
from fbjacobi.jacobi_core import JacobiParams, NumericalError, gauss_rule
from fbjacobi.problems import case_i, example1, oracle_kr
from fbjacobi.special_functions import beta
from fbjacobi.volterra_solver import (
    CollocationSolution,
    ProblemDefinition,
    _assemble_from,
    _Assembly,
    solve,
)

EPS = np.finfo(float).eps


def spec_of(mu, up, rho):
    return BackwardSpec(JacobiParams(mu, up), rho)


def unit_problem(theta):
    return ProblemDefinition(theta=theta, kernel=lambda t, p: 1.0, source=lambda t: 0.0)


def assemble(problem, spec, n):
    ctx = _Assembly(problem, spec, n)
    return _assemble_from(ctx), ctx.rhs


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


def subtraction_rows(ctx):
    """`_assemble_from`'s row pass with the gaps formed by the broadcast
    subtraction."""
    mat = np.eye(ctx.n + 1)
    with np.errstate(all="ignore"):
        for i in range(ctx.n + 1):
            weights = ctx.chi * ctx.kbar[i]
            recip = 1.0 / (ctx.quad_z[i][:, None] - ctx.nodes_z)
            s = recip @ ctx.bary
            if np.isfinite(s).all():
                mat[i] -= ((weights / s) @ recip) * ctx.bary
            else:
                mat[i] -= weights @ cardinal_matrix(ctx.nodes_z, ctx.bary, ctx.quad_z[i])
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

    def test_array_kernel_probes_take_one_array_call(self):
        shapes = []

        def kernel(t, p):
            shapes.append(np.broadcast_shapes(np.shape(t), np.shape(p)))
            return np.exp(t) * p

        ProblemDefinition(theta=0.5, kernel=kernel, source=lambda t: 0.0)
        assert shapes == [(3, 3)]

    @pytest.mark.parametrize("kernel", [
        lambda t, p: math.inf if p == 1.0 else 1.0,
        lambda t, p: np.where(np.asarray(p) == 1.0, np.inf, 1.0),
    ], ids=["scalar", "array"])
    def test_first_non_finite_probe_is_named(self, kernel):
        with pytest.raises(ValueError) as info:
            ProblemDefinition(theta=0.5, kernel=kernel, source=lambda t: 0.0)
        assert str(info.value) == "kernel not finite at (t, rho) = (0.0, 1.0): inf"

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
        with pytest.raises(NumericalError, match="terminal endpoint"):
            _Assembly(unit_problem(0.5), spec, 1)

    def test_terminal_node_of_a_real_rule(self):
        # at rho = 0.01 the last of 101 Gauss nodes has 1 - t below double range
        spec = spec_of(-0.25, -0.25, 0.01)
        with pytest.raises(NumericalError, match="collocation node reached the terminal endpoint"):
            solve(example1(0.5), spec, 100)

    def test_transform_reproduces_integral(self):
        # summing the transformed kernel against the Jacobi rule reproduces
        # int_t^1 (p-t)^{-theta} dp = (1-t)^{1-theta}/(1-theta); rho = 1/3 and
        # 1/6 are not dyadic, so log_q's division by rho rounds
        prob = unit_problem(0.5)
        for rho in (1.0, 0.5, 1.0 / 3.0, 1.0 / 6.0):
            ctx = _Assembly(prob, spec_of(-0.25, -0.25, rho), 11)
            got = ctx.kbar @ ctx.chi
            ref = ctx.w_nodes ** 0.5 / 0.5
            assert np.max(np.abs(got - ref) / ref) <= 1e-12

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("rho", [1.0, 0.5, 1.0 / 3.0, 1.0 / 6.0, 0.05])
    def test_quadrature_z_points_are_affine_in_z(self, rho, n):
        # 1 - z(rho_i(eta)) = (1 - z_i)(1 - eta), so the z-points are
        # z_i + (1 - z_i) eta_k; from the float z_i and eta_k they are
        # within 2 ulp of that value in exact arithmetic
        ctx = _Assembly(unit_problem(0.5), spec_of(-0.25, -0.25, rho), n)
        eta = gauss_rule(JacobiParams(1.0 / rho - 1.0, -0.5), n + 1).nodes
        with mpmath.workdps(40):
            ref = [[z + (1 - z) * e for e in map(mpmath.mpf, eta.tolist())]
                   for z in map(mpmath.mpf, ctx.nodes_z.tolist())]
            err = np.array([[float(mpmath.mpf(q) - r) for q, r in zip(qs, rs)]
                            for qs, rs in zip(ctx.quad_z.tolist(), ref)])
            ulp = np.spacing(np.array([[float(r) for r in rs] for rs in ref]))
        assert np.max(np.abs(err) / ulp) <= 2.0


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
        # read point by point, it solves bit for bit as its plain form
        def source(t):
            if np.ndim(t):
                raise RuntimeError("array boom")
            return 1.0

        spec = spec_of(-0.25, -0.25, 0.5)
        got = solve(ProblemDefinition(theta=0.5, kernel=lambda t, p: 1.0, source=source),
                    spec, 8)
        ref = solve(ProblemDefinition(theta=0.5, kernel=lambda t, p: 1.0,
                                      source=lambda t: 1.0), spec, 8)
        assert np.array_equal(got.values, ref.values)
        assert got.diagnostics.condition == ref.diagnostics.condition

    def test_source_failing_only_on_its_first_scalar_call(self):
        # answers that change between calls: the one pass names the point
        # where its scalar call failed, node 0, after two calls
        calls = []

        def source(t):
            calls.append(t)
            if np.ndim(t):
                raise RuntimeError("array boom")
            if len(calls) == 2:
                raise RuntimeError("first scalar boom")
            return 1.0

        nodes = fb_nodes(spec_of(-0.25, -0.25, 0.5), 8)
        with pytest.raises(NumericalError) as info:
            volterra_solver._sample_at_nodes("source", ("t",), source, nodes)
        assert str(info.value) == f"source evaluation failed at node 0 (t = {float(nodes[0])!r})"
        assert str(info.value.__cause__) == "first scalar boom"
        assert len(calls) == 2

    @pytest.mark.parametrize("form", ["source", "source_w"])
    def test_failing_source_read_once_at_its_node(self, form):
        # one array call, then node 0 once in `_sample`'s scalar pass; the
        # failure names the node by its t in either form
        calls = []

        def g(x):
            calls.append(np.ndim(x))
            if np.ndim(x):
                raise RuntimeError("array boom")
            return math.sqrt(x - 0.5 if form == "source" else 0.5 - x)

        spec, n = spec_of(-0.25, -0.25, 0.5), 8
        prob = ProblemDefinition(theta=0.5, kernel=lambda t, p: 1.0, **{form: g})
        with pytest.raises(NumericalError) as info:
            _Assembly(prob, spec, n)
        t0 = float(fb_nodes(spec, n)[0])
        assert str(info.value) == f"source evaluation failed at node 0 (t = {t0!r})"
        assert str(info.value.__cause__) == "math domain error"
        assert calls == [1, 0]

    @pytest.mark.parametrize("node, k", [(6, 0), (6, 9), (16, 16)])
    def test_kernel_failing_at_a_middle_node_is_called_once_per_point_up_to_it(self, node, k):
        # one array call, then one scalar call per point up to and including
        # the failing one, at flat index j = node * (n + 1) + k
        spec, n = spec_of(-0.25, -0.25, 0.5), 16
        grid = _Assembly(unit_problem(0.5), spec, n)
        bad = (float(grid.nodes_t[node]), float(grid.quad_t[node, k]))
        calls = []

        def kernel(t, r):
            calls.append(np.ndim(t))
            if np.ndim(t) or (t, r) == bad:
                raise RuntimeError("kernel boom")
            return 1.0

        with pytest.raises(NumericalError) as info:
            volterra_solver._sample_at_nodes("kernel", ("t", "rho"), kernel,
                                             grid.nodes_t[:, None], grid.quad_t)
        assert str(info.value) == (
            f"kernel evaluation failed at node {node} (t = {bad[0]!r}, rho = {bad[1]!r})")
        assert str(info.value.__cause__) == "kernel boom"
        assert len(calls) == 1 + (node * (n + 1) + k + 1)

    def test_source_read_with_the_grid_before_the_row_pass(self):
        def source(t):
            raise RuntimeError("source boom")

        prob = ProblemDefinition(theta=0.5, kernel=lambda t, p: 1.0, source=source)
        with pytest.raises(NumericalError, match="source evaluation failed at node 0") as info:
            _Assembly(prob, spec_of(-0.25, -0.25, 0.5), 8)
        assert str(info.value.__cause__) == "source boom"

    def test_kernel_failure_reported_before_source_failure(self):
        def kernel(t, r):
            if np.ndim(t) or t > 0.8:
                raise RuntimeError("kernel boom")
            return 1.0

        def source(t):
            raise RuntimeError("source boom")

        # the kernel passes its nine construction probes (t = 0, 0.3, 0.8)
        prob = ProblemDefinition(theta=0.5, kernel=kernel, source=source)
        with pytest.raises(NumericalError, match="kernel evaluation failed at node") as info:
            solve(prob, spec_of(-0.25, -0.25, 0.5), 8)
        assert str(info.value.__cause__) == "kernel boom"

    @staticmethod
    def _complex_between_probes(t, r):
        # real at ProblemDefinition's nine probes (t = 0, 0.3, 0.8), complex
        # for 0.1 < t < 0.15
        return (t - 0.15) ** 0.5 if 0.1 < t < 0.15 else 1.0

    @staticmethod
    def _raising_between_probes(t, r):
        if 0.95 < r < 1.0:  # the probes take rho = 0.9 and 1.0
            raise RuntimeError("boom")
        return 1.0

    @pytest.mark.parametrize("kernel, fails, cause", [
        (_complex_between_probes, lambda t, r: 0.1 < t < 0.15, TypeError),
        (_raising_between_probes, lambda t, r: 0.95 < r < 1.0, RuntimeError),
    ], ids=["complex-in-t", "raises-in-rho"])
    def test_kernel_failure_reports_node_and_point(self, kernel, fails, cause):
        spec, n = spec_of(-0.25, -0.25, 0.5), 16
        grid = _Assembly(unit_problem(0.5), spec, n)
        i, k = next((i, k) for i in range(n + 1) for k in range(n + 1)
                    if fails(grid.nodes_t[i], grid.quad_t[i, k]))
        prob = ProblemDefinition(theta=0.5, kernel=kernel, source=lambda t: 1.0)
        with pytest.raises(NumericalError, match="kernel evaluation failed at node") as info:
            solve(prob, spec, n)
        assert str(info.value) == (
            f"kernel evaluation failed at node {i} "
            f"(t = {float(grid.nodes_t[i])!r}, rho = {float(grid.quad_t[i, k])!r})")
        assert isinstance(info.value.__cause__, cause)

    def test_kernel_failing_only_on_the_grid_array(self):
        # read point by point, it solves bit for bit as its plain form
        def kernel(t, r):
            if np.ndim(t):
                raise RuntimeError("array boom")
            return 1.0

        spec = spec_of(-0.25, -0.25, 0.5)
        got = solve(ProblemDefinition(theta=0.5, kernel=kernel, source=lambda t: 1.0), spec, 8)
        ref = solve(ProblemDefinition(theta=0.5, kernel=lambda t, p: 1.0,
                                      source=lambda t: 1.0), spec, 8)
        assert np.array_equal(got.values, ref.values)
        assert got.diagnostics.condition == ref.diagnostics.condition

    def test_complex_source_and_kernel_are_refused(self):
        # numpy's cast would solve for the real part of sqrt(t - 1/2) instead;
        # its ComplexWarning is ignored so that only the refusal can pass
        prob = ProblemDefinition(theta=0.5, kernel=lambda t, p: 1.0,
                                 source=lambda t: np.sqrt(np.asarray(t) - 0.5 + 0j))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
            with pytest.raises(NumericalError, match="source evaluation failed at node 0") as info:
                solve(prob, spec_of(-0.25, -0.25, 0.5), 8)
            assert isinstance(info.value.__cause__, TypeError)
            with pytest.raises(TypeError, match="complex value"):
                ProblemDefinition(theta=0.5, kernel=lambda t, p: np.complex128(1.0),
                                  source=lambda t: 1.0)

    @pytest.mark.parametrize("n", [8, 64, 200])
    @pytest.mark.parametrize("mu, up, rho", [(-0.5, -0.5, 0.5), (0.5, -0.25, 1.0 / 3.0)])
    def test_rows_match_cardinal_matrix_reference(self, n, mu, up, rho):
        ctx = _Assembly(case_i(0.5, 1.5, 2.5), spec_of(mu, up, rho), n)
        assert_rows_close(_assemble_from(ctx), cardinal_reference(ctx))

    def test_node_hit_row_falls_back_to_cardinal_matrix(self):
        # a quadrature point exactly on a node: its reciprocal gap is infinite,
        # and only the cardinal_matrix fallback gives a finite row
        ctx = _Assembly(case_i(0.5, 1.5, 2.5), spec_of(-0.5, -0.5, 0.5), 8)
        i, k, j = 3, 2, 5
        ctx.quad_z[i, k] = ctx.nodes_z[j]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mat = _assemble_from(ctx)
        assert np.all(np.isfinite(mat[i]))
        assert_rows_close(mat, cardinal_reference(ctx))

    # Rows per block: 31 at N = 64 and 7 at N = 129, each with a partial last
    # block (62-64 and 126-129); two at N = 254 (the last block, row 254,
    # alone) and 255, the last sizes with multi-row blocks; one from N = 256,
    # where the calling thread takes the even rows and the worker the odd ones.
    @pytest.mark.parametrize("n", [0, 1, 7, 64, 129, 254, 255, 256, 300, 384])
    @pytest.mark.parametrize("hit", [False, True, "odd"])  # True: an even row
    def test_rows_equal_the_subtraction_row_pass(self, n, hit, monkeypatch):
        monkeypatch.setattr(volterra_solver, "_two_threads", lambda: True)
        ctx = _Assembly(case_i(0.5, 1.5, 2.5), spec_of(-0.5, -0.5, 0.5), n)
        if hit:  # a quadrature point exactly on a node, as in the fallback test
            ctx.quad_z[min(n, (n // 2 & ~1) | (hit == "odd")), n // 3] = ctx.nodes_z[n]
        assert np.array_equal(_assemble_from(ctx), subtraction_rows(ctx))

    @pytest.mark.parametrize("n, hit_rows", [
        (64, (33,)),         # a middle row of the second 31-row block
        (64, (63,)),         # the partial last block, rows 62-64
        (129, (128,)),       # the partial last block, rows 126-129
        (64, (31, 33, 61)),  # the first, a middle and the last row of one block
        (64, (30, 31)),      # the last row of one block and the first of the next
    ])
    def test_node_hits_inside_blocks_rebuild_only_their_rows(self, n, hit_rows, monkeypatch):
        ctx = _Assembly(case_i(0.5, 1.5, 2.5), spec_of(-0.5, -0.5, 0.5), n)
        for i in hit_rows:
            ctx.quad_z[i, i % 7] = ctx.nodes_z[(3 * i) % (n + 1)]
        rebuilt = []

        def recording(nodes, bary, zs):
            rebuilt.append(next(i for i in range(n + 1) if np.array_equal(zs, ctx.quad_z[i])))
            return cardinal_matrix(nodes, bary, zs)

        monkeypatch.setattr(volterra_solver, "cardinal_matrix", recording)
        mat = _assemble_from(ctx)
        assert rebuilt == list(hit_rows)
        assert np.all(np.isfinite(mat))
        monkeypatch.undo()
        assert np.array_equal(mat, subtraction_rows(ctx))

    def test_one_cpu_builds_the_same_matrix_without_a_thread(self, monkeypatch):
        ctx = _Assembly(case_i(0.5, 1.5, 2.5), spec_of(-0.5, -0.5, 0.5), 300)
        ctx.quad_z[151, 4] = ctx.nodes_z[7]  # a node hit in a worker's row
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(volterra_solver, "_usable_cpus", lambda: 2)
        two = _assemble_from(ctx)
        assert len(started) == 1
        monkeypatch.setattr(volterra_solver, "_usable_cpus", lambda: 1)
        one = _assemble_from(ctx)
        assert len(started) == 1 and np.array_equal(one, two)

    @pytest.mark.parametrize("n, threads", [(0, 0), (255, 0), (256, 1)])
    def test_a_worker_starts_only_for_two_or_more_one_row_blocks(self, n, threads,
                                                                monkeypatch):
        # N = 0 has one one-row block, N = 255 two-row blocks
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        monkeypatch.setattr(volterra_solver, "_two_threads", lambda: True)
        _assemble_from(_Assembly(case_i(0.5, 1.5, 2.5), spec_of(-0.5, -0.5, 0.5), n))
        assert len(started) == threads

    @pytest.mark.parametrize("env, cpus, expected", [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),
        ({}, 2, False),                                            # BLAS threads unset
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
        ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": " 1"}, 4, True),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, True),
    ])
    def test_two_threads_need_a_one_thread_blas_and_two_cpus(self, env, cpus, expected,
                                                             monkeypatch):
        for var in volterra_solver._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(volterra_solver, "_usable_cpus", lambda: cpus)
        assert volterra_solver._two_threads() is expected

    def test_two_threads_under_fast_switching_build_the_one_thread_matrix(self, monkeypatch):
        ctx = _Assembly(case_i(0.5, 1.5, 2.5), spec_of(-0.5, -0.5, 0.5), 256)
        monkeypatch.setattr(volterra_solver, "_two_threads", lambda: False)
        one = _assemble_from(ctx)
        monkeypatch.setattr(volterra_solver, "_two_threads", lambda: True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            mats = [_assemble_from(ctx) for _ in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(mat, one) for mat in mats)

    def test_usable_cpus_falls_back_to_the_cpu_count(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert volterra_solver._usable_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert volterra_solver._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert volterra_solver._usable_cpus() == 1

    # the caller's rows, the worker's, or both, where the caller's error wins
    @pytest.mark.parametrize("parity", [0, 1, "both"])
    def test_row_failure_reaches_the_caller_and_leaves_no_thread(self, parity, monkeypatch):
        class RowError(Exception):
            pass

        class FailingRows:
            def __init__(self, kbar):
                self.kbar = kbar

            def __getitem__(self, i):
                if parity == "both" or i % 2 == parity:
                    raise RowError(i)
                return self.kbar[i]

        monkeypatch.setattr(volterra_solver, "_two_threads", lambda: True)
        ctx = _Assembly(case_i(0.5, 1.5, 2.5), spec_of(-0.5, -0.5, 0.5), 256)
        ctx.kbar = FailingRows(ctx.kbar)
        before = threading.active_count()
        with pytest.raises(RowError) as raised:
            _assemble_from(ctx)
        assert threading.active_count() == before
        if parity == "both":
            assert raised.value.args[0] % 2 == 0

    def test_worker_row_hit_warns_nothing_and_is_rebuilt_on_the_main_thread(self, monkeypatch):
        monkeypatch.setattr(volterra_solver, "_two_threads", lambda: True)
        ctx = _Assembly(case_i(0.5, 1.5, 2.5), spec_of(-0.5, -0.5, 0.5), 256)
        hit_rows = (3, 64, 129)  # two of the worker's rows and one of the caller's
        for i in hit_rows:
            ctx.quad_z[i, i % 7] = ctx.nodes_z[(3 * i) % 257]
        rebuilt, threads = [], set()

        def recording(nodes, bary, zs):
            threads.add(threading.current_thread())
            rebuilt.append(next(i for i in range(257) if np.array_equal(zs, ctx.quad_z[i])))
            return cardinal_matrix(nodes, bary, zs)

        monkeypatch.setattr(volterra_solver, "cardinal_matrix", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mat = _assemble_from(ctx)
        assert rebuilt == list(hit_rows) and threads == {threading.main_thread()}
        assert np.all(np.isfinite(mat))

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

    def test_solution_arrays_are_the_interpolants_read_only_arrays(self):
        sol = solve(case_i(0.5, 1.5, 2.5), spec_of(-0.25, -0.25, 0.5), 8)
        assert sol.nodes_t is sol.interpolant.nodes_t and sol.values is sol.interpolant.values
        for arr in (sol.nodes_t, sol.values):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[3] += 1.0

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

    @pytest.mark.parametrize("t", [-0.5, 1.5, [0.25, 1.5]], ids=str)
    def test_evaluation_outside_unit_interval_raises(self, t):
        sol = solve(case_i(0.5, math.sqrt(2.0), 2.0), spec_of(-0.25, -0.25, 0.5), 8)
        with pytest.raises(ValueError, match=r"^t must lie in \[0, 1\], got (-0\.5|1\.5)$"):
            sol(t)

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

    def test_negative_n_refused_before_any_rule(self, monkeypatch):
        def no_rule(*args):
            raise AssertionError("gauss_rule called for N < 0")

        monkeypatch.setattr(volterra_solver, "gauss_rule", no_rule)
        monkeypatch.setattr(approximation, "gauss_rule", no_rule)
        with pytest.raises(ValueError, match="^N must be nonnegative, got -1$"):
            solve(unit_problem(0.5), spec_of(-0.25, -0.25, 0.5), -1)

    def test_case1_at_degree_1100(self):
        # 25 barycentric weights came out 0 here, and linf was 3.6e-5 with cond 79
        prob = case_i(0.5, math.sqrt(2.0), math.sqrt(3.0))
        sol = solve(prob, spec_of(-0.25, -0.25, 0.5), 1100)
        assert np.all(sol.interpolant.bary_weights != 0.0)
        assert linf_error(prob.exact, sol.interpolant, 2001, rho=0.5) <= 1e-12

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
        # a finite system whose condition estimate comes out NaN; the suite's
        # warning filter checks that no warning is issued
        monkeypatch.setattr(np.linalg, "cond", lambda a, p: math.nan)
        sol = solve(unit_problem(0.5), spec_of(-0.25, -0.25, 0.5), 16)
        assert math.isnan(sol.diagnostics.condition)
        assert sol.diagnostics.near_singular is True

    def test_wall_solve_returns_under_an_error_filter(self):
        # cond ~ 1.7e16: being near singular is reported as data, so no
        # warning filter can turn the solve into an exception
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(example1(0.7), spec_of(-0.25, -0.25, 0.3), 48)
        assert sol.diagnostics.near_singular is True
        assert sol.diagnostics.condition > 1e12
        assert np.all(np.isfinite(sol.values))

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


def test_readme_library_example():
    # the python block under "## Library example" in README.md, run as written
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    linf, cond = (float(line) for line in out.getvalue().splitlines()[:2])
    assert linf <= 1e-14  # README: "~3e-15"
    assert math.isfinite(cond)
