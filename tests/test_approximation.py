import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special

from fbjacobi import approximation
from fbjacobi.approximation import (
    MAX_N,
    Expansion,
    Interpolant,
    _gap_factors,
    _node_set,
    _sample,
    barycentric_weights,
    cardinal_matrix,
    eval_expansion,
    eval_grid,
    eval_interpolant,
    interpolate,
    lebesgue_constant,
    linf_error,
    project,
    weighted_l2_error,
)
from fbjacobi.backward_basis import (
    BackwardSpec,
    deriv_factor,
    fb_eval,
    map_forward,
    map_inverse,
)
from fbjacobi.jacobi_core import (
    JacobiParams,
    QuadratureRule,
    gauss_rule,
    jacobi_eval,
    jacobi_norm,
)
from fbjacobi.special_functions import beta


def spec_of(mu, up, rho):
    return BackwardSpec(JacobiParams(mu, up), rho)


def log_gap_weights(z):
    """Barycentric weights from summed log gaps, normalized to unit maximum:
    a reference that loses about a digit but cannot overflow."""
    gaps = z[:, None] - z[None, :]
    np.fill_diagonal(gaps, 1.0)
    log_w = -np.array([math.fsum(row) for row in np.log(np.abs(gaps))])
    return np.prod(np.sign(gaps), axis=1) * np.exp(log_w - np.max(log_w))


# (mu, upsilon) families whose plain gap products overflowed above N ~ 1096
WEIGHT_FAMILIES = [(-0.25, -0.25), (-0.5, -0.5), (0.0, 0.0), (5.0, -2.0 / 3.0), (-0.9, 3.0)]


class TestProject:
    def test_reproduces_basis_function(self):
        s = spec_of(-0.25, -0.25, 0.5)
        exp = project(s, 6, lambda t: fb_eval(s, 3, t))
        ref = np.zeros(7)
        ref[3] = 1.0
        assert np.max(np.abs(exp.coeffs - ref)) <= 1e-12

    def test_constant(self):
        s = spec_of(0.3, -0.2, 1.0 / 3.0)
        exp = project(s, 4, lambda t: 1.0)
        assert abs(exp.coeffs[0] - 1.0) <= 1e-13
        assert np.max(np.abs(exp.coeffs[1:])) <= 1e-13

    def test_shifted_legendre_coefficients(self):
        exp = project(spec_of(0, 0, 1.0), 2, lambda t: t * t)
        assert np.allclose(exp.coeffs, [1.0 / 3.0, 0.5, 1.0 / 6.0], atol=1e-13, rtol=0)

    def test_idempotent(self):
        s = spec_of(-0.5, -0.5, 0.5)
        exp = project(s, 8, lambda t: np.sin(3.0 * map_forward(s, t)))
        exp2 = project(s, 8, lambda t: eval_expansion(exp, t))
        assert np.max(np.abs(exp.coeffs - exp2.coeffs)) <= 1e-12

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
            project(spec_of(-0.25, -0.25, 0.5), -1, np.cos)

    def test_residual_orthogonality(self):
        # projection residual is orthogonal to every retained basis function
        s = spec_of(-0.25, -0.25, 0.5)
        f = lambda t: np.sin(3.0 * map_forward(s, t))
        exp = project(s, 8, f)
        rule = gauss_rule(s.params, 40)
        ts = map_inverse(s, rule.nodes)
        resid = f(ts) - eval_expansion(exp, ts)
        for r in range(9):
            ip = float(np.dot(rule.weights, resid * fb_eval(s, r, ts)))
            assert abs(ip) <= 1e-10


def test_held_arrays_are_frozen_copies():
    # Expansion, Interpolant and QuadratureRule freeze copies of their arrays,
    # so the caller's arrays stay writable and share no memory with them
    given = [np.array([0.25, 0.5]) + k for k in range(7)]
    exp = Expansion(spec_of(-0.25, -0.25, 0.5), given[0])
    ip = Interpolant(spec_of(-0.25, -0.25, 0.5), *given[1:5])
    rule = QuadratureRule(*given[5:])
    held = [exp.coeffs, ip.nodes_z, ip.nodes_t, ip.values, ip.bary_weights,
            rule.nodes, rule.weights]
    for mine, theirs in zip(given, held):
        assert not theirs.flags.writeable and not np.shares_memory(mine, theirs)
        assert np.array_equal(mine, theirs)
        mine[0] = 3.0
        assert theirs[0] != 3.0


class TestEvalExpansion:
    def test_constant_everywhere(self):
        s = spec_of(0.0, 0.5, 0.7)
        exp = Expansion(s, [2.5])
        for t in (0.0, 0.33, 1.0):
            assert eval_expansion(exp, t) == 2.5

    def test_unit_vector_reproduces_basis(self):
        s = spec_of(-0.25, 0.3, 0.5)
        for r in (1, 4, 7):
            coeffs = np.zeros(8)
            coeffs[r] = 1.0
            exp = Expansion(s, coeffs)
            for t in (0.1, 0.55, 0.93):
                assert abs(eval_expansion(exp, t) - fb_eval(s, r, t)) <= 1e-13

    def test_against_direct_summation(self):
        rng = np.random.default_rng(11)
        s = spec_of(-0.25, -0.25, 0.5)
        coeffs = rng.standard_normal(9)
        exp = Expansion(s, coeffs)
        ts = rng.uniform(0, 1, 25)
        direct = sum(coeffs[r] * fb_eval(s, r, ts) for r in range(9))
        assert np.max(np.abs(eval_expansion(exp, ts) - direct)) <= 1e-13

    def test_no_coefficients_rejected(self):
        exp = Expansion(spec_of(-0.25, -0.25, 0.5), [])
        with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
            eval_expansion(exp, 0.5)

    def test_array_shape_preserved(self):
        rng = np.random.default_rng(12)
        exp = Expansion(spec_of(-0.25, -0.25, 0.5), rng.standard_normal(9))
        ts = rng.uniform(0, 1, 12)
        got = eval_expansion(exp, ts.reshape(3, 4))
        assert got.shape == (3, 4)
        assert np.array_equal(got, eval_expansion(exp, ts).reshape(3, 4))
        assert isinstance(eval_expansion(exp, 0.25), float)
        # calling the expansion is eval_expansion
        assert np.array_equal(exp(ts.reshape(3, 4)), got) and exp(0.25) == eval_expansion(exp, 0.25)


class TestInterpolate:
    def test_nodal_reproduction_is_exact(self):
        s = spec_of(-0.25, -0.25, 0.5)
        ip = interpolate(s, 9, lambda t: np.cos(4.0 * np.asarray(t)))
        got = eval_interpolant(ip, ip.nodes_t)
        assert np.array_equal(got, ip.values)

    def test_polynomial_reproduction(self):
        rng = np.random.default_rng(5)
        s = spec_of(-0.5, -0.5, 1.0 / 3.0)
        coeffs = rng.standard_normal(9)
        exp = Expansion(s, coeffs)
        ip = interpolate(s, 8, lambda t: eval_expansion(exp, t))
        ts = rng.uniform(0, 1, 100)
        assert np.max(np.abs(eval_interpolant(ip, ts) - eval_expansion(exp, ts))) <= 1e-12

    def test_interpolation_projects(self):
        rng = np.random.default_rng(6)
        s = spec_of(-0.25, -0.25, 0.5)
        n = 10
        for _ in range(20):
            exp = Expansion(s, rng.standard_normal(n + 1))
            ip = interpolate(s, n, lambda t: eval_expansion(exp, t))
            ts = rng.uniform(0, 1, 40)
            err = np.max(np.abs(eval_interpolant(ip, ts) - eval_expansion(exp, ts)))
            assert err <= 1e-12

    def test_degree_zero(self):
        s = spec_of(0, 0, 1.0)
        ip = interpolate(s, 0, lambda t: 7.0 + 0.0 * np.asarray(t))
        for t in (0.0, 0.4, 1.0):
            assert eval_interpolant(ip, t) == 7.0

    def test_partition_of_unity(self):
        s = spec_of(-0.25, -0.25, 0.5)
        ip = interpolate(s, 12, lambda t: 3.25 + 0.0 * np.asarray(t))
        ts = np.linspace(0, 1, 57)
        assert np.max(np.abs(eval_interpolant(ip, ts) - 3.25)) <= 1e-14

    def test_two_node_barycentric_form(self):
        # N=1 interpolant of f = z(t) at the two mapped nodes, evaluated at
        # the t midpoint, must equal the hand-rolled two-point Lagrange value
        s = spec_of(0, 0, 0.5)
        f = lambda t: map_forward(s, t)
        ip = interpolate(s, 1, f)
        z0, z1 = ip.nodes_z
        t_mid = 0.5
        zm = map_forward(s, t_mid)
        ref = ip.values[0] * (zm - z1) / (z0 - z1) + ip.values[1] * (zm - z0) / (z1 - z0)
        assert abs(eval_interpolant(ip, t_mid) - ref) <= 1e-15

    def test_n_above_limit_refused_before_any_rule(self, monkeypatch):
        def no_rule(*args):
            raise AssertionError("gauss_rule called above MAX_N")

        monkeypatch.setattr(approximation, "gauss_rule", no_rule)
        s = spec_of(-0.5, -0.5, 1.0)
        with pytest.raises(ValueError, match="exceeds MAX_N = 1200"):
            interpolate(s, MAX_N + 1, np.cos)
        with pytest.raises(ValueError, match="exceeds MAX_N = 1200"):
            lebesgue_constant(s, MAX_N + 1, 11)

    def test_negative_n_refused_before_any_rule(self, monkeypatch):
        def no_rule(*args):
            raise AssertionError("gauss_rule called for N < 0")

        monkeypatch.setattr(approximation, "gauss_rule", no_rule)
        s = spec_of(-0.5, -0.5, 1.0)
        with pytest.raises(ValueError, match="^N must be nonnegative, got -1$"):
            interpolate(s, -1, np.cos)
        with pytest.raises(ValueError, match="^N must be nonnegative, got -1$"):
            lebesgue_constant(s, -1, 101)

    def test_degree_600_weights_are_finite(self):
        # the product of N node gaps underflowed to 0 from N ~ 520 on
        s = spec_of(-0.5, -0.5, 0.5)
        ip = interpolate(s, 600, lambda t: np.exp(map_forward(s, t)))
        assert np.max(np.abs(ip.bary_weights - log_gap_weights(ip.nodes_z))) <= 1e-10
        ts = np.linspace(0.0, 0.99, 100)
        assert np.max(np.abs(eval_interpolant(ip, ts) - np.exp(map_forward(s, ts)))) <= 1e-13

    @pytest.mark.parametrize("mu, up", WEIGHT_FAMILIES)
    @pytest.mark.parametrize("n", [384, 1100, MAX_N])
    def test_weights_past_the_product_overflow(self, n, mu, up):
        # the product of the N gaps overflows from N ~ 1096, and a node whose
        # weight came out 0 dropped out of the interpolant; scipy's nodes are
        # quick at this size
        x, _ = scipy.special.roots_jacobi(n + 1, mu, up)
        z = (1.0 + x) / 2.0
        w = barycentric_weights(z)
        assert np.all(w != 0.0)
        assert np.max(np.abs(w - log_gap_weights(z))) <= 1e-12

    @pytest.mark.parametrize("mu, up", WEIGHT_FAMILIES[:3])
    def test_degree_1200_interpolates_exp(self, mu, up):
        s = spec_of(mu, up, 1.0)
        ip = interpolate(s, MAX_N, np.exp)
        ts = np.linspace(0.0, 1.0, 201)
        assert np.max(np.abs(eval_interpolant(ip, ts) - np.exp(ts))) <= 1e-13

    def test_cardinal_row_one_ulp_above_last_node(self):
        # the terminal nodes crowd z = 1; only an exact hit is snapped, and
        # the quotient next to it agrees with the same quotient in mpmath
        nodes, _, bary = _node_set(spec_of(-0.5, -0.5, 0.5), 64)
        z = np.nextafter(nodes[-1], 1.0)
        got = cardinal_matrix(nodes, bary, np.array([z]))[0]
        with mpmath.workdps(40):
            ratios = [mpmath.mpf(b) / (mpmath.mpf(z) - mpmath.mpf(x))
                      for b, x in zip(bary.tolist(), nodes.tolist())]
            total = mpmath.fsum(ratios)
            ref = np.array([float(r / total) for r in ratios])
        assert np.max(np.abs(got - ref)) <= 1e-14
        rows = cardinal_matrix(nodes, bary,
                               np.array([nodes[-1], nodes[3], np.nan, np.inf, -np.inf]))
        assert np.array_equal(rows[:2], np.eye(65)[[64, 3]])
        assert not np.isfinite(rows[2:]).any()

    def test_cardinal_matrix_builds_in_one_buffer(self):
        # the quotient is built in its output buffer, so the peak allocation
        # stays near one M x (N+1) float array
        nodes, _, bary = _node_set(spec_of(-0.5, -0.5, 0.5), 384)
        zs = np.linspace(0.0, 1.0, 2001)
        tracemalloc.start()
        try:
            cardinal_matrix(nodes, bary, zs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * 2001 * 385

    @pytest.mark.parametrize("shape", [(2, 9), (4, 5)])
    def test_array_shape_preserved(self, shape):
        s = spec_of(-0.25, -0.25, 0.5)
        ip = interpolate(s, 9, lambda t: np.cos(4.0 * np.asarray(t)))
        ts = np.linspace(0.0, 1.0, math.prod(shape))
        ts[3] = ip.nodes_t[2]  # one exact node hit in the middle of the grid
        got = eval_interpolant(ip, ts.reshape(shape))
        assert got.shape == shape
        assert np.array_equal(got, eval_interpolant(ip, ts).reshape(shape))

    @staticmethod
    def _node_loop(ip, ts):
        """The exact-t rule written as a loop: the last node wins, and
        t = 1.0 is never matched."""
        out = cardinal_matrix(ip.nodes_z, ip.bary_weights,
                              map_forward(ip.spec, ts)) @ ip.values
        for j, tj in enumerate(ip.nodes_t):
            if tj != 1.0:
                out[ts == tj] = ip.values[j]
        return out

    def test_exact_node_inputs(self):
        s = spec_of(-0.5, -0.5, 0.5)
        ip = interpolate(s, 64, lambda t: np.cos(4.0 * np.asarray(t)))
        distinct = ip.nodes_t < 1.0
        ts = np.concatenate([ip.nodes_t[::-1], eval_grid(0.5, 101), [1.0, -0.0, np.nan]])
        got = eval_interpolant(ip, ts)
        assert np.array_equal(got, self._node_loop(ip, ts), equal_nan=True)
        assert np.array_equal(got[:65][::-1][distinct], ip.values[distinct])
        assert eval_interpolant(ip, ip.nodes_t[5]) == ip.values[5]

    def test_coinciding_near_terminal_nodes(self):
        # at small rho and large N many near-terminal nodes share one t; the
        # last of them gives the value, and t = 1.0 always goes through z
        s = spec_of(-0.5, -0.5, 0.02)
        ip = interpolate(s, 600, lambda t: np.asarray(t) ** 2)
        ip = Interpolant(s, ip.nodes_z, ip.nodes_t,
                         np.random.default_rng(2).standard_normal(601), ip.bary_weights)
        t_vals, counts = np.unique(ip.nodes_t[ip.nodes_t < 1.0], return_counts=True)
        assert counts.max() > 1 and np.count_nonzero(ip.nodes_t == 1.0) > 1
        ts = np.concatenate([t_vals, ip.nodes_t, [1.0]])
        got = eval_interpolant(ip, ts)
        assert np.array_equal(got, self._node_loop(ip, ts))
        last = {t: v for t, v in zip(ip.nodes_t.tolist(), ip.values.tolist())}
        assert got[:len(t_vals)].tolist() == [last[t] for t in t_vals.tolist()]

    def test_singular_function_error_near_best(self):
        # interpolation of (1-t)^sqrt(2) lands within a factor of 10 of a
        # dense least-squares competitor from the same approximation space
        s = spec_of(-0.25, -0.25, 0.5)
        f = lambda t: (1.0 - np.asarray(t, dtype=float)) ** math.sqrt(2.0)
        n = 16
        ip = interpolate(s, n, f)
        ts = eval_grid(s.rho, 2001)
        interp_err = float(np.max(np.abs(f(ts) - eval_interpolant(ip, ts))))
        zs = np.linspace(0.0, 1.0, 4001)
        tz = map_inverse(s, zs)
        design = np.vstack(
            [jacobi_eval(JacobiParams(0, 0), r, zs) for r in range(n + 1)]
        ).T
        coef, *_ = np.linalg.lstsq(design, f(tz), rcond=None)
        ls_err = float(np.max(np.abs(design @ coef - f(tz))))
        assert interp_err <= 10.0 * ls_err


T_GRID = np.linspace(0.0, 0.9, 5)
P_GRID = 1.0 - np.outer(1.0 - T_GRID, np.linspace(0.1, 1.0, 4))


@pytest.mark.parametrize(
    "func, args, vectorises",
    [
        (np.exp, (T_GRID,), True),
        (math.exp, (T_GRID,), False),
        (lambda t, p: 1.0, (T_GRID[:, None], P_GRID), True),
        (lambda t, p: np.exp(t) * p, (T_GRID[:, None], P_GRID), True),
        (lambda t, p: math.exp(t) * p, (T_GRID[:, None], P_GRID), False),
        # numpy < 2.4 converts a size-1 array to a scalar, so the array
        # call of a scalar-only function may or may not succeed there
        (math.exp, (np.array([0.3]),), None),
        (lambda t, p: np.exp(t) * p, (np.array([[0.3]]), np.array([[0.7]])), True),
    ],
    ids=["array", "scalar-only", "constant", "kernel", "scalar-kernel",
         "size1", "size1-kernel"],
)
def test_sample_matches_pointwise_loop(func, args, vectorises):
    calls = []

    def counted(*xs):
        calls.append(np.ndim(xs[-1]))
        return func(*xs)

    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    ref = np.array([func(*map(float, xs)) for xs in zip(
        *(np.broadcast_to(a, shape).ravel() for a in args))]).reshape(shape)
    got = _sample(counted, *args)
    assert got.shape == shape
    assert np.allclose(got, ref, rtol=1e-15, atol=0.0)
    # one array call, followed by one scalar call per point if it failed
    assert calls[0] > 0
    if vectorises is not None:
        assert len(calls) == (1 if vectorises else 1 + ref.size)


def test_sample_reads_pointwise_after_any_array_error():
    # any exception from the array call means one scalar call per point;
    # an exception from a scalar call propagates
    calls = []

    def array_fails(t):
        calls.append(np.ndim(t))
        if np.ndim(t):
            raise RuntimeError("array evaluation failed")
        return math.exp(t)

    got = _sample(array_fails, T_GRID)
    assert got.tolist() == [math.exp(t) for t in T_GRID.tolist()]
    assert calls == [1] + [0] * T_GRID.size

    def always_fails(t):
        raise RuntimeError("scalar evaluation failed")

    with pytest.raises(RuntimeError, match="scalar evaluation failed"):
        _sample(always_fails, T_GRID)


def test_sample_takes_a_float_result_as_returned(monkeypatch):
    # a scalar result of type exactly float skips the conversion; a numpy
    # scalar still takes it, so a complex one is refused
    def scalar_only(kind):
        def func(t):
            if np.ndim(t):
                raise RuntimeError("array boom")
            return kind(math.exp(t))
        return func

    with pytest.raises(TypeError, match="complex value"):
        _sample(scalar_only(np.complex128), T_GRID)
    converted = []
    monkeypatch.setattr(approximation, "_real", lambda v: converted.append(v) or v)
    got = _sample(scalar_only(float), T_GRID)
    assert converted == []
    assert got.tolist() == [math.exp(t) for t in T_GRID.tolist()]
    assert np.array_equal(_sample(scalar_only(np.float64), T_GRID), got)
    assert converted == [np.float64(math.exp(t)) for t in T_GRID.tolist()]


def test_sample_rereads_non_finite_array_values_pointwise():
    calls = []

    def with_nan(t):
        calls.append(np.ndim(t))
        return np.where(np.asarray(t) > 0.5, np.nan, np.exp(t))

    got = _sample(with_nan, T_GRID)
    assert calls == [1] + [0] * T_GRID.size
    assert np.array_equal(got, with_nan(T_GRID), equal_nan=True)
    assert np.isnan(got).sum() == np.sum(T_GRID > 0.5) > 0


class TestGapFactors:
    """The rank-2 product of `_gap_factors` is the broadcast subtraction,
    bit for bit."""

    @staticmethod
    def gaps(x, z):
        return np.matmul(*_gap_factors(x, z))

    @pytest.mark.parametrize("m, n", [(7, 5), (385, 385), (2001, 65)])
    @pytest.mark.parametrize("scale", [1.0, 1e-310, 1e300])
    def test_random_inputs(self, m, n, scale):
        rng = np.random.default_rng(m + n)
        x = scale * rng.uniform(-1.0, 1.0, m)
        z = scale * rng.uniform(-1.0, 1.0, n)
        z[: min(m, n) // 2] = np.nextafter(x[: min(m, n) // 2], 2.0)  # one-ulp gaps
        assert np.array_equal(self.gaps(x, z), x[:, None] - z)

    def test_exact_hits_give_positive_zero_and_infinite_reciprocal(self):
        nodes, _, _ = _node_set(spec_of(-0.5, -0.5, 0.5), 16)
        gaps = self.gaps(nodes, nodes)
        assert np.array_equal(gaps, nodes[:, None] - nodes)
        hits = np.diagonal(gaps)
        assert np.all(hits == 0.0) and not np.signbit(hits).any()
        with np.errstate(divide="ignore"):
            assert np.all(np.diagonal(np.reciprocal(gaps)) == np.inf)

    @pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1)])
    def test_empty_and_single_point_arrays(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        x, z = rng.uniform(size=m), rng.uniform(size=n)
        got = self.gaps(x, z)
        assert got.shape == (m, n) and np.array_equal(got, x[:, None] - z)

    def test_non_finite_points(self):
        # BLAS may flag an invalid operation for an infinite x (cardinal_matrix
        # ignores it), but every gap is the subtraction's
        x = np.array([np.inf, -np.inf, np.nan, 0.5])
        z = np.linspace(0.1, 0.9, 5)
        with np.errstate(invalid="ignore"):
            gaps = self.gaps(x, z)
        assert np.array_equal(gaps, x[:, None] - z, equal_nan=True)

    def test_stacked_rows_as_in_the_row_pass(self):
        rng = np.random.default_rng(3)
        x, z = rng.uniform(size=(6, 9)), rng.uniform(size=9)
        left, right = _gap_factors(x, z)
        assert left.shape == (6, 9, 2) and right.shape == (2, 9)
        for i in range(6):
            assert np.array_equal(left[i] @ right, x[i][:, None] - z)


class TestErrorNorms:
    def test_weighted_l2_zero_for_equal(self):
        s = spec_of(-0.25, -0.25, 0.5)
        f = lambda t: np.cos(np.asarray(t))
        assert weighted_l2_error(s, f, f, 24) == 0.0

    def test_weighted_l2_of_constant_is_mass(self):
        s = spec_of(0.3, -0.2, 0.5)
        ref = math.sqrt(beta(s.params.mu + 1.0, s.params.upsilon + 1.0))
        one = lambda t: 1.0 + 0.0 * np.asarray(t)
        zero = lambda t: 0.0 * np.asarray(t)
        assert abs(weighted_l2_error(s, one, zero, 16) - ref) <= 1e-13 * ref

    def test_weighted_l2_of_basis_function_is_norm(self):
        s = spec_of(-0.25, -0.25, 0.5)
        f = lambda t: fb_eval(s, 2, t)
        zero = lambda t: 0.0 * np.asarray(t)
        ref = math.sqrt(jacobi_norm(s.params, 2))
        assert abs(weighted_l2_error(s, f, zero, 16) - ref) <= 1e-13 * ref

    def test_linf_basics(self):
        f = lambda t: np.sin(np.asarray(t))
        assert linf_error(f, f, 101) == 0.0
        g = lambda t: np.sin(np.asarray(t)) + 0.25
        assert abs(linf_error(f, g, 101) - 0.25) <= 1e-15

    def test_linf_grid_clusters_and_attains_left_max(self):
        ts = eval_grid(1.0, 1001)
        assert abs(ts[0] - 1e-6) < 1e-18
        f = lambda t: 1.0 - np.asarray(t, dtype=float)
        zero = lambda t: 0.0 * np.asarray(t)
        assert linf_error(f, zero, 1001, rho=1.0) == 1.0 - ts[0]
        # for small rho the same z grid pushes samples toward t = 1
        ts_frac = eval_grid(0.25, 1001)
        assert np.sum(ts_frac > 0.99) > np.sum(ts > 0.99)

    def test_samples_validation(self):
        with pytest.raises(ValueError):
            eval_grid(0.5, 1)
        with pytest.raises(ValueError):
            weighted_l2_error(spec_of(0, 0, 1.0), np.cos, np.cos, 0)


class TestLebesgue:
    def test_lower_bound(self):
        assert lebesgue_constant(spec_of(0, 0, 1.0), 1, 101) >= 1.0

    def test_single_node_is_exactly_one(self):
        assert lebesgue_constant(spec_of(-0.5, -0.5, 1.0), 0, 101) == 1.0
        with pytest.raises(ValueError, match="N must be nonnegative, got -1"):
            lebesgue_constant(spec_of(-0.5, -0.5, 1.0), -1, 101)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_checked_before_the_node_set(self, samples, monkeypatch):
        def no_nodes(*args):
            raise AssertionError("node set built for an empty grid")

        monkeypatch.setattr(approximation, "_node_set", no_nodes)
        with pytest.raises(ValueError, match="samples must be at least 1"):
            lebesgue_constant(spec_of(-0.5, -0.5, 1.0), 4, samples)

    def test_log_growth_for_clustered_weight(self):
        ns = [4, 8, 16, 32]
        lams = [lebesgue_constant(spec_of(-0.5, -0.5, 1.0), n, 2001) for n in ns]
        design = np.vstack([np.ones(len(ns)), np.log(ns)]).T
        coef, *_ = np.linalg.lstsq(design, np.array(lams), rcond=None)
        assert coef[1] < 3.0

    def test_algebraic_growth_for_flat_weight(self):
        # mu = upsilon = 1/2 grows like N^{mu+1/2} = N
        ns = [4, 8, 16, 32]
        lams = [lebesgue_constant(spec_of(0.5, 0.5, 1.0), n, 2001) for n in ns]
        exponent = np.polyfit(np.log(ns), np.log(lams), 1)[0]
        assert 0.6 <= exponent <= 1.4


class TestInverseInequality:
    def test_derivative_norm_bound(self):
        rng = np.random.default_rng(3)
        for mu, up, rho in ((-0.25, -0.25, 0.5), (-0.5, -0.5, 1.0)):
            s = spec_of(mu, up, rho)
            for n in (4, 8, 16):
                sigma = n * (n + mu + up + 1.0)
                rule_num = gauss_rule(s.params.shifted(1), 4 * n)
                rule_den = gauss_rule(s.params, 4 * n)
                t_num = map_inverse(s, rule_num.nodes)
                t_den = map_inverse(s, rule_den.nodes)
                for _ in range(20):
                    coeffs = rng.standard_normal(n + 1)
                    phi = Expansion(s, coeffs)
                    dphi = Expansion(
                        s.shifted(1),
                        [coeffs[r] * deriv_factor(s, r, 1) for r in range(1, n + 1)],
                    )
                    num = math.sqrt(
                        float(np.dot(rule_num.weights, eval_expansion(dphi, t_num) ** 2))
                    )
                    den = math.sqrt(
                        float(np.dot(rule_den.weights, eval_expansion(phi, t_den) ** 2))
                    )
                    assert num <= (1.0 + 1e-8) * math.sqrt(sigma) * den


class TestInterpolationStability:
    def test_weighted_norm_of_bounded_interpolants(self):
        zero = lambda t: 0.0 * np.asarray(t, dtype=float)
        tests = (
            lambda t: np.sign(np.sin(5.0 * np.pi * np.asarray(t, dtype=float))),
            lambda t: np.cos(20.0 * np.asarray(t, dtype=float)),
        )
        for rho in (1.0, 0.5):
            s = spec_of(-0.5, -0.5, rho)
            for n in (4, 8, 16, 32, 64):
                for v in tests:
                    ip = interpolate(s, n, v)
                    assert weighted_l2_error(s, ip, zero, 2 * (n + 1)) <= 5.0
