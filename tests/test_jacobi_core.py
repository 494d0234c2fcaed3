import math

import numpy as np
import pytest
import scipy.special

import fbjacobi
from fbjacobi.jacobi_core import (
    MAX_N,
    JacobiParams,
    NumericalError,
    QuadratureRule,
    _golub_welsch,
    _recurrence_coeffs,
    _recurrence_lists,
    gauss_rule,
    jacobi_eval,
    jacobi_norm,
    jacobi_table,
)
from fbjacobi.backward_basis import BackwardSpec
from fbjacobi.problems import example1
from fbjacobi.special_functions import beta
from fbjacobi.volterra_solver import solve

PARAM_GRID = [
    JacobiParams(-0.25, -0.25),
    JacobiParams(-0.5, -0.5),
    JacobiParams(0.0, 0.0),
    JacobiParams(0.3, -0.2),
    JacobiParams(1.0, -0.5),
    JacobiParams(5.0, -2.0 / 3.0),
]


class TestJacobiParams:
    def test_validates_exponents(self):
        with pytest.raises(ValueError):
            JacobiParams(-1.0, 0.0)
        with pytest.raises(ValueError):
            JacobiParams(0.0, -1.5)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                JacobiParams(bad, 0.0)
            with pytest.raises(ValueError, match="finite"):
                JacobiParams(0.0, bad)

    def test_shifted(self):
        p = JacobiParams(-0.5, 0.25).shifted(2)
        assert p.mu == 1.5 and p.upsilon == 2.25


class TestJacobiEval:
    def test_degree_zero_and_one(self):
        p = JacobiParams(0.7, -0.3)
        assert jacobi_eval(p, 0, 0.37) == 1.0
        leg = JacobiParams(0.0, 0.0)
        for z in (0.0, 0.4, 0.95):
            assert abs(jacobi_eval(leg, 1, z) - (2.0 * z - 1.0)) < 1e-15

    def test_endpoint_identity(self):
        # P_r(1) = Gamma(r+mu+1) / (r! Gamma(mu+1))
        p = JacobiParams(0.3, -0.2)
        val = jacobi_eval(p, 4, 1.0)
        ref = math.gamma(4.0 + p.mu + 1.0) / math.gamma(p.mu + 1.0) / math.factorial(4)
        assert abs(val - ref) <= 1e-13 * abs(ref)

    def test_vectorized_matches_scalar(self):
        p = JacobiParams(-0.5, 0.3)
        zs = np.linspace(0, 1, 11)
        vec = jacobi_eval(p, 6, zs)
        assert vec.shape == zs.shape
        for z, v in zip(zs, vec):
            assert v == jacobi_eval(p, 6, float(z))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eval(JacobiParams(0, 0), -1, 0.0)
        with pytest.raises(ValueError):
            jacobi_norm(JacobiParams(0, 0), -1)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_against_scipy(self, params):
        zs = np.linspace(0.0, 1.0, 17)
        for r in (0, 1, 3, 8, 15):
            ref = scipy.special.eval_jacobi(r, params.mu, params.upsilon, 2.0 * zs - 1.0)
            got = jacobi_eval(params, r, zs)
            scale = np.maximum(1.0, np.abs(ref))
            assert np.max(np.abs(got - ref) / scale) <= 1e-12


class TestJacobiTable:
    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_against_scipy(self, params):
        zs = np.linspace(0.0, 1.0, 17)
        table = jacobi_table(params, 15, zs)
        ref = np.array(
            [scipy.special.eval_jacobi(r, params.mu, params.upsilon, 2.0 * zs - 1.0)
             for r in range(16)]
        )
        scale = np.maximum(1.0, np.abs(ref))
        assert np.max(np.abs(table - ref) / scale) <= 1e-12

    @pytest.mark.parametrize("z", [0.3, np.linspace(0.0, 1.0, 7),
                                   np.linspace(0.0, 1.0, 12).reshape(3, 4)],
                             ids=["scalar", "1d", "2d"])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_shape_contract(self, z, n):
        p = JacobiParams(-0.5, 0.3)
        table = jacobi_table(p, n, z)
        assert table.shape == (n + 1,) + np.shape(z)
        assert np.all(table[0] == 1.0)
        for r in range(n + 1):
            assert np.array_equal(table[r], jacobi_eval(p, r, z))

    def test_negative_degree_rejected(self):
        # was a bare IndexError from filling row 0 of an empty table
        with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
            jacobi_table(JacobiParams(0, 0), -1, np.linspace(0.0, 1.0, 5))


class TestJacobiNorm:
    def test_known_values(self):
        assert abs(jacobi_norm(JacobiParams(0, 0), 0) - 1.0) < 1e-14
        # Gamma(2)Gamma(2) / (1 * 3 * Gamma(2)) = 1/3
        assert abs(jacobi_norm(JacobiParams(0, 0), 1) - 1.0 / 3.0) < 1e-14
        # Chebyshev mass: the general formula is 0*inf at r=0
        assert abs(jacobi_norm(JacobiParams(-0.5, -0.5), 0) - math.pi) < 1e-13


def _coeffs_reference(params, k):
    """(A_k, B_k, C_k) of the Jacobi recurrence, one k at a time."""
    mu, up = params.mu, params.upsilon
    s = mu + up
    if k == 0:
        return (s + 2.0) / 2.0, (mu - up) / 2.0, 0.0
    two = 2.0 * k + s
    denom = 2.0 * (k + 1.0) * (k + s + 1.0)
    return ((two + 1.0) * (two + 2.0) / denom,
            (two + 1.0) * (mu * mu - up * up) / (denom * two),
            2.0 * (k + mu) * (k + up) * (two + 2.0) / (denom * two))


class TestRecurrenceCoeffs:
    @pytest.mark.parametrize("params", PARAM_GRID + [JacobiParams(-0.5, 0.5)], ids=str)
    def test_arrays_match_the_formula_bit_for_bit(self, params):
        m = 130
        ref = np.array([_coeffs_reference(params, k) for k in range(m)]).T
        got = np.array(_recurrence_coeffs(params, m))
        assert got.shape == (3, m) and np.array_equal(got, ref)
        assert all(len(v) == 0 for v in _recurrence_coeffs(params, 0))

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    @pytest.mark.parametrize("m", [1, 2, 17, 130])
    def test_rule_matches_the_three_diagonal_build(self, params, m):
        # the rule from the directly filled matrix is the one from the sum of
        # three np.diag matrices of the reference coefficients, bit for bit
        a, b, c = np.array([_coeffs_reference(params, k) for k in range(m)]).T
        off = np.sqrt(c[1:] / (a[:-1] * a[1:])) / 2.0
        jac = np.diag((1.0 - b / a) / 2.0) + np.diag(off, 1) + np.diag(off, -1)
        nodes, vectors = np.linalg.eigh(jac)
        rule = gauss_rule(params, m)
        assert np.array_equal(rule.nodes, nodes)
        assert np.array_equal(rule.weights, jacobi_norm(params, 0) * vectors[0, :] ** 2)


class TestGaussRule:
    def test_midpoint_rule(self):
        rule = gauss_rule(JacobiParams(0, 0), 1)
        assert abs(rule.nodes[0] - 0.5) < 1e-15
        assert abs(rule.weights[0] - 1.0) < 1e-15

    def test_two_point_legendre(self):
        rule = gauss_rule(JacobiParams(0, 0), 2)
        off = 1.0 / (2.0 * math.sqrt(3.0))
        assert np.allclose(rule.nodes, [0.5 - off, 0.5 + off], atol=1e-15, rtol=0)
        assert np.allclose(rule.weights, [0.5, 0.5], atol=1e-15, rtol=0)

    def test_chebyshev_closed_form(self):
        rule = gauss_rule(JacobiParams(-0.5, -0.5), 5)
        expected = sorted((1.0 + math.cos((2 * i + 1) * math.pi / 10.0)) / 2.0
                          for i in range(5))
        assert np.allclose(rule.nodes, expected, atol=1e-13, rtol=0)
        assert np.allclose(rule.weights, math.pi / 5.0, atol=1e-13, rtol=0)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    @pytest.mark.parametrize("m", [1, 2, 5, 13, 40])
    def test_monomial_exactness(self, params, m):
        rule = gauss_rule(params, m)
        for k in range(2 * m):
            got = float(np.dot(rule.weights, rule.nodes**k))
            ref = beta(params.upsilon + k + 1.0, params.mu + 1.0)
            assert abs(got - ref) <= 1e-11 * ref, (k, got, ref)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    def test_mass_and_shape(self, params):
        rule = gauss_rule(params, 17)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > 0 and rule.nodes[-1] < 1
        assert np.all(rule.weights > 0)
        mass = beta(params.mu + 1.0, params.upsilon + 1.0)
        assert abs(float(rule.weights.sum()) - mass) <= 1e-12 * mass

    @pytest.mark.parametrize("mu", [-0.5, -0.25, 0.0, 0.7])
    def test_symmetry_for_equal_exponents(self, mu):
        rule = gauss_rule(JacobiParams(mu, mu), 9)
        z = rule.nodes
        w = rule.weights
        assert np.max(np.abs(z + z[::-1] - 1.0)) <= 1e-12
        assert np.max(np.abs(w - w[::-1])) <= 1e-12 * np.max(w)

    def test_orthogonality_of_shifted_polynomials(self):
        n = 12
        for mu in (-0.25, -0.5, 0.0, 0.3):
            for up in (-0.25, -0.5, 0.0, 0.3):
                params = JacobiParams(mu, up)
                rule = gauss_rule(params, n + 1)
                basis = np.vstack([jacobi_eval(params, r, rule.nodes)
                                   for r in range(n + 1)])
                gram = basis @ (rule.weights[:, None] * basis.T)
                for r in range(n + 1):
                    for s in range(n + 1):
                        if r == s:
                            ref = jacobi_norm(params, r)
                            assert abs(gram[r, s] - ref) <= 1e-11 * ref
                        else:
                            assert abs(gram[r, s]) <= 1e-11

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    @pytest.mark.parametrize("m", [3, 11, 33])
    def test_against_scipy_roots(self, params, m):
        # scipy works on [-1,1] with weight (1-x)^mu (1+x)^upsilon; the affine
        # shift halves the interval and rescales the mass by 2^(mu+upsilon+1)
        x_ref, w_ref = scipy.special.roots_jacobi(m, params.mu, params.upsilon)
        rule = gauss_rule(params, m)
        assert np.max(np.abs(rule.nodes - (x_ref + 1.0) / 2.0)) <= 1e-13
        # weight agreement is limited by scipy's own accuracy for strongly
        # asymmetric weights at larger m (its monomial-moment error reaches
        # ~5e-13 there while this rule stays at ~1e-15)
        scale = 2.0 ** (params.mu + params.upsilon + 1.0)
        assert np.max(np.abs(rule.weights - w_ref / scale)) <= 5e-12 * np.max(rule.weights)

    @pytest.mark.parametrize("params", PARAM_GRID, ids=str)
    @pytest.mark.parametrize("m", [1, 5, 33, 129, 385])
    def test_nodes_are_zeros_of_the_table(self, params, m):
        # the rule and the table share one recurrence, so at the nodes the
        # Newton step P_m / P_m' in x = 2z - 1 is at rounding level; the
        # derivative is P_m' = (m + mu + upsilon + 1)/2 * P_{m-1} of the
        # shifted pair
        z = gauss_rule(params, m).nodes
        p_m = jacobi_table(params, m, z)[m]
        dp_m = (0.5 * (m + params.mu + params.upsilon + 1.0)
                * jacobi_table(params.shifted(1), m - 1, z)[m - 1])
        assert np.max(np.abs(p_m / dp_m)) <= 4e-15

    def test_eigh_failure_is_numerical_error(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(NumericalError, match="eigen-decomposition failed"):
            gauss_rule(JacobiParams(0, 0), 3)

    @pytest.mark.parametrize("nodes", [[-0.1, 0.5, 0.9], [0.2, 0.2, 0.9], [0.1, 0.5, 1.0]],
                             ids=["below-0", "not-increasing", "at-1"])
    def test_nodes_outside_or_unordered_are_numerical_error(self, monkeypatch, nodes):
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (np.array(nodes), np.eye(3)))
        with pytest.raises(NumericalError, match="nodes not strictly inside"):
            gauss_rule(JacobiParams(0, 0), 3)

    @pytest.mark.parametrize("perturb, message", [
        (lambda vectors: vectors * [1.0, 0.0, 1.0], "nonpositive weight"),
        (lambda vectors: vectors * (1.0 + 1e-9), "weight mass off"),
    ], ids=["zero-weight", "mass-off"])
    def test_bad_weights_are_numerical_error(self, monkeypatch, perturb, message):
        eigh = np.linalg.eigh

        def perturbed(a):
            nodes, vectors = eigh(a)
            return nodes, perturb(vectors)

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(NumericalError, match=message):
            gauss_rule(JacobiParams(0, 0), 3)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            gauss_rule(JacobiParams(0, 0), 0)

    def test_size_limit_is_checked_before_allocating(self, monkeypatch):
        # converge's L2 rule at N = MAX_N has 4 (MAX_N + 1) points; one more is
        # refused before the recurrence or the eigen-decomposition runs
        def allocates(*args):
            raise AssertionError("rule built")

        monkeypatch.setattr(fbjacobi.jacobi_core, "_recurrence_coeffs", allocates)
        monkeypatch.setattr(np.linalg, "eigh", allocates)
        with pytest.raises(AssertionError, match="rule built"):
            gauss_rule(JacobiParams(0, 0), 4 * (MAX_N + 1))
        with pytest.raises(ValueError, match=r"rule size 4805 exceeds 4 \(MAX_N \+ 1\) = 4804"):
            gauss_rule(JacobiParams(0, 0), 4 * (MAX_N + 1) + 1)

    def test_rule_is_immutable(self):
        rule = gauss_rule(JacobiParams(0, 0), 3)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRuleCache:
    """`gauss_rule` checks m, then returns the rule stored for (params, m),
    building it on the first call. The autouse fixture in conftest.py starts
    each test with no stored rule."""

    @pytest.mark.parametrize("key, equal_key", [
        ((JacobiParams(-0.0, 0), 5), (JacobiParams(0, 0), 5)),
        ((JacobiParams(0, 0), 5), (JacobiParams(-0.0, 0), 5)),
        ((JacobiParams(1, -0.5), 7), (JacobiParams(1.0, -0.5), 7)),
        ((JacobiParams(-0.25, -0.25), np.int64(9)), (JacobiParams(-0.25, -0.25), 9)),
    ], ids=["minus-zero-first", "zero-first", "int-exponent", "int64-size"])
    def test_equal_keys_give_the_cold_rule_bit_for_bit(self, key, equal_key):
        cold = gauss_rule(*equal_key)
        _golub_welsch.cache_clear()
        stored = gauss_rule(*key)
        shared = gauss_rule(*equal_key)
        assert shared is stored
        assert _golub_welsch.cache_info().currsize == 1
        assert same_bits(shared.nodes, cold.nodes)
        assert same_bits(shared.weights, cold.weights)

    def test_a_failed_build_is_not_stored(self, monkeypatch):
        def no_convergence(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(NumericalError, match="eigen-decomposition failed"):
            gauss_rule(JacobiParams(0, 0), 3)
        assert _golub_welsch.cache_info().currsize == 0
        monkeypatch.undo()
        rule = gauss_rule(JacobiParams(0, 0), 3)
        assert np.all(np.diff(rule.nodes) > 0) and rule.nodes[0] > 0 and rule.nodes[-1] < 1
        assert abs(float(rule.weights.sum()) - 1.0) <= 1e-15
        assert abs(float(rule.weights @ rule.nodes**5) - 1.0 / 6.0) <= 1e-15

    def test_sizes_are_checked_before_a_stored_rule_is_read(self, monkeypatch):
        params = JacobiParams(0, 0)
        stored = gauss_rule(params, 5)

        def allocates(*args):
            raise AssertionError("rule built")

        monkeypatch.setattr(fbjacobi.jacobi_core, "_recurrence_coeffs", allocates)
        monkeypatch.setattr(np.linalg, "eigh", allocates)
        with pytest.raises(ValueError, match="rule size 4805 exceeds"):
            gauss_rule(params, 4 * (MAX_N + 1) + 1)
        with pytest.raises(ValueError, match="rule size must be >= 1"):
            gauss_rule(params, 0)
        assert gauss_rule(params, 5) is stored
        info = _golub_welsch.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_the_store_is_bounded(self):
        assert _golub_welsch.cache_info().maxsize == 128
        for i in range(200):
            gauss_rule(JacobiParams(0.01 * i, 0.0), 2)
            assert _golub_welsch.cache_info().currsize <= 128
        assert _golub_welsch.cache_info().currsize == 128

    def test_repeated_solves_are_bit_identical(self):
        problem = example1(0.5)
        spec = BackwardSpec(JacobiParams(-0.25, -0.25), 0.5)
        first = solve(problem, spec, 24)
        hits = _golub_welsch.cache_info().hits
        second = solve(problem, spec, 24)
        assert _golub_welsch.cache_info().hits > hits
        assert same_bits(first.values, second.values)
        assert (np.float64(first.diagnostics.condition).tobytes()
                == np.float64(second.diagnostics.condition).tobytes())


class TestRecurrenceMemo:
    """`jacobi_table` reads its coefficients from `_recurrence_lists`, built
    once per (params, n). The autouse fixture in conftest.py starts each test
    with an empty memo."""

    Z = np.array([0.0, 0.1, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("params, equal_params", [
        (JacobiParams(-0.0, 0.0), JacobiParams(0.0, 0.0)),
        (JacobiParams(0.0, 0.0), JacobiParams(-0.0, 0.0)),
        (JacobiParams(1, 0), JacobiParams(1.0, 0.0)),
        (JacobiParams(1.0, 0.0), JacobiParams(1, 0)),
    ], ids=["minus-zero-first", "zero-first", "int-first", "float-first"])
    def test_equal_keys_give_the_cold_table_bit_for_bit(self, params, equal_params):
        cold = jacobi_table(equal_params, 9, self.Z)
        _recurrence_lists.cache_clear()
        stored = jacobi_table(params, 9, self.Z)
        shared = jacobi_table(equal_params, 9, self.Z)
        info = _recurrence_lists.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert same_bits(stored, cold) and same_bits(shared, cold)

    def test_memoised_coefficients_are_tuples_of_the_recurrence(self):
        params = JacobiParams(-0.5, 0.3)
        coeffs = _recurrence_lists(params, 17)
        assert isinstance(coeffs, tuple) and len(coeffs) == 3
        for got, ref in zip(coeffs, _recurrence_coeffs(params, 17)):
            assert isinstance(got, tuple) and all(type(v) is float for v in got)
            assert same_bits(np.array(got), ref)
        assert _recurrence_lists(params, 17) is coeffs
        assert _recurrence_lists(params, 0) == ((), (), ())

    def test_a_repeated_table_is_a_fresh_writable_array(self):
        params = JacobiParams(-0.25, -0.25)
        first = jacobi_table(params, 6, self.Z)
        kept = first.copy()
        first[:] = np.nan
        second = jacobi_table(params, 6, self.Z)
        assert _recurrence_lists.cache_info().hits == 1
        assert second.flags.writeable and not np.shares_memory(first, second)
        assert same_bits(second, kept)

    def test_the_memo_is_bounded(self):
        assert _recurrence_lists.cache_info().maxsize == 256
        for n in range(300):
            jacobi_table(JacobiParams(0.0, 0.0), n % 30, 0.5)
            jacobi_table(JacobiParams(0.01 * n, 0.0), 2, 0.5)
        assert _recurrence_lists.cache_info().currsize == 256


def test_numerical_error_is_exported():
    assert fbjacobi.NumericalError is NumericalError
    assert issubclass(NumericalError, RuntimeError)
