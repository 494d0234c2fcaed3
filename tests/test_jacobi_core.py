import math

import numpy as np
import pytest
import scipy.special

import fbjacobi
from fbjacobi.jacobi_core import (
    JacobiParams,
    NumericalError,
    QuadratureRule,
    _recurrence_coeffs,
    gauss_rule,
    jacobi_eval,
    jacobi_norm,
    jacobi_table,
)
from fbjacobi.special_functions import beta

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

    def test_rule_is_immutable(self):
        rule = gauss_rule(JacobiParams(0, 0), 3)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0


def test_numerical_error_is_exported():
    assert fbjacobi.NumericalError is NumericalError
    assert issubclass(NumericalError, RuntimeError)
