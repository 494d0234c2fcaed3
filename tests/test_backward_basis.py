import math

import numpy as np
import pytest

from fbjacobi.backward_basis import (
    BackwardSpec,
    deriv_factor,
    fb_deriv_eval,
    fb_eval,
    fb_nodes,
    fb_weight,
    fb_weight_tilde,
    map_forward,
    map_inverse,
    sturm_liouville_apply,
)
from fbjacobi.approximation import eval_expansion, eval_interpolant, interpolate, project
from fbjacobi.jacobi_core import JacobiParams, gauss_rule, jacobi_eval, jacobi_norm
from fbjacobi.problems import case_i, oracle_kr


def spec_of(mu, up, rho):
    return BackwardSpec(JacobiParams(mu, up), rho)


class TestBackwardSpec:
    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            spec_of(0, 0, 0.0)
        with pytest.raises(ValueError):
            spec_of(0, 0, 1.5)
        spec_of(0, 0, 1.0)


class TestMapping:
    def test_fixed_points(self):
        for rho in (1.0, 0.5, 0.25):
            s = spec_of(0, 0, rho)
            assert map_forward(s, 0.0) == 0.0
            assert map_forward(s, 1.0) == 1.0
            assert map_inverse(s, 0.0) == 0.0
            assert map_inverse(s, 1.0) == 1.0

    def test_known_values(self):
        s = spec_of(0, 0, 0.5)
        assert abs(map_forward(s, 0.75) - 0.5) < 1e-15
        assert abs(map_inverse(s, 0.5) - 0.75) < 1e-15
        s4 = spec_of(0, 0, 0.25)
        assert abs(map_inverse(s4, 0.9) - (1.0 - 0.1**4)) < 1e-15

    def test_roundtrip(self):
        for rho in (1.0, 0.5, 1.0 / 3.0, 0.17):
            s = spec_of(-0.25, -0.25, rho)
            ts = np.linspace(0.0, 0.999, 201)
            back = map_inverse(s, map_forward(s, ts))
            assert np.max(np.abs(back - ts)) <= 1e-13

    def test_monotone(self):
        s = spec_of(0, 0, 0.3)
        ts = np.linspace(0, 1, 101)
        zs = map_forward(s, ts)
        assert np.all(np.diff(zs) > 0)


class TestFbEval:
    def test_degree_zero(self):
        assert fb_eval(spec_of(0.3, -0.2, 0.6), 0, 0.4) == 1.0

    def test_reduces_to_shifted_jacobi(self):
        # rho=1 must coincide with the classical shifted polynomial
        for mu, up in ((-0.25, -0.25), (0.3, -0.2)):
            s = spec_of(mu, up, 1.0)
            for r in (1, 4, 9):
                for t in np.linspace(0, 1, 13):
                    ref = jacobi_eval(JacobiParams(mu, up), r, t)
                    assert abs(fb_eval(s, r, float(t)) - ref) <= 1e-14 * max(1, abs(ref))

    def test_linear_case(self):
        s = spec_of(0, 0, 1.0)
        for t in (0.0, 0.3, 1.0):
            assert abs(fb_eval(s, 1, t) - (2.0 * t - 1.0)) < 1e-15

    def test_series_oracle(self):
        # explicit expansion in powers of (1-t)^rho with gamma-ratio coefficients
        mu, up, rho, r, t = 0.3, -0.2, 0.5, 3, 0.64
        prefactor = math.gamma(1.0 + r + mu) / math.gamma(1.0 + r + mu + up) / math.factorial(r)
        acc = 0.0
        for k in range(r + 1):
            acc += (
                math.comb(r, k)
                * (-1.0) ** k
                * math.gamma(1.0 + r + k + mu + up) / math.gamma(1.0 + k + mu)
                * (1.0 - t) ** (rho * k)
            )
        ref = prefactor * acc
        assert abs(fb_eval(spec_of(mu, up, rho), r, t) - ref) <= 1e-12 * max(1, abs(ref))


class TestWeights:
    def test_fb_weight_values(self):
        assert abs(fb_weight(spec_of(0, 0, 1.0), 0.3) - 1.0) < 1e-15
        # rho(mu+1)-1 = 0 at rho=1/2, mu=1: weight is rho * z^0 = 1/2
        assert abs(fb_weight(spec_of(1.0, 0.0, 0.5), 0.75) - 0.5) < 1e-15
        assert abs(fb_weight(spec_of(-0.5, -0.5, 1.0), 0.5) - 2.0) < 1e-14

    def test_fb_weight_tilde_values(self):
        assert abs(fb_weight_tilde(spec_of(0, 0, 1.0), 0.5) - 0.25) < 1e-15
        assert abs(fb_weight_tilde(spec_of(0, 0, 0.5), 0.75) - 0.25) < 1e-15

    def test_tilde_vanishes_at_endpoints(self):
        # decay rates t^{upsilon+1} at the left end, (1-t)^{rho mu + 1} at the right
        s = spec_of(-0.25, -0.25, 0.5)
        assert fb_weight_tilde(s, 1e-12) < 1e-8
        assert fb_weight_tilde(s, 1.0 - 1e-12) < 1e-9


class TestDerivatives:
    def test_first_derivative_constant_case(self):
        # d/dt of (2t-1) is 2
        s = spec_of(0, 0, 1.0)
        for t in (0.1, 0.5, 0.9):
            assert abs(fb_deriv_eval(s, 1, 1, t) - 2.0) < 1e-15

    def test_full_order_is_constant(self):
        s = spec_of(-0.25, 0.4, 0.5)
        vals = [fb_deriv_eval(s, 3, 3, t) for t in (0.1, 0.4, 0.8)]
        assert max(vals) - min(vals) == 0.0

    def test_factor_matches_gamma_ratio(self):
        for mu, up in ((-0.25, -0.25), (-0.5, -0.5), (0.3, -0.2)):
            s = spec_of(mu, up, 0.5)
            for r in range(1, 9):
                for k in range(1, r + 1):
                    prod = deriv_factor(s, r, k)
                    base = r + mu + up + 1.0
                    ref = math.gamma(base + k) / math.gamma(base)
                    assert abs(prod - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_matches_z_space_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for mu, up, rho in ((-0.25, -0.25, 0.5), (0.0, 0.0, 1.0 / 3.0)):
            s = spec_of(mu, up, rho)
            for r in range(1, 9):
                for z in rng.uniform(0.05, 0.95, 20):
                    fd = (
                        fb_eval(s, r, map_inverse(s, z + h))
                        - fb_eval(s, r, map_inverse(s, z - h))
                    ) / (2.0 * h)
                    exact = fb_deriv_eval(s, r, 1, map_inverse(s, z))
                    assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_shift_identity(self):
        # first derivative lands in the (mu+1, upsilon+1) family
        s = spec_of(-0.25, -0.25, 0.5)
        for r in (1, 3, 6):
            factor = r + s.params.mu + s.params.upsilon + 1.0
            for t in (0.2, 0.6, 0.9):
                lhs = fb_deriv_eval(s, r, 1, t)
                rhs = factor * fb_eval(s.shifted(1), r - 1, t)
                assert lhs == rhs

    def test_k_range_validation(self):
        s = spec_of(0, 0, 1.0)
        with pytest.raises(ValueError):
            fb_deriv_eval(s, 2, 0, 0.5)
        with pytest.raises(ValueError):
            fb_deriv_eval(s, 2, 3, 0.5)


class TestSturmLiouville:
    def test_eigenrelation(self):
        for mu, up, rho in ((-0.25, -0.25, 0.5), (-0.5, -0.5, 1.0 / 3.0), (0.3, -0.2, 1.0)):
            s = spec_of(mu, up, rho)
            for r in range(1, 9):
                sigma = r * (r + mu + up + 1.0)
                for t in np.linspace(0.05, 0.93, 10):
                    lhs = sturm_liouville_apply(s, r, float(t))
                    rhs = sigma * fb_eval(s, r, float(t))
                    assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-30)


class TestNodes:
    def test_single_node(self):
        assert abs(fb_nodes(spec_of(0, 0, 1.0), 0)[0] - 0.5) < 1e-15
        assert abs(fb_nodes(spec_of(0, 0, 0.5), 0)[0] - 0.75) < 1e-15

    def test_nodes_are_basis_roots(self):
        s = spec_of(-0.25, -0.25, 0.5)
        nodes = fb_nodes(s, 8)
        assert np.all(np.diff(nodes) > 0)
        for t in nodes:
            assert abs(fb_eval(s, 9, float(t))) <= 1e-10

    def test_orthogonality_through_the_map(self):
        # same Gram as the z-space computation, but exercising the full
        # t-level composition; the round trip costs a little accuracy
        n = 8
        s = spec_of(-0.25, -0.25, 0.5)
        rule = gauss_rule(s.params, n + 2)
        ts = map_inverse(s, rule.nodes)
        basis = np.vstack([fb_eval(s, r, ts) for r in range(n + 1)])
        gram = basis @ (rule.weights[:, None] * basis.T)
        for r in range(n + 1):
            for q in range(n + 1):
                if r == q:
                    ref = jacobi_norm(s.params, r)
                    assert abs(gram[r, q] - ref) <= 1e-9 * ref
                else:
                    assert abs(gram[r, q]) <= 1e-9


_SPEC = BackwardSpec(JacobiParams(-0.25, -0.25), 0.5)
_CASE = case_i(0.5, 1.5, 2.5)
_EXPANSION = project(_SPEC, 6, np.cos)
_INTERPOLANT = interpolate(_SPEC, 6, np.cos)
POINTWISE = {
    "map_forward": lambda t: map_forward(_SPEC, t),
    "map_inverse": lambda t: map_inverse(_SPEC, t),
    "fb_eval": lambda t: fb_eval(_SPEC, 3, t),
    "fb_weight": lambda t: fb_weight(_SPEC, t),
    "fb_weight_tilde": lambda t: fb_weight_tilde(_SPEC, t),
    "fb_deriv_eval": lambda t: fb_deriv_eval(_SPEC, 3, 2, t),
    "sturm_liouville_apply r=0": lambda t: sturm_liouville_apply(_SPEC, 0, t),
    "sturm_liouville_apply r=2": lambda t: sturm_liouville_apply(_SPEC, 2, t),
    "jacobi_eval": lambda z: jacobi_eval(_SPEC.params, 3, z),
    "eval_expansion": lambda t: eval_expansion(_EXPANSION, t),
    "eval_interpolant": lambda t: eval_interpolant(_INTERPOLANT, t),
    "oracle_kr": lambda t: oracle_kr(_CASE.exact, _CASE.theta, _CASE.kernel, t),
    "source_at": lambda t: _CASE.source_at(t, 1.0 - np.asarray(t)),
}


@pytest.mark.parametrize("name", list(POINTWISE))
def test_scalar_rule(name):
    """numpy's rule: a scalar or 0-d input gives a numpy float64, an array
    an array of its shape with the same values."""
    f = POINTWISE[name]
    ts = np.linspace(0.1, 0.8, 6).reshape(2, 3)
    for t in (0.3, np.float64(0.3), np.array(0.3)):
        assert type(f(t)) is np.float64
    out = f(ts)
    assert type(out) is np.ndarray and out.shape == ts.shape
    ref = [f(t) for t in ts.ravel().tolist()]
    np.testing.assert_allclose(out.ravel(), ref, rtol=1e-14, atol=0.0)
