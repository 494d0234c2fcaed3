"""Runtime invariant suite behind the `selftest` CLI command.

`run_all` executes the battery deterministically from a seed. The checks
mirror the library's structural guarantees: orthogonality, quadrature
exactness, derivative and eigenstructure identities, inverse inequality,
exact polynomial recovery by the solver, oracle consistency, Lebesgue-constant
growth, and interpolation stability. Every check is evaluated on arrays and
its errors are reduced by one np.max, so a NaN anywhere fails it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .approximation import interpolate, lebesgue_constant, weighted_l2_error
from .backward_basis import (
    BackwardSpec,
    deriv_factor,
    fb_deriv_eval,
    fb_eval,
    map_inverse,
    sturm_liouville_apply,
)
from .jacobi_core import JacobiParams, gauss_rule, jacobi_norm, jacobi_table
from .problems import _source_mismatch, case_i, example1, oracle_kr
from .special_functions import beta
from .volterra_solver import solve


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(errors, bound: float):
    """(passed, detail) of the largest of the errors (arrays or scalars)
    against the bound; np.max propagates NaN, so a NaN fails."""
    worst = float(np.max(np.concatenate([np.ravel(e) for e in errors])))
    return worst <= bound, f"worst {worst:.3e} vs bound {bound:.3e}"


def check_orthogonality():
    """Backward-basis Gram matrices are diagonal with the closed-form norms.

    The weighted t integral transforms exactly to the shifted-Jacobi Gram in
    z, which is how it is evaluated here; rho drops out of it.
    """
    n = 12
    errors = []
    for mu, up in ((-0.25, -0.25), (-0.5, -0.5), (0.0, 0.0)):
        params = JacobiParams(mu, up)
        rule = gauss_rule(params, n + 2)
        basis = jacobi_table(params, n, rule.nodes)
        gram = basis @ (rule.weights[:, None] * basis.T)
        norms = np.array([jacobi_norm(params, r) for r in range(n + 1)])
        err = np.abs(gram - np.diag(norms))  # absolute off the diagonal
        err[np.diag_indices(n + 1)] /= norms
        errors.append(err)
    return _result(errors, 1e-11)


def check_quadrature_exactness():
    """Gauss rules integrate monomials exactly to degree 2M-1; the exact
    moments of each weight are computed once, up to the largest M's degree."""
    sizes = (1, 2, 3, 5, 8, 13, 21, 40)
    errors = []
    for mu, up in ((-0.25, -0.25), (-0.5, -0.5), (0.0, 0.0), (1.0, -0.5), (5.0, -2.0 / 3.0)):
        params = JacobiParams(mu, up)
        moments = np.array([beta(up + k + 1.0, mu + 1.0) for k in range(2 * sizes[-1])])
        for m in sizes:
            rule = gauss_rule(params, m)
            got = rule.nodes ** np.arange(2 * m)[:, None] @ rule.weights
            ref = moments[:2 * m]
            errors.append(np.abs(got - ref) / ref)
    return _result(errors, 1e-11)


def check_derivative_identity(rng: np.random.Generator):
    """Transformed derivatives match z-space central differences of fb_eval."""
    h = 1e-6
    errors = []
    for mu, up, rho in ((-0.25, -0.25, 0.5), (-0.5, -0.5, 1.0), (0.0, 0.0, 1.0 / 3.0)):
        spec = BackwardSpec(JacobiParams(mu, up), rho)
        for r in range(1, 9):
            zs = rng.uniform(0.05, 0.95, 20)
            fd = (
                fb_eval(spec, r, map_inverse(spec, zs + h))
                - fb_eval(spec, r, map_inverse(spec, zs - h))
            ) / (2.0 * h)
            exact = fb_deriv_eval(spec, r, 1, map_inverse(spec, zs))
            errors.append(np.abs(fd - exact) / np.maximum(1.0, np.abs(exact)))
    return _result(errors, 1e-6)


def check_sturm_liouville():
    """The basis functions are eigenfunctions with eigenvalue r(r+mu+upsilon+1)."""
    ts = np.linspace(0.05, 0.93, 10)
    errors = []
    for mu, up, rho in ((-0.25, -0.25, 0.5), (-0.5, -0.5, 1.0 / 3.0), (0.3, -0.2, 1.0)):
        spec = BackwardSpec(JacobiParams(mu, up), rho)
        for r in range(1, 9):
            lhs = sturm_liouville_apply(spec, r, ts)
            rhs = r * (r + mu + up + 1.0) * fb_eval(spec, r, ts)
            errors.append(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-30))
    return _result(errors, 1e-8)


def check_inverse_inequality(rng: np.random.Generator):
    """|d/dt phi| in the tilde weight is bounded by sqrt(N(N+mu+upsilon+1)).

    Both weighted norms are Gauss sums in z over the Jacobi tables of phi's
    family and of its derivative's shifted family, so rho drops out; each
    row of `coeffs` is one random phi.
    """
    errors = []
    for mu, up in ((-0.25, -0.25), (-0.5, -0.5)):
        spec = BackwardSpec(JacobiParams(mu, up), 1.0)
        for n in (4, 8, 16):
            sigma = n * (n + mu + up + 1.0)
            rule_num = gauss_rule(spec.params.shifted(1), 4 * n)
            rule_den = gauss_rule(spec.params, 4 * n)
            coeffs = rng.standard_normal((20, n + 1))
            factors = np.array([deriv_factor(spec, r, 1) for r in range(1, n + 1)])
            dphi = (coeffs[:, 1:] * factors) @ jacobi_table(
                spec.params.shifted(1), n - 1, rule_num.nodes
            )
            phi = coeffs @ jacobi_table(spec.params, n, rule_den.nodes)
            num = np.sqrt(dphi**2 @ rule_num.weights)
            den = np.sqrt(phi**2 @ rule_den.weights)
            errors.append(num / (math.sqrt(sigma) * den))
    return _result(errors, 1.0 + 1e-8)


def check_polynomial_recovery():
    """The solver reproduces polynomial solutions through nodal values."""
    spec = BackwardSpec(JacobiParams(-0.25, -0.25), 1.0)
    errors = []
    for theta in (0.3, 0.5, 0.7):
        prob = case_i(theta, 2.0, 5.0)
        for n in (6, 10, 14):
            sol = solve(prob, spec, n)
            errors.append(np.abs(sol.values - prob.exact(sol.nodes_t)))
    return _result(errors, 1e-10)


def check_oracle_consistency(rng: np.random.Generator):
    """Oracle matches the beta closed form and survives its doubling check."""
    errors = []
    for _ in range(10):
        theta = rng.uniform(0.15, 0.85)
        gamma = rng.uniform(0.3, 3.0)
        t = rng.uniform(0.0, 0.9)
        val = oracle_kr(lambda p, g=gamma: (1.0 - p) ** g, theta, lambda a, b: 1.0, t)
        ref = beta(1.0 - theta, gamma + 1.0) * (1.0 - t) ** (1.0 - theta + gamma)
        errors.append(abs(val - ref))
    return _result(errors, 1e-11)


def check_source_integrity():
    """Built-in sources agree with u - (K_R u) evaluated by the oracle."""
    problems = [
        example1(0.5),
        example1(2.0 / 3.0),
        case_i(0.5, math.sqrt(2.0), math.sqrt(3.0)),
        case_i(2.0 / 3.0, math.sqrt(2.0), math.sqrt(3.0)),
    ]
    return _result([_source_mismatch(prob) for prob in problems], 1e-9)


def check_lebesgue(quick: bool = False):
    """Clustered-node Lebesgue constants grow logarithmically.

    They are computed in z, so rho does not enter.
    """
    ns = [4, 8, 16, 32] if quick else [4, 8, 16, 32, 64]
    spec = BackwardSpec(JacobiParams(-0.5, -0.5), 1.0)
    lams = np.array([lebesgue_constant(spec, n, 2001) for n in ns])
    design = np.vstack([np.ones(len(ns)), np.log(ns)]).T
    coef, *_ = np.linalg.lstsq(design, lams, rcond=None)
    fit = design @ coef
    r2 = 1.0 - np.sum((lams - fit) ** 2) / np.sum((lams - lams.mean()) ** 2)
    c = coef[1]
    return c < 3.0 and r2 > 0.9, f"c {c:.3f} vs 3, R^2 {r2:.4f} vs 0.9"


def check_interpolation_stability():
    """Weighted norm of the interpolant of a bounded function stays below 5."""
    zero = lambda t: 0.0 * np.asarray(t, dtype=float)
    tests = (
        lambda t: np.sign(np.sin(5.0 * np.pi * np.asarray(t, dtype=float))),
        lambda t: np.cos(20.0 * np.asarray(t, dtype=float)),
    )
    errors = []
    for rho in (1.0, 0.5):
        spec = BackwardSpec(JacobiParams(-0.5, -0.5), rho)
        for n in (4, 8, 16, 32, 64):
            for v in tests:
                ip = interpolate(spec, n, v)
                errors.append(weighted_l2_error(spec, ip, zero, 2 * (n + 1)))
    return _result(errors, 5.0)


def run_all(seed: int = 0, quick: bool = False) -> list:
    rng = np.random.default_rng(seed)
    battery = [
        ("orthogonality", check_orthogonality),
        ("quadrature exactness", check_quadrature_exactness),
        ("derivative identity", lambda: check_derivative_identity(rng)),
        ("sturm-liouville residual", check_sturm_liouville),
        ("inverse inequality", lambda: check_inverse_inequality(rng)),
        ("polynomial recovery", check_polynomial_recovery),
        ("oracle beta identity", lambda: check_oracle_consistency(rng)),
        ("source integrity", check_source_integrity),
        ("lebesgue growth", lambda: check_lebesgue(quick)),
        ("interpolation stability", check_interpolation_stability),
    ]
    results = []
    for name, check in battery:
        try:
            passed, detail = check()
        except Exception as exc:  # a crashed check must fail by name
            passed, detail = False, f"raised {exc!r}"
        results.append(CheckResult(name, bool(passed), detail))
    return results
