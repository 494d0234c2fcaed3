"""Runtime invariant suite behind the `selftest` CLI command.

Each check is a pure function returning a CheckResult; `run_all` executes the
whole battery deterministically from a seed. The checks mirror the library's
structural guarantees: orthogonality, quadrature exactness, derivative and
eigenstructure identities, inverse inequality, exact polynomial recovery by
the solver, oracle consistency, Lebesgue-constant growth, and interpolation
stability.
"""

import math
from dataclasses import dataclass

import numpy as np

from .approximation import (
    Expansion,
    eval_expansion,
    interpolate,
    lebesgue_constant,
    weighted_l2_error,
)
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


def _result(name: str, worst: float, bound: float, extra: str = "") -> CheckResult:
    detail = f"worst {worst:.3e} vs bound {bound:.3e}"
    if extra:
        detail += f" ({extra})"
    return CheckResult(name, worst <= bound, detail)


def check_orthogonality() -> CheckResult:
    """Backward-basis Gram matrices are diagonal with the closed-form norms.

    The weighted t integral transforms exactly to the shifted-Jacobi Gram in
    z, which is how it is evaluated here.
    """
    n = 12
    worst = 0.0
    for mu, up in ((-0.25, -0.25), (-0.5, -0.5), (0.0, 0.0)):
        for rho in (1.0, 0.5, 1.0 / 3.0):
            spec = BackwardSpec(JacobiParams(mu, up), rho)
            rule = gauss_rule(spec.params, n + 2)
            basis = jacobi_table(spec.params, n, 2.0 * rule.nodes - 1.0)
            gram = basis @ (rule.weights[:, None] * basis.T)
            for r in range(n + 1):
                for s in range(n + 1):
                    if r == s:
                        ref = jacobi_norm(spec.params, r)
                        worst = max(worst, abs(gram[r, s] - ref) / ref)
                    else:
                        worst = max(worst, abs(gram[r, s]))
    return _result("orthogonality", worst, 1e-11)


def check_quadrature_exactness() -> CheckResult:
    """Gauss rules integrate monomials exactly to degree 2M-1."""
    worst = 0.0
    for mu, up in ((-0.25, -0.25), (-0.5, -0.5), (0.0, 0.0), (1.0, -0.5), (5.0, -2.0 / 3.0)):
        params = JacobiParams(mu, up)
        for m in (1, 2, 3, 5, 8, 13, 21, 40):
            rule = gauss_rule(params, m)
            for k in range(2 * m):
                got = float(np.dot(rule.weights, rule.nodes**k))
                ref = beta(up + k + 1.0, mu + 1.0)
                worst = max(worst, abs(got - ref) / ref)
    return _result("quadrature exactness", worst, 1e-11)


def check_derivative_identity(rng: np.random.Generator) -> CheckResult:
    """Transformed derivatives match z-space central differences of fb_eval."""
    h = 1e-6
    worst = 0.0
    for mu, up, rho in ((-0.25, -0.25, 0.5), (-0.5, -0.5, 1.0), (0.0, 0.0, 1.0 / 3.0)):
        spec = BackwardSpec(JacobiParams(mu, up), rho)
        for r in range(1, 9):
            zs = rng.uniform(0.05, 0.95, 20)
            for z in zs:
                fd = (
                    fb_eval(spec, r, map_inverse(spec, z + h))
                    - fb_eval(spec, r, map_inverse(spec, z - h))
                ) / (2.0 * h)
                exact = fb_deriv_eval(spec, r, 1, map_inverse(spec, z))
                worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    return _result("derivative identity", worst, 1e-6)


def check_sturm_liouville() -> CheckResult:
    """The basis functions are eigenfunctions with eigenvalue r(r+mu+upsilon+1)."""
    worst = 0.0
    for mu, up, rho in ((-0.25, -0.25, 0.5), (-0.5, -0.5, 1.0 / 3.0), (0.3, -0.2, 1.0)):
        spec = BackwardSpec(JacobiParams(mu, up), rho)
        for r in range(1, 9):
            sigma = r * (r + mu + up + 1.0)
            for t in np.linspace(0.05, 0.93, 10):
                lhs = sturm_liouville_apply(spec, r, t)
                rhs = sigma * fb_eval(spec, r, t)
                worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    return _result("sturm-liouville residual", worst, 1e-8)


def check_inverse_inequality(rng: np.random.Generator) -> CheckResult:
    """|d/dt phi| in the tilde weight is bounded by sqrt(N(N+mu+upsilon+1))."""
    worst = 0.0
    for mu, up, rho in ((-0.25, -0.25, 0.5), (-0.5, -0.5, 1.0)):
        spec = BackwardSpec(JacobiParams(mu, up), rho)
        for n in (4, 8, 16):
            sigma = n * (n + mu + up + 1.0)
            rule_num = gauss_rule(spec.params.shifted(1), 4 * n)
            rule_den = gauss_rule(spec.params, 4 * n)
            t_num = map_inverse(spec, rule_num.nodes)
            t_den = map_inverse(spec, rule_den.nodes)
            for _ in range(20):
                coeffs = rng.standard_normal(n + 1)
                phi = Expansion(spec, coeffs)
                dcoeffs = np.array(
                    [coeffs[r] * deriv_factor(spec, r, 1) for r in range(1, n + 1)]
                )
                dphi = Expansion(spec.shifted(1), dcoeffs)
                num = math.sqrt(
                    float(np.dot(rule_num.weights, eval_expansion(dphi, t_num) ** 2))
                )
                den = math.sqrt(
                    float(np.dot(rule_den.weights, eval_expansion(phi, t_den) ** 2))
                )
                worst = max(worst, num / (math.sqrt(sigma) * den))
    return _result("inverse inequality", worst, 1.0 + 1e-8)


def check_polynomial_recovery() -> CheckResult:
    """The solver reproduces polynomial solutions through nodal values."""
    worst = 0.0
    spec = BackwardSpec(JacobiParams(-0.25, -0.25), 1.0)
    for theta in (0.3, 0.5, 0.7):
        for n in (6, 10, 14):
            prob = case_i(theta, 2.0, 5.0)
            sol = solve(prob, spec, n)
            worst = max(worst, float(np.max(np.abs(sol.values - prob.exact(sol.nodes_t)))))
    return _result("polynomial recovery", worst, 1e-10)


def check_oracle_consistency(rng: np.random.Generator) -> CheckResult:
    """Oracle matches the beta closed form and survives panel doubling."""
    worst = 0.0
    for _ in range(10):
        theta = rng.uniform(0.15, 0.85)
        gamma = rng.uniform(0.3, 3.0)
        t = rng.uniform(0.0, 0.9)
        val = oracle_kr(lambda p, g=gamma: (1.0 - p) ** g, theta, lambda a, b: 1.0, t)
        ref = beta(1.0 - theta, gamma + 1.0) * (1.0 - t) ** (1.0 - theta + gamma)
        worst = max(worst, abs(val - ref))
    return _result("oracle beta identity", worst, 1e-11)


def check_source_integrity() -> CheckResult:
    """Built-in sources agree with u - (K_R u) evaluated by the oracle."""
    problems = [
        example1(0.5),
        example1(2.0 / 3.0),
        case_i(0.5, math.sqrt(2.0), math.sqrt(3.0)),
        case_i(2.0 / 3.0, math.sqrt(2.0), math.sqrt(3.0)),
    ]
    worst = float(np.max([_source_mismatch(prob) for prob in problems]))  # NaN propagates
    return _result("source integrity", worst, 1e-9)


def check_lebesgue(quick: bool = False) -> CheckResult:
    """Clustered-node Lebesgue constants grow logarithmically."""
    ns = [4, 8, 16, 32] if quick else [4, 8, 16, 32, 64]
    worst_c = 0.0
    worst_r2 = 1.0
    for rho in (1.0, 0.5):
        spec = BackwardSpec(JacobiParams(-0.5, -0.5), rho)
        lams = np.array([lebesgue_constant(spec, n, 2001) for n in ns])
        design = np.vstack([np.ones(len(ns)), np.log(ns)]).T
        coef, *_ = np.linalg.lstsq(design, lams, rcond=None)
        fit = design @ coef
        r2 = 1.0 - np.sum((lams - fit) ** 2) / np.sum((lams - lams.mean()) ** 2)
        worst_c = max(worst_c, coef[1])
        worst_r2 = min(worst_r2, r2)
    passed = worst_c < 3.0 and worst_r2 > 0.9
    return CheckResult(
        "lebesgue growth", passed, f"c {worst_c:.3f} vs 3, R^2 {worst_r2:.4f} vs 0.9"
    )


def check_interpolation_stability() -> CheckResult:
    """Weighted norm of the interpolant of a bounded function stays below 5."""
    worst = 0.0
    zero = lambda t: 0.0 * np.asarray(t, dtype=float)
    tests = (
        lambda t: np.sign(np.sin(5.0 * np.pi * np.asarray(t, dtype=float))),
        lambda t: np.cos(20.0 * np.asarray(t, dtype=float)),
    )
    for rho in (1.0, 0.5):
        spec = BackwardSpec(JacobiParams(-0.5, -0.5), rho)
        for n in (4, 8, 16, 32, 64):
            for v in tests:
                ip = interpolate(spec, n, v)
                worst = max(worst, weighted_l2_error(spec, ip, zero, 2 * (n + 1)))
    return _result("interpolation stability", worst, 5.0)


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
            results.append(check())
        except Exception as exc:  # a crashed check must fail by name
            results.append(CheckResult(name, False, f"raised {exc!r}"))
    return results
