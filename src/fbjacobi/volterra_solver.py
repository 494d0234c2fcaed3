"""Fully discrete backward collocation for the weakly singular adjoint
Volterra equation u(t) = g(t) + int_t^1 (rho - t)^{-theta} K(t, rho) u(rho) drho.

The kernel singularity is absorbed into a Jacobi weight by mapping the
integration variable through the same backward transformation that generates
the basis, so the discrete operator is a plain Gauss sum. Assembly works with
the z-space nodes and the exact distances 1 - t, which stay meaningful even
where t itself rounds to 1. The kernel is sampled once on the whole grid of
(node, quadrature point) pairs. Each row of the matrix then takes one pass:
the reciprocal gaps between its quadrature points and the nodes fill one
reused buffer, and two matrix-vector products give the barycentric
denominators and the row. A row with a quadrature point exactly on a node
(an infinite reciprocal) is built through `approximation.cardinal_matrix`
instead. The dense system is solved and its 1-norm condition number computed
with LAPACK through numpy.
"""

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .approximation import Interpolant, _node_set, _sample, cardinal_matrix
from .backward_basis import BackwardSpec
from .jacobi_core import JacobiParams, NumericalError, gauss_rule


@dataclass(frozen=True)
class ProblemDefinition:
    """A weakly singular adjoint Volterra problem on [0,1].

    `kernel` is K(t, rho) on the triangle t <= rho <= 1 and `source` is g(t).
    `source_w`/`exact_w`, when given, are the same functions expressed in
    w = 1 - t. A problem may give only the w-form of g or u; the missing
    t-form is then derived as t -> f(1 - t). `source_at` reads the w-form
    when there is one, because near the terminal endpoint w is known far more
    accurately than t.
    """

    theta: float
    kernel: object
    source: object = None
    exact: object = None
    source_w: object = None
    exact_w: object = None

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"theta must lie in (0,1), got {self.theta}")
        if self.source is None and self.source_w is None:
            raise ValueError("a problem needs a source or a source_w")
        if self.source is None:
            object.__setattr__(self, "source", _in_t(self.source_w))
        if self.exact is None and self.exact_w is not None:
            object.__setattr__(self, "exact", _in_t(self.exact_w))
        for t in (0.0, 0.3, 0.8):
            for rho_ in (t, 0.5 * (t + 1.0), 1.0):
                val = float(self.kernel(t, rho_))
                if not math.isfinite(val):
                    raise ValueError(
                        f"kernel not finite at (t, rho) = ({t}, {rho_}): {val}"
                    )

    def source_at(self, t, w):
        """Source values at t (scalars or arrays, with w = 1 - t), read from
        the w-form when there is one; a numpy float64 for scalar input."""
        if self.source_w is not None:
            return _sample(self.source_w, w)[()]
        return _sample(self.source, t)[()]


def _in_t(f_w):
    """The t-form t -> f_w(1 - t) of a function of w = 1 - t."""
    return lambda t: f_w(1.0 - np.asarray(t, dtype=float))


@dataclass(frozen=True)
class SolveDiagnostics:
    condition: float
    residual: float
    assembly_seconds: float
    solve_seconds: float
    near_singular: bool


@dataclass(frozen=True)
class CollocationSolution:
    nodes_t: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    interpolant: Interpolant = field(repr=False)
    diagnostics: SolveDiagnostics = None

    def __call__(self, t):
        return self.interpolant(t)


def singular_ratio(rho: float, eta):
    """(1 - (1-eta)^{1/rho}) / eta, the bounded factor left over after the
    kernel singularity is pulled into the quadrature weight; eta may be an array.

    Three-term Taylor expansion below eta = 1e-6 (direct evaluation loses all
    significance there), spliced to expm1/log1p evaluation above; the value
    tends to 1/rho as eta -> 0.
    """
    s = 1.0 / rho
    eta = np.asarray(eta, dtype=float)
    small = eta < 1e-6
    safe = np.where(small, 0.5, eta)  # keeps the unused direct branch finite
    direct = -np.expm1(np.log1p(-safe) * s) / safe
    taylor = s * (1.0 - 0.5 * (s - 1.0) * eta + (s - 1.0) * (s - 2.0) / 6.0 * eta * eta)
    return np.where(small, taylor, direct)[()]


class _Assembly:
    """The data of one (problem, spec, N) system: collocation nodes,
    barycentric weights, the (N+1)-point quadrature rule, and on the grid of
    rows i (nodes t_i) by columns k (quadrature points rho_i(eta_k)) the
    points, their z images and the transformed kernel values. The node set
    comes from `approximation._node_set`, so N > MAX_N raises ValueError
    before any rule is built."""

    def __init__(self, problem: ProblemDefinition, spec: BackwardSpec, n: int):
        self.problem = problem
        self.n = n
        rho, theta = spec.rho, problem.theta

        self.nodes_z, self.nodes_t, self.bary = _node_set(spec, n)
        log_w = np.log1p(-self.nodes_z) / rho        # log(1 - t_i), exact route
        self.w_nodes = np.exp(log_w)                 # 1 - t_i, always > 0 here
        if not np.all(self.w_nodes > 0.0):
            raise ValueError("collocation node reached the terminal endpoint")

        qrule = gauss_rule(JacobiParams(1.0 / rho - 1.0, -theta), n + 1)
        self.chi = qrule.weights
        log_q = np.log1p(-qrule.nodes) / rho         # log(1 - s(eta_k))
        self.quad_t = 1.0 - self.w_nodes[:, None] * np.exp(log_q)
        self.quad_z = -np.expm1(rho * (log_w[:, None] + log_q))
        kernel = _sample(problem.kernel, self.nodes_t[:, None], self.quad_t)
        self.kbar = ((self.w_nodes ** (1.0 - theta) / rho)[:, None]
                     * singular_ratio(rho, qrule.nodes) ** (-theta) * kernel)


def _assemble_from(ctx: _Assembly):
    """Collocation matrix (identity minus the discrete operator on the
    cardinal basis) and right-hand side (source values at the nodes).

    Row i weighs the cardinal functions at its quadrature points z_ik, the
    barycentric quotients (b_j / (z_ik - z_j)) / sum_l b_l / (z_ik - z_l).
    One reused buffer R holds the reciprocal gaps 1 / (z_ik - z_j), so a row
    is two matrix-vector products: s = R b, then ((chi kbar_i / s) R) * b.
    An exact zero gap makes s non-finite; only such a row is taken through
    `cardinal_matrix`, which gives a point on a node that node's exact
    cardinal values.
    """
    n = ctx.n
    mat = np.eye(n + 1)
    recip = np.empty((n + 1, n + 1))
    for i in range(n + 1):
        weights = ctx.chi * ctx.kbar[i]
        np.subtract(ctx.quad_z[i][:, None], ctx.nodes_z, out=recip)
        with np.errstate(all="ignore"):  # a non-finite s is handled below
            np.reciprocal(recip, out=recip)
            s = recip @ ctx.bary
        if np.isfinite(s).all():
            mat[i] -= ((weights / s) @ recip) * ctx.bary
        else:
            mat[i] -= weights @ cardinal_matrix(ctx.nodes_z, ctx.bary, ctx.quad_z[i])
    try:
        rhs = ctx.problem.source_at(ctx.nodes_t, ctx.w_nodes)
    except Exception as exc:
        # Failure path only: name the first node at which the source fails.
        for i, (t, w) in enumerate(zip(ctx.nodes_t, ctx.w_nodes)):
            try:
                ctx.problem.source_at(t, w)
            except Exception as node_exc:
                raise NumericalError(
                    f"source evaluation failed at node {i} (t = {float(t)!r})"
                ) from node_exc
        raise NumericalError("source evaluation failed on the node array") from exc
    return mat, rhs


def _require_finite(name: str, arr: np.ndarray) -> None:
    bad = np.count_nonzero(~np.isfinite(arr))
    if bad:
        raise NumericalError(f"non-finite {name}: {bad} of {arr.size} entries")


def solve(problem: ProblemDefinition, spec: BackwardSpec, n: int) -> CollocationSolution:
    """Solve the fully discrete collocation system with LAPACK (LU with
    partial pivoting) and wrap the nodal values in an evaluable interpolant.

    Raises ValueError for N > MAX_N before anything is built. Raises
    NumericalError when the source fails at a node, when the matrix or the
    rhs has a non-finite entry (before LAPACK runs), on an exact zero pivot,
    and when the solution has a non-finite entry. The diagnostics carry the
    1-norm condition number; a value above 1e12, or NaN, sets
    `near_singular` and issues a RuntimeWarning.
    """
    t0 = time.perf_counter()
    ctx = _Assembly(problem, spec, n)
    mat, rhs = _assemble_from(ctx)
    _require_finite("matrix", mat)
    _require_finite("rhs", rhs)
    t1 = time.perf_counter()
    try:
        values = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular collocation matrix: exact zero pivot") from exc
    _require_finite("solution", values)
    t2 = time.perf_counter()

    cond = float(np.linalg.cond(mat, 1))
    near_singular = not (cond <= 1e12)
    if near_singular:
        warnings.warn(
            f"collocation system is nearly singular (cond ~ {cond:.3e})",
            RuntimeWarning,
        )
    residual = float(np.max(np.abs(mat @ values - rhs)))
    diag = SolveDiagnostics(
        condition=cond,
        residual=residual,
        assembly_seconds=t1 - t0,
        solve_seconds=t2 - t1,
        near_singular=near_singular,
    )
    ip = Interpolant(spec, ctx.nodes_z, ctx.nodes_t, values, ctx.bary)
    return CollocationSolution(ctx.nodes_t, values, ip, diag)
