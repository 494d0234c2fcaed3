"""Fully discrete backward collocation for the weakly singular adjoint
Volterra equation u(t) = g(t) + int_t^1 (rho - t)^{-theta} K(t, rho) u(rho) drho.

The kernel singularity is absorbed into a Jacobi weight by mapping the
integration variable through the same backward transformation that generates
the basis, so the discrete operator is a plain Gauss sum. The same map makes
the quadrature points of row i affine in z, z_i + (1 - z_i) eta_k. Assembly
works with these z-points and the exact distances 1 - t, which stay
meaningful even where t itself rounds to 1. The kernel is sampled once on the
grid of (node, quadrature point) pairs, then the source (its w-form when
there is one) once at the nodes, both through one helper that turns a
failure into a NumericalError naming the first failing point. One row pass
then writes the rows, in blocks of at most 2**17 gaps in all (one row per
block from N = 256): the block's points and one rank-2 matrix product
(`approximation._gap_factors`) write the gaps between its quadrature points
and the nodes into a reused buffer, their reciprocals replace them, and two
matrix-vector products per row give the barycentric denominators and the
row. Small systems thus pay per block, not per row, for numpy's call
overhead. One-row blocks are shared, interleaved by index, with one
executor worker thread when `_two_threads()`; the rows are the same floats
either way. A row with a point exactly on a node (an infinite reciprocal)
is rebuilt through `approximation.cardinal_matrix`, after the pass and on
the calling thread.
The dense system is solved and its 1-norm condition number computed with
LAPACK through numpy.
"""

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .approximation import Interpolant, _gap_factors, _node_set, _sample, cardinal_matrix
from .backward_basis import BackwardSpec
from .jacobi_core import JacobiParams, NumericalError, gauss_rule


@dataclass(frozen=True)
class ProblemDefinition:
    """A weakly singular adjoint Volterra problem on [0,1].

    `kernel` is K(t, rho) on the triangle t <= rho <= 1 and `source` is g(t).
    `source_w`/`exact_w`, when given, are the same functions expressed in
    w = 1 - t. A problem may give only the w-form of g or u; the missing
    t-form is then derived as t -> f(1 - t). `source_at` and the solver read
    the w-form when there is one, because near the terminal endpoint w is
    known far more accurately than t. Construction reads the kernel once,
    through `approximation._sample`, on the 3x3 grid of probes (t, rho) with
    t in (0, 0.3, 0.8) and rho in (t, (t + 1)/2, 1): an exception from its
    scalar calls propagates, and the first probe whose value is not finite
    raises ValueError.
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
        probes = [(t, rho_) for t in (0.0, 0.3, 0.8) for rho_ in (t, 0.5 * (t + 1.0), 1.0)]
        vals = _sample(self.kernel, *np.array(probes).T.reshape(2, 3, 3))
        for (t, rho_), val in zip(probes, vals.ravel().tolist()):
            if not math.isfinite(val):
                raise ValueError(f"kernel not finite at (t, rho) = ({t}, {rho_}): {val}")

    def source_at(self, t, w):
        """Source values at t (scalars or arrays, with w = 1 - t), read from
        the w-form when there is one; a numpy float64 for scalar input."""
        return _sample(self._source_tw, t, w)[()]

    def _source_tw(self, t, w):
        """One call of the source at t and w = 1 - t: of `source_w` at w when
        there is one, else of `source` at t."""
        return self.source(t) if self.source_w is None else self.source_w(w)


def _in_t(f_w):
    """The t-form t -> f_w(1 - t) of a function of w = 1 - t."""
    return lambda t: f_w(1.0 - np.asarray(t, dtype=float))


@dataclass(frozen=True)
class SolveDiagnostics:
    """What a solve measured about itself.

    `condition` is the 1-norm condition number of the collocation matrix.
    `residual` is the maximum nodal |A u - g|: a backward error near machine
    epsilon, not an estimate of the accuracy of u. `assembly_seconds` times
    the nodes, rule, kernel and source sampling and the matrix rows;
    `solve_seconds` the LU solve and its finiteness check. `near_singular`
    is set when the condition number exceeds 1e12 or is NaN. It is data, not
    a fault: `solve` issues no warning, and the caller decides what to say.
    """

    condition: float
    residual: float
    assembly_seconds: float
    solve_seconds: float
    near_singular: bool


@dataclass(frozen=True)
class CollocationSolution:
    """The result of `solve`: nodal values u_i at the collocation nodes t_i,
    the barycentric interpolant through them (calling the solution evaluates
    it at t), and the solve's diagnostics. `nodes_t` and `values` are the
    interpolant's own read-only arrays."""

    nodes_t: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    interpolant: Interpolant = field(repr=False)
    diagnostics: SolveDiagnostics = None

    def __call__(self, t):
        return self.interpolant(t)


def _sample_at_nodes(what: str, names: tuple, func, *args) -> np.ndarray:
    """`_sample(func, *args)` on a grid whose first axis runs over the nodes.

    One pass, and no point is read twice. func is called through a recorder
    of its last point and its number of calls. `_sample` raises only from a
    scalar call, and those follow its one array call in ravel order, so the
    failing point is the recorded one and its node is (calls - 2) // (points
    per node). It is named by that node and its leading coordinates `names`,
    with the exception as the cause.
    """
    calls, point = 0, ()

    def recorded(*at):
        nonlocal calls, point
        calls, point = calls + 1, at
        return func(*at)

    try:
        return _sample(recorded, *args)
    except Exception as exc:
        node = (calls - 2) // math.prod(np.broadcast_shapes(*map(np.shape, args))[1:])
        at = ", ".join(f"{name} = {value!r}" for name, value in zip(names, point))
        raise NumericalError(f"{what} evaluation failed at node {node} ({at})") from exc


class _Assembly:
    """The data of one (problem, spec, N) system: collocation nodes,
    barycentric weights, the (N+1)-point quadrature rule, on the grid of
    rows i (nodes t_i) by columns k (quadrature points rho_i(eta_k)) the
    points, their z images and the transformed kernel values, and the source
    values `rhs` at the nodes. The node set comes from
    `approximation._node_set`, so N > MAX_N raises ValueError before any rule
    is built. The kernel is read before the source, so a problem whose kernel
    and source both fail reports the kernel. The source is read in one pass
    of `ProblemDefinition._source_tw` (its w-form when there is one), and a
    failure names the node by its t. This is every step of a solve that reads
    the problem or builds a rule; `_solve_assembly` reads neither, so it may
    run on another thread than the one that built its input. `seconds` is the
    time this took."""

    def __init__(self, problem: ProblemDefinition, spec: BackwardSpec, n: int):
        t0 = time.perf_counter()
        self.n, self.spec = n, spec
        rho, theta = spec.rho, problem.theta

        self.nodes_z, self.nodes_t, self.bary = _node_set(spec, n)
        self.w_nodes = np.exp(np.log1p(-self.nodes_z) / rho)  # 1 - t_i
        if not np.all(self.w_nodes > 0.0):
            raise NumericalError("collocation node reached the terminal endpoint")

        qrule = gauss_rule(JacobiParams(1.0 / rho - 1.0, -theta), n + 1)
        self.chi = qrule.weights
        log_q = np.log1p(-qrule.nodes) / rho         # log(1 - s(eta_k))
        self.quad_t = 1.0 - self.w_nodes[:, None] * np.exp(log_q)
        self.quad_z = self.nodes_z[:, None] + np.outer(1.0 - self.nodes_z, qrule.nodes)
        kernel = _sample_at_nodes("kernel", ("t", "rho"), problem.kernel,
                                  self.nodes_t[:, None], self.quad_t)
        ratio = -np.expm1(log_q) / qrule.nodes       # s(eta_k) / eta_k
        self.kbar = ((self.w_nodes ** (1.0 - theta) / rho)[:, None]
                     * ratio ** (-theta) * kernel)
        self.rhs = _sample_at_nodes("source", ("t",), problem._source_tw,
                                    self.nodes_t, self.w_nodes)
        self.seconds = time.perf_counter() - t0


def _assemble_from(ctx: _Assembly) -> np.ndarray:
    """Collocation matrix: the identity minus the discrete operator on the
    cardinal basis. The problem itself is not read here.

    Row i weighs the cardinal functions at its quadrature points z_ik, the
    barycentric quotients (b_j / (z_ik - z_j)) / sum_l b_l / (z_ik - z_l).
    `_row_pass` writes the rows in blocks whose gaps fill at most 2**17
    entries (1 MiB), or one row where a row alone has more: from N = 256 a
    block is one row, and more rows per block would only add memory (16-row
    blocks were slower at N = 384). With two or more one-row blocks and
    `_two_threads()`, a `ThreadPoolExecutor(1)` worker takes the odd rows
    and the calling thread the even ones, each on its own buffer, so the
    rows are the same floats on one thread or two; multi-row blocks stay on
    the calling thread (with a second thread they took 0.98 to 2.7 times
    their serial time at N = 32 to 200). The worker is joined before this
    returns. An exception of the calling thread's wins; else the worker's is
    raised here.
    An exact zero gap makes a row's s non-finite; only such a row is
    rebuilt, after the pass and on the calling thread, as its identity row
    minus the weights times `cardinal_matrix`, which gives a point on a node
    that node's exact cardinal values.
    """
    n = ctx.n
    mat, s = np.eye(n + 1), np.empty((n + 1, n + 1))
    rows = min(n + 1, max(1, 2**17 // (n + 1) ** 2))
    starts, buf = range(0, n + 1, rows), np.empty((rows, n + 1, n + 1))
    if rows == 1 and n > 0 and _two_threads():
        from concurrent.futures import ThreadPoolExecutor  # loads logging: not at import
        with ThreadPoolExecutor(1) as pool:
            odd = pool.submit(_row_pass, ctx, mat, s, starts[1::2], np.empty_like(buf))
            _row_pass(ctx, mat, s, starts[::2], buf)
        odd.result()
    else:
        _row_pass(ctx, mat, s, starts, buf)
    for i in np.flatnonzero(~np.isfinite(s).all(axis=1)):
        mat[i] = np.eye(1, n + 1, i)[0] - (ctx.chi * ctx.kbar[i]) @ cardinal_matrix(
            ctx.nodes_z, ctx.bary, ctx.quad_z[i])
    return mat


def _row_pass(ctx: _Assembly, mat: np.ndarray, s: np.ndarray, starts,
              buf: np.ndarray) -> None:
    """Subtract the operator from mat in blocks of len(buf) rows, one
    starting at each index in `starts`, and write each row's barycentric
    denominators s = R b into the same row of s.

    A block costs about ten numpy calls however many rows it holds. Its
    quadrature points fill the reused left gap factor [z_ik, 1]
    (`approximation._gap_factors`), whose rank-2 product with the right one
    writes the gaps z_ik - z_j, bit for bit the subtraction, into R, the
    caller's gap buffer `buf`; their reciprocals replace them, and the
    stacked products s = R b and ((chi kbar_i / s) R) * b give the rows.
    Each call runs the same BLAS kernel on the same row as a one-row block
    would, so the rows are the same floats whatever the block size. A
    one-row block is indexed by its row number, so that its arrays keep
    numpy's fastest shapes, 1-D rows and 2-D matrices (stacked forms of one
    row ran 1-3% slower at N = 384). Touches only numpy, so it may run on a
    worker thread; it enters its own errstate, which a new thread does not
    inherit. The caller allocates a worker's `buf` on the calling thread:
    allocated on the worker, it raised the peak RSS of N = 384 solves by
    about 1.3 MiB.
    """
    n, rows = ctx.n, len(buf)
    left, right = _gap_factors(ctx.quad_z[:rows], ctx.nodes_z)
    with np.errstate(all="ignore"):  # a non-finite s is rebuilt by the caller
        for i0 in starts:
            block, gaps, recip = ((i0, left[0], buf[0]) if rows == 1 else
                                  (slice(i0, i0 + rows), left[:n + 1 - i0], buf[:n + 1 - i0]))
            gaps[..., 0] = ctx.quad_z[block]
            np.matmul(gaps, right, out=recip)
            np.reciprocal(recip, out=recip)
            block_s = np.matmul(recip, ctx.bary, out=s[block])
            weights = ctx.chi * ctx.kbar[block]
            mat[block] -= ((weights / block_s)[..., None, :] @ recip)[..., 0, :] * ctx.bary


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Where OpenBLAS, numpy's bundled BLAS, reads its thread count: the first set.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _two_threads() -> bool:
    """Whether one-row blocks are shared with a worker thread: the
    environment holds the BLAS to one thread (the first of
    `_BLAS_THREAD_VARS` that is set reads 1) and the process may use two
    CPUs. Under a threaded BLAS the two threads' BLAS calls contend for the
    BLAS's own threads: with OPENBLAS_NUM_THREADS unset on two cores, the row
    pass ran 1.7 to 3 times slower on two threads than on one at N = 800 and
    1100."""
    blas = next((os.environ[var] for var in _BLAS_THREAD_VARS if os.environ.get(var)), "")
    return blas.strip() == "1" and _usable_cpus() >= 2


def _require_finite(name: str, arr: np.ndarray) -> None:
    bad = np.count_nonzero(~np.isfinite(arr))
    if bad:
        raise NumericalError(f"non-finite {name}: {bad} of {arr.size} entries")


def solve(problem: ProblemDefinition, spec: BackwardSpec, n: int) -> CollocationSolution:
    """Solve the fully discrete collocation system with LAPACK (LU with
    partial pivoting) and wrap the nodal values in an evaluable interpolant.

    Raises ValueError for N > MAX_N before anything is built. Raises
    NumericalError when a node's 1 - t underflows to 0 (small rho, large N),
    when the kernel fails at a quadrature point or the source at a node,
    when the matrix or the rhs has a non-finite entry (before LAPACK runs),
    on an exact zero pivot, and when the solution has a non-finite entry.
    The diagnostics carry the 1-norm condition number; a value above 1e12,
    or NaN, sets `near_singular`. No warning is issued.
    """
    return _solve_assembly(_Assembly(problem, spec, n))


def _solve_assembly(ctx: _Assembly) -> CollocationSolution:
    """The numeric part of `solve`: the rows, the finiteness checks, the LU
    solve, the condition number, the residual and the interpolant of an
    assembled system. Reads neither the problem nor a rule. The diagnostics'
    `assembly_seconds` adds the rows to the assembly's own `seconds`."""
    t0 = time.perf_counter()
    mat, rhs = _assemble_from(ctx), ctx.rhs
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
    residual = float(np.max(np.abs(mat @ values - rhs)))
    diag = SolveDiagnostics(
        condition=cond,
        residual=residual,
        assembly_seconds=ctx.seconds + (t1 - t0),
        solve_seconds=t2 - t1,
        near_singular=not (cond <= 1e12),
    )
    ip = Interpolant(ctx.spec, ctx.nodes_z, ctx.nodes_t, values, ctx.bary)
    return CollocationSolution(ip.nodes_t, ip.values, ip, diag)
