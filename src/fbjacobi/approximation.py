"""Weighted projection, Gauss-node interpolation with the generalized
Lagrange basis, expansion evaluation, and error norms.

All Lagrange work is done barycentrically in the z variable where the basis
is polynomial; sampling grids are uniform in z so points cluster toward the
terminal endpoint t = 1.
"""

from dataclasses import dataclass, field

import numpy as np

from .backward_basis import BackwardSpec, map_forward, map_inverse
from .jacobi_core import MAX_N, JacobiParams, _frozen_copy, gauss_rule, jacobi_norm, jacobi_table

# Largest M x (N+1) cardinal matrix the CLI builds to evaluate a degree-N
# solution at M grid points: 2**26 float64 entries are 512 MiB.
MAX_CARDINAL_ENTRIES = 2**26
# Node-gap columns per block of the barycentric product.
_GAP_BLOCK = 256
_FLOAT = np.dtype(float)


def _gap_factors(x: np.ndarray, z: np.ndarray):
    """Factors L = [x, 1] (x's shape plus an axis of 2) and
    R = [[1, ..., 1], [-z_0, ..., -z_N]] of the gap matrix: L[k] @ R is the
    row x_k - z, bit for bit.

    An entry of the product is x_k * 1 + 1 * (-z_j). Both products are
    exact, so its one rounding gives the correctly rounded x_k - z_j, the
    value of the subtraction, whatever order or FMA the BLAS kernel uses.
    Only the sign of a zero gap at x_k = -0.0 may differ, and every caller
    treats a zero gap of either sign as a node hit. The rank-2 GEMM forms a
    385 x 385 gap matrix about 3.5 times faster than numpy's broadcast
    subtraction (x86-64, one OpenBLAS thread).
    """
    left = np.ones(x.shape + (2,))
    left[..., 0] = x
    right = np.ones((2, len(z)))
    np.negative(z, out=right[1])
    return left, right


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Second-form barycentric weights for the given z nodes, normalized to
    unit maximum magnitude (the form is scale invariant).

    Each weight is 1 / prod_k 4 (z_j - z_k). That product overflows from N of
    about 1096, so it is taken over interleaved blocks of at most
    `_GAP_BLOCK` columns, and after each block the binary exponent is split
    off with frexp and summed as an integer. A block takes every `blocks`-th
    node, so its nodes spread over [0,1] like the whole set and its partial
    products stay between 1e-4 and 1e8 (seven families, measured up to
    N = 3000), where a block of 256 neighbouring nodes reaches 1e-308 at
    N = 1200. Powers of two add no rounding: up to 256 nodes (one block) the
    weights equal the plain product's bit for bit. The gaps come from
    `_gap_factors` and are scaled by 4.0, an exact power of two.
    """
    gaps = 4.0 * np.matmul(*_gap_factors(nodes, nodes))
    np.fill_diagonal(gaps, 1.0)
    blocks = -(-len(nodes) // _GAP_BLOCK)
    mantissa, exponent = np.frexp(np.prod(gaps[:, ::blocks], axis=1))
    for b in range(1, blocks):
        mantissa, e = np.frexp(mantissa * np.prod(gaps[:, b::blocks], axis=1))
        exponent += e
    w = np.ldexp(1.0 / mantissa, exponent.min() - exponent)
    return w / np.max(np.abs(w))


def _node_set(spec: BackwardSpec, n: int):
    """(nodes_z, nodes_t, barycentric weights) of the N+1 mapped Gauss nodes;
    raises ValueError for N < 0 or N > MAX_N before any rule is built."""
    if n < 0:
        raise ValueError(f"N must be nonnegative, got {n}")
    if n > MAX_N:
        raise ValueError(f"N = {n} exceeds MAX_N = {MAX_N}")
    nodes_z = gauss_rule(spec.params, n + 1).nodes
    return nodes_z, map_inverse(spec, nodes_z), barycentric_weights(nodes_z)


def cardinal_matrix(nodes: np.ndarray, bary: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Cardinal functions on a 1-D z grid; rows index grid points, columns nodes.

    The gaps zs - nodes are one `_gap_factors` product. A point exactly on a
    node, the only 0/0 of the barycentric quotient, has an infinite row
    total, as in the solver's rows, and gets that node's unit row. Any other
    point, however close, takes the forward-stable quotient.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.matmul(*_gap_factors(zs, nodes))
        np.divide(bary, out, out=out)
        total = out.sum(axis=1, keepdims=True)
        out /= total
    rows = np.isinf(total[:, 0])
    out[rows] = zs[rows, None] == nodes
    return out


def _real(vals):
    """vals, unless it is complex: then TypeError (float() and numpy's casts
    would cut it to its real part with only a ComplexWarning)."""
    if isinstance(vals, complex) or getattr(vals, "dtype", _FLOAT).kind == "c":
        raise TypeError(f"complex value {vals!r} where a real one is needed")
    return vals


def _sample(func, *args) -> np.ndarray:
    """func evaluated pointwise on the broadcast of its arguments.

    The one rule for reading a problem function: a single array call, whose
    result is used when the call returns real, finite values of the broadcast
    shape or a scalar (a constant, which is broadcast). In every other case,
    whatever the array call raised, one scalar call per point, in ravel order,
    on Python floats. There a result of type exactly `float` is taken as it
    is (`float` would return that same object), a complex value raises
    TypeError and any other exception propagates; a non-finite value is
    returned as it is. Of func's calls, only a scalar one can make `_sample`
    raise.
    """
    args = [np.asarray(a, dtype=float) for a in args]
    if len(args) > 1:
        args = np.broadcast_arrays(*args)
    shape = args[0].shape
    try:
        vals = np.asarray(_real(func(*args)), dtype=float)
        if vals.shape in (shape, ()) and np.isfinite(vals).all():
            return vals.copy() if vals.shape == shape else np.broadcast_to(vals, shape).copy()
    except Exception:
        pass
    points = zip(*(a.ravel().tolist() for a in args))
    return np.array([v if type(v := func(*p)) is float else float(_real(v))
                     for p in points], dtype=float).reshape(shape)


@dataclass(frozen=True)
class Expansion:
    """Coefficients c_0..c_N against the backward basis of a given spec."""

    spec: BackwardSpec
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_copy(self.coeffs))

    def __call__(self, t):
        return eval_expansion(self, t)


@dataclass(frozen=True)
class Interpolant:
    """Nodal interpolant on the mapped Gauss nodes, evaluated barycentrically."""

    spec: BackwardSpec
    nodes_z: np.ndarray = field(repr=False)
    nodes_t: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    bary_weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("nodes_z", "nodes_t", "values", "bary_weights"):
            object.__setattr__(self, name, _frozen_copy(getattr(self, name)))

    def __call__(self, t):
        return eval_interpolant(self, t)


def project(spec: BackwardSpec, n: int, f) -> Expansion:
    """Orthogonal projection of f onto the degree-N backward basis space.

    Coefficients are weighted inner products divided by the basis norms, with
    the inner product evaluated in z by a Gauss rule of max(2N, N+32) points;
    exact whenever f already lies in the space.
    """
    rule = gauss_rule(spec.params, max(2 * n, n + 32))
    ts = map_inverse(spec, rule.nodes)
    fv = _sample(f, ts)
    basis = jacobi_table(spec.params, n, rule.nodes)
    norms = np.array([jacobi_norm(spec.params, r) for r in range(n + 1)])
    return Expansion(spec, (basis * fv) @ rule.weights / norms)


def eval_expansion(expansion: Expansion, t):
    """Expansion value at t (a numpy float64 for a scalar t, else an array of
    t's shape), summed over the Jacobi table in z."""
    z = map_forward(expansion.spec, t)
    c = expansion.coeffs
    return np.tensordot(c, jacobi_table(expansion.spec.params, len(c) - 1, z), axes=1)[()]


def interpolate(spec: BackwardSpec, n: int, f) -> Interpolant:
    """Interpolant of f at the N+1 mapped Gauss nodes of the basis family."""
    nodes_z, nodes_t, bary = _node_set(spec, n)
    return Interpolant(spec, nodes_z, nodes_t, _sample(f, nodes_t), bary)


def eval_interpolant(ip: Interpolant, t):
    """Interpolant value at t (a numpy float64 for a scalar t, else an array
    of t's shape); nodal inputs reproduce the stored values exactly."""
    arr = np.asarray(t, dtype=float)
    flat = arr.ravel()
    zs = map_forward(ip.spec, flat)
    out = cardinal_matrix(ip.nodes_z, ip.bary_weights, zs) @ ip.values
    # The z image of a stored node can drift by a few ulps through the t
    # round trip; exact t matches short-circuit that, the last node winning
    # among nodes that share a t. t = 1.0 is excluded: distinct near-terminal
    # nodes can share that representation, so it is always evaluated through z.
    cand = np.flatnonzero(ip.nodes_t != 1.0)
    order = cand[np.argsort(ip.nodes_t[cand], kind="stable")]
    sorted_t = ip.nodes_t[order]
    pos = np.searchsorted(sorted_t, flat, side="right") - 1  # last of equal t
    hit = pos >= 0
    hit[hit] = sorted_t[pos[hit]] == flat[hit]
    out[hit] = ip.values[order[pos[hit]]]
    return out.reshape(arr.shape)[()]


def weighted_l2_error(spec: BackwardSpec, f, g, quad_size: int) -> float:
    """Weighted L2 distance between f and g under the spec's basis weight,
    integrated in z by a Gauss rule of the given size."""
    rule = gauss_rule(spec.params, quad_size)
    ts = map_inverse(spec, rule.nodes)
    diff = _sample(f, ts) - _sample(g, ts)
    return float(np.sqrt(np.dot(rule.weights, diff * diff)))


def eval_grid(rho: float, samples: int) -> np.ndarray:
    """Standard evaluation grid: uniform in z over [z(1e-6), 1 - 1e-12],
    mapped back to t, so samples cluster toward the terminal endpoint."""
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    spec = BackwardSpec(JacobiParams(0.0, 0.0), rho)
    z_lo = map_forward(spec, 1e-6)
    zs = np.linspace(z_lo, 1.0 - 1e-12, samples)
    return map_inverse(spec, zs)


def linf_error(f, g, samples: int, rho: float = 1.0) -> float:
    """Max |f - g| over the standard z-uniform evaluation grid."""
    ts = eval_grid(rho, samples)
    return float(np.max(np.abs(_sample(f, ts) - _sample(g, ts))))


def lebesgue_constant(spec: BackwardSpec, n: int, samples: int) -> float:
    """Max over a uniform z grid of `samples` points of the summed absolute
    cardinal functions (exactly 1 for N = 0, a single node). Raises
    ValueError for samples < 1."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    nodes_z, _, bary = _node_set(spec, n)
    h = cardinal_matrix(nodes_z, bary, np.linspace(0.0, 1.0, samples))
    return float(np.max(np.sum(np.abs(h, out=h), axis=1)))
