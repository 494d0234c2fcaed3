"""Weighted projection, Gauss-node interpolation with the generalized
Lagrange basis, expansion evaluation, and error norms.

All Lagrange work is done barycentrically in the z variable where the basis
is polynomial; sampling grids are uniform in z so points cluster toward the
terminal endpoint t = 1.
"""

from dataclasses import dataclass, field

import numpy as np

from .backward_basis import BackwardSpec, map_forward, map_inverse
from .jacobi_core import JacobiParams, gauss_rule, jacobi_norm, jacobi_table

# Largest N a node set is built for: the barycentric weights of the N+1 nodes
# overflow to NaN from N = 1250 (finite up to 1225).
MAX_N = 1200


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Second-form barycentric weights for the given z nodes, normalized to
    unit maximum magnitude (the form is scale invariant).

    The node gaps are scaled by 4 so that their products stay finite up to
    N of about 1200; a power of two changes no rounding.
    """
    gaps = 4.0 * (nodes[:, None] - nodes[None, :])
    np.fill_diagonal(gaps, 1.0)
    w = 1.0 / np.prod(gaps, axis=1)
    return w / np.max(np.abs(w))


def _node_set(spec: BackwardSpec, n: int):
    """(nodes_z, nodes_t, barycentric weights) of the N+1 mapped Gauss nodes;
    raises ValueError for N > MAX_N before any rule is built."""
    if n > MAX_N:
        raise ValueError(f"N = {n} exceeds MAX_N = {MAX_N}")
    nodes_z = gauss_rule(spec.params, n + 1).nodes
    return nodes_z, map_inverse(spec, nodes_z), barycentric_weights(nodes_z)


def cardinal_matrix(nodes: np.ndarray, bary: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Cardinal functions on a 1-D z grid; rows index grid points, columns nodes.

    A point exactly on a node, the only 0/0 of the barycentric quotient, has
    an infinite row total, as in the solver's rows, and gets that node's unit
    row. Any other point, however close, takes the forward-stable quotient.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        out = zs[:, None] - nodes
        np.divide(bary, out, out=out)
        total = out.sum(axis=1, keepdims=True)
        out /= total
    rows = np.isinf(total[:, 0])
    out[rows] = zs[rows, None] == nodes
    return out


def _sample(func, *args) -> np.ndarray:
    """func evaluated pointwise on the broadcast of its arguments.

    One array call when func accepts arrays and returns either the broadcast
    shape or a scalar (a constant, which is broadcast); otherwise, or when the
    array call raises TypeError or ValueError (a scalar-only function), one
    scalar call per point. Any other exception propagates.
    """
    args = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    shape = args[0].shape
    try:
        vals = np.asarray(func(*args), dtype=float)
        if vals.shape in (shape, ()):
            return np.broadcast_to(vals, shape).copy()
    except (TypeError, ValueError):
        pass
    points = zip(*(a.ravel().tolist() for a in args))
    return np.array([float(func(*p)) for p in points], dtype=float).reshape(shape)


@dataclass(frozen=True)
class Expansion:
    """Coefficients c_0..c_N against the backward basis of a given spec."""

    spec: BackwardSpec
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        self.coeffs.setflags(write=False)

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
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

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
    """Max over a uniform z grid of the summed absolute cardinal functions
    (exactly 1 for N = 0, a single node)."""
    nodes_z, _, bary = _node_set(spec, n)
    h = cardinal_matrix(nodes_z, bary, np.linspace(0.0, 1.0, samples))
    return float(np.max(np.sum(np.abs(h, out=h), axis=1)))
