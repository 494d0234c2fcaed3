"""Shifted Jacobi polynomials P_r^{mu,upsilon}(2z-1) on [0,1], their norms,
and Gauss quadrature rules for the weight (1-z)^mu * z^upsilon on [0,1].

This module alone knows the three-term recurrence and the shift x = 2z - 1:
`jacobi_table` evaluates P_0..P_n at z with both, and `gauss_rule` builds
its Golub-Welsch matrix from the monic form of the same recurrence.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .special_functions import beta

# Largest N a node set is built for: the solve is O(N^3), and the Gauss rules
# and solves are tested up to here.
MAX_N = 1200


class NumericalError(RuntimeError):
    """The numbers went wrong: a Gauss rule failed to converge or to
    validate, a collocation node reached the terminal endpoint, a kernel
    failed at a quadrature point or a source at a collocation node, a
    collocation system or its solution is singular or not finite, or the
    quadrature oracle failed its doubling check. Input that is refused
    before numerical work raises ValueError instead."""


@dataclass(frozen=True)
class JacobiParams:
    """Exponent pair of a Jacobi weight: (1-z)^mu * z^upsilon, both finite
    and > -1."""

    mu: float
    upsilon: float

    def __post_init__(self):
        if not (-1.0 < self.mu < math.inf and -1.0 < self.upsilon < math.inf):
            raise ValueError(
                f"Jacobi exponents must be finite and satisfy mu, upsilon > -1, got "
                f"({self.mu}, {self.upsilon})"
            )

    def shifted(self, k: int) -> "JacobiParams":
        return JacobiParams(self.mu + k, self.upsilon + k)


def _frozen_copy(values) -> np.ndarray:
    """A read-only float64 copy of values: a frozen dataclass holds its own
    arrays, so freezing them leaves the caller's arrays writable."""
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule on [0,1] for the weight (1-z)^mu * z^upsilon.

    Nodes are strictly increasing in (0,1), weights positive, and the rule
    integrates polynomials up to degree 2M-1 exactly.
    """

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", _frozen_copy(self.nodes))
        object.__setattr__(self, "weights", _frozen_copy(self.weights))


def _recurrence_coeffs(params: JacobiParams, m: int):
    """Arrays A_k, B_k, C_k (k < m) of the recurrence
    P_{k+1}(x) = (A_k x + B_k) P_k(x) - C_k P_{k-1}(x); row 0 is P_1 = A_0 x + B_0."""
    mu, up = params.mu, params.upsilon
    s = mu + up
    k = np.arange(m, dtype=float)
    two = 2.0 * k + s
    denom = 2.0 * (k + 1.0) * (k + s + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # k = 0 is replaced below
        a = (two + 1.0) * (two + 2.0) / denom
        b = (two + 1.0) * (mu * mu - up * up) / (denom * two)
        c = 2.0 * (k + mu) * (k + up) * (two + 2.0) / (denom * two)
    if m:
        a[0], b[0], c[0] = (s + 2.0) / 2.0, (mu - up) / 2.0, 0.0
    return a, b, c


def jacobi_table(params: JacobiParams, n: int, z) -> np.ndarray:
    """Shifted Jacobi polynomials P_0..P_n^{mu,upsilon}(2z-1) at z in [0,1].

    Forward three-term recurrence in x = 2z - 1 from degrees 0 and 1; the
    degree runs along the first axis, so the result has shape (n+1,) + shape(z).
    The coefficients come from `_recurrence_lists`, so each (params, n) builds
    them once per process. Raises ValueError for a negative n.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    x = 2.0 * np.asarray(z, dtype=float) - 1.0
    table = np.empty((n + 1,) + x.shape)
    table[0] = 1.0
    a, b, c = _recurrence_lists(params, n)
    if n >= 1:
        table[1] = a[0] * x + b[0]
    tmp = np.empty(x.shape)
    for k in range(1, n):  # (a_k x + b_k) P_k - c_k P_{k-1}, in place
        row = table[k + 1, ...]  # a view, also where z is a scalar
        np.multiply(x, a[k], out=row)
        row += b[k]
        row *= table[k]
        np.multiply(table[k - 1], c[k], out=tmp)
        row -= tmp
    return table


def jacobi_eval(params: JacobiParams, r: int, z):
    """Row r of `jacobi_table` at z; `z` may be a scalar or an ndarray."""
    return jacobi_table(params, r, z)[r][()]


def jacobi_norm(params: JacobiParams, r: int) -> float:
    """Squared weighted L2 norm of the degree-r shifted Jacobi polynomial on [0,1].

    Gamma(r+mu+1)Gamma(r+upsilon+1) / (r! (2r+mu+upsilon+1) Gamma(r+mu+upsilon+1)),
    computed in log space; r = 0 goes through the beta function directly since the
    general formula is a 0*inf form when mu+upsilon+1 = 0.
    """
    if r < 0:
        raise ValueError(f"degree must be nonnegative, got {r}")
    mu, up = params.mu, params.upsilon
    if r == 0:
        return beta(mu + 1.0, up + 1.0)
    log_val = (
        math.lgamma(r + mu + 1.0)
        + math.lgamma(r + up + 1.0)
        - math.lgamma(r + 1.0)
        - math.lgamma(r + mu + up + 1.0)
    )
    return math.exp(log_val) / (2.0 * r + mu + up + 1.0)


def gauss_rule(params: JacobiParams, m: int) -> QuadratureRule:
    """M-point Gauss rule on [0,1] for the weight (1-z)^mu * z^upsilon.

    Golub-Welsch: eigen-decomposition of the symmetric tridiagonal matrix of
    the monic three-term recurrence; weights come from the first components
    of the normalized eigenvectors scaled by the weight's total mass.
    Raises ValueError before allocating the two m x m matrices for m above
    4 (MAX_N + 1), the L2 rule of `fbjacobi converge` at N = MAX_N and the
    largest rule the package builds. Each (params, m) is built once per
    process and the same read-only rule is returned after that.
    """
    if m < 1:
        raise ValueError(f"rule size must be >= 1, got {m}")
    if m > 4 * (MAX_N + 1):
        raise ValueError(f"rule size {m} exceeds 4 (MAX_N + 1) = {4 * (MAX_N + 1)}")
    return _golub_welsch(params, m)


@functools.lru_cache(maxsize=128)
def _golub_welsch(params: JacobiParams, m: int) -> QuadratureRule:
    """The rule of `gauss_rule`, built once per (params, m) in a process.

    A rule is a pure function of its key and its arrays are read-only, so
    callers share it; a failed build raises and stores nothing. Keys that
    compare equal (0.0 and -0.0, 1 and 1.0) build bit-identical rules. 128
    entries cover every key of one selftest run and hold at most
    128 * 4804 * 16 bytes (about 9.8 MB).
    """
    mass = jacobi_norm(params, 0)
    # Monic Jacobi matrix on [-1,1] from the recurrence of P_k, then halved
    # and shifted by the affine map x = 2z - 1; only the lower triangle, which
    # eigh reads, is set.
    a, b, c = _recurrence_coeffs(params, m)
    jac = np.zeros((m, m))
    jac.flat[::m + 1] = (1.0 - b / a) / 2.0
    jac.flat[m::m + 1] = np.sqrt(c[1:] / (a[:-1] * a[1:])) / 2.0
    try:
        nodes, vectors = np.linalg.eigh(jac)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigen-decomposition failed for params {params}, m={m}"
        ) from exc
    weights = mass * vectors[0, :] ** 2

    if not (np.all(np.diff(nodes) > 0.0) and nodes[0] > 0.0 and nodes[-1] < 1.0):
        raise NumericalError(f"nodes not strictly inside (0,1) for {params}, m={m}")
    if not np.all(weights > 0.0):
        raise NumericalError(f"nonpositive weight for {params}, m={m}")
    if abs(float(weights.sum()) - mass) > 1e-12 * mass:
        raise NumericalError(f"weight mass off for {params}, m={m}")
    return QuadratureRule(nodes, weights)


@functools.lru_cache(maxsize=256)
def _recurrence_lists(params: JacobiParams, n: int):
    """`_recurrence_coeffs(params, n)` as three tuples of Python floats,
    built once per (params, n) in a process for `jacobi_table`.

    The tuples are immutable, so callers share them. Keys that compare equal
    (0.0 and -0.0, 1 and 1.0) build bit-identical tables: a -0.0 exponent can
    move only the sign of B_0, and since x = 2z - 1 is never -0.0, A_0 x + B_0
    is the same float with either zero. One `selftest --quick` run makes 156
    calls on 92 keys; 256 entries of degree MAX_N would hold about 30 MB.
    """
    return tuple(tuple(v.tolist()) for v in _recurrence_coeffs(params, n))
