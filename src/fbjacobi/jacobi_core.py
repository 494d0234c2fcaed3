"""Shifted Jacobi polynomials P_r^{mu,upsilon}(2z-1) on [0,1], their norms,
and Gauss quadrature rules for the weight (1-z)^mu * z^upsilon on [0,1].

This module alone knows the three-term recurrence and the shift x = 2z - 1:
`jacobi_table` evaluates P_0..P_n at z with both, and `gauss_rule` builds
its Golub-Welsch matrix from the monic form of the same recurrence.
"""

from dataclasses import dataclass, field

import math
import numpy as np

from .special_functions import beta, log_gamma


class NumericalError(RuntimeError):
    """The numbers went wrong: a Gauss rule failed to converge or to
    validate, a source failed at a collocation node, a collocation system or
    its solution is singular or not finite, or the quadrature oracle failed
    its doubling check. Input that is refused before numerical work raises
    ValueError instead."""


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


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule on [0,1] for the weight (1-z)^mu * z^upsilon.

    Nodes are strictly increasing in (0,1), weights positive, and the rule
    integrates polynomials up to degree 2M-1 exactly.
    """

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


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
    """
    x = 2.0 * np.asarray(z, dtype=float) - 1.0
    table = np.empty((n + 1,) + x.shape)
    table[0] = 1.0
    a, b, c = (v.tolist() for v in _recurrence_coeffs(params, n))
    if n >= 1:
        table[1] = a[0] * x + b[0]
    for k in range(1, n):
        table[k + 1] = (a[k] * x + b[k]) * table[k] - c[k] * table[k - 1]
    return table


def jacobi_eval(params: JacobiParams, r: int, z):
    """Row r of `jacobi_table` at z; `z` may be a scalar or an ndarray."""
    if r < 0:
        raise ValueError(f"degree must be nonnegative, got {r}")
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
        log_gamma(r + mu + 1.0)
        + log_gamma(r + up + 1.0)
        - log_gamma(r + 1.0)
        - log_gamma(r + mu + up + 1.0)
    )
    return math.exp(log_val) / (2.0 * r + mu + up + 1.0)


def gauss_rule(params: JacobiParams, m: int) -> QuadratureRule:
    """M-point Gauss rule on [0,1] for the weight (1-z)^mu * z^upsilon.

    Golub-Welsch: eigen-decomposition of the symmetric tridiagonal matrix of
    the monic three-term recurrence; weights come from the first components
    of the normalized eigenvectors scaled by the weight's total mass.
    """
    if m < 1:
        raise ValueError(f"rule size must be >= 1, got {m}")
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
