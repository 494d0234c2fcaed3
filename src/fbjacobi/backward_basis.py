"""Fractional backward Jacobi basis: the terminal-endpoint mapping
z = 1-(1-t)^rho, basis evaluation, weights, transformed derivatives, and
collocation nodes.

Everything polynomial happens in the z variable; t enters only at the
user-facing evaluation boundary, so the basis stays accurate arbitrarily
close to t = 1. Every function of t or z follows numpy's scalar rule: an
array gives an array of its shape, a scalar gives a numpy float64.
"""

from dataclasses import dataclass

import numpy as np

from .jacobi_core import JacobiParams, gauss_rule, jacobi_eval


@dataclass(frozen=True)
class BackwardSpec:
    """One basis family: Jacobi exponents plus the mapping exponent rho."""

    params: JacobiParams
    rho: float

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0):
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")

    def shifted(self, k: int) -> "BackwardSpec":
        return BackwardSpec(self.params.shifted(k), self.rho)


def map_forward(spec: BackwardSpec, t):
    """z(t) = 1 - (1-t)^rho; monotone on [0,1], fixing both endpoints.
    Raises ValueError for t outside [0,1]; NaN passes through."""
    t = np.asarray(t, dtype=float)
    outside = (t < 0.0) | (t > 1.0)
    if outside.any():
        raise ValueError(f"t must lie in [0, 1], got {float(t[outside][0])}")
    with np.errstate(divide="ignore"):
        return -np.expm1(spec.rho * np.log1p(-t))


def map_inverse(spec: BackwardSpec, z):
    """t(z) = 1 - (1-z)^{1/rho}, the exact inverse of map_forward.

    Computed through expm1/log1p; when (1-z)^{1/rho} underflows the result
    is exactly 1.0, which is the intended terminal-endpoint convention.
    """
    with np.errstate(divide="ignore"):
        return -np.expm1(np.log1p(-np.asarray(z, dtype=float)) / spec.rho)


def fb_eval(spec: BackwardSpec, r: int, t):
    """Backward basis function of degree r: P_r^{mu,upsilon}(1 - 2(1-t)^rho)."""
    return jacobi_eval(spec.params, r, map_forward(spec, t))


def fb_weight(spec: BackwardSpec, t):
    """Orthogonality weight rho (1-t)^{rho(mu+1)-1} (1-(1-t)^rho)^upsilon."""
    one_minus = 1.0 - np.asarray(t, dtype=float)
    return (
        spec.rho
        * one_minus ** (spec.rho * (spec.params.mu + 1.0) - 1.0)
        * map_forward(spec, t) ** spec.params.upsilon
    )


def fb_weight_tilde(spec: BackwardSpec, t):
    """Derivative-side weight rho^{-1} (1-t)^{rho mu + 1} (1-(1-t)^rho)^{upsilon+1}."""
    one_minus = 1.0 - np.asarray(t, dtype=float)
    return (
        one_minus ** (spec.rho * spec.params.mu + 1.0)
        * map_forward(spec, t) ** (spec.params.upsilon + 1.0)
        / spec.rho
    )


def deriv_factor(spec: BackwardSpec, r: int, k: int) -> float:
    """Coefficient linking the k-th transformed derivative of degree r to the
    degree r-k basis function with parameters shifted by k.

    The iterated product of the per-step factors r+mu+upsilon+1+j, which
    telescopes to Gamma(r+mu+upsilon+1+k) / Gamma(r+mu+upsilon+1).
    """
    if not 1 <= k <= r:
        raise ValueError(f"need 1 <= k <= r, got k={k}, r={r}")
    base = r + spec.params.mu + spec.params.upsilon + 1.0
    product = 1.0
    for j in range(k):
        product *= base + j
    return product


def fb_deriv_eval(spec: BackwardSpec, r: int, k: int, t):
    """k-th transformed derivative of the degree-r basis function at t.

    Uses the closed-form identity onto the (mu+k, upsilon+k) family, so it is
    exact up to rounding even where d/dt itself is singular at t = 1.
    """
    factor = deriv_factor(spec, r, k)
    return factor * fb_eval(spec.shifted(k), r - k, t)


def sturm_liouville_apply(spec: BackwardSpec, r: int, t):
    """Left side of the singular Sturm-Liouville relation for the degree-r
    basis function, assembled from the first and second transformed
    derivatives with shifted parameters.

    Equals r(r+mu+upsilon+1) times the basis function itself; exposed so the
    eigenrelation can be verified as a runtime diagnostic.
    """
    if r < 1:
        return np.zeros(np.shape(t))[()]
    z = map_forward(spec, t)
    mu, up = spec.params.mu, spec.params.upsilon
    out = ((mu + 1.0) * z - (up + 1.0) * (1.0 - z)) * fb_deriv_eval(spec, r, 1, t)
    if r >= 2:
        out = out - z * (1.0 - z) * fb_deriv_eval(spec, r, 2, t)
    return out


def fb_nodes(spec: BackwardSpec, n: int) -> np.ndarray:
    """The N+1 collocation nodes in (0,1): mapped Gauss nodes of degree N+1.

    For very small rho combined with large N the nodes nearest the terminal
    endpoint can round to 1.0 in double precision even though they are
    mathematically interior; solvers that need the distance to 1 should work
    from the z-space nodes instead.
    """
    rule = gauss_rule(spec.params, n + 1)
    return map_inverse(spec, rule.nodes)
