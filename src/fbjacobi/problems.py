"""Built-in manufactured test problems with verified sources, plus an
independent high-accuracy quadrature oracle for the adjoint integral operator.

The oracle deliberately shares nothing with the collocation machinery: it
substitutes rho = t + (1-t) s^{1/(1-theta)} (which removes the kernel
singularity exactly), then integrates with composite Gauss-Legendre panels
geometrically graded toward both ends of the s interval - toward s = 1 to
resolve terminal singularities of u, toward s = 0 because the substitution
itself has algebraic derivatives there for non-integer 1/(1-theta).
"""

import functools
import math

import numpy as np

from .approximation import _sample
from .jacobi_core import NumericalError
from .special_functions import bessel_j, beta
from .volterra_solver import ProblemDefinition

# Oracle layout: geometric panels per endpoint, Gauss points per panel and the
# grading ratio. Every value is checked against the layout with twice the
# points per panel, which refines every panel, the s -> 1 ones included (the
# grading stops those at 1 - s = 1e-12).
_PANELS = 24
_POINTS_PER_PANEL = 16
_GRADING_RATIO = 0.15


@functools.lru_cache(maxsize=None)
def _panel_rule(panels: int, points: int):
    """Points and weights of the composite rule on (0,1) with `panels`
    graded panels toward each end and `points` Gauss points per panel."""
    # Depths 0.5 r^j of the graded edges, j = 1..panels-1, with Python's pow:
    # numpy's is an ulp off at some j, which moves the weights.
    depth = 0.5 * np.array([_GRADING_RATIO**j for j in range(1, panels)])
    top = 1.0 - depth
    top = top[1.0 - top >= 1e-12]  # deeper panels are below double resolution
    edges = np.concatenate([[0.0], depth[::-1], [0.5], top, [1.0]])
    x, w = np.polynomial.legendre.leggauss(points)
    half = 0.5 * np.diff(edges)[:, None]
    # one row per panel; np.concatenate joins the rows in order
    rule = (np.concatenate(edges[:-1, None] + half * (x + 1.0)), np.concatenate(half * w))
    rule[0].setflags(write=False)
    rule[1].setflags(write=False)
    return rule


def _oracle_core(theta: float, w: np.ndarray, kernel, u_w, rule) -> np.ndarray:
    """Values of the adjoint operator at t = 1 - w for a 1-D array of
    endpoint distances w, on the (points, weights) `rule` of _panel_rule, with
    the integrand expressed through the distance to the terminal endpoint.
    Rows with w = 0 are 0 and never sampled."""
    out = np.zeros(len(w))
    live = w != 0.0
    w = w[live]
    p = 1.0 / (1.0 - theta)
    s, sw = rule
    one_minus_spow = -np.expm1(p * np.log(s))  # 1 - s^p, accurate near s = 1
    w_rho = w[:, None] * one_minus_spow        # 1 - rho(s), one row per w
    varrho = 1.0 - w_rho
    vals = _sample(kernel, (1.0 - w)[:, None], varrho) * _sample(u_w, w_rho)
    # One scalar power and one dot per row, so each value is the same whether
    # its w comes alone or in a batch.
    out[live] = [wi ** (1.0 - theta) / (1.0 - theta) * float(np.dot(sw, row))
                 for wi, row in zip(w.tolist(), vals)]
    return out


def _verified_oracle(theta: float, w, kernel, u_w):
    """Values of the adjoint operator at endpoint distances w (any shape; a
    scalar gives a numpy float64), with the integrand in w as in _oracle_core.
    They come from twice the points per panel, checked against the standard
    layout; a shift above 1e-9, or NaN, raises NumericalError."""
    w = np.asarray(w, dtype=float)
    flat = w.ravel()
    coarse = _oracle_core(theta, flat, kernel, u_w, _panel_rule(_PANELS, _POINTS_PER_PANEL))
    fine = _oracle_core(theta, flat, kernel, u_w, _panel_rule(_PANELS, 2 * _POINTS_PER_PANEL))
    shift = np.abs(fine - coarse)
    if not np.all(shift <= 1e-9):  # NaN fails too
        i = int(np.argmin(shift <= 1e-9))
        raise NumericalError(
            f"oracle unstable at 1-t={flat[i]:.17g}: doubling the points moved value by "
            f"{shift[i]:.3e}"
        )
    return fine.reshape(w.shape)[()]


def oracle_kr(u, theta: float, kernel, t):
    """High-accuracy value of int_t^1 (rho-t)^{-theta} K(t,rho) u(rho) drho.

    t may be a scalar (a numpy float64 is returned) or an array (an array of
    its shape is returned); u and the kernel are sampled once per panel
    layout on the whole grid when they accept arrays, else point by point.
    The value comes from twice the points per panel and is checked against the
    standard one; a shift above 1e-9, or NaN, raises NumericalError.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t < 1.0)):
        raise ValueError(f"t must lie in [0,1), got {t}")
    return _verified_oracle(theta, 1.0 - t, kernel, lambda w: u(1.0 - w))


def _unit_kernel(t, varrho):
    return 1.0


def _source_mismatch(prob: ProblemDefinition) -> float:
    """Max |g - (u - K_R u)| over five probe points, with g read through
    `source_at`, and u and K_R u (one oracle call) through `exact_w`; NaN when
    any value is NaN."""
    t = np.array([0.0, 0.25, 0.5, 0.75, 0.95])
    w = 1.0 - t
    g = prob.source_at(t, w)
    ref = prob.exact_w(w) - _verified_oracle(prob.theta, w, prob.kernel, prob.exact_w)
    return float(np.max(np.abs(g - ref)))


def example1(theta: float) -> ProblemDefinition:
    """Unit-kernel problem whose exact solution (1-t)^{-theta} sin(1-t) has a
    weak terminal singularity; the closed-form source couples a half-odd-order
    Bessel function with the endpoint distance.

    The closed form is validated at construction against the quadrature
    oracle (one doubling-checked call over five probe points); a mismatch
    above 1e-9, or NaN, raises NumericalError.
    """

    def u_w(w):
        w = np.asarray(w, dtype=float)
        # w^{-theta} sin(w) written as w^{1-theta} * sinc so the limit at the
        # terminal endpoint is 0, not 0 * inf.
        out = np.where(w > 0.0, w, 1.0) ** (1.0 - theta) * np.sinc(w / np.pi)
        return np.where(w > 0.0, out, 0.0)[()]

    def g_w(w):  # theta is checked by ProblemDefinition before any call
        nu = 0.5 - theta
        scale = math.sqrt(math.pi) * math.exp(math.lgamma(1.0 - theta))
        w = np.asarray(w, dtype=float)
        edge = w <= 0.0  # g is 0 there; the closed form is evaluated at w = 1
        w_in = np.where(edge, 1.0, w)
        half = 0.5 * w_in
        # Python's pow and math.sin per element: numpy's can be an ulp away,
        # which the theta = 2/3 systems (cond ~ 1e8) turn into 1e-9 in u.
        pw = np.array([x**nu for x in w_in.ravel().tolist()]).reshape(w_in.shape)
        sn = np.array([math.sin(x) for x in half.ravel().tolist()]).reshape(w_in.shape)
        g = u_w(w_in) - scale * pw * sn * bessel_j(nu, half)
        return np.where(edge, 0.0, g)[()]

    prob = ProblemDefinition(theta=theta, kernel=_unit_kernel, source_w=g_w, exact_w=u_w)
    mismatch = _source_mismatch(prob)
    if not mismatch <= 1e-9:  # NaN fails too
        raise NumericalError(
            f"closed-form source for theta={theta} is off by {mismatch:.3e} "
            "against the quadrature oracle"
        )
    return prob


def _check_exponents(gamma1: float, gamma2: float) -> None:
    if not (0.0 < gamma1 < math.inf and 0.0 < gamma2 < math.inf):
        raise ValueError(f"both exponents must be positive and finite, got ({gamma1}, {gamma2})")


def case_i(theta: float, gamma1: float, gamma2: float) -> ProblemDefinition:
    """Two-power terminal-singular solution (1-t)^{g1} + (1-t)^{g2} with a
    beta-function closed-form source."""
    _check_exponents(gamma1, gamma2)

    def u_w(w):
        return w**gamma1 + w**gamma2

    def g_w(w):  # theta is checked by ProblemDefinition before any call
        b1 = beta(1.0 - theta, gamma1 + 1.0)
        b2 = beta(1.0 - theta, gamma2 + 1.0)
        return (
            w**gamma1 - b1 * w ** (1.0 - theta + gamma1)
            + w**gamma2 - b2 * w ** (1.0 - theta + gamma2)
        )

    return ProblemDefinition(theta=theta, kernel=_unit_kernel, source_w=g_w, exact_w=u_w)


def case_ii(theta: float, gamma1: float, gamma2: float) -> ProblemDefinition:
    """Terminal-singular solution sin((1-t)^{g1} + (1-t)^{g2}); no closed-form
    source, so g = u - K_R u comes from the oracle, doubling-checked on every
    call (NumericalError on a shift above 1e-9 or NaN)."""
    _check_exponents(gamma1, gamma2)

    def u_w(w):
        return np.sin(w**gamma1 + w**gamma2)

    def g_w(w):
        w = np.asarray(w, dtype=float)  # numpy's pow on a 0-d w, as on arrays
        return u_w(w) - _verified_oracle(theta, w, _unit_kernel, u_w)

    return ProblemDefinition(theta=theta, kernel=_unit_kernel, source_w=g_w, exact_w=u_w)


def regularity_index(gamma1: float, gamma2: float) -> float:
    """Effective singular exponent governing the convergence rate: infinite
    when both exponents are positive integers, otherwise the smallest
    non-integer exponent."""
    _check_exponents(gamma1, gamma2)
    return min((g for g in (gamma1, gamma2) if abs(g - round(g)) >= 1e-12), default=math.inf)
