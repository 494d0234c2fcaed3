"""Built-in manufactured test problems with verified sources, plus an
independent high-accuracy quadrature oracle for the adjoint integral operator.

The oracle deliberately shares nothing with the collocation machinery: it
substitutes rho = t + (1-t) s^{1/(1-theta)} (which removes the kernel
singularity exactly), then integrates with composite Gauss-Legendre panels
geometrically graded toward both ends of the s interval - toward s = 1 to
resolve terminal singularities of u, toward s = 0 because the substitution
itself has algebraic derivatives there for non-integer 1/(1-theta).
"""

import math
import threading
from dataclasses import dataclass

import numpy as np

from .approximation import _sample
from .special_functions import bessel_j, beta, log_gamma
from .volterra_solver import ProblemDefinition


class OracleAccuracyError(RuntimeError):
    """Panel doubling moved the oracle value more than the allowed 1e-9."""


class SourceValidationError(RuntimeError):
    """A manufactured source failed its cross-check against the oracle."""


@dataclass(frozen=True)
class OracleConfig:
    """Composite-quadrature layout: geometric panels per endpoint, Gauss size
    per panel, and the grading ratio."""

    panels: int = 24
    points_per_panel: int = 16
    grading_ratio: float = 0.15

    def __post_init__(self):
        if self.panels < 4:
            raise ValueError(f"need at least 4 panels, got {self.panels}")
        if self.points_per_panel < 8:
            raise ValueError(
                f"need at least 8 points per panel, got {self.points_per_panel}"
            )
        if not (0.0 < self.grading_ratio < 1.0):
            raise ValueError(f"grading ratio must lie in (0,1), got {self.grading_ratio}")

    def doubled(self) -> "OracleConfig":
        return OracleConfig(2 * self.panels, self.points_per_panel, self.grading_ratio)


_PANEL_CACHE: dict = {}
_PANEL_LOCK = threading.Lock()


def _panel_rule(cfg: OracleConfig):
    """Points and weights of the graded composite rule on (0,1)."""
    key = (cfg.panels, cfg.points_per_panel, cfg.grading_ratio)
    with _PANEL_LOCK:
        cached = _PANEL_CACHE.get(key)
    if cached is not None:
        return cached
    r = cfg.grading_ratio
    edges = [0.0]
    for j in range(cfg.panels - 1, 0, -1):
        edges.append(0.5 * r**j)
    edges.append(0.5)
    for j in range(1, cfg.panels):
        e = 1.0 - 0.5 * r**j
        if 1.0 - e < 1e-12:  # deeper panels are below double resolution
            break
        edges.append(e)
    edges.append(1.0)
    x, w = np.polynomial.legendre.leggauss(cfg.points_per_panel)
    pts, wts = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        pts.append(a + half * (x + 1.0))
        wts.append(half * w)
    rule = (np.concatenate(pts), np.concatenate(wts))
    rule[0].setflags(write=False)
    rule[1].setflags(write=False)
    with _PANEL_LOCK:
        _PANEL_CACHE[key] = rule
    return rule


def _oracle_core(theta: float, w: float, kernel, u_w, cfg: OracleConfig) -> float:
    """Graded-panel value of the adjoint operator at t = 1 - w, with the
    integrand expressed through the distance to the terminal endpoint."""
    if w == 0.0:
        return 0.0
    p = 1.0 / (1.0 - theta)
    s, sw = _panel_rule(cfg)
    one_minus_spow = -np.expm1(p * np.log(s))  # 1 - s^p, accurate near s = 1
    w_rho = w * one_minus_spow                 # 1 - rho(s)
    varrho = 1.0 - w_rho
    vals = _sample(kernel, 1.0 - w, varrho) * _sample(u_w, w_rho)
    return w ** (1.0 - theta) / (1.0 - theta) * float(np.dot(sw, vals))


def oracle_kr(u, theta: float, kernel, t: float, cfg: OracleConfig = OracleConfig(),
              verify: bool = True) -> float:
    """High-accuracy value of int_t^1 (rho-t)^{-theta} K(t,rho) u(rho) drho.

    With `verify` the computation is repeated at doubled panel count and the
    finer value returned; a shift above 1e-9 raises OracleAccuracyError.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    if not (0.0 <= t < 1.0):
        raise ValueError(f"t must lie in [0,1), got {t}")

    def u_w(w_rho):
        return _sample(u, 1.0 - w_rho)

    coarse = _oracle_core(theta, 1.0 - t, kernel, u_w, cfg)
    if not verify:
        return coarse
    fine = _oracle_core(theta, 1.0 - t, kernel, u_w, cfg.doubled())
    if abs(fine - coarse) > 1e-9:
        raise OracleAccuracyError(
            f"oracle unstable at t={t}: doubling panels moved value by "
            f"{abs(fine - coarse):.3e}"
        )
    return fine


def _unit_kernel(t, varrho):
    return np.ones_like(np.asarray(varrho, dtype=float)) if np.ndim(varrho) else 1.0


class _MemoizedOracleSource:
    """g(t) = u(t) - (K_R u)(t) evaluated through the oracle, memoized per
    endpoint distance so assembly does not re-integrate at repeated nodes."""

    def __init__(self, theta: float, u_w, cfg: OracleConfig):
        self.theta = theta
        self.u_w = u_w
        self.cfg = cfg
        self._cache: dict = {}
        self._lock = threading.Lock()

    def value_w(self, w: float) -> float:
        with self._lock:
            if w in self._cache:
                return self._cache[w]
        coarse = _oracle_core(self.theta, w, _unit_kernel, self.u_w, self.cfg)
        fine = _oracle_core(self.theta, w, _unit_kernel, self.u_w, self.cfg.doubled())
        if abs(fine - coarse) > 1e-9:
            raise OracleAccuracyError(
                f"oracle-backed source unstable at 1-t={w}: panel doubling "
                f"moved value by {abs(fine - coarse):.3e}"
            )
        val = float(self.u_w(w)) - fine
        with self._lock:
            self._cache[w] = val
        return val

    def __call__(self, t: float) -> float:
        return self.value_w(1.0 - t)


def example1(theta: float, cfg: OracleConfig = OracleConfig()) -> ProblemDefinition:
    """Unit-kernel problem whose exact solution (1-t)^{-theta} sin(1-t) has a
    weak terminal singularity; the closed-form source couples a half-odd-order
    Bessel function with the endpoint distance.

    The closed form is validated at construction against the quadrature
    oracle; a mismatch above 1e-9 raises SourceValidationError.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError(f"theta must lie in (0,1), got {theta}")
    nu = 0.5 - theta
    scale = math.sqrt(math.pi) * math.exp(log_gamma(1.0 - theta))

    def u_w(w):
        w = np.asarray(w, dtype=float)
        # w^{-theta} sin(w) written as w^{1-theta} * sinc so the limit at the
        # terminal endpoint is 0, not 0 * inf.
        out = np.where(w > 0.0, w, 1.0) ** (1.0 - theta) * np.sinc(w / np.pi)
        out = np.where(w > 0.0, out, 0.0)
        return out[()] if out.ndim == 0 else out

    def exact(t):
        return u_w(1.0 - np.asarray(t, dtype=float))

    def g_w(w: float) -> float:
        if w <= 0.0:
            return 0.0
        half = 0.5 * w
        return float(u_w(w)) - scale * w**nu * math.sin(half) * bessel_j(nu, half)

    def source(t: float) -> float:
        return g_w(1.0 - t)

    mismatch = max(
        abs(g_w(1.0 - t) - (exact(t) - oracle_kr(exact, theta, _unit_kernel, t, cfg)))
        for t in (0.0, 0.25, 0.5, 0.75, 0.95)
    )
    if not mismatch <= 1e-9:  # NaN fails too
        raise SourceValidationError(
            f"closed-form source for theta={theta} is off by {mismatch:.3e} "
            "against the quadrature oracle"
        )
    return ProblemDefinition(
        theta=theta, kernel=_unit_kernel, source=source, exact=exact,
        source_w=g_w, exact_w=u_w, label="example1",
    )


def case_i(theta: float, gamma1: float, gamma2: float) -> ProblemDefinition:
    """Two-power terminal-singular solution (1-t)^{g1} + (1-t)^{g2} with a
    beta-function closed-form source."""
    if not (gamma1 > 0.0 and gamma2 > 0.0):
        raise ValueError("both exponents must be positive")
    b1 = beta(1.0 - theta, gamma1 + 1.0)
    b2 = beta(1.0 - theta, gamma2 + 1.0)

    def u_w(w):
        w = np.asarray(w, dtype=float)
        out = w**gamma1 + w**gamma2
        return out[()] if out.ndim == 0 else out

    def exact(t):
        return u_w(1.0 - np.asarray(t, dtype=float))

    def g_w(w):
        w = np.asarray(w, dtype=float)
        out = (
            w**gamma1 - b1 * w ** (1.0 - theta + gamma1)
            + w**gamma2 - b2 * w ** (1.0 - theta + gamma2)
        )
        return out[()] if out.ndim == 0 else out

    def source(t):
        return g_w(1.0 - np.asarray(t, dtype=float))

    return ProblemDefinition(
        theta=theta, kernel=_unit_kernel, source=source, exact=exact,
        source_w=g_w, exact_w=u_w, label="case1",
    )


def case_ii(theta: float, gamma1: float, gamma2: float,
            cfg: OracleConfig = OracleConfig()) -> ProblemDefinition:
    """Terminal-singular solution sin((1-t)^{g1} + (1-t)^{g2}); no closed-form
    source, so g comes from the oracle with memoized, doubling-checked values."""
    if not (gamma1 > 0.0 and gamma2 > 0.0):
        raise ValueError("both exponents must be positive")

    def u_w(w):
        w = np.asarray(w, dtype=float)
        out = np.sin(w**gamma1 + w**gamma2)
        return out[()] if out.ndim == 0 else out

    def exact(t):
        return u_w(1.0 - np.asarray(t, dtype=float))

    memo = _MemoizedOracleSource(theta, u_w, cfg)
    return ProblemDefinition(
        theta=theta, kernel=_unit_kernel, source=memo, exact=exact,
        source_w=memo.value_w, exact_w=u_w, label="case2",
    )


def regularity_index(gamma1: float, gamma2: float) -> float:
    """Effective singular exponent governing the convergence rate: infinite
    when both exponents are positive integers, otherwise the smallest
    non-integer exponent."""
    if not (gamma1 > 0.0 and gamma2 > 0.0):
        raise ValueError("both exponents must be positive")

    def is_nat(g: float) -> bool:
        return abs(g - round(g)) < 1e-12

    n1, n2 = is_nat(gamma1), is_nat(gamma2)
    if n1 and n2:
        return math.inf
    if n2:
        return gamma1
    if n1:
        return gamma2
    return min(gamma1, gamma2)
