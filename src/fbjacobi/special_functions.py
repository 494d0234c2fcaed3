"""Special functions: Beta (Jacobi norms, selftest references, case1's
source), Bessel J of fractional order (example1's source) and Mittag-Leffler
(the resolvent's growth; no caller in the package yet).

Gamma ratios are taken in log space with ``math.lgamma``, so ratios of large
gamma values never overflow; series are truncated by a relative-term
criterion so accuracy is uniform over the admissible parameter ranges.
"""

import math

import numpy as np

# Term caps of the two series; the relative-term stop criterion normally
# ends them sooner.
_BESSEL_MAX_TERMS = 200
_MITTAG_LEFFLER_MAX_TERMS = 500


def beta(a: float, b: float) -> float:
    """Euler beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b); raises
    ValueError for an argument that is not positive or is infinite."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta requires positive arguments, got ({a}, {b})")
    if max(a, b) == math.inf:
        raise ValueError(f"beta requires finite arguments, got ({a}, {b})")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def bessel_j(nu: float, x):
    """Bessel function of the first kind J_nu(x), nu > -1, x >= 0; x may be
    a scalar (a numpy float64 is returned) or an array (an array of its shape).

    Ascending series (x/2)^nu * sum_i (-(x/2)^2)^i / (i! Gamma(nu+i+1)). Each
    element stops once its next term falls below 1e-16 of its partial sum.
    Intended for the small-argument range x <= O(10).
    """
    if not nu > -1.0:
        raise ValueError(f"bessel_j requires nu > -1, got {nu}")
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0.0):
        raise ValueError(f"bessel_j requires x >= 0, got {x}")
    # At x = 0 the series is its leading term: 1 for nu = 0, else (x/2)^nu.
    at_zero = 1.0 if nu == 0.0 else (0.0 if nu > 0.0 else math.inf)
    live = np.flatnonzero(x)  # the flat indices still summing
    half = 0.5 * x.ravel()[live]
    lg = math.lgamma(nu + 1.0)  # math's exp and log: numpy's can be ulps away
    term = np.array([math.exp(nu * math.log(h) - lg) for h in half.tolist()])
    total = np.full(x.size, at_zero)
    total[live] = term
    msq = -half * half
    for i in range(1, _BESSEL_MAX_TERMS):
        if not live.size:
            break
        term *= msq / (i * (nu + i))
        total[live] += term
        going = ~(np.abs(term) < 1e-16 * np.abs(total[live]))
        live, term, msq = live[going], term[going], msq[going]
    return total.reshape(x.shape)[()]


def mittag_leffler(sigma: float, z: float) -> float:
    """One-parameter Mittag-Leffler function E_sigma(z) = sum z^n / Gamma(sigma n + 1).

    Terms are built by a multiplicative recurrence (each step multiplies by
    z times a nearby gamma ratio) and summed exactly over the computed terms.
    For z < 0 the terms alternate and grow to about e^|z| before they shrink,
    so their rounding swamps a small sum: raises ValueError when the largest
    term exceeds 1e4 times the sum's magnitude (over four digits cancelled).
    Raises OverflowError when a term or the sum leaves the representable
    range, or when the series has not converged within 500 terms (large z),
    so a truncated partial sum is never returned. Raises ValueError for a
    sigma or z that is NaN or infinite, before any term is built.
    """
    if not sigma > 0.0:
        raise ValueError(f"mittag_leffler requires sigma > 0, got {sigma}")
    for name, x in (("sigma", sigma), ("z", z)):
        if not math.isfinite(x):
            raise ValueError(f"mittag_leffler requires a finite {name}, got {x}")
    if z == 0.0:
        return 1.0
    int_sigma = int(round(sigma)) if sigma == round(sigma) and sigma <= 64 else 0
    terms = [1.0]
    term = 1.0
    running = 1.0
    prev_lg = 0.0  # lgamma(1)
    for n in range(1, _MITTAG_LEFFLER_MAX_TERMS):
        if int_sigma:
            # Gamma ratio of consecutive terms is an exact integer product
            divisor = 1
            for j in range(int_sigma * (n - 1) + 1, int_sigma * n + 1):
                divisor *= j
            term *= z / divisor
        else:
            lg = math.lgamma(sigma * n + 1.0)
            term *= z * math.exp(prev_lg - lg)
            prev_lg = lg
        if math.isinf(term):
            raise OverflowError(
                f"mittag_leffler({sigma}, {z}) exceeds double-precision range"
            )
        terms.append(term)
        running += term
        if abs(term) < 1e-16 * abs(running):
            total = math.fsum(terms)  # raises OverflowError if the sum overflows
            if max(map(abs, terms)) > 1e4 * abs(total):
                raise ValueError(f"mittag_leffler({sigma}, {z}) cancels more than four digits")
            return total
    raise OverflowError(
        f"mittag_leffler({sigma}, {z}) has not converged in "
        f"{_MITTAG_LEFFLER_MAX_TERMS} terms"
    )
