"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.

Criterion 6 asserts error decay bounds that sit below the double-precision
floor of this problem family in two places: the theta=2/3 runs are limited by
the genuine conditioning of the continuous equation (resolvent norm near
E_{1/3}(Gamma(1/3)) ~ 1e9, so errors floor near cond * machine-eps ~ 1e-7),
and the (theta, rho) = (1/2, 1/2) run converges to the 1e-14 rounding floor
by N = 12, after which a further hundredfold decrease is not representable.
Those sub-checks fail honestly rather than being loosened; the mechanism is
verified in the assertion message data (the condition estimates saturate with
N, which rules out a scheme instability).
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from fbjacobi.approximation import (
    Expansion,
    eval_expansion,
    lebesgue_constant,
    linf_error,
    weighted_l2_error,
)
from fbjacobi.backward_basis import (
    BackwardSpec,
    deriv_factor,
    fb_deriv_eval,
    fb_eval,
    map_inverse,
    sturm_liouville_apply,
)
from fbjacobi.jacobi_core import JacobiParams, gauss_rule, jacobi_eval, jacobi_norm
from fbjacobi.problems import OracleConfig, case_i, case_ii, example1, oracle_kr
from fbjacobi.special_functions import beta
from fbjacobi.volterra_solver import solve

SQRT2, SQRT3 = math.sqrt(2.0), math.sqrt(3.0)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_orthogonality_suite():
    start = time.perf_counter()
    worst_off = 0.0
    worst_diag = 0.0
    n = 12
    for mu, up in ((-0.25, -0.25), (-0.5, -0.5), (0.0, 0.0)):
        for rho in (1.0, 0.5, 1.0 / 3.0):
            spec = BackwardSpec(JacobiParams(mu, up), rho)
            rule = gauss_rule(spec.params, n + 2)
            x = 2.0 * rule.nodes - 1.0
            basis = np.vstack([jacobi_eval(spec.params, r, x) for r in range(n + 1)])
            gram = basis @ (rule.weights[:, None] * basis.T)
            for r in range(n + 1):
                for s in range(n + 1):
                    if r == s:
                        ref = jacobi_norm(spec.params, r)
                        worst_diag = max(worst_diag, abs(gram[r, s] - ref) / ref)
                    else:
                        worst_off = max(worst_off, abs(gram[r, s]))
    elapsed = time.perf_counter() - start
    ok = worst_off <= 1e-11 and worst_diag <= 1e-11 and elapsed < 1.0
    report("1 orthogonality", ok,
           f"off-diag {worst_off:.2e}, diag rel {worst_diag:.2e}, {elapsed:.2f}s")
    assert worst_off <= 1e-11
    assert worst_diag <= 1e-11
    assert elapsed < 1.0


def test_02_quadrature_exactness():
    start = time.perf_counter()
    worst = 0.0
    for mu, up in ((-0.25, -0.25), (-0.5, -0.5), (0.0, 0.0), (0.3, -0.2),
                   (1.0, -0.5), (5.0, -2.0 / 3.0)):
        params = JacobiParams(mu, up)
        for m in range(1, 41):
            rule = gauss_rule(params, m)
            powers = np.vander(rule.nodes, 2 * m, increasing=True).T
            vals = powers @ rule.weights
            for k in range(2 * m):
                ref = beta(up + k + 1.0, mu + 1.0)
                worst = max(worst, abs(float(vals[k]) - ref) / ref)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed < 5.0
    report("2 quadrature exactness", ok, f"worst rel {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-11
    assert elapsed < 5.0


def test_03_derivative_and_eigenstructure():
    rng = np.random.default_rng(0)
    h = 1e-6
    worst_fd = 0.0
    worst_sl = 0.0
    for mu, up, rho in ((-0.25, -0.25, 0.5), (-0.5, -0.5, 1.0), (0.0, 0.0, 1.0 / 3.0)):
        spec = BackwardSpec(JacobiParams(mu, up), rho)
        for r in range(1, 9):
            for z in rng.uniform(0.05, 0.95, 20):
                fd = (
                    fb_eval(spec, r, map_inverse(spec, z + h))
                    - fb_eval(spec, r, map_inverse(spec, z - h))
                ) / (2.0 * h)
                exact = fb_deriv_eval(spec, r, 1, map_inverse(spec, z))
                worst_fd = max(worst_fd, abs(fd - exact) / max(1.0, abs(exact)))
            sigma = r * (r + mu + up + 1.0)
            for t in np.linspace(0.05, 0.93, 10):
                lhs = sturm_liouville_apply(spec, r, float(t))
                rhs = sigma * fb_eval(spec, r, float(t))
                worst_sl = max(worst_sl, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    ok = worst_fd <= 1e-6 and worst_sl <= 1e-8
    report("3 derivative/eigenstructure", ok,
           f"FD {worst_fd:.2e} vs 1e-6, SL rel {worst_sl:.2e} vs 1e-8")
    assert worst_fd <= 1e-6
    assert worst_sl <= 1e-8


def test_04_inverse_inequality():
    rng = np.random.default_rng(1)
    worst = 0.0
    for mu, up, rho in ((-0.25, -0.25, 0.5), (-0.5, -0.5, 1.0)):
        spec = BackwardSpec(JacobiParams(mu, up), rho)
        for n in (4, 8, 16):
            sigma = n * (n + mu + up + 1.0)
            rule_num = gauss_rule(spec.params.shifted(1), 4 * n)
            rule_den = gauss_rule(spec.params, 4 * n)
            t_num = map_inverse(spec, rule_num.nodes)
            t_den = map_inverse(spec, rule_den.nodes)
            for _ in range(20):
                coeffs = rng.standard_normal(n + 1)
                phi = Expansion(spec, coeffs)
                dphi = Expansion(
                    spec.shifted(1),
                    [coeffs[r] * deriv_factor(spec, r, 1) for r in range(1, n + 1)],
                )
                num = math.sqrt(float(np.dot(rule_num.weights,
                                             eval_expansion(dphi, t_num) ** 2)))
                den = math.sqrt(float(np.dot(rule_den.weights,
                                             eval_expansion(phi, t_den) ** 2)))
                worst = max(worst, num / (math.sqrt(sigma) * den))
    ok = worst <= 1.0 + 1e-8
    report("4 inverse inequality", ok, f"worst ratio {worst:.12f} vs 1+1e-8")
    assert worst <= 1.0 + 1e-8


def test_05_exact_recovery():
    start = time.perf_counter()
    worst = 0.0
    spec = BackwardSpec(JacobiParams(-0.25, -0.25), 1.0)
    for theta in (0.3, 0.5, 0.7):
        for n in (6, 10, 14):
            prob = case_i(theta, 2.0, 5.0)
            sol = solve(prob, spec, n)
            worst = max(worst, float(np.max(np.abs(sol.values - prob.exact(sol.nodes_t)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    report("5 exact recovery", ok, f"worst nodal {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_06_example1_exponential_convergence():
    start = time.perf_counter()
    configs = ((0.5, 0.5), (0.5, 0.25), (2.0 / 3.0, 1.0 / 3.0), (2.0 / 3.0, 1.0 / 6.0))
    ns = list(range(4, 33, 4))
    failures = []
    for theta, rho in configs:
        prob = example1(theta)
        spec = BackwardSpec(JacobiParams(-0.25, -0.25), rho)
        errors = {}
        conds = {}
        for n in ns:
            sol = solve(prob, spec, n)
            errors[n] = linf_error(prob.exact, sol.interpolant, 2001, rho=rho)
            conds[n] = sol.diagnostics.condition
        slope = float(np.polyfit(ns, np.log([errors[n] for n in ns]), 1)[0])
        gate24 = errors[24] <= 1e-6
        ratio = errors[32] <= errors[16] / 100.0
        label = f"6 example1 theta={theta:.3g} rho={rho:.3g}"
        detail = (
            "errors "
            + " ".join(f"{errors[n]:.1e}" for n in ns)
            + f"; ln-slope {slope:.3f} vs -0.5; e(24) {errors[24]:.2e} vs 1e-6; "
            + f"e(32) {errors[32]:.2e} vs e(16)/100 {errors[16] / 100:.2e}; "
            + f"cond(16..32) {conds[16]:.1e}->{conds[32]:.1e}"
        )
        ok = slope <= -0.5 and gate24 and ratio
        report(label, ok, detail)
        if slope > -0.5:
            failures.append(f"{label}: slope {slope:.3f} > -0.5")
        if not gate24:
            failures.append(f"{label}: error(24) {errors[24]:.2e} > 1e-6")
        if not ratio:
            failures.append(
                f"{label}: error(32) {errors[32]:.2e} > error(16)/100 "
                f"{errors[16] / 100:.2e} [double-precision floor: "
                f"cond saturates at {conds[32]:.1e}, floor ~ cond*eps]"
            )
    elapsed = time.perf_counter() - start
    report("6 runtime", elapsed < 30.0, f"{elapsed:.1f}s vs 30s")
    assert elapsed < 30.0
    assert not failures, "; ".join(failures)


def test_07_example2_rate_ordering():
    start = time.perf_counter()
    ns = list(range(8, 65, 8))
    log_ns = np.log(ns)
    failures = []
    for maker, label in ((case_i, "case i"), (case_ii, "case ii")):
        prob = maker(0.5, SQRT2, SQRT3)
        slopes = {}
        for rho in (1.0, 0.5):
            spec = BackwardSpec(JacobiParams(-0.5, -0.5), rho)
            l2_spec = BackwardSpec(JacobiParams(0.0, 0.0), rho)
            linf, l2w = [], []
            for n in ns:
                sol = solve(prob, spec, n)
                linf.append(linf_error(prob.exact, sol.interpolant, 2001, rho=rho))
                l2w.append(weighted_l2_error(l2_spec, prob.exact, sol.interpolant,
                                             max(4 * (n + 1), 128)))
            slopes[rho] = (
                float(np.polyfit(log_ns, np.log(linf), 1)[0]),
                float(np.polyfit(log_ns, np.log(l2w), 1)[0]),
            )
        diff_inf = slopes[0.5][0] - slopes[1.0][0]
        diff_l2 = slopes[0.5][1] - slopes[1.0][1]
        ok = diff_inf <= -1.0 and diff_l2 <= -1.0
        report(f"7 rate ordering {label}", ok,
               f"slope diff linf {diff_inf:.2f}, l2 {diff_l2:.2f} (need <= -1.0)")
        if not ok:
            failures.append(label)
    elapsed = time.perf_counter() - start
    report("7 runtime", elapsed < 120.0, f"{elapsed:.1f}s vs 120s")
    assert elapsed < 120.0
    assert not failures


def test_08_source_integrity():
    worst_probe = 0.0
    problems = [
        example1(0.5),
        example1(2.0 / 3.0),
        case_i(0.5, SQRT2, SQRT3),
        case_ii(0.5, SQRT2, SQRT3),
    ]
    probes = np.array([0.0, 0.25, 0.5, 0.75, 0.95])
    for prob in problems:
        ref = prob.exact(probes) - oracle_kr(prob.exact, prob.theta, prob.kernel, probes)
        got = np.array([prob.source_at(t, 1.0 - t) for t in probes])
        worst_probe = max(worst_probe, float(np.max(np.abs(got - ref))))
    worst_double = 0.0
    cfg = OracleConfig()
    ts = np.array([0.0, 0.5, 0.9])
    for prob in problems:
        a = oracle_kr(prob.exact, prob.theta, prob.kernel, ts, cfg, verify=False)
        b = oracle_kr(prob.exact, prob.theta, prob.kernel, ts, cfg.doubled(), verify=False)
        worst_double = max(worst_double, float(np.max(np.abs(a - b))))
    ok = worst_probe <= 1e-9 and worst_double <= 1e-11
    report("8 source integrity", ok,
           f"probe {worst_probe:.2e} vs 1e-9, doubling {worst_double:.2e} vs 1e-11")
    assert worst_probe <= 1e-9
    assert worst_double <= 1e-11


def test_09_lebesgue_diagnostic():
    ns = [4, 8, 16, 32, 64]
    worst_c = 0.0
    worst_r2 = 1.0
    for rho in (1.0, 0.5):
        spec = BackwardSpec(JacobiParams(-0.5, -0.5), rho)
        lams = np.array([lebesgue_constant(spec, n, 2001) for n in ns])
        design = np.vstack([np.ones(len(ns)), np.log(ns)]).T
        coef, *_ = np.linalg.lstsq(design, lams, rcond=None)
        fit = design @ coef
        r2 = 1.0 - np.sum((lams - fit) ** 2) / np.sum((lams - lams.mean()) ** 2)
        worst_c = max(worst_c, float(coef[1]))
        worst_r2 = min(worst_r2, float(r2))
    ok = worst_c < 3.0 and worst_r2 > 0.9
    report("9 lebesgue diagnostic", ok, f"c {worst_c:.3f} vs 3, R2 {worst_r2:.4f} vs 0.9")
    assert worst_c < 3.0
    assert worst_r2 > 0.9


def test_10_cli_reproducibility(tmp_path):
    args = [
        sys.executable, "-m", "fbjacobi.cli", "converge",
        "--problem", "case1", "--theta", "0.5", "--rho", "0.5",
        "--n-min", "4", "--n-max", "16", "--n-step", "4",
        "--eval-points", "201",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = subprocess.run(args + ["--out", str(out1)], capture_output=True)
    r2 = subprocess.run(args + ["--out", str(out2)], capture_output=True)
    identical = (r1.returncode == 0 and r2.returncode == 0
                 and out1.read_bytes() == out2.read_bytes())
    start = time.perf_counter()
    st = subprocess.run([sys.executable, "-m", "fbjacobi.cli", "selftest"],
                        capture_output=True)
    elapsed = time.perf_counter() - start
    ok = identical and st.returncode == 0 and elapsed < 180.0
    report("10 cli reproducibility", ok,
           f"byte-identical {identical}, selftest exit {st.returncode}, {elapsed:.1f}s")
    assert identical
    assert st.returncode == 0
    assert elapsed < 180.0
