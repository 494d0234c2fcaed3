"""Command-line front end: solve one problem instance, sweep N for a
convergence report (CSV, optional SVG), or run the invariant selftest.

Exit codes: 0 success, 1 selftest failure, 2 usage error, 3 numerical
failure. CSV numbers use the shortest round-trip decimal form, so identical
flags produce byte-identical files.
"""

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .approximation import _sample, eval_grid, linf_error, weighted_l2_error
from .backward_basis import BackwardSpec
from .jacobi_core import JacobiParams
from .problems import case_i, case_ii, example1, regularity_index
from .selfcheck import run_all
from .svgplot import render_semilog
from .volterra_solver import ProblemDefinition, solve

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class ConvergenceReport:
    """One N-sweep: problem label, solver parameters, and per-degree rows of
    (N, linf_error, l2w_error, cond, assembly_ms, solve_ms); error fields are
    None for degrees where the solve failed."""

    label: str
    theta: float
    rho: float
    mu: float
    upsilon: float
    rows: tuple

    def __post_init__(self):
        ns = [row[0] for row in self.rows]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("rows must be ordered by strictly increasing N")
        for row in self.rows:
            for value in row[1:3]:
                if value is not None and not (value >= 0.0 and math.isfinite(value)):
                    raise ValueError(f"error fields must be nonnegative finite: {row}")

    def to_csv(self, timings: bool = False) -> str:
        lines = ["N,linf_error,l2w_error,cond,assembly_ms,solve_ms"]
        for n, linf, l2w, cond, a_ms, s_ms in self.rows:
            if not timings:
                a_ms, s_ms = None, None
            lines.append(
                f"{n},{_num(linf)},{_num(l2w)},{_num(cond)},{_num(a_ms)},{_num(s_ms)}"
            )
        return "\n".join(lines) + "\n"


def _num(x) -> str:
    """Shortest round-trip decimal representation (at most 17 significant
    digits); empty string for missing values."""
    return "" if x is None else repr(float(x))


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _expr_function(expr: str, names):
    code = compile(expr, "<expr>", "eval")

    def func(*args):
        scope = {"math": math}
        scope.update(zip(names, (float(a) for a in args)))
        return float(eval(code, {"__builtins__": {}}, scope))

    return func


def _validate_common(args):
    if not (0.0 < args.theta < 1.0):
        return f"--theta must lie in the open interval (0,1), got {args.theta}"
    if not (0.0 < args.rho <= 1.0):
        return f"--rho must lie in (0,1], got {args.rho}"
    if not (args.mu > -1.0 and args.upsilon > -1.0):
        return f"--mu and --upsilon must be > -1, got ({args.mu}, {args.upsilon})"
    if args.problem in ("case1", "case2") and not (args.gamma1 > 0.0 and args.gamma2 > 0.0):
        return f"--gamma1/--gamma2 must be positive, got ({args.gamma1}, {args.gamma2})"
    if args.eval_points < 2:
        return f"--eval-points must be >= 2, got {args.eval_points}"
    return None


def _build_problem(args):
    if args.problem == "example1":
        return example1(args.theta)
    if args.problem == "case1":
        return case_i(args.theta, args.gamma1, args.gamma2)
    if args.problem == "case2":
        return case_ii(args.theta, args.gamma1, args.gamma2)
    if args.kernel_expr is None or args.source_expr is None:
        raise ValueError(
            "--problem custom requires --kernel-expr and --source-expr"
        )
    return ProblemDefinition(
        theta=args.theta,
        kernel=_expr_function(args.kernel_expr, ("t", "p")),
        source=_expr_function(args.source_expr, ("t",)),
        exact=(None if args.exact_expr is None
               else _expr_function(args.exact_expr, ("t",))),
        label="custom",
    )


def cmd_solve(args) -> int:
    problem_error = _validate_common(args)
    if problem_error:
        return _fail_usage(problem_error)
    if args.n < 0:
        return _fail_usage(f"--n must be >= 0, got {args.n}")
    try:
        problem = _build_problem(args)
    except ValueError as exc:
        return _fail_usage(str(exc))
    except Exception as exc:  # oracle/source construction failures
        print(f"error: problem construction failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    spec = BackwardSpec(JacobiParams(args.mu, args.upsilon), args.rho)
    try:
        sol = solve(problem, spec, args.n)
        ts = eval_grid(args.rho, args.eval_points)
        u_num = np.atleast_1d(sol.interpolant(ts))
    except Exception as exc:
        print(f"error: solver failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    lines = ["t,u_num,u_exact,abs_error"]
    if problem.exact is not None:
        u_ex = _sample(problem.exact, ts)
        for t, un, ue in zip(ts, u_num, u_ex):
            lines.append(f"{_num(t)},{_num(un)},{_num(ue)},{_num(abs(un - ue))}")
    else:
        for t, un in zip(ts, u_num):
            lines.append(f"{_num(t)},{_num(un)},,")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_converge(args) -> int:
    problem_error = _validate_common(args)
    if problem_error:
        return _fail_usage(problem_error)
    if args.n_min > args.n_max:
        return _fail_usage(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    if args.n_step < 1:
        return _fail_usage(f"--n-step must be >= 1, got {args.n_step}")
    if args.l2_weight is not None:
        try:
            l2_mu, l2_up = (float(p) for p in args.l2_weight.split(","))
        except ValueError:
            return _fail_usage(
                f"--l2-weight expects 'mu,upsilon', got {args.l2_weight!r}"
            )
    else:
        l2_mu, l2_up = args.mu, args.upsilon
    if not (l2_mu > -1.0 and l2_up > -1.0):
        return _fail_usage(f"--l2-weight exponents must be > -1, got ({l2_mu}, {l2_up})")
    try:
        problem = _build_problem(args)
    except ValueError as exc:
        return _fail_usage(str(exc))
    except Exception as exc:  # oracle/source construction failures
        print(f"error: problem construction failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if problem.exact is None:
        return _fail_usage("converge needs a problem with a known exact solution")
    spec = BackwardSpec(JacobiParams(args.mu, args.upsilon), args.rho)
    l2_spec = BackwardSpec(JacobiParams(l2_mu, l2_up), args.rho)
    if args.problem in ("case1", "case2"):
        gamma = regularity_index(args.gamma1, args.gamma2)
        index = 2.0 * gamma / args.rho + args.upsilon + 1.0
        print(
            f"info: singular exponent {gamma:g}; transformed regularity index "
            f"2*gamma/rho+upsilon+1 = {index:g} (expected algebraic rate driver)",
            file=sys.stderr,
        )

    ns = list(range(args.n_min, args.n_max + 1, args.n_step))
    rows = []
    for n in ns:
        try:
            sol = solve(problem, spec, n)
            linf = linf_error(problem.exact, sol.interpolant, args.eval_points, rho=args.rho)
            l2w = weighted_l2_error(
                l2_spec, problem.exact, sol.interpolant, max(4 * (n + 1), 128)
            )
            if not (math.isfinite(linf) and math.isfinite(l2w)):
                raise ValueError(f"non-finite error norms (linf {linf}, l2w {l2w})")
            diag = sol.diagnostics
            rows.append(
                (n, linf, l2w, diag.condition,
                 diag.assembly_seconds * 1e3, diag.solve_seconds * 1e3)
            )
        except Exception as exc:
            print(f"warning: N={n} failed: {exc}", file=sys.stderr)
            rows.append((n, None, None, None, None, None))
    report = ConvergenceReport(problem.label, args.theta, args.rho,
                               args.mu, args.upsilon, tuple(rows))
    _write_text(args.out, report.to_csv(timings=args.timings))
    if args.svg is not None:
        series = [
            ("linf", [r[1] for r in report.rows]),
            ("l2w", [r[2] for r in report.rows]),
        ]
        title = (f"{problem.label}: theta={args.theta:g}, rho={args.rho:g}, "
                 f"mu={args.mu:g}, upsilon={args.upsilon:g}")
        try:
            _write_text(args.svg, render_semilog(ns, series, title))
        except ValueError as exc:
            print(f"warning: no SVG written: {exc}", file=sys.stderr)
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = run_all(seed=args.seed, quick=args.quick)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed")
        return EXIT_SELFTEST
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def _add_problem_flags(parser):
    parser.add_argument("--problem", choices=("example1", "case1", "case2", "custom"),
                        default="example1")
    parser.add_argument("--theta", type=float, default=0.5)
    parser.add_argument("--rho", type=float, default=0.5)
    parser.add_argument("--mu", type=float, default=-0.25)
    parser.add_argument("--upsilon", type=float, default=-0.25)
    parser.add_argument("--gamma1", type=float, default=math.sqrt(2.0))
    parser.add_argument("--gamma2", type=float, default=math.sqrt(3.0))
    parser.add_argument("--kernel-expr", help="custom kernel K(t,p) as a Python expression")
    parser.add_argument("--source-expr", help="custom source g(t) as a Python expression")
    parser.add_argument("--exact-expr", help="custom exact solution u(t), optional")
    parser.add_argument("--eval-points", type=int, default=2001)
    parser.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbjacobi",
        description="Backward Jacobi spectral collocation for weakly singular "
                    "adjoint Volterra integral equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance and dump the solution grid")
    _add_problem_flags(p_solve)
    p_solve.add_argument("--n", type=int, default=20)
    p_solve.set_defaults(func=cmd_solve)

    p_conv = sub.add_parser("converge", help="sweep N and report error norms")
    _add_problem_flags(p_conv)
    p_conv.add_argument("--n-min", type=int, default=4)
    p_conv.add_argument("--n-max", type=int, default=32)
    p_conv.add_argument("--n-step", type=int, default=4)
    p_conv.add_argument("--l2-weight", help="mu,upsilon for the L2 error weight "
                        "(default: the solver weight); use --l2-weight=-0.25,-0.25 form")
    p_conv.add_argument("--svg", help="also write a semilog SVG plot to this path")
    p_conv.add_argument("--timings", action="store_true",
                        help="fill the ms columns (breaks byte-stability of the CSV)")
    p_conv.set_defaults(func=cmd_converge)

    p_self = sub.add_parser("selftest", help="run the invariant suite")
    p_self.add_argument("--quick", action="store_true", help="skip the N=64 Lebesgue sweep")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
