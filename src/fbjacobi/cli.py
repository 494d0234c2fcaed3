"""Command-line front end: solve one problem instance, sweep N for a
convergence report (CSV, optional SVG), or run the invariant selftest.

Exit codes: 0 success, 1 selftest failure, 2 usage error, 3 numerical
failure. A usage error is anything found before numerical work starts: flags,
unwritable output paths, custom expressions; any other failure is numerical.
Only `main` maps exceptions to exit codes. CSV numbers use the shortest
round-trip decimal form, so identical flags give byte-identical files.
"""

import argparse
import ast
import math
import os
import queue
import sys
import threading
import types

import numpy as np

from . import volterra_solver
from .approximation import (MAX_CARDINAL_ENTRIES, MAX_N, _sample, _weighted_l2_error,
                            eval_grid, linf_error)
from .backward_basis import BackwardSpec
from .jacobi_core import JacobiParams, gauss_rule
from .problems import case_i, case_ii, example1, regularity_index
from .volterra_solver import (ProblemDefinition, _Assembly, _require_finite, _solve_assembly,
                              solve)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# The custom expression grammar besides names, math.<attr>, numbers and calls.
_GRAMMAR = (ast.Expression, ast.Load, ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare,
            ast.IfExp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
            ast.UAdd, ast.USub, ast.Not, ast.And, ast.Or,
            ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)
# Constructs kept scalar: their numpy bools are not Python's 0 and 1 (numpy
# bools add as logical `or`, and np.exp(True) is float16).
_SCALAR_ONLY = (ast.Compare, ast.BoolOp, ast.IfExp, ast.Not)
# math functions and the numpy ufunc of the same meaning, within one ulp of
# math on float64 (sinh, tanh, asinh, acosh, atanh, log10 and cbrt are not).
_UFUNCS = {"exp": np.exp, "expm1": np.expm1, "exp2": np.exp2, "log": np.log,
           "log1p": np.log1p, "log2": np.log2, "sqrt": np.sqrt, "sin": np.sin,
           "cos": np.cos, "tan": np.tan, "asin": np.arcsin, "acos": np.arccos,
           "atan": np.arctan, "atan2": np.arctan2, "cosh": np.cosh, "hypot": np.hypot,
           "fabs": np.fabs, "copysign": np.copysign, "fmod": np.fmod,
           "degrees": np.degrees, "radians": np.radians}
# The array form's `math`: math's public attributes, with the `_UFUNCS` in place.
_ARRAY_MATH = types.SimpleNamespace(
    **({name: v for name, v in vars(math).items() if not name.startswith("_")} | _UFUNCS))


class UsageError(Exception):
    """Bad command-line input, found before any numerical work."""


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _check_writable(paths) -> None:
    """Refuse two output paths (None: no file) that name the same file, then
    open each for writing, so that an unwritable one raises OSError before
    numerical work. An existing file is opened for appending and left as it
    was; a new one is removed again."""
    paths = [p for p in paths if p is not None]
    _require(len({os.path.realpath(p) for p in paths}) == len(paths),
             f"the output paths {' and '.join(paths)} name the same file")
    for path in paths:
        try:
            with open(path, "x"):
                pass
            os.remove(path)
        except FileExistsError:
            with open(path, "a"):
                pass


def _csv(header: str, columns) -> str:
    """CSV text of `header` and the rows of `columns`, equal-length lists of
    Python ints and floats. A cell is the value's repr, the shortest
    round-trip decimal form; None is an empty cell."""
    cells = [["" if x is None else repr(x) for x in col] for col in columns]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def _describe(exc: BaseException) -> str:
    """`Type: message` of exc, then `; caused by Type: message` for each
    exception in its `__cause__` chain."""
    parts = []
    while exc is not None:
        parts.append(f"{type(exc).__name__}: {exc}")
        exc = exc.__cause__
    return "; caused by ".join(parts)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise UsageError(message)


def _check_expr(node, names) -> bool:
    """Raise UsageError unless `node` lies in the custom expression grammar:
    the given names, public math attributes and positional calls to them,
    int/float constants, arithmetic, comparisons, and/or/not and if-else.
    Return whether it has an array form: each math call has a ufunc in
    `_UFUNCS` that takes as many arguments, nothing is `_SCALAR_ONLY`, and no
    dividend of /, // or % holds an `_untrapped_inf`."""
    if isinstance(node, ast.Attribute):  # math.<public name>, checked whole
        ok = (isinstance(node.value, ast.Name) and node.value.id == "math"
              and not node.attr.startswith("_") and hasattr(math, node.attr))
    elif isinstance(node, ast.Name):
        ok = node.id in names
    elif isinstance(node, ast.Constant):
        ok = type(node.value) in (int, float)
    elif isinstance(node, ast.Call):  # positional calls of math functions
        ok = (isinstance(node.func, ast.Attribute) and not node.keywords
              and callable(getattr(math, node.func.attr, None)))
    else:
        ok = isinstance(node, _GRAMMAR)
    if not ok:
        raise UsageError(f"{ast.unparse(node)!r} is not allowed in a custom expression "
                         f"(names {', '.join(names)}, math.*, numbers and operators)")
    if isinstance(node, ast.Attribute):
        return True
    array = not isinstance(node, _SCALAR_ONLY)
    if isinstance(node, ast.Call):
        array = getattr(_UFUNCS.get(node.func.attr), "nin", None) == len(node.args)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod)):
        # numpy sets no flag for an inf or NaN over 0, where Python raises
        array = not any(_untrapped_inf(n, names) for n in ast.walk(node.left))
    return all([array] + [_check_expr(child, names) for child in ast.iter_child_nodes(node)])


def _untrapped_inf(node, names) -> bool:
    """Whether `node` may be an inf or NaN that no numpy trap saw: math.inf,
    math.nan, a literal such as 1e309, or Python arithmetic on constants
    alone (1e308 * 10)."""
    if isinstance(node, ast.BinOp):
        return not any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(node))
    return ((isinstance(node, ast.Constant) and node.value == math.inf)  # 1e309
            or (isinstance(node, ast.Attribute) and node.attr in ("inf", "nan")))


def _expr_function(expr: str, names):
    """Compile a custom expression in `names` to a function of them; raises
    UsageError if it does not parse, leaves the grammar or is nested too
    deeply for the recursion of parsing, checking or compiling. The tree is
    compiled once, as a lambda bound to `math`, and, if it has an array form,
    bound again to `_ARRAY_MATH`, where numpy traps each step at which Python
    raises on finite values (1/0, log(0), exp(1000)) with FloatingPointError.
    Array arguments run the array form; otherwise each argument goes through
    float(), which refuses an array, to the scalar form. Values are returned
    unconverted: on a trap, or any other exception, or a complex or non-finite
    result, `_sample` evaluates the scalar form point by point and makes each
    value a float, so any error is the scalar form's or `_sample`'s own."""
    try:
        tree = ast.parse(expr, "<expr>", "eval")
        has_array_form = _check_expr(tree, names)
        params = ast.arguments(posonlyargs=[], args=[ast.arg(n) for n in names],
                               kwonlyargs=[], kw_defaults=[], defaults=[])
        lam = ast.fix_missing_locations(ast.Expression(ast.Lambda(params, tree.body)))
        code = compile(lam, "<expr>", "eval")
    except SyntaxError as exc:
        raise UsageError(f"invalid expression {expr!r}: {exc.msg}") from exc
    except RecursionError as exc:  # parse, check and compile all recurse on the tree
        raise UsageError(f"invalid expression of {len(expr)} characters: "
                         "nested too deeply") from exc
    scalar = eval(code, {"__builtins__": {}, "math": math})
    array_f = has_array_form and eval(code, {"__builtins__": {}, "math": _ARRAY_MATH})

    def func(*a):
        if not array_f or not any(np.ndim(x) for x in a):
            return scalar(*map(float, a))
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return array_f(*(np.asarray(x, dtype=float) for x in a))

    return func


def _setup(args, n_max: int, outputs):
    """Check the shared flags, the `outputs` paths and the expressions
    (UsageError, OSError), then build the problem: (problem, spec). `n_max` is
    the largest degree to be solved."""
    _require(0.0 < args.theta < 1.0,
             f"--theta must lie in the open interval (0,1), got {args.theta}")
    _require(0.0 < args.rho <= 1.0, f"--rho must lie in (0,1], got {args.rho}")
    _require(-1.0 < args.mu < math.inf and -1.0 < args.upsilon < math.inf,
             f"--mu and --upsilon must be finite and > -1, got ({args.mu}, {args.upsilon})")
    builtin_gammas = args.problem in ("case1", "case2")
    _require(not builtin_gammas or (0.0 < args.gamma1 < math.inf and 0.0 < args.gamma2 < math.inf),
             f"--gamma1/--gamma2 must be positive and finite, got ({args.gamma1}, {args.gamma2})")
    _require(args.eval_points >= 2, f"--eval-points must be >= 2, got {args.eval_points}")
    _require(args.eval_points * (n_max + 1) <= MAX_CARDINAL_ENTRIES,
             f"--eval-points {args.eval_points} at N={n_max} exceeds {MAX_CARDINAL_ENTRIES} "
             f"entries of the {args.eval_points}x{n_max + 1} evaluation matrix")
    _check_writable(outputs)
    spec = BackwardSpec(JacobiParams(args.mu, args.upsilon), args.rho)
    if args.problem == "example1":
        return example1(args.theta), spec
    if args.problem == "case1":
        return case_i(args.theta, args.gamma1, args.gamma2), spec
    if args.problem == "case2":
        return case_ii(args.theta, args.gamma1, args.gamma2), spec
    _require(args.kernel_expr is not None and args.source_expr is not None,
             "--problem custom requires --kernel-expr and --source-expr")
    kernel = _expr_function(args.kernel_expr, ("t", "p"))
    source = _expr_function(args.source_expr, ("t",))
    exact = None if args.exact_expr is None else _expr_function(args.exact_expr, ("t",))
    problem = ProblemDefinition(theta=args.theta, kernel=kernel, source=source, exact=exact)
    return problem, spec


def _warn_near_singular(n: int, diag) -> None:
    """A `warning:` line on stderr when the diagnostics say `near_singular`."""
    if diag.near_singular:
        print(f"warning: N={n}: collocation system is nearly singular "
              f"(cond ~ {diag.condition:.3e})", file=sys.stderr)


def cmd_solve(args) -> int:
    _require(0 <= args.n <= MAX_N, f"--n must lie in [0, {MAX_N}], got {args.n}")
    problem, spec = _setup(args, args.n, [args.out])
    sol = solve(problem, spec, args.n)
    _warn_near_singular(args.n, sol.diagnostics)
    ts = eval_grid(args.rho, args.eval_points)
    u_num = sol.interpolant(ts)
    exact_cols = [[None] * len(ts)] * 2  # empty cells without an exact solution
    if problem.exact is not None:
        u_ex = _sample(problem.exact, ts)
        _require_finite("exact solution", u_ex)
        exact_cols = [u_ex.tolist(), np.abs(u_num - u_ex).tolist()]
    _write_text(args.out, _csv("t,u_num,u_exact,abs_error",
                               [ts.tolist(), u_num.tolist(), *exact_cols]))
    return EXIT_OK


def _prepare(problem, spec, l2_spec, n: int):
    """Everything degree n reads of the problem and every Gauss rule it
    needs: (its `_Assembly`, its l2w rule of max(4(N+1), 128) points), with
    the exception that failed a part in its place. A failed assembly builds
    no rule."""
    try:
        ctx = _Assembly(problem, spec, n)
    except Exception as exc:
        return exc, None
    try:
        return ctx, gauss_rule(l2_spec.params, max(4 * (n + 1), 128))
    except Exception as exc:
        return ctx, exc


def _measure(problem, l2_spec, args, ctx, rule):
    """(diagnostics, outcome) of a prepared degree: the solve's diagnostics,
    None if it failed, and its (linf, l2w) errors, or the exception that
    failed the degree, in the order `solve` and the error norms would raise.
    Reads the exact solution but not the kernel or the source, and builds no
    rule."""
    diag = None
    try:
        if isinstance(ctx, Exception):
            raise ctx
        sol = _solve_assembly(ctx)
        diag = sol.diagnostics
        e_inf = linf_error(problem.exact, sol.interpolant, args.eval_points, rho=args.rho)
        if isinstance(rule, Exception):
            raise rule
        e_l2w = _weighted_l2_error(l2_spec, rule, problem.exact, sol.interpolant)
        if not (math.isfinite(e_inf) and math.isfinite(e_l2w)):
            raise ValueError(f"non-finite error norms (linf {e_inf}, l2w {e_l2w})")
    except Exception as exc:
        return diag, exc
    return diag, (e_inf, e_l2w)


def _sweep(problem, spec, l2_spec, args, ns) -> list:
    """`_measure`'s (diagnostics, outcome) of each degree of ns, in the order
    of ns.

    The calling thread prepares the degrees from the largest down. With
    `volterra_solver._two_threads()` and two or more degrees, it hands the
    largest through a one-slot queue to one worker thread, measures the next
    itself, and so on alternately; else it measures each one in turn. The
    calling thread, which also prepares, thus measures the smaller half: a
    warm bench sweep (N = 16..128) took 0.86 of its one-thread time, against
    0.93 with the calling thread measuring the largest. The problem is read
    and every rule built on the calling thread: with both threads building
    rules, the eigh workspaces in the worker's malloc arena raised a
    converge op's peak RSS from 50.7 to 59.0 MiB. Each degree's numbers do
    not depend on the thread that computed them. The worker is joined before
    this returns, also when the calling thread raises, and an exception that
    escaped a worker's degree is raised here.
    """
    results, errors, worker = [None] * len(ns), [], None
    if len(ns) > 1 and volterra_solver._two_threads():
        jobs = queue.Queue(maxsize=1)

        def work():
            while (job := jobs.get()) is not None:
                if not errors:
                    try:
                        results[job[0]] = _measure(problem, l2_spec, args, *job[1:])
                    except BaseException as exc:  # re-raised on the calling thread
                        errors.append(exc)

        worker = threading.Thread(target=work)
        worker.start()
    try:
        for k, i in enumerate(reversed(range(len(ns)))):
            ctx, rule = _prepare(problem, spec, l2_spec, ns[i])
            if worker is not None and k % 2 == 0:
                jobs.put((i, ctx, rule))
            else:
                results[i] = _measure(problem, l2_spec, args, ctx, rule)
    finally:
        if worker is not None:
            jobs.put(None)
            worker.join()
    if errors:
        raise errors[0]
    return results


def cmd_converge(args) -> int:
    _require(0 <= args.n_min <= args.n_max <= MAX_N,
             f"need 0 <= --n-min <= --n-max <= {MAX_N}, got {args.n_min} and {args.n_max}")
    _require(args.n_step >= 1, f"--n-step must be >= 1, got {args.n_step}")
    l2_mu, l2_up = args.mu, args.upsilon
    if args.l2_weight is not None:
        try:
            l2_mu, l2_up = (float(p) for p in args.l2_weight.split(","))
        except ValueError:
            raise UsageError(f"--l2-weight expects 'mu,upsilon', got {args.l2_weight!r}") from None
        _require(-1.0 < l2_mu < math.inf and -1.0 < l2_up < math.inf,
                 f"--l2-weight exponents must be finite and > -1, got ({l2_mu}, {l2_up})")
    _require(args.problem != "custom" or args.exact_expr is not None,
             "converge needs a problem with a known exact solution")
    problem, spec = _setup(args, args.n_max, [args.out, args.svg])
    l2_spec = BackwardSpec(JacobiParams(l2_mu, l2_up), args.rho)
    if args.problem in ("case1", "case2"):
        # the singular endpoint t = 1 is z = 1, where (1-z)^mu z^upsilon has the exponent mu
        gamma = regularity_index(args.gamma1, args.gamma2)
        rate = 2.0 * gamma / args.rho
        print(f"info: singular exponent {gamma:g}; predicted rates: linf 2*gamma/rho = {rate:g},",
              f"l2w 2*gamma/rho+mu+1 = {rate + l2_mu + 1.0:g} (mu of the l2 weight)",
              file=sys.stderr)

    ns = list(range(args.n_min, args.n_max + 1, args.n_step))
    # None (an empty cell) for a failed degree, and for the ms unless --timings
    linf, l2w, cond, assembly_ms, solve_ms = columns = [[None] * len(ns) for _ in range(5)]
    for i, (n, (diag, outcome)) in enumerate(zip(ns, _sweep(problem, spec, l2_spec, args, ns))):
        if diag is not None:
            _warn_near_singular(n, diag)
        if isinstance(outcome, Exception):
            print(f"warning: N={n} failed: {_describe(outcome)}", file=sys.stderr)
            continue
        (linf[i], l2w[i]), cond[i] = outcome, diag.condition
        if args.timings:
            assembly_ms[i], solve_ms[i] = diag.assembly_seconds * 1e3, diag.solve_seconds * 1e3
    _write_text(args.out, _csv("N,linf_error,l2w_error,cond,assembly_ms,solve_ms",
                               [ns, *columns]))
    if args.svg is not None:
        from .svgplot import render_semilog
        title = (f"{args.problem}: theta={args.theta:g}, rho={args.rho:g}, "
                 f"mu={args.mu:g}, upsilon={args.upsilon:g}")
        try:
            _write_text(args.svg, render_semilog(ns, [("linf", linf), ("l2w", l2w)], title))
        except ValueError as exc:
            print(f"warning: no SVG written: {exc}", file=sys.stderr)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selfcheck import run_all  # the battery, and numpy.random, load only here
    _require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
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
    parser.add_argument("--kernel-expr", help="custom kernel K(t,p) in t, p, math.*")
    parser.add_argument("--source-expr", help="custom source g(t) in t, math.*")
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
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:  # OSError: an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # anything once numerical work has started
        print(f"error: numerical failure: {_describe(exc)}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
