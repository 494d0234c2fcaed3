"""The benchmark's four workloads.

Each workload draws its inputs from the run's seed (`prepare`), runs one unit
of user work per `op`, and checks that op's output in `check`, which raises
`GateError` on a miss. The seed changes the problem parameters, the
expression coefficients and the selftest seed, within ranges where the gates
hold, but never N or the grid size, so the cost of an op does not depend on
the seed. fbjacobi receives only the generated inputs.
"""

import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
EVAL_POINTS = 2001

# example1 configurations (theta, rho) whose convergence curves at the seed
# commit are stored in converge_reference.json (see make_reference.py).
CONVERGE_CONFIGS = (
    (0.5, 0.5), (0.4, 0.6), (0.6, 0.4), (0.5, 0.25),
    (1.0 / 3.0, 2.0 / 3.0), (0.5, 1.0 / 3.0), (0.3, 0.5),
)
CONVERGE_NS = tuple(range(16, 129, 16))
# An N's linf error passes when it lies within this factor of the stored
# curve, widened by an absolute slack for points at the rounding floor.
CONVERGE_FACTOR = 10.0
CONVERGE_SLACK = 1e-13
LARGE_N = 384
LARGE_N_TOL = 1e-10
CUSTOM_N = 128
CUSTOM_TOL = 1e-9
SELFTEST_SEEDS = 256  # every selftest seed below this passes at the seed commit


class GateError(Exception):
    """An op's output failed its correctness check."""


def reference_key(theta: float, rho: float) -> str:
    return f"theta={theta!r},rho={rho!r}"


def converge_argv(theta: float, rho: float, out) -> list:
    return [
        "converge", "--problem", "example1", "--theta", repr(theta), "--rho", repr(rho),
        "--mu", "-0.25", "--upsilon", "-0.25",
        "--n-min", str(CONVERGE_NS[0]), "--n-max", str(CONVERGE_NS[-1]),
        "--n-step", str(CONVERGE_NS[1] - CONVERGE_NS[0]),
        "--eval-points", str(EVAL_POINTS), "--out", str(out),
    ]


def read_csv(data: bytes, header: str, rows: int) -> list:
    lines = data.decode("ascii").splitlines()
    if not lines or lines[0] != header:
        raise GateError(f"CSV header {lines[:1]!r}, expected {header!r}")
    if len(lines) - 1 != rows:
        raise GateError(f"CSV has {len(lines) - 1} rows, expected {rows}")
    return [line.split(",") for line in lines[1:]]


def finite(text: str, what: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise GateError(f"{what} is {value}")
    return value


def beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def quiet_main(fb, argv):
    """fbjacobi.cli.main with its stdout captured; returns (exit code, text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fb.cli.main(argv)
    return code, out.getvalue()


class Workload:
    """One workload; `tail_percentile` is the percentile reported as op_tail_s."""

    name = ""
    tail_percentile = 100

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.inputs = {}

    def prepare(self, fb) -> None:
        raise NotImplementedError

    def op(self, fb):
        raise NotImplementedError

    def check(self, output) -> dict:
        raise NotImplementedError


class Converge(Workload):
    """The README `fbjacobi converge` command on example1, N = 16..128."""

    name = "converge"
    tail_percentile = 60

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.first_csv = None

    def prepare(self, fb):
        rng = random.Random(self.seed)
        theta, rho = CONVERGE_CONFIGS[rng.randrange(len(CONVERGE_CONFIGS))]
        with open(HERE / "converge_reference.json") as fh:
            self.reference = json.load(fh)[reference_key(theta, rho)]
        self.path = self.workdir / f"converge-{self.seed}.csv"
        self.argv = converge_argv(theta, rho, self.path)
        self.inputs = {"theta": theta, "rho": rho, "mu": -0.25, "upsilon": -0.25,
                       "n": list(CONVERGE_NS), "eval_points": EVAL_POINTS}

    def op(self, fb):
        return quiet_main(fb, self.argv)[0]

    def check(self, code):
        if code != 0:
            raise GateError(f"exit code {code}")
        data = self.path.read_bytes()
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            raise GateError("CSV differs from the first op's CSV")
        rows = read_csv(data, "N,linf_error,l2w_error,cond,assembly_ms,solve_ms",
                        len(CONVERGE_NS))
        for row, n, ref in zip(rows, CONVERGE_NS, self.reference):
            if int(row[0]) != n:
                raise GateError(f"row for N={row[0]}, expected N={n}")
            linf = finite(row[1], f"linf at N={n}")
            finite(row[2], f"l2w at N={n}")
            cond = finite(row[3], f"cond at N={n}")
            low = ref / CONVERGE_FACTOR - CONVERGE_SLACK
            high = ref * CONVERGE_FACTOR + CONVERGE_SLACK
            if not low <= linf <= high:
                raise GateError(f"linf {linf:.3e} at N={n} outside [{low:.3e}, {high:.3e}]")
        return {"linf": linf, "cond": cond, "csv_bytes": len(data)}


class LargeN(Workload):
    """One library solve of case1 at N = 384, then evaluation on the grid."""

    name = "large-n"
    tail_percentile = 75

    def prepare(self, fb):
        rng = random.Random(self.seed)
        theta = rng.uniform(0.3, 0.6)
        rho = rng.uniform(0.4, 0.6)
        gamma1 = rng.uniform(1.2, 1.6)
        gamma2 = rng.uniform(1.7, 2.2)
        self.rho = rho
        self.problem = fb.case_i(theta, gamma1, gamma2)
        self.spec = fb.BackwardSpec(fb.JacobiParams(-0.5, -0.5), rho)
        self.ts = fb.eval_grid(rho, EVAL_POINTS)
        w = 1.0 - self.ts
        self.exact = w**gamma1 + w**gamma2
        self.inputs = {"theta": theta, "rho": rho, "gamma1": gamma1, "gamma2": gamma2,
                       "mu": -0.5, "upsilon": -0.5, "n": LARGE_N, "eval_points": EVAL_POINTS}

    def op(self, fb):
        sol = fb.solve(self.problem, self.spec, LARGE_N)
        values = sol.interpolant(self.ts)
        linf = fb.linf_error(self.problem.exact, sol.interpolant, EVAL_POINTS, rho=self.rho)
        return sol.diagnostics, values, linf

    def check(self, output):
        diag, values, linf = output
        finite(diag.condition, "cond")
        if not finite(diag.residual, "residual") <= LARGE_N_TOL:
            raise GateError(f"residual {diag.residual:.3e} above {LARGE_N_TOL:.0e}")
        own = float(np.max(np.abs(values - self.exact)))
        for what, err in (("linf_error", linf), ("grid error", own)):
            if not err <= LARGE_N_TOL:
                raise GateError(f"{what} {err:.3e} above {LARGE_N_TOL:.0e}")
        return {"linf": linf, "cond": diag.condition}


class CustomExpr(Workload):
    """`fbjacobi solve --problem custom` at N = 128 with a manufactured
    solution (1-t)^g, kernel exp(a t)(b + p) and the closed-form source

        g(t) = (1-t)^g - exp(a t) (1-t)^(1-theta+g)
               * ((b + t) B(1-theta, g+1) + (1-t) B(2-theta, g+1)).
    """

    name = "custom-expr"
    tail_percentile = 90

    def prepare(self, fb):
        rng = random.Random(self.seed)
        theta = rng.uniform(0.3, 0.5)
        rho = rng.uniform(0.4, 0.6)
        gamma = rng.uniform(1.5, 2.5)
        a = rng.uniform(-1.0, 0.5)
        b = rng.uniform(0.5, 1.0)
        b1, b2 = beta(1.0 - theta, gamma + 1.0), beta(2.0 - theta, gamma + 1.0)
        self.gamma = gamma
        self.path = self.workdir / f"custom-{self.seed}.csv"
        self.inputs = {
            "theta": theta, "rho": rho, "mu": -0.5, "upsilon": -0.5, "n": CUSTOM_N,
            "kernel_expr": f"math.exp({a!r}*t)*({b!r}+p)",
            "source_expr": (f"(1-t)**{gamma!r}-math.exp({a!r}*t)*(1-t)**{1.0 - theta + gamma!r}"
                            f"*(({b!r}+t)*{b1!r}+(1-t)*{b2!r})"),
            "exact_expr": f"(1-t)**{gamma!r}",
        }
        self.argv = [
            "solve", "--problem", "custom", "--theta", repr(theta), "--rho", repr(rho),
            "--mu", "-0.5", "--upsilon", "-0.5", "--n", str(CUSTOM_N),
            "--kernel-expr", self.inputs["kernel_expr"],
            "--source-expr", self.inputs["source_expr"],
            "--exact-expr", self.inputs["exact_expr"],
            "--eval-points", str(EVAL_POINTS), "--out", str(self.path),
        ]

    def op(self, fb):
        return quiet_main(fb, self.argv)[0]

    def check(self, code):
        if code != 0:
            raise GateError(f"exit code {code}")
        data = self.path.read_bytes()
        worst = 0.0
        for row in read_csv(data, "t,u_num,u_exact,abs_error", EVAL_POINTS):
            t = finite(row[0], "t")
            finite(row[1], f"u_num at t={t!r}")
            expected = (1 - t) ** self.gamma
            if abs(finite(row[2], "u_exact") - expected) > 1e-14:
                raise GateError(f"u_exact {row[2]} at t={t!r}, expected {expected!r}")
            worst = max(worst, finite(row[3], f"abs_error at t={t!r}"))
        if not worst <= CUSTOM_TOL:
            raise GateError(f"max abs_error {worst:.3e} above {CUSTOM_TOL:.0e}")
        return {"linf": worst, "cond": None, "csv_bytes": len(data)}


class Selftest(Workload):
    """`fbjacobi selftest --quick` with a seeded selftest seed."""

    name = "selftest"
    tail_percentile = 60

    def prepare(self, fb):
        selftest_seed = random.Random(self.seed).randrange(SELFTEST_SEEDS)
        self.argv = ["selftest", "--quick", "--seed", str(selftest_seed)]
        self.inputs = {"selftest_seed": selftest_seed}

    def op(self, fb):
        return quiet_main(fb, self.argv)

    def check(self, output):
        code, text = output
        lines = text.splitlines()
        passed = sum(line.startswith("[PASS]") for line in lines)
        if (code != 0 or passed < 10 or len(lines) != passed + 1
                or lines[-1] != f"all {passed} checks passed"):
            failing = [line for line in lines if not line.startswith("[PASS]")]
            raise GateError(f"exit code {code}, {passed} checks passed; {failing}")
        return {}


WORKLOADS = {w.name: w for w in (Converge, LargeN, CustomExpr, Selftest)}
