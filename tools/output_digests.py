"""Digests of a fixed corpus of CLI outputs, for byte-identity checks.

Runs `fbjacobi.cli.main` in-process, each invocation in a fresh temporary
directory, over 40 entries: the README `solve` and `converge` commands, the
benchmark's converge configurations and custom-expression seeds 0-5 (argv
read from `bench/workloads.py`), `custom-piecewise` (a `solve` whose kernel,
source and exact solution are scalar-only expressions, read point by point),
case2 `solve` and `converge --svg`, a case1 `solve` at N = 384 (the
benchmark's large-n size), `near-singular-solve` and `near-singular-converge`
(example1 at theta = 0.7, rho = 0.3; N = 48 and N = 40, 48; cond exceeds 1e12
and stderr carries a `warning:` line per degree), `case1-converge-nested`
(N = 256, 264: with two threads each sweep thread's solve shares its rows
with a worker of its own), `selftest --quick` at seeds 0-3 and the full
selftest. Then it runs the first benchmark converge
configuration and `selftest --quick --seed 0` twice more and digests the
second run, under the same name plus `-warm`: in a tree that stores its
Gauss rules, that run reads every rule from the store, so equal digests for
an entry and its `-warm` twin, and for `-warm` entries of two checkouts, show
that stored rules change no output. Last come eleven custom-problem runs
whose kernel, source or exact solution fails or is not finite: the ten
`fail-*` runs (nine exit 3; `fail-converge-rows` writes its failed rows and
exits 0) and `nan-exact-converge` (exits 0 with two empty rows), so the
failure paths are byte-checked too. `fail-kernel-middle` and
`fail-kernel-complex` pass the kernel probes and fail at node 6 of 16, one by
raising, one with a complex value. For each it prints

    name sha256[:16]

of the exit code, stdout, stderr and every file written. Run it on two
checkouts and diff the outputs:

    python tools/output_digests.py               # fbjacobi from this checkout
    python tools/output_digests.py OTHER_CHECKOUT  # fbjacobi from OTHER_CHECKOUT/src

It writes nothing outside its temporary directories.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def corpus(workloads):
    """(name, argv) pairs; output paths are relative to the working directory."""
    runs = [
        ("readme-solve", ["solve", "--problem", "example1", "--theta", "0.5", "--rho", "0.5",
                          "--mu", "-0.25", "--upsilon", "-0.25", "--n", "20",
                          "--out", "sol.csv"]),
        ("readme-converge", ["converge", "--problem", "case1",
                             "--gamma1", "1.4142135623730951", "--gamma2", "1.7320508075688772",
                             "--theta", "0.5", "--rho", "0.5", "--mu", "-0.5", "--upsilon", "-0.5",
                             "--l2-weight=0,0", "--n-min", "8", "--n-max", "64", "--n-step", "8",
                             "--out", "rates.csv", "--svg", "rates.svg"]),
    ]
    for theta, rho in workloads.CONVERGE_CONFIGS:
        runs.append((f"bench-converge-{theta:.4g}-{rho:.4g}",
                     workloads.converge_argv(theta, rho, "converge.csv")))
    for seed in range(6):
        custom = workloads.CustomExpr(seed, Path("."))
        custom.prepare(None)
        runs.append((f"custom-expr-{seed}", custom.argv))
    runs.append(("custom-piecewise", [
        "solve", "--problem", "custom", "--n", "32", "--eval-points", "101",
        "--kernel-expr", "math.exp(t - p) if p < 0.9 else 1.0 + t * p",
        "--source-expr", "1.0 if t < 0.5 else math.cos(t)",
        "--exact-expr", "1.0 if t < 0.5 else math.cos(t)", "--out", "sol.csv"]))
    runs += [
        ("case2-solve", ["solve", "--problem", "case2", "--n", "16", "--out", "case2.csv"]),
        ("case2-converge", ["converge", "--problem", "case2", "--n-min", "4", "--n-max", "16",
                            "--n-step", "4", "--out", "case2.csv", "--svg", "case2.svg"]),
        ("case1-solve-384", ["solve", "--problem", "case1", "--n", "384", "--out", "case1.csv"]),
        ("near-singular-solve", ["solve", "--problem", "example1", "--theta", "0.7",
                                 "--rho", "0.3", "--n", "48", "--eval-points", "11",
                                 "--out", "s.csv"]),
        ("near-singular-converge", ["converge", "--problem", "example1", "--theta", "0.7",
                                    "--rho", "0.3", "--n-min", "40", "--n-max", "48",
                                    "--n-step", "8", "--eval-points", "11", "--out", "c.csv"]),
        ("case1-converge-nested", ["converge", "--problem", "case1", "--n-min", "256",
                                   "--n-max", "264", "--n-step", "8", "--eval-points", "101",
                                   "--out", "c.csv"]),
    ]
    runs += [(f"selftest-quick-{seed}", ["selftest", "--quick", "--seed", str(seed)])
             for seed in range(4)]
    runs.append(("selftest-full", ["selftest"]))
    cold = dict(runs)
    theta, rho = workloads.CONVERGE_CONFIGS[0]
    runs += [(name + "-warm", cold[name])
             for name in (f"bench-converge-{theta:.4g}-{rho:.4g}", "selftest-quick-0")]
    custom_flags = ["--problem", "custom", "--eval-points", "11"]
    runs += [(name, [command, *custom_flags, *args]) for name, command, args in (
        ("fail-kernel-grid", "solve",
         ["--n", "16", "--kernel-expr", "math.sqrt(0.97-p) if 0.95<p<0.99 else 1.0",
          "--source-expr", "1.0"]),
        ("fail-source-sqrt", "solve",
         ["--n", "8", "--kernel-expr", "1.0", "--source-expr", "math.sqrt(t-0.5)"]),
        ("fail-source-inf", "solve",
         ["--n", "8", "--kernel-expr", "1.0", "--source-expr", "1 / (math.inf / (t - t))"]),
        ("fail-converge-rows", "converge",
         ["--n-min", "4", "--n-max", "8", "--kernel-expr", "1.0",
          "--source-expr", "math.log(0.3-t) if t<0.6 else 1.0", "--exact-expr", "1.0"]),
        ("fail-matrix-nan", "solve",
         ["--n", "8", "--kernel-expr", "math.nan if 0.9<p<0.95 else 1.0",
          "--source-expr", "1.0"]),
        ("fail-kernel-probe", "solve",
         ["--n", "8", "--kernel-expr", "math.log(t-0.5)", "--source-expr", "1.0"]),
        ("fail-exact-hidden-zero", "solve",
         ["--n", "8", "--kernel-expr", "1.0", "--source-expr", "1.0",
          "--exact-expr", "math.exp(-1/(1-t))"]),
        ("fail-kernel-inf-probe", "solve",
         ["--n", "8", "--kernel-expr", "math.inf if p == 1 else 1.0", "--source-expr", "1.0"]),
        ("fail-kernel-middle", "solve",
         ["--n", "16", "--kernel-expr", "math.log(-1) if 0.45 < t < 0.6 and p < 0.7 else 1.0",
          "--source-expr", "1.0"]),
        ("fail-kernel-complex", "solve",
         ["--n", "16", "--kernel-expr", "(0.5 - t) ** 0.5 if 0.45 < t < 0.6 else 1.0",
          "--source-expr", "1.0"]),
        ("nan-exact-converge", "converge",
         ["--n-min", "4", "--n-max", "8", "--kernel-expr", "1.0", "--source-expr", "1.0",
          "--exact-expr", "math.nan"]),
    )]
    return runs


def digest(main, argv) -> str:
    """sha256[:16] of main(argv)'s exit code, stdout, stderr and written files,
    run in a fresh temporary directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            h = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
            for name in sorted(os.listdir(tmp)):
                h.update(name.encode() + b"\0" + Path(tmp, name).read_bytes() + b"\0")
        finally:
            os.chdir(cwd)
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    checkout = Path(argv[0]).resolve() if argv else ROOT
    sys.path[:0] = [str(checkout / "src"), str(ROOT / "bench")]
    import workloads
    from fbjacobi import cli

    for name, run_argv in corpus(workloads):
        if name.endswith("-warm"):
            digest(cli.main, run_argv)  # builds every rule the digested run reads
        print(name, digest(cli.main, run_argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
