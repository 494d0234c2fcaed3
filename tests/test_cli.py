import argparse
import dataclasses
import importlib
import inspect
import math
import operator
import os
import pathlib
import re
import shlex
import subprocess
import sys
import threading
import time
import types
import warnings
import xml.etree.ElementTree as ET
import xml.sax.saxutils

import numpy as np
import pytest

from fbjacobi import approximation, cli, jacobi_core, selfcheck, svgplot, volterra_solver
from fbjacobi.approximation import _real, _sample
from fbjacobi.cli import _csv, _expr_function, main
from fbjacobi.selfcheck import run_all
from fbjacobi.svgplot import render_semilog


def run(args):
    return main(args)


def no_solve(*args):
    raise AssertionError("solve called")


class TestSolveCommand:
    def test_reference_invocation(self, tmp_path, capsys):
        out = tmp_path / "sol.csv"
        code = run([
            "solve", "--problem", "example1", "--theta", "0.5", "--rho", "0.5",
            "--mu", "-0.25", "--upsilon", "-0.25", "--n", "20",
            "--eval-points", "41", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,u_num,u_exact,abs_error"
        assert len(lines) == 42
        for line in lines[1:]:
            t, un, ue, err = line.split(",")
            assert float(err) >= 0.0

    def test_unwritable_out_refused_before_solving(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "solve", no_solve)
        out = tmp_path / "missing" / "x.csv"
        assert run(["solve", "--n", "600", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    def test_failed_run_leaves_out_as_it_was(self, tmp_path, capsys):
        # the output check neither truncates an existing file nor leaves a new one
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("kept\n")
        for out in (old, new):
            assert run(CUSTOM + ["--kernel-expr", NAN_KERNEL, "--source-expr", "1.0",
                                 "--out", str(out)]) == 3
        assert "non-finite matrix" in capsys.readouterr().err
        assert old.read_text() == "kept\n" and not new.exists()

    def test_theta_validation(self, capsys):
        assert run(["solve", "--theta", "1.5"]) == 2
        assert "(0,1)" in capsys.readouterr().err

    def test_rho_validation(self, capsys):
        assert run(["solve", "--rho", "0"]) == 2
        assert "(0,1]" in capsys.readouterr().err

    def test_case1_with_reference_exponents(self, tmp_path):
        out = tmp_path / "sol.csv"
        code = run([
            "solve", "--problem", "case1",
            "--gamma1", "1.4142135623730951", "--gamma2", "1.7320508075688772",
            "--theta", "0.5", "--rho", "0.5", "--n", "8",
            "--eval-points", "17", "--out", str(out),
        ])
        assert code == 0
        assert len(out.read_text().splitlines()) == 18

    def test_case2_without_out_writes_stdout(self, capsys):
        assert run(["solve", "--problem", "case2", "--n", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,u_num,u_exact,abs_error"
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert rows.shape == (2001, 4) and np.isfinite(rows).all()
        assert rows[:, 3].max() < 1e-3  # 3.4e-4 at N = 8

    def test_custom_problem_without_exact(self, tmp_path):
        out = tmp_path / "sol.csv"
        code = run([
            "solve", "--problem", "custom",
            "--kernel-expr", "1.0", "--source-expr", "t*t",
            "--theta", "0.4", "--rho", "1.0", "--n", "6",
            "--eval-points", "9", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].endswith(",,")

    def test_custom_requires_expressions(self, capsys):
        assert run(["solve", "--problem", "custom"]) == 2

    def test_failing_exact_expression_is_numerical_error(self, tmp_path, capsys):
        code = run([
            "solve", "--problem", "custom",
            "--kernel-expr", "1.0", "--source-expr", "1.0",
            "--exact-expr", "math.log(t-0.5)", "--n", "8",
            "--out", str(tmp_path / "sol.csv"),
        ])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_expression_syntax_error_is_usage_error(self, capsys):
        code = run([
            "solve", "--problem", "custom",
            "--kernel-expr", "t +", "--source-expr", "1.0", "--n", "8",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    # 2000 terms overflow the recursion of the grammar check, 5000 that of
    # ast.parse; a usage error either way, while 100 terms solve
    @pytest.mark.parametrize("terms, code", [(100, 0), (2000, 2), (5000, 2)])
    def test_deeply_nested_expression_is_usage_error(self, terms, code, tmp_path, capsys):
        out = tmp_path / "sol.csv"
        assert run([
            "solve", "--problem", "custom", "--kernel-expr", "+".join(["t"] * terms),
            "--source-expr", "1.0", "--n", "8", "--out", str(out),
        ]) == code
        err = capsys.readouterr().err
        if code:
            assert err == (f"error: invalid expression of {2 * terms - 1} characters: "
                           "nested too deeply\n")
            assert not out.exists()
        else:
            assert err == "" and len(out.read_text().splitlines()) > 1


class TestConvergeCommand:
    def test_csv_contract_and_byte_stability(self, tmp_path):
        args = [
            "converge", "--problem", "case1", "--theta", "0.5", "--rho", "0.5",
            "--n-min", "4", "--n-max", "12", "--n-step", "4",
            "--l2-weight=0,0", "--eval-points", "201",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        data1, data2 = out1.read_bytes(), out2.read_bytes()
        assert data1 == data2
        lines = data1.decode().splitlines()
        assert lines[0] == "N,linf_error,l2w_error,cond,assembly_ms,solve_ms"
        assert len(lines) == 4
        ns = [int(line.split(",")[0]) for line in lines[1:]]
        assert ns == [4, 8, 12]
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[1]) > 0 and float(fields[2]) > 0
            assert fields[4] == "" and fields[5] == ""

    def test_timings_flag_fills_columns(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run([
            "converge", "--problem", "case1", "--n-min", "4", "--n-max", "4",
            "--n-step", "1", "--eval-points", "51", "--timings", "--out", str(out),
        ])
        assert code == 0
        fields = out.read_text().splitlines()[1].split(",")
        assert float(fields[4]) > 0.0 and float(fields[5]) >= 0.0

    def test_svg_output(self, tmp_path):
        out = tmp_path / "r.csv"
        svg = tmp_path / "r.svg"
        code = run([
            "converge", "--problem", "case1", "--n-min", "4", "--n-max", "12",
            "--n-step", "4", "--eval-points", "101",
            "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        tree = ET.parse(svg)
        text = svg.read_text()
        assert "http://www.w3.org/2000/svg" in tree.getroot().tag
        assert "href" not in text and "url(" not in text

    @pytest.mark.parametrize("l2_weight, l2w_rate",
                             [([], "6.5"), (["--l2-weight=0.25,0"], "6.25")])
    def test_info_line_predicts_each_column_from_its_weight(self, l2_weight, l2w_rate,
                                                            tmp_path, capsys):
        # mu != upsilon: the singular endpoint t = 1 is z = 1, where the l2
        # weight's exponent is its mu; the solver's upsilon plays no part
        code = run(["converge", "--problem", "case1", "--gamma1", "1.25", "--gamma2", "2.5",
                    "--rho", "0.5", "--mu", "0.5", "--upsilon", "-0.5", *l2_weight,
                    "--n-min", "4", "--n-max", "4", "--eval-points", "11",
                    "--out", str(tmp_path / "r.csv")])
        assert code == 0
        assert capsys.readouterr().err == (
            "info: singular exponent 1.25; predicted rates: linf 2*gamma/rho = 5, "
            f"l2w 2*gamma/rho+mu+1 = {l2w_rate} (mu of the l2 weight)\n")

    def test_unwritable_svg_refused_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "solve", no_solve)
        monkeypatch.setattr(cli, "_Assembly", no_solve)
        out, svg = tmp_path / "b.csv", tmp_path / "missing" / "b.svg"
        assert run(["converge", "--n-min", "16", "--n-max", "128", "--n-step", "16",
                    "--out", str(out), "--svg", str(svg)]) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{svg}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("svg", ["r.out", "./r.out"])
    def test_one_file_for_both_outputs_is_refused(self, svg, tmp_path, monkeypatch, capsys):
        # else the SVG would overwrite the CSV; refused before the problem is built
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "example1", no_solve)
        assert run(["converge", "--n-min", "4", "--n-max", "8",
                    "--out", "r.out", "--svg", svg]) == 2
        assert capsys.readouterr().err == (
            f"error: the output paths r.out and {svg} name the same file\n")
        assert not (tmp_path / "r.out").exists()

    def test_range_validation(self, capsys):
        assert run(["converge", "--n-min", "10", "--n-max", "5"]) == 2
        assert run(["converge", "--n-step", "0"]) == 2

    def test_failed_rows_are_empty_and_sweep_continues(self, tmp_path, capsys):
        out = tmp_path / "f.csv"
        code = run([
            "converge", "--problem", "custom",
            "--kernel-expr", "1.0", "--source-expr", "1.0/(t-t)",
            "--exact-expr", "1.0",
            "--theta", "0.5", "--rho", "1.0",
            "--n-min", "4", "--n-max", "8", "--n-step", "4",
            "--eval-points", "21", "--out", str(out),
        ])
        assert code == 0
        assert "warning" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            assert line.split(",")[1] == ""

    def test_non_finite_errors_fail_the_row(self, tmp_path, capsys):
        out = tmp_path / "n.csv"
        code = run([
            "converge", "--problem", "custom",
            "--kernel-expr", "math.nan if 0.9<p<0.95 else 1.0",
            "--source-expr", "1.0", "--exact-expr", "1.0",
            "--n-min", "4", "--n-max", "8", "--n-step", "4",
            "--eval-points", "11", "--out", str(out),
        ])
        assert code == 0
        assert "non-finite" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[1:] == ["4,,,,,", "8,,,,,"]

    def test_all_rows_failed_writes_no_svg(self, tmp_path, capsys):
        out, svg = tmp_path / "n.csv", tmp_path / "n.svg"
        code = run([
            "converge", "--problem", "custom",
            "--kernel-expr", NAN_KERNEL, "--source-expr", "1.0", "--exact-expr", "1.0",
            "--n-min", "4", "--n-max", "8", "--n-step", "4",
            "--eval-points", "11", "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        assert "warning: no SVG written" in capsys.readouterr().err
        assert not svg.exists()

    def test_infinite_exact_fails_the_row(self, tmp_path, capsys):
        # a finite solve against an exact solution that is inf in float
        # arithmetic (no numpy overflow warning on the way)
        out = tmp_path / "i.csv"
        code = run([
            "converge", "--problem", "custom",
            "--kernel-expr", "1.0", "--source-expr", "1.0", "--exact-expr", "1e308*10",
            "--n-min", "4", "--n-max", "8", "--n-step", "4",
            "--eval-points", "11", "--out", str(out),
        ])
        assert code == 0
        assert "non-finite error norms" in capsys.readouterr().err
        assert out.read_text().splitlines()[1:] == ["4,,,,,", "8,,,,,"]

    def test_converge_requires_exact(self, capsys):
        code = run([
            "converge", "--problem", "custom",
            "--kernel-expr", "1.0", "--source-expr", "t",
        ])
        assert code == 2

    def test_nearly_singular_rows_are_kept_with_a_warning_line(self, tmp_path, capsys):
        # cond ~ 6.5e13 and 1.7e16; the library issues no warning (an error
        # under this suite's warning filter), and the CLI prints one line per
        # degree from the solve's diagnostics
        out = tmp_path / "s.csv"
        code = run([
            "converge", "--problem", "example1", "--theta", "0.7", "--rho", "0.3",
            "--n-min", "40", "--n-max", "48", "--n-step", "8", "--out", str(out),
        ])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert [line.split(" (cond ~ ")[0] for line in err] == [
            f"warning: N={n}: collocation system is nearly singular" for n in (40, 48)]
        assert not any(".py:" in line for line in err)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["40", "48"]
        assert all(float(x) > 0.0 for row in rows for x in row[1:4])

    def test_solve_warns_nearly_singular_and_passes_other_warnings(self, tmp_path,
                                                                   monkeypatch, capsys):
        def noisy_solve(*args):
            warnings.warn("another warning", RuntimeWarning)
            return solve(*args)

        solve = cli.solve
        monkeypatch.setattr(cli, "solve", noisy_solve)
        with pytest.warns(RuntimeWarning, match="^another warning$"):
            code = run(["solve", "--problem", "example1", "--theta", "0.7", "--rho", "0.3",
                        "--n", "48", "--eval-points", "11", "--out", str(tmp_path / "s.csv")])
        assert code == 0
        assert capsys.readouterr().err.startswith(
            "warning: N=48: collocation system is nearly singular (cond ~ ")

    def test_eval_points_budget_is_checked_before_setup(self, monkeypatch, capsys):
        # M x (N+1) cardinal entries above the budget are refused before any
        # grid is built; at the budget the grid is requested
        def no_grid(*args):
            raise AssertionError("eval_grid called")

        monkeypatch.setattr(cli, "eval_grid", no_grid)
        monkeypatch.setattr(approximation, "eval_grid", no_grid)
        budget = approximation.MAX_CARDINAL_ENTRIES
        assert budget == 2**26
        assert run(["solve", "--n", "20", "--eval-points", "100000000"]) == 2
        assert "--eval-points 100000000 at N=20 exceeds" in capsys.readouterr().err
        assert run(["converge", "--n-min", "4", "--n-max", "63",
                    "--eval-points", str(budget // 64 + 1)]) == 2
        assert "at N=63 exceeds" in capsys.readouterr().err
        assert run(["solve", "--n", "0", "--eval-points", str(budget + 1)]) == 2
        assert "exceeds" in capsys.readouterr().err
        assert run(["solve", "--n", "0", "--eval-points", str(budget)]) == 3
        assert "AssertionError: eval_grid called" in capsys.readouterr().err


def _kernel_failing_at(n: int, node: int) -> str:
    """A custom kernel expression that raises at node `node` of degree n
    alone (example flags: rho 0.5, mu = upsilon = -0.25), and is 1 elsewhere."""
    spec = cli.BackwardSpec(cli.JacobiParams(-0.25, -0.25), 0.5)
    t = float(approximation._node_set(spec, n)[1][node])
    return f"math.log(-1.0) if math.fabs(t - {t!r}) < 1e-12 else 1.0"


class TestConvergeSweep:
    """converge's degrees on the calling thread alone or shared with one
    worker thread (`cli._sweep`), forced by patching `_two_threads`."""

    SWEEPS = {
        "bench-converge": ["--theta", "0.5", "--rho", "0.5", "--mu", "-0.25",
                           "--upsilon", "-0.25", "--n-min", "16", "--n-max", "128",
                           "--n-step", "16", "--eval-points", "2001"],
        "near-singular": ["--theta", "0.7", "--rho", "0.3", "--n-min", "40", "--n-max", "48",
                          "--n-step", "8", "--eval-points", "11"],
        "kernel-fails-at-one-degree": [
            "--problem", "custom", "--kernel-expr", _kernel_failing_at(12, 3),
            "--source-expr", "1.0", "--exact-expr", "1.0",
            "--n-min", "4", "--n-max", "16", "--n-step", "4", "--eval-points", "11"],
        "nan-exact": ["--problem", "custom", "--kernel-expr", "1.0", "--source-expr", "1.0",
                      "--exact-expr", "math.nan", "--n-min", "4", "--n-max", "8",
                      "--eval-points", "11"],
        # one-row blocks: each sweep thread's solve shares its rows with a worker
        "nested": ["--problem", "case1", "--n-min", "256", "--n-max", "264", "--n-step", "8",
                   "--eval-points", "11"],
    }

    @staticmethod
    def converge(flags, two, tmp_path, monkeypatch, capsys):
        """(exit code, stdout, stderr, CSV bytes) of converge with `flags`."""
        monkeypatch.setattr(volterra_solver, "_two_threads", lambda: two)
        out = tmp_path / f"{two}.csv"
        code = run(["converge", *flags, "--out", str(out)])
        std = capsys.readouterr()
        return code, std.out, std.err, out.read_bytes()

    @pytest.mark.parametrize("name", SWEEPS)
    def test_one_thread_and_two_write_the_same_bytes(self, name, tmp_path, monkeypatch, capsys):
        one, two = (self.converge(self.SWEEPS[name], t, tmp_path, monkeypatch, capsys)
                    for t in (False, True))
        assert one == two
        code, _, err, csv = two
        assert code == 0
        if name == "near-singular":
            assert [line.split(" (cond ~ ")[0] for line in err.splitlines()] == [
                f"warning: N={n}: collocation system is nearly singular" for n in (40, 48)]
        elif name == "kernel-fails-at-one-degree":
            assert err.startswith("warning: N=12 failed: NumericalError: kernel evaluation "
                                  "failed at node 3 (t = ")
            assert err.count("\n") == 1
            assert csv.decode().splitlines()[3] == "12,,,,,"
        elif name == "nan-exact":
            assert csv.decode().splitlines()[1:] == ["4,,,,,", "8,,,,,"]
            assert [line.split(" failed: ")[0] for line in err.splitlines()] == [
                "warning: N=4", "warning: N=8"]

    def test_timings_fill_both_columns_on_two_threads(self, tmp_path, monkeypatch, capsys):
        flags = ["--n-min", "4", "--n-max", "16", "--n-step", "4", "--eval-points", "11",
                 "--timings"]
        _, _, _, csv = self.converge(flags, True, tmp_path, monkeypatch, capsys)
        for row in csv.decode().splitlines()[1:]:
            fields = row.split(",")
            assert float(fields[4]) > 0.0 and float(fields[5]) >= 0.0

    def test_problem_and_rules_are_read_on_the_calling_thread(self, tmp_path, monkeypatch,
                                                              capsys):
        threads = {"kernel": set(), "source": set(), "source_w": set(), "eigh": set()}

        def recorded(name, func):
            def wrapper(*args):
                threads[name].add(threading.current_thread())
                return func(*args)
            return wrapper

        def example1(theta):
            p = example1_(theta)
            return dataclasses.replace(p, **{name: recorded(name, getattr(p, name))
                                             for name in ("kernel", "source", "source_w")})

        example1_ = cli.example1
        monkeypatch.setattr(cli, "example1", example1)
        monkeypatch.setattr(np.linalg, "eigh", recorded("eigh", np.linalg.eigh))
        jacobi_core._golub_welsch.cache_clear()
        numeric = set()
        solve_assembly = cli._solve_assembly

        def numeric_part(ctx):
            numeric.add(threading.current_thread())
            return solve_assembly(ctx)

        monkeypatch.setattr(cli, "_solve_assembly", numeric_part)
        code, *_ = self.converge(self.SWEEPS["bench-converge"], True, tmp_path, monkeypatch,
                                 capsys)
        assert code == 0
        # the source of example1 is read in its w-form
        assert threads == {"kernel": {threading.main_thread()}, "source": set(),
                           "source_w": {threading.main_thread()},
                           "eigh": {threading.main_thread()}}
        assert len(numeric) == 2 and threading.main_thread() in numeric

    @pytest.mark.parametrize("two, flags, workers", [
        (True, ["--n-min", "4", "--n-max", "16"], 1),
        (False, ["--n-min", "4", "--n-max", "16"], 0),
        (True, ["--n-min", "4", "--n-max", "4"], 0),
    ])
    def test_one_worker_per_sweep_of_two_or_more_degrees(self, two, flags, workers, tmp_path,
                                                         monkeypatch, capsys):
        started = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        self.converge([*flags, "--eval-points", "11"], two, tmp_path, monkeypatch, capsys)
        assert len(started) == workers

    def test_a_failing_worker_degree_fails_its_row_and_leaves_no_thread(self, tmp_path,
                                                                        monkeypatch, capsys):
        solve_assembly, threads = cli._solve_assembly, {}

        def numeric_part(ctx):
            threads[ctx.n] = threading.current_thread()
            if ctx.n == 8:
                raise jacobi_core.NumericalError("boom")
            return solve_assembly(ctx)

        monkeypatch.setattr(cli, "_solve_assembly", numeric_part)
        before = threading.active_count()
        code, _, err, csv = self.converge(["--n-min", "4", "--n-max", "16", "--eval-points",
                                           "11"], True, tmp_path, monkeypatch, capsys)
        assert threading.active_count() == before
        assert threads[8] is not threading.main_thread()
        assert code == 0 and err == "warning: N=8 failed: NumericalError: boom\n"
        assert csv.decode().splitlines()[2] == "8,,,,,"

    def test_at_most_one_degree_waits_for_the_worker(self, tmp_path, monkeypatch, capsys):
        # a slow worker: unbounded, its six degrees would all be prepared at once
        prepare, measure, pending, most = cli._prepare, cli._measure, set(), []

        def prepared(problem, spec, l2_spec, n):
            pending.add(n)
            most.append(len(pending))
            return prepare(problem, spec, l2_spec, n)

        def measured(problem, l2_spec, args, ctx, rule):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.02)
            pending.discard(ctx.n)
            return measure(problem, l2_spec, args, ctx, rule)

        monkeypatch.setattr(cli, "_prepare", prepared)
        monkeypatch.setattr(cli, "_measure", measured)
        code, *_ = self.converge(["--n-min", "4", "--n-max", "48", "--eval-points", "11"],
                                 True, tmp_path, monkeypatch, capsys)
        # the prepared degree, the one waiting and the worker's
        assert code == 0 and max(most) <= 3 and not pending

    # "both": each thread raises at its first degree, and the calling thread's wins
    @pytest.mark.parametrize("worker_degree", [True, False, "both"])
    def test_an_escaping_exception_joins_the_worker_first(self, worker_degree, tmp_path,
                                                          monkeypatch, capsys):
        # an exception that is not an Exception ends the sweep, from either thread
        class Stop(BaseException):
            pass

        solve_assembly = cli._solve_assembly

        def numeric_part(ctx):
            on_worker = threading.current_thread() is not threading.main_thread()
            if on_worker == worker_degree and ctx.n == (8 if worker_degree else 12):
                raise Stop(on_worker)
            if worker_degree == "both" and ctx.n in (16, 12):
                raise Stop(on_worker)
            return solve_assembly(ctx)

        monkeypatch.setattr(cli, "_solve_assembly", numeric_part)
        before = threading.active_count()
        with pytest.raises(Stop) as raised:
            self.converge(["--n-min", "4", "--n-max", "16", "--eval-points", "11"], True,
                          tmp_path, monkeypatch, capsys)
        assert threading.active_count() == before
        assert raised.value.args == (worker_degree is True,)


class TestSelftestCommand:
    def test_quick_run_passes(self, capsys):
        assert run(["selftest", "--quick", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_failed_check_exits_one(self, monkeypatch, capsys):
        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setattr(selfcheck, "sturm_liouville_apply", boom)
        assert run(["selftest", "--quick"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] sturm-liouville residual" in out
        assert out.endswith("1 of 10 checks failed\n")


def _nan_once(func, when=lambda *args: True, poison=None):
    """func, with a NaN put into the result of the first call whose arguments
    satisfy `when` (its first element for an array result); `poison`
    replaces that step for a result that is not numeric."""
    state = {"hit": False}

    def patched(*args):
        out = func(*args)
        if state["hit"] or not when(*args):
            return out
        state["hit"] = True
        if poison is not None:
            return poison(out)
        out = np.array(out, dtype=float)
        out.flat[0] = math.nan
        return out[()]

    return patched


def _scaled(func, factor):
    return lambda *args: func(*args) * factor


def _nan_values(sol):
    values = np.array(sol.values)
    values[0] = math.nan
    return dataclasses.replace(sol, values=values)


def _oracle_call(a, b):
    # the oracle check calls beta(1 - theta, gamma + 1) with gamma drawn from
    # (0.3, 3); above 1.3 the quadrature check's mu + 1 is 2 or 6
    return b > 1.3 and b % 1.0 != 0.0


class TestSelftestVerdicts:
    """A NaN from any value a check reads fails that check, and a finite
    perturbation past the bound fails it too."""

    @pytest.mark.parametrize("module, name, patch, check", [
        ("selfcheck", "jacobi_norm", _nan_once, "orthogonality"),
        ("selfcheck", "beta", _nan_once, "quadrature exactness"),
        ("selfcheck", "beta", lambda f: _nan_once(f, _oracle_call), "oracle beta identity"),
        ("selfcheck", "fb_deriv_eval", _nan_once, "derivative identity"),
        ("selfcheck", "sturm_liouville_apply", _nan_once, "sturm-liouville residual"),
        ("selfcheck", "deriv_factor", _nan_once, "inverse inequality"),
        ("selfcheck", "solve", lambda f: _nan_once(f, poison=_nan_values),
         "polynomial recovery"),
        ("selfcheck", "lebesgue_constant", _nan_once, "lebesgue growth"),
        ("selfcheck", "weighted_l2_error", _nan_once, "interpolation stability"),
        ("selfcheck", "jacobi_norm", lambda f: _scaled(f, 1.0 + 1e-9), "orthogonality"),
        ("backward_basis", "deriv_factor", lambda f: _scaled(f, 1.0 + 1e-5),
         "derivative identity"),
    ])
    def test_patched_value_fails_its_check(self, module, name, patch, check, monkeypatch):
        mod = importlib.import_module(f"fbjacobi.{module}")
        monkeypatch.setattr(mod, name, patch(getattr(mod, name)))
        results = {r.name: r for r in run_all(seed=0, quick=True)}
        assert not results[check].passed, results[check].detail
        assert "raised" not in results[check].detail

    def test_verdicts_are_bools(self):
        assert all(type(r.passed) is bool for r in run_all(seed=0, quick=True))

    def test_crashed_check_fails_by_name(self, monkeypatch):
        def boom(*args):
            raise ValueError("boom")

        monkeypatch.setattr(selfcheck, "sturm_liouville_apply", boom)
        results = run_all(seed=0, quick=True)
        assert len(results) == 10
        crashed = [r for r in results if not r.passed]
        assert [r.name for r in crashed] == ["sturm-liouville residual"]
        assert crashed[0].detail == "raised ValueError('boom')"


class TestConvergenceCsv:
    def test_csv_header_and_failed_rows(self):
        header = "N,linf_error,l2w_error,cond,assembly_ms,solve_ms"
        columns = [[4, 8], [0.5, None], [0.25, None], [10.0, None]]
        assert _csv(header, columns + [[None, None]] * 2).splitlines() == [
            "N,linf_error,l2w_error,cond,assembly_ms,solve_ms", "4,0.5,0.25,10.0,,", "8,,,,,",
        ]
        timed = _csv(header, columns + [[1.5, None], [0.5, None]]).splitlines()
        assert timed[1] == "4,0.5,0.25,10.0,1.5,0.5"


CUSTOM = ["solve", "--problem", "custom", "--n", "8", "--eval-points", "11",
          "--out", "{tmp}/sol.csv"]
ESCAPE = "[c for c in ().__class__.__base__.__subclasses__()][0].__name__ and 1.0"
NAN_KERNEL = "math.nan if 0.9<p<0.95 else 1.0"
# an inf or NaN divided by an exact zero and then hidden
UNTRAPPED = ["1 / (math.inf / (t - t))", "math.exp(-1e308 * 10 * t / (t - t))",
             "(math.nan / (t - t)) ** 0"]


class TestExitCodes:
    """2 for anything found before numerical work (and unwritable output
    paths), 3 for any failure after it; always `error: ...`, no traceback."""

    @pytest.mark.parametrize("argv, code, message", [
        pytest.param(CUSTOM + ["--kernel-expr", "math.log(t-0.5)", "--source-expr", "1.0"],
                     3, "math domain error", id="kernel-domain-error"),
        pytest.param(CUSTOM + ["--kernel-expr", "tt", "--source-expr", "1.0"],
                     2, "'tt' is not allowed", id="kernel-unknown-name"),
        pytest.param(CUSTOM + ["--kernel-expr", "1.0", "--source-expr", "1.0",
                               "--exact-expr", "tt"],
                     2, "'tt' is not allowed", id="exact-unknown-name"),
        pytest.param(CUSTOM + ["--kernel-expr", "1.0", "--source-expr", "p"],
                     2, "'p' is not allowed", id="source-uses-p"),
        pytest.param(CUSTOM + ["--kernel-expr", "().__class__", "--source-expr", "1.0"],
                     2, "is not allowed", id="dunder-attribute"),
        pytest.param(CUSTOM + ["--kernel-expr", ESCAPE, "--source-expr", "1.0"],
                     2, "is not allowed", id="subclasses-escape"),
        pytest.param(CUSTOM + ["--kernel-expr", "math.__loader__", "--source-expr", "1.0"],
                     2, "'math.__loader__' is not allowed", id="private-math-attribute"),
        pytest.param(["solve", "--n", "4", "--eval-points", "5",
                      "--out", "{tmp}/missing/sol.csv"],
                     2, "No such file or directory", id="unwritable-out"),
        pytest.param(["converge", "--n-min", "-3", "--n-max", "4", "--out", "{tmp}/c.csv"],
                     2, "--n-min", id="negative-n-min"),
        pytest.param(["solve", "--n", "1201"], 2, "--n must lie in [0, 1200]",
                     id="n-above-max"),
        pytest.param(["converge", "--n-max", "1201"], 2, "--n-max <= 1200",
                     id="n-max-above-max"),
        pytest.param(CUSTOM + ["--kernel-expr", NAN_KERNEL, "--source-expr", "1.0"],
                     3, "NumericalError: non-finite matrix: ", id="nan-kernel-solve"),
        pytest.param(["converge", "--l2-weight=abc"], 2,
                     "--l2-weight expects 'mu,upsilon', got 'abc'", id="l2-weight-not-a-pair"),
        # the array form gives NaN at t < 0.5; the scalar form raises at node 0
        pytest.param(CUSTOM + ["--kernel-expr", "1.0", "--source-expr", "math.sqrt(t-0.5)"],
                     3, "NumericalError: source evaluation failed at node 0 (t = ",
                     id="source-nan-in-array-form"),
        # the last grid t rounds to 1: numpy's exp(-1/0) is 0, Python's 1/0 raises
        pytest.param(CUSTOM + ["--kernel-expr", "1.0", "--source-expr", "1.0",
                               "--exact-expr", "math.exp(-1/(1-t))"],
                     3, "ZeroDivisionError: float division by zero",
                     id="exact-hidden-division-by-zero"),
        # converge turns a non-finite exact column into an empty row; solve fails
        pytest.param(CUSTOM + ["--kernel-expr", "1", "--source-expr", "t",
                               "--exact-expr", "math.nan"],
                     3, "NumericalError: non-finite exact solution: 11 of 11 entries",
                     id="nan-exact-solve"),
        pytest.param(CUSTOM + ["--kernel-expr", "1", "--source-expr", "t",
                               "--exact-expr", "math.inf*(1+t)"],
                     3, "NumericalError: non-finite exact solution: 11 of 11 entries",
                     id="inf-exact-solve"),
        # an inf or NaN over 0 sets no numpy flag; Python raises
        *[pytest.param(CUSTOM + ["--kernel-expr", "1", "--source-expr", expr], 3,
                       "NumericalError: source evaluation failed at node 0", id=f"untrapped-{i}")
          for i, expr in enumerate(UNTRAPPED)],
    ])
    def test_exit_code(self, argv, code, message, tmp_path, capsys):
        assert run([a.replace("{tmp}", str(tmp_path)) for a in argv]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_numerical_failure_names_its_cause(self, tmp_path, capsys):
        # a domain error and a division by zero at the same node used to
        # print the same line
        lines = []
        for source in ("math.sqrt(t-0.5)", UNTRAPPED[0]):
            argv = CUSTOM + ["--kernel-expr", "1.0", "--source-expr", source]
            assert run([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 3
            lines.append(capsys.readouterr().err)
        prefix = "error: numerical failure: NumericalError: source evaluation failed at node 0"
        assert all(line.startswith(prefix) for line in lines)
        assert lines[0].endswith("; caused by ValueError: math domain error\n")
        assert lines[1].endswith("; caused by ZeroDivisionError: float division by zero\n")

    def test_complex_kernel_names_the_library_rule(self, capsys):
        # the expression's value reaches `_sample` unconverted, so its
        # complex refusal, not a float() in the CLI, names the cause
        argv = ["solve", "--problem", "custom", "--eval-points", "11", "--n", "16",
                "--kernel-expr", "(0.5 - t) ** 0.5 if 0.45 < t < 0.6 else 1.0",
                "--source-expr", "1.0"]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert "kernel evaluation failed at node 6 " in err
        assert "complex value" in err and "where a real one is needed" in err

    def test_failed_converge_row_names_its_cause(self, tmp_path, capsys):
        argv = ["converge", "--problem", "custom", "--n-min", "4", "--n-max", "4",
                "--eval-points", "11", "--kernel-expr", "1.0", "--source-expr", "1.0/(t-t)",
                "--exact-expr", "1.0", "--out", str(tmp_path / "c.csv")]
        assert run(argv) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: N=4 failed: NumericalError: source evaluation failed")
        assert err.endswith("; caused by ZeroDivisionError: float division by zero\n")


def _numeric_flag_rows():
    """Every float flag at nan, inf and -inf, every int flag at -1 and
    --l2-weight at nan,0 and inf,0, read from the parser: each must be
    refused as a usage error."""
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    values = {float: ("nan", "inf", "-inf"), int: ("-1",)}
    rows = [[command, f"{action.option_strings[0]}={v}"]
            for command, parser in commands.items() for action in parser._actions
            for v in values.get(action.type, ())]
    rows += [["converge", f"--l2-weight={v}"] for v in ("nan,0", "inf,0")]
    # only case1 and case2 read the exponents
    rows = [r + ["--problem", "case1"] if "--gamma" in r[1] else r for r in rows]
    return [pytest.param(r, id=" ".join(r[:2])) for r in rows]


@pytest.mark.parametrize("argv", _numeric_flag_rows())
def test_numeric_flag_out_of_range_is_a_usage_error(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ".py:" not in err


def _scalar_values(f, t, p):
    """f point by point in ravel order, each value read as `_sample` reads
    it: the values, or the first exception."""
    vals = []
    for a, b in zip(t.ravel().tolist(), p.ravel().tolist()):
        try:
            vals.append(v if type(v := f(a, b)) is float else float(_real(v)))
        except Exception as exc:
            return exc
    return np.array(vals).reshape(t.shape)


def _within_one_ulp(a, b):
    return bool(np.all((a == b) | (np.nextafter(b, a) == a) | (np.isnan(a) & np.isnan(b))))


# Grid with the domain edges: zero of both signs, negative bases, 1 and above.
EDGES = np.array([-2.5, -1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0])
INSIDE = np.linspace(0.05, 0.95, 7)
# (expression in t and p, whether it has an array form)
AGREEMENT = [
    ("t + p", True), ("t - p", True), ("t * p", True), ("t / p", True),
    ("t // p", True), ("t % p", True), ("t ** p", True), ("-t + +p", True),
    ("t ** 2", True), ("t ** 0.5", True), ("t ** -1", True), ("(-t) ** 3", True),
    ("2 ** -1 * t", True), ("7 // 2 + t % 0.3 - t // 0.3", True), ("t // -0.0", True),
    ("t % math.inf + t // math.inf", True), ("math.pi * t + math.e ** p", True),
    ("1e308 * (t + 1) * 10", True), ("10 ** 400 * t", True), ("math.nan * t", True),
    ("math.exp(t)", True), ("math.expm1(t)", True), ("math.exp2(t)", True),
    ("math.log(t)", True), ("math.log1p(t)", True), ("math.log2(t)", True),
    ("math.sqrt(t)", True), ("math.sin(t)", True), ("math.cos(t)", True),
    ("math.tan(t)", True), ("math.asin(t)", True), ("math.acos(t)", True),
    ("math.atan(t)", True), ("math.atan2(t, p)", True), ("math.cosh(t)", True),
    ("math.hypot(t, p)", True), ("math.fabs(t)", True), ("math.copysign(t, p)", True),
    ("math.fmod(t, p)", True), ("math.degrees(t)", True), ("math.radians(t)", True),
    ("math.exp(-1 / t)", True), ("math.atan(1 / (1 / t))", True), ("math.exp(1000 * p)", True),
    ("(-t) ** 0.5", True), ("(-8) ** 0.5 * t", True), ("0.0 ** t", True), ("math.exp(p) * (1 + t) ** 1.5", True),
    # infinity constants: numpy raises no flag where an inf is only carried
    # along, so the final value decides
    ("math.inf - math.inf * t", True), ("math.cos(math.inf * t)", True),
    ("math.exp(-math.inf * t)", True), ("1 / (math.inf * t)", True),
    ("math.hypot(1.5e308 * t, 1.5e308)", True),
    # kept scalar: a dividend that may be an inf or NaN without a flag,
    # including any arithmetic on constants alone
    *[(e, False) for e in UNTRAPPED], ("1e309 % (t - t) + 1", False),
    ("2 * 3 / (1 + t)", False), ("math.pi / (1 + t) + t / math.inf", True),
    # kept scalar: math names without a same-meaning ufunc, other argument
    # counts, and the constructs that can turn a NaN into a finite value
    ("math.log(t, 2)", False), ("math.log(t, p)", False), ("math.floor(t)", False),
    ("math.pow(t, p)", False), ("math.sinh(t)", False), ("math.hypot(t, p, 1)", False),
    ("t and p", False), ("t or p", False), ("not t", False), ("t if p > 0 else -t", False),
    ("0 < t < p", False), ("t == p", False), ("1.0 if math.log(t) > 0 else 2.0", False),
    # numpy bools add as logical `or` (1 where Python gives 2): float() of an
    # array keeps a scalar-only expression off arrays
    ("(t > 0.5) + (p > 0.5)", False),
]


class TestExpressionArrayForm:
    """Each expression gives its scalar form's values, or its first error in
    ravel order, through `_sample`; one with an array form does so in one
    call wherever every scalar value is finite, within one ulp."""

    @pytest.mark.parametrize("expr, vectorises", AGREEMENT, ids=[e for e, _ in AGREEMENT])
    @pytest.mark.parametrize("grid", ["edges", "inside"])
    def test_agrees_with_scalar_form(self, expr, vectorises, grid):
        base = EDGES if grid == "edges" else INSIDE
        t, p = np.meshgrid(base, base[::-1] + 0.125, indexing="ij")
        f = _expr_function(expr, ("t", "p"))
        calls = []

        def counted(*a):
            calls.append(a)
            return f(*a)

        expected = _scalar_values(f, t, p)
        if isinstance(expected, Exception):
            with pytest.raises(type(expected)) as info:
                _sample(counted, t, p)
            assert str(info.value) == str(expected)
            return
        got = _sample(counted, t, p)
        assert _within_one_ulp(got, expected)
        array_path = vectorises and bool(np.isfinite(expected).all())
        assert len(calls) == (1 if array_path else 1 + t.size)

    def test_scalar_arguments_take_the_scalar_form(self):
        f = _expr_function("math.log(t - 0.5)", ("t",))
        with pytest.raises(ValueError, match="math domain error"):
            f(0.25)
        assert f(np.float64(1.5)) == math.log(1.0) and type(f(1.5)) is float

    def test_scalar_only_form_refuses_arrays(self):
        # read at nodes as a source is: math.fsum of the whole array would
        # return a sum; each scalar point is not iterable
        f = _expr_function("math.fsum(t)", ("t",))
        with pytest.raises(TypeError, match="'float' object is not iterable"):
            _sample(f, np.linspace(0.1, 0.9, 5))

    def test_log_with_base_leaves_the_callers_array_alone(self):
        # np.log's second positional argument is `out`
        f = _expr_function("math.log(t, p)", ("t", "p"))
        t, p = np.linspace(0.5, 4.0, 5), np.linspace(1.5, 3.0, 5)
        p_before = p.copy()
        got = _sample(f, t, p)
        assert np.array_equal(p, p_before)
        assert got.tolist() == [math.log(a, b) for a, b in zip(t.tolist(), p.tolist())]

    def test_array_form_namespace(self):
        f = _expr_function("math.exp(t)", ("t",))
        array_f = inspect.getclosurevars(f).nonlocals["array_f"]
        assert set(array_f.__globals__) == {"__builtins__", "math"}
        assert array_f.__globals__["__builtins__"] == {}
        array_math = vars(array_f.__globals__["math"])
        assert set(array_math) == {n for n in dir(math) if not n.startswith("_")}
        for name, value in array_math.items():
            if name in cli._UFUNCS:
                assert isinstance(value, np.ufunc) and value is cli._UFUNCS[name]
            else:
                assert value is getattr(math, name)
            assert not isinstance(value, types.ModuleType)


# Inputs at the edges of the float range, and each operation of the array
# form: the _UFUNCS and the binary operators of the grammar.
TRAP_INPUTS = np.array([-np.inf, -1.5e308, -1000.0, -2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0,
                        1000.0, 1.5e308, np.inf])
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
             "//": operator.floordiv, "%": operator.mod, "**": operator.pow}
# operations that take finite values to finite ones and never make a NaN
CLOSED = {"atan", "atan2", "fabs", "copysign", "radians"}


@pytest.mark.parametrize("name", [*cli._UFUNCS, *OPERATORS])
def test_array_form_traps_each_step_that_leaves_the_finite_range(name):
    # Under the array form's errstate, numpy must raise wherever a value
    # leaves the finite range; a build that does not trap would let a later
    # step hide the intermediate (exp(-1/0) is 0)
    op = cli._UFUNCS.get(name) or OPERATORS[name]
    nin = getattr(op, "nin", 2)
    args = [a.ravel() for a in np.meshgrid(*[TRAP_INPUTS] * nin, indexing="ij")]
    with np.errstate(all="ignore"):
        out = op(*args)
    finite_in = np.logical_and.reduce([np.isfinite(a) for a in args])
    leaves = (finite_in & ~np.isfinite(out)) | np.isnan(out)  # no input is NaN
    assert leaves.any() != (name in CLOSED)
    for i in np.flatnonzero(leaves):
        point = [np.array([a[i]]) for a in args]
        with pytest.raises(FloatingPointError):
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                op(*point)


def _counting(f, log, name):
    def wrapper(*args):
        log.append((name, any(np.ndim(a) for a in args)))
        return f(*args)
    return wrapper


def test_custom_solve_samples_kernel_and_source_once(tmp_path, monkeypatch):
    # one array call for the nine kernel probes at construction, then one
    # array call each (the source and the exact solution share one expression)
    log = []
    compile_expr = cli._expr_function
    monkeypatch.setattr(cli, "_expr_function",
                        lambda expr, names: _counting(compile_expr(expr, names), log, expr))
    code = main(["solve", "--problem", "custom", "--n", "32", "--eval-points", "101",
                 "--kernel-expr", "math.exp(-t)*(1+p)", "--source-expr", "(1-t)**1.5",
                 "--exact-expr", "(1-t)**1.5", "--out", str(tmp_path / "sol.csv")])
    assert code == 0
    kernel = [is_array for name, is_array in log if name == "math.exp(-t)*(1+p)"]
    assert kernel == [True, True]
    assert [is_array for name, is_array in log if name == "(1-t)**1.5"] == [True, True]


class TestSvgPlot:
    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            render_semilog([4, 8], [("a", [None, None])])

    def test_skips_nonfinite_points(self):
        text = render_semilog([4, 8, 12], [("a", [1e-3, None, 1e-5])], "demo")
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")

    def test_single_point_at_a_power_of_ten(self):
        # one N and a one-decade range: both axes are widened by one unit, so
        # the point sits at the left edge (x = 72) on the bottom gridline (y = 388)
        svg = "{http://www.w3.org/2000/svg}"
        root = ET.fromstring(render_semilog([8], [("a", [1e-3])]))
        assert {"1e-3", "1e-2", "8"} <= {t.text for t in root.iter(svg + "text")}
        (marker,) = root.iter(svg + "circle")
        assert float(marker.get("cx")) == 72.0
        assert float(marker.get("cy")) == 388.0

    @pytest.mark.parametrize("text", ["a & b", "<tag>", "x > y", "&amp; &lt;", "'single'",
                                      '"double"', "θ → 1, naïve ü €", "", "a<b & c>d"])
    def test_escape_matches_saxutils(self, text):
        assert svgplot._escape(text) == xml.sax.saxutils.escape(text)

    def test_title_and_label_are_escaped(self):
        text = render_semilog([4, 8], [("a<b & c>d", [1e-3, 1e-5])], "a<b & c>d")
        assert text.count(">a&lt;b &amp; c&gt;d</text>") == 2
        texts = [t.text for t in ET.fromstring(text).iter("{http://www.w3.org/2000/svg}text")]
        assert texts.count("a<b & c>d") == 2


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class TestColdStart:
    """Fresh interpreters: the in-process tests import `selfcheck` and
    `svgplot` at collection, so only a new process sees what a command loads."""

    def test_import_loads_no_command_only_modules(self):
        script = ("import sys\nsys.path.insert(0, sys.argv[1])\n"
                  "import fbjacobi, fbjacobi.cli\nprint(*sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script, str(SRC)], capture_output=True,
                              text=True, check=True)
        loaded = set(proc.stdout.split())
        assert {"fbjacobi.cli", "numpy"} <= loaded
        assert loaded.isdisjoint({"xml.sax", "urllib.request", "http.client", "ssl", "email",
                                  "numpy.random", "fbjacobi.selfcheck", "fbjacobi.svgplot",
                                  "concurrent.futures", "multiprocessing"})

    @staticmethod
    def run_cold(*argv):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "fbjacobi.cli", *argv], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})

    def test_selftest(self):
        proc = self.run_cold("selftest", "--quick", "--seed", "0")
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"^all \d+ checks passed$", proc.stdout, re.M)

    def test_converge_svg(self, tmp_path):
        svg = tmp_path / "r.svg"
        proc = self.run_cold("converge", "--n-min", "4", "--n-max", "8", "--eval-points", "11",
                        "--out", str(tmp_path / "r.csv"), "--svg", str(svg))
        assert proc.returncode == 0, proc.stderr
        assert ET.parse(svg).getroot().tag == "{http://www.w3.org/2000/svg}svg"


def test_readme_cli_commands(tmp_path):
    # the two bash blocks under "## CLI" in README.md, run as written except
    # that --out and --svg point into tmp_path; each CSV starts with the
    # header the README names next to its command
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = [b.split("```", 1)[0] for b in section.split("```bash\n")[1:]]
    headers = re.findall(r"`([\w,]+)` CSV", section)
    assert len(blocks) == len(headers) == 2
    csvs = {}
    for block, header in zip(blocks, headers):
        program, *argv = shlex.split(block.replace("\\\n", " "))
        assert program == "fbjacobi"
        for flag in ("--out", "--svg"):
            if flag in argv:
                k = argv.index(flag) + 1
                argv[k] = str(tmp_path / argv[k])
        assert main(argv) == 0
        lines = pathlib.Path(argv[argv.index("--out") + 1]).read_text().splitlines()
        assert lines[0] == header
        csvs[argv[0]] = lines[1:]
    assert len(csvs["solve"]) == 2001
    assert [int(line.split(",")[0]) for line in csvs["converge"]] == list(range(8, 65, 8))
    assert (tmp_path / "rates.svg").read_text().startswith("<?xml")
