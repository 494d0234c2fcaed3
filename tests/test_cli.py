import dataclasses
import importlib
import math
import pathlib
import re
import shlex
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fbjacobi import selfcheck
from fbjacobi.cli import _convergence_csv, main
from fbjacobi.selfcheck import run_all
from fbjacobi.svgplot import render_semilog


def run(args):
    return main(args)


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
        rows = [(4, 0.5, 0.25, 10.0, 1.5, 0.5), (8, None, None, None, None, None)]
        assert _convergence_csv(rows, timings=False).splitlines() == [
            "N,linf_error,l2w_error,cond,assembly_ms,solve_ms", "4,0.5,0.25,10.0,,", "8,,,,,",
        ]
        timed = _convergence_csv(rows, timings=True).splitlines()
        assert timed[1] == "4,0.5,0.25,10.0,1.5,0.5"


CUSTOM = ["solve", "--problem", "custom", "--n", "8", "--eval-points", "11",
          "--out", "{tmp}/sol.csv"]
ESCAPE = "[c for c in ().__class__.__base__.__subclasses__()][0].__name__ and 1.0"
NAN_KERNEL = "math.nan if 0.9<p<0.95 else 1.0"


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
    ])
    def test_exit_code(self, argv, code, message, tmp_path, capsys):
        assert run([a.replace("{tmp}", str(tmp_path)) for a in argv]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


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
