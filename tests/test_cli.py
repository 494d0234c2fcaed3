import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fbjacobi.cli import ConvergenceReport, main
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


class TestConvergenceReport:
    def test_rows_must_increase(self):
        with pytest.raises(ValueError):
            ConvergenceReport("x", 0.5, 0.5, -0.25, -0.25,
                              ((8, 1.0, 1.0, 1.0, None, None),
                               (4, 1.0, 1.0, 1.0, None, None)))

    def test_error_fields_validated(self):
        with pytest.raises(ValueError):
            ConvergenceReport("x", 0.5, 0.5, -0.25, -0.25,
                              ((4, -1.0, 1.0, 1.0, None, None),))

    def test_csv_header_and_failed_rows(self):
        rep = ConvergenceReport("x", 0.5, 0.5, -0.25, -0.25,
                                ((4, 0.5, 0.25, 10.0, 1.5, 0.5),
                                 (8, None, None, None, None, None)))
        text = rep.to_csv()
        lines = text.splitlines()
        assert lines[0] == "N,linf_error,l2w_error,cond,assembly_ms,solve_ms"
        assert lines[1] == "4,0.5,0.25,10.0,,"
        assert lines[2] == "8,,,,,"
        timed = rep.to_csv(timings=True).splitlines()
        assert timed[1] == "4,0.5,0.25,10.0,1.5,0.5"


class TestSvgPlot:
    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            render_semilog([4, 8], [("a", [None, None])])

    def test_skips_nonfinite_points(self):
        text = render_semilog([4, 8, 12], [("a", [1e-3, None, 1e-5])], "demo")
        root = ET.fromstring(text)
        assert root.tag.endswith("svg")
