import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ab_compare.py"
_SPEC = importlib.util.spec_from_file_location("ab_compare", _PATH)
ab_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_compare)

CONFIG = {"end_to_end": [{"name": "op_p50_s", "better": "lower"},
                         {"name": "peak_rss_mib", "better": "lower"}]}
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def runs(parent, change, raw_parent=None, raw_change=None, failed_change=0, cores_change=2):
    """bench_run-shaped records of 100 ops each: op_p50_s scaled and raw,
    peak_rss_mib scaled; the change's first run fails failed_change ops and
    its last has cores_change usable cores (the others 2), all one BLAS thread."""
    raw_parent = parent if raw_parent is None else raw_parent
    raw_change = change if raw_change is None else raw_change

    def side(scaled, raw, failed=0, last_cores=2):
        return [{"scaled": {"op_p50_s": s, "peak_rss_mib": 40.0}, "raw": {"op_p50_s": r},
                 "failed": failed if i == 0 else 0, "attempted": 100,
                 "environment": {"usable_cores": last_cores if i == len(scaled) - 1 else 2,
                                 "blas_threads": 1}}
                for i, (s, r) in enumerate(zip(scaled, raw))]

    return {"parent": side(parent, raw_parent),
            "change": side(change, raw_change, failed_change, cores_change)}


def claims(capsys, records):
    ab_compare.report_workload("w", records, CONFIG)
    lines = capsys.readouterr().out.splitlines()
    return {line.split()[0]: line.split()[-1] for line in lines if " claim " in line}


def test_identical_runs_claim_nothing(capsys):
    assert claims(capsys, runs(PARENT, PARENT)) == {"op_p50_s": "-", "peak_rss_mib": "-"}


@pytest.mark.parametrize("factor, expected", [(0.8, "gain"), (1.25, "loss")])
def test_a_clear_move_is_claimed(capsys, factor, expected):
    change = [factor * p for p in PARENT]
    assert claims(capsys, runs(PARENT, change))["op_p50_s"] == expected


def test_raw_must_move_the_same_way_in_nine_pairs_of_ten(capsys):
    change = [0.8 * p for p in PARENT]
    raw_change = change[:8] + [1.1 * p for p in PARENT[8:]]
    assert claims(capsys, runs(PARENT, change, raw_change=raw_change))["op_p50_s"] == "-"


def test_a_shift_below_one_percent_is_not_claimed(capsys):
    # every pair 0.5% better, with parent quartiles narrower than the shift
    parent = [1.0 + 1e-4 * i for i in range(10)]
    change = [0.995 * p for p in parent]
    assert claims(capsys, runs(parent, change))["op_p50_s"] == "-"


def test_fewer_than_ten_pairs_claim_nothing(capsys):
    change = [0.8 * p for p in PARENT]
    assert claims(capsys, runs(PARENT[:9], change[:9]))["op_p50_s"] == "-"


def test_a_gain_with_more_failed_ops_is_not_claimed(capsys):
    change = [0.8 * p for p in PARENT]
    assert claims(capsys, runs(PARENT, change, failed_change=1))["op_p50_s"] == "-"
    # a loss stays a loss
    change = [1.25 * p for p in PARENT]
    assert claims(capsys, runs(PARENT, change, failed_change=1))["op_p50_s"] == "loss"


def test_environment_printed_per_side_and_a_difference_warned(capsys):
    ab_compare.report_workload("w", runs(PARENT, PARENT), CONFIG)
    out = capsys.readouterr().out
    assert "parent usable_cores 2 blas_threads 1\n" in out
    assert "change usable_cores 2 blas_threads 1\n" in out
    assert "warning" not in out
    ab_compare.report_workload("w", runs(PARENT, PARENT, cores_change=1), CONFIG)
    out = capsys.readouterr().out
    assert "change usable_cores 1 blas_threads 1; usable_cores 2 blas_threads 1\n" in out
    assert "warning: the sides ran with different usable_cores" in out


def test_bench_run_reads_the_environment_line(monkeypatch):
    stdout = "\n".join([
        'environment {"cores": 4, "usable_cores": 2, "blas_threads": 1, "numpy": "2.4"}',
        'raw (unscaled) {"op_p50_s": 0.5}',
        '{"correct": true, "attempted": 7, "failed": 0, '
        '"metrics": {"op_p50_s": {"value": 0.4, "unit": "s"}}}'])
    monkeypatch.setattr(ab_compare.subprocess, "run",
                        lambda *a, **k: ab_compare.subprocess.CompletedProcess(a, 0, stdout, ""))
    run = ab_compare.bench_run(pathlib.Path("tree"), "w", 1.0, 0)
    assert run == {"scaled": {"op_p50_s": 0.4}, "raw": {"op_p50_s": 0.5}, "failed": 0,
                   "attempted": 7, "environment": {"usable_cores": 2, "blas_threads": 1}}


def test_digests_are_compared_under_both_blas_settings(monkeypatch, capsys):
    # the fake digest of `b` differs between the trees only with the BLAS
    # thread variables unset
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    envs = []

    def fake_run(argv, **kwargs):
        env = kwargs["env"]
        envs.append({k: env.get(k) for k in ab_compare.BLAS_VARS})
        tree_b = "1" if argv[-1] == "parent" and "OPENBLAS_NUM_THREADS" not in env else "0"
        return ab_compare.subprocess.CompletedProcess(argv, 0, f"a 00\nb {tree_b}\n", "")

    monkeypatch.setattr(ab_compare.subprocess, "run", fake_run)
    ab_compare.report_digests({"parent": pathlib.Path("parent"),
                               "change": pathlib.Path("change")})
    one = {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}
    unset = dict.fromkeys(ab_compare.BLAS_VARS)
    assert envs == [one, one, unset, unset]
    assert capsys.readouterr().out == (
        "\ndigests with OPENBLAS_NUM_THREADS=1: 2 of 2 equal\n"
        "\ndigests with BLAS thread variables unset: 1 of 2 equal\n"
        "differs: b parent 1 change 0\n")


@pytest.mark.parametrize("parent, warned", [("x/repo", False), ("x/parent", True)])
def test_different_directory_names_are_warned(parent, warned, capsys):
    ab_compare.report_tree_names({"parent": pathlib.Path(parent),
                                  "change": pathlib.Path("y/repo")})
    out = capsys.readouterr().out
    assert ("warning: the trees' directories are named 'parent' and 'repo'" in out) is warned
    assert bool(out) is warned
