"""A/B comparison of two checkouts on the benchmark, in alternating pairs.

    python tools/ab_compare.py PARENT_TREE [--workload W] [--pairs P] [--seconds S]
                               [--seed N]

PARENT_TREE is another checkout (an exported parent commit, say); the change
is the checkout that holds this script. For each workload (every workload of
the change's BENCHMARK.json, or each `--workload` given) it runs each tree's
own `bench/run.py --trace 0` in a fresh process, P times each, alternately:
the parent goes first in odd pairs and the change in even ones, so a drift in
machine speed does not favour one side. From every run it reads the
`raw (unscaled)` line, the result line (the last one) and, from the
`environment` line, `usable_cores` and `blas_threads`: it prints them per
side and warns when the sides differ, since a gain that needs a second core
is the code's only when both sides had one.

For every end-to-end metric of BENCHMARK.json it prints, per side, the median
and quartiles of the scaled value and of the raw value where the benchmark
records one, the ratio of the medians (change / parent) and the pairs in
which the change did better. A metric is called `gain` (or `loss`) only when
the change is better (or worse) by scaled value in at least nine pairs of
ten, its scaled median moved by more than the parent's interquartile range
and by at least 1% of the parent's median, and, where the benchmark records
a raw value, the raw value moved the same way in at least nine pairs of ten;
otherwise `-`. Fewer than ten pairs claim nothing, and no gain is claimed
on a workload where the change fails a larger share of its operations than
the parent. The 1% floor is there
because two exported copies of one commit, compared with each other,
differed in `peak_rss_mib` on custom-expr by 0.34% in all ten pairs, with
quartiles 0.1% apart: a shift that small says more about the tree than
about the code. It also prints whether each
tree's sources had cached bytecode when the runs began (`setup_s` includes
compiling them when not), and the `tools/output_digests.py` entries that
differ between the two trees.

It writes only what the two `bench/run.py` runs write (their `bench_out/`)
and changes no file under `bench/`.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW_PREFIX = "raw (unscaled) "
ENV_PREFIX = "environment "
ENV_KEYS = ("usable_cores", "blas_threads")  # what a gain from threads depends on
MIN_PAIRS = 10  # fewer pairs report their numbers but claim nothing
WIN_SHARE = 0.9  # pairs the better side must win for a claim
MIN_SHIFT = 0.01  # smallest relative move of the median that can be claimed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the other checkout (its bench/ and src/)")
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json; repeatable (default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def bench_run(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """{'scaled': metrics, 'raw': raw metrics, 'failed': failed ops,
    'attempted': all ops, 'environment': {ENV_KEYS: values}} of one
    `bench/run.py` run of tree; a key its environment line lacks is None."""
    proc = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=4 * seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    raw = next(json.loads(line[len(RAW_PREFIX):]) for line in lines
               if line.startswith(RAW_PREFIX))
    env = next(json.loads(line[len(ENV_PREFIX):]) for line in lines
               if line.startswith(ENV_PREFIX))
    result = json.loads(lines[-1])
    return {"scaled": {name: m["value"] for name, m in result["metrics"].items()},
            "raw": raw, "failed": result["failed"], "attempted": result["attempted"],
            "environment": {key: env.get(key) for key in ENV_KEYS}}


def quartiles(values):
    """(q1, median, q3) of values; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent, change, better: str):
    """(summary line, paired direction, shift) of one metric's paired values.
    The paired direction is 1 when the change is better in at least
    WIN_SHARE of the pairs, -1 when the parent is, else 0; shift is whether
    the median moved by more than the parent's interquartile range and by at
    least MIN_SHIFT of the parent's median."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    need = math.ceil(WIN_SHARE * len(parent))
    direction = 1 if wins >= need else -1 if losses >= need else 0
    shift = abs(cmed - pmed) > max(pq3 - pq1, MIN_SHIFT * abs(pmed))
    ratio = cmed / pmed if pmed else math.nan
    text = (f"parent {pmed:.5g} [{pq1:.5g}, {pq3:.5g}]  change {cmed:.5g} [{cq1:.5g}, {cq3:.5g}]"
            f"  ratio {ratio:.3f}  wins {wins}/{len(parent)}")
    return text, direction, shift


def bytecode_cached(tree: Path) -> bool:
    """True when every source of tree's fbjacobi has a .pyc in __pycache__
    no older than itself (none is written under PYTHONDONTWRITEBYTECODE)."""
    pkg = tree / "src" / "fbjacobi"
    tag = sys.implementation.cache_tag
    for py in pkg.glob("*.py"):
        pyc = pkg / "__pycache__" / f"{py.stem}.{tag}.pyc"
        if not pyc.is_file() or pyc.stat().st_mtime < py.stat().st_mtime:
            return False
    return True


def digests(change: Path, checkout: Path) -> dict:
    """{name: digest} from the change's `tools/output_digests.py` on checkout."""
    proc = subprocess.run([sys.executable, str(change / "tools" / "output_digests.py"),
                           str(checkout)], capture_output=True, text=True, check=True,
                          timeout=3600)
    return dict(line.split() for line in proc.stdout.splitlines())


def report_environment(runs):
    """Print each side's ENV_KEYS values (every distinct set its runs had),
    and a warning when the two sides' differ."""
    seen = {side: sorted({tuple(r["environment"][key] for key in ENV_KEYS)
                          for r in runs[side]}, key=repr) for side in runs}
    for side, values in seen.items():
        text = "; ".join(" ".join(f"{key} {v}" for key, v in zip(ENV_KEYS, vs)) for vs in values)
        print(f"{side:<6} {text}")
    if seen["parent"] != seen["change"]:
        print("warning: the sides ran with different usable_cores or blas_threads, "
              "so a difference may come from the machine, not the code")


def report_workload(workload, runs, config):
    print(f"\n== {workload}: {len(runs['parent'])} pairs")
    report_environment(runs)
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    share = {side: failed[side] / max(1, sum(r["attempted"] for r in runs[side]))
             for side in runs}
    for metric in config["end_to_end"]:
        name = metric["name"]
        claim = None
        for kind in ("scaled", "raw"):
            if name not in runs["parent"][0][kind]:
                continue
            text, direction, shift = compare([r[kind][name] for r in runs["parent"]],
                                             [r[kind][name] for r in runs["change"]],
                                             metric["better"])
            print(f"{name:<14} {kind:<6} {text}")
            if kind == "scaled":
                claim = direction if shift and len(runs["parent"]) >= MIN_PAIRS else 0
            elif direction != claim:
                claim = 0
        if claim == 1 and share["change"] > share["parent"]:
            claim = 0  # a gain bought with failed operations is no gain
        print(f"{name:<14} claim  {({1: 'gain', -1: 'loss'}).get(claim, '-')}")
    print(f"failed ops: parent {failed['parent']}, change {failed['change']}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    for side, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            print(f"error: no bench/run.py under {side} tree {tree}", file=sys.stderr)
            return 2
    config = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    for side, tree in trees.items():
        cached = "cached" if bytecode_cached(tree) else "not cached"
        print(f"{side}: {tree} (bytecode {cached} before the runs)")

    for workload in workloads:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(bench_run(trees[side], workload, args.seconds, args.seed))
        report_workload(workload, runs, config)

    theirs = digests(trees["change"], trees["parent"])
    ours = digests(trees["change"], trees["change"])
    differ = [name for name in ours if theirs.get(name) != ours[name]]
    print(f"\ndigests: {len(ours) - len(differ)} of {len(ours)} equal")
    for name in differ:
        print(f"differs: {name} parent {theirs.get(name)} change {ours[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
