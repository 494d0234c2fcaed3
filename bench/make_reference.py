"""Write bench/converge_reference.json: the linf column of the `converge`
workload's command for every configuration it can draw.

The stored curves gate the `converge` workload, so regenerate them only when
a change is meant to alter the accuracy of the solver, and say so.

    python3 bench/make_reference.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fbjacobi.cli  # noqa: E402
from workloads import CONVERGE_CONFIGS, converge_argv, reference_key  # noqa: E402


def main() -> int:
    curves = {}
    out = HERE.parent / "bench_out" / "reference.csv"
    out.parent.mkdir(exist_ok=True)
    for theta, rho in CONVERGE_CONFIGS:
        if fbjacobi.cli.main(converge_argv(theta, rho, out)) != 0:
            print(f"converge failed for theta={theta}, rho={rho}", file=sys.stderr)
            return 1
        rows = out.read_text().splitlines()[1:]
        curves[reference_key(theta, rho)] = [float(row.split(",")[1]) for row in rows]
    with open(HERE / "converge_reference.json", "w") as fh:
        json.dump(curves, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
