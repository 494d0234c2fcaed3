"""fbjacobi benchmark: runs one workload in this process and prints its metrics.

    python3 bench/run.py --workload converge --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25

The benchmark drives fbjacobi from outside, through the functions of its
modules, as one client in a closed loop: the next op starts when the last one
has finished. `--trace 0` times untraced ops and prints the end-to-end
metrics named in BENCHMARK.json. `--trace 1` alternates untraced ops with ops
traced through wrappers around fbjacobi (see spans.py) and prints the
per-layer metrics. The last line of standard output is the result JSON;
`bench_out/` receives the per-op records and, for traced runs, the spans.
`--workload all` runs each workload in a fresh process and prints one table.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
DEFAULT_SEED = 0
SETUP_REPEATS = 5
# One BLAS thread (<= nproc): a two-thread OpenBLAS spins while it waits, and
# ran ops 3-4x slower whenever another process held the second core.
BLAS_THREADS = 1
# The processor of a shared virtual machine can run 1.4-2x slower for seconds
# to minutes at a time. While the ops run, a SIGALRM timer interrupts them
# every PROBE_INTERVAL_S to time a fixed piece of pure Python, the speed probe
# (about 1.5% of the run; its time is taken out of the op's time). Each op's
# seconds are scaled by PROBE_REFERENCE_S over the median probe time in and
# around the op (see `scale`). Every reported time is thus in seconds at the
# speed at which the probe takes PROBE_REFERENCE_S, about the speed of the
# machine the benchmark was written on in its fast phases. Raw seconds are
# recorded beside them. A timed import runs in a fresh interpreter, which
# probes its own speed before and after the import.
#
# The probe is an integer loop followed by reads from a 20,000-float list and
# a 4,096-entry dict. In the slow phases the integer loop alone slowed about
# 0.7x as much as the ops (in log terms) and the reads 1.1-1.4x as much;
# their sum slowed 0.9-1.1x as much as the ops of every workload.
PROBE_REFERENCE_S = 0.00065
PROBE_INTERVAL_S = 0.05
PROBE_WINDOW_S = 0.5  # probes this close to an op also time it
MIN_PROBES = 9  # short ops borrow the probes nearest to them
PROBE = """
import time

FLOATS = [float(i) for i in range(20_000)]
TABLE = {i: float(i) for i in range(4096)}


def probe():
    start = time.perf_counter()
    total = 0
    for i in range(5000):
        total += i * i
    acc = 0.0
    for j in range(0, 20_000, 14):
        x = FLOATS[j]
        acc = max(acc + TABLE[j & 4095] * x, x)
    return start, time.perf_counter() - start
"""
_namespace = {}
exec(PROBE, _namespace)
probe = _namespace["probe"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("converge", "large-n", "custom-expr", "selftest", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit():
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fbjacobi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


class SpeedSampler:
    """Speed probes taken on a timer while the ops run, as (start, seconds)."""

    def __init__(self):
        self.samples = []
        self.paused = False

    def _probe(self, signum, frame):
        if not self.paused:
            self.paused = True  # a signal that arrives during a probe is skipped
            self.samples.append(probe())
            self.paused = False

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, start, end):
        """Seconds the probes took between start and end."""
        return sum(s for t, s in self.samples if start <= t < end)

    def factor(self, start, end):
        """PROBE_REFERENCE_S over the median probe time from PROBE_WINDOW_S
        before start to PROBE_WINDOW_S after end, or over the MIN_PROBES
        probes nearest to the interval when the window holds fewer."""
        near = [s for t, s in self.samples
                if start - PROBE_WINDOW_S <= t < end + PROBE_WINDOW_S]
        if len(near) < MIN_PROBES:
            def distance(sample):
                return max(start - sample[0], sample[0] - end, 0.0)
            near = [s for _, s in sorted(self.samples, key=distance)[:MIN_PROBES]]
        return PROBE_REFERENCE_S / statistics.median(near)


def timed_import():
    """(seconds, speed factor) of importing fbjacobi in a fresh interpreter,
    as a user's command pays it; this process can import it only once."""
    script = PROBE + (
        "import sys\n"
        "probes = [probe()[1] for _ in range(5)]\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "start = time.perf_counter()\n"
        "import numpy, fbjacobi, fbjacobi.cli\n"
        "seconds = time.perf_counter() - start\n"
        "probes += [probe()[1] for _ in range(5)]\n"
        "print(seconds, sorted(probes)[len(probes) // 2])\n")
    proc = subprocess.run([sys.executable, "-c", script, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    seconds, probe_s = (float(x) for x in proc.stdout.split())
    return seconds, PROBE_REFERENCE_S / probe_s


def nearest_rank(values, percentile):
    """(value, ops beyond it) at the nearest-rank percentile of values."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percentile // 100))
    return ordered[int(rank) - 1], len(ordered) - int(rank)


def run_op(workload, fb, records, sampler, tracer=None):
    """Time one op, then gate it; an exception or a gate miss is a failed op.
    A traced op runs without probes. Returns the op's tracer counters, if
    traced."""
    index = len(records)
    if tracer is not None:
        sampler.paused = True
        tracer.begin_op(index)
    start = time.perf_counter()
    try:
        output, error = workload.op(fb), None
    except Exception as exc:  # a crashing op is a failed op, never a crashed run
        output, error = None, exc
    end = time.perf_counter()
    counters = None if tracer is None else tracer.end_op()
    sampler.paused = False
    record = {"op": index, "traced": tracer is not None, "start": start, "end": end,
              "ok": False, "linf": None, "cond": None}
    if error is None:
        try:
            record.update(workload.check(output), ok=True)
        except Exception as exc:  # gate misses and unreadable output alike
            error = exc
    if error is not None:
        record["error"] = f"{type(error).__name__}: {error}"
    record["cycle_end"] = time.perf_counter()
    records.append(record)
    return counters


def scale(records, sampler):
    """Take the probes' time out of each op and scale what is left by the
    speed factor of the probes in and around the op."""
    for record in records:
        start, end, cycle_end = record["start"], record["end"], record["cycle_end"]
        raw = end - start - sampler.spent(start, end)
        raw_cycle = cycle_end - start - sampler.spent(start, cycle_end)
        factor = sampler.factor(start, end)
        record.update(raw_seconds=raw, raw_cycle_s=raw_cycle, speed_factor=factor,
                      seconds=raw * factor, cycle_s=raw_cycle * factor)


def end_to_end(records, setup_s, tail_percentile):
    seconds = [r["seconds"] for r in records]
    tail, beyond = nearest_rank(seconds, tail_percentile)
    values = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(seconds),
        "op_tail_s": tail,
        "ops_per_s": len(records) / sum(r["cycle_s"] for r in records),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": sum(r["ok"] for r in records) / len(records),
    }
    tail_note = {"percentile": tail_percentile, "samples": len(records), "beyond": beyond}
    return values, tail_note


def op_mean(counters, key):
    return sum(c.get(key, 0.0) for c in counters) / len(counters)


def per_layer(counters, traced, untraced, names):
    values = {name: op_mean(counters, name) for name in names}
    values["volterra_solver.source_calls"] += op_mean(counters, "volterra_solver.source_w_calls")
    calls = values["volterra_solver.kernel_calls"]
    values["volterra_solver.kernel_points_per_call"] = (
        values["volterra_solver.kernel_points"] / calls if calls else 0.0)
    values["cli.csv_bytes"] = statistics.fmean(r.get("csv_bytes", 0) for r in traced)
    # Median over (untraced op, traced op) pairs, each pair run back to back.
    values["trace.overhead_ratio"] = statistics.median(
        t["seconds"] / u["seconds"] for u, t in zip(untraced, traced))
    return values


def run_workload(args, config) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "fbjacobi" / "__init__.py").is_file():
        print(f"error: fbjacobi sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    imports = [timed_import() for _ in range(SETUP_REPEATS)]
    import numpy as np
    import fbjacobi as fb
    import fbjacobi.cli  # noqa: F401  (binds fb.cli)
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.prepare(fb)
        prepare_s.append(time.perf_counter() - start)
    raw_setup_s = statistics.median(s for s, _ in imports) + statistics.median(prepare_s)
    setup_s = raw_setup_s * statistics.median(f for _, f in imports)

    # Closed loop: ops back to back until the deadline, at least one. A traced
    # run alternates untraced and traced ops, so that a change in machine speed
    # during the run does not enter trace.overhead_ratio.
    records, counters = [], []
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    sampler = SpeedSampler()
    deadline = time.perf_counter() + args.seconds
    sampler.start()
    try:
        while True:
            run_op(workload, fb, records, sampler)
            if tracer is not None:
                tracer.install()
                workload.prepare(fb)  # rebuilds the problem with traced callables
                counters.append(run_op(workload, fb, records, sampler, tracer))
                tracer.uninstall()
                workload.prepare(fb)
            if time.perf_counter() >= deadline:
                break
    finally:
        sampler.stop()
    scale(records, sampler)

    result = {"workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
              "seconds": args.seconds, "trace": args.trace, "inputs": workload.inputs,
              "environment": environment(np),
              "setup": {"import_s_and_speed_factor": imports, "prepare_s": prepare_s}}
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    if tracer is not None:
        untraced = [r for r in records if not r["traced"]]
        traced = [r for r in records if r["traced"]]
        names = [m["name"] for m in config["per_layer"]]
        counters = [{k: v * r["speed_factor"] if k.endswith("_s") else v for k, v in c.items()}
                    for c, r in zip(counters, traced)]
        values = per_layer(counters, traced, untraced, names)
        units = {m["name"]: m["unit"] for m in config["per_layer"]}
        op_s = statistics.fmean(r["seconds"] for r in traced)
        layers = sorted({k[:-len(".self_s")] for c in counters for k in c if k.endswith(".self_s")})
        result["self_share"] = {layer: op_mean(counters, f"{layer}.self_s") / op_s
                                for layer in layers}
        result["op_counters"] = counters
        tracer.write(OUT / f"TRACE_{args.workload}_seed{args.seed}.json.gz")
    else:
        values, result["op_tail"] = end_to_end(records, setup_s, workload.tail_percentile)
        raw = [r["raw_seconds"] for r in records]
        result["raw"] = {"setup_s": raw_setup_s, "op_p50_s": statistics.median(raw),
                         "op_tail_s": nearest_rank(raw, workload.tail_percentile)[0],
                         "ops_per_s": len(records) / sum(r["raw_cycle_s"] for r in records),
                         "speed_factor_p50": statistics.median(r["speed_factor"]
                                                               for r in records)}
        units = {m["name"]: m["unit"] for m in config["end_to_end"]}

    failed = sum(not r["ok"] for r in records)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result.update(ops=records, metrics=metrics)
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print("environment " + json.dumps(result["environment"]))
    if "op_tail" in result:
        tail = result["op_tail"]
        print(f"op_tail_s is the p{tail['percentile']} of {tail['samples']} ops "
              f"({tail['beyond']} beyond it)")
        print("raw (unscaled) " + json.dumps(result["raw"]))
    for record in records:
        if not record["ok"]:
            print(f"failed op {record['op']}: {record['error']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args, config) -> int:
    """Every workload in a fresh process, one after the other; one table."""
    combined, attempted, failed = {}, 0, 0
    for workload in (w["name"] for w in config["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            combined[f"{workload}.{name}"] = metric
            print(f"{workload:<12} {name:<40} {metric['value']:<24.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, config)
    return run_workload(args, config)


if __name__ == "__main__":
    sys.exit(main())
