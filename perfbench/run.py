"""Benchmark of the congruences CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload int-count --seed 1 --seconds 12 --trace 0

One closed-loop client (worker.py, a single process and thread) sends each
seeded query to `congruences.cli.run_cli` once the previous one has returned.
Times are scaled to a fixed machine speed by worker.calibrate(), timed next
to each query and each set-up spawn, because this shared machine's speed
drifts by a third within minutes. Every answer is checked against
reference.py, which shares no code with the program. The last line of stdout
is one JSON object: the end-to-end metrics with --trace 0; with --trace 1 the
per-layer metrics of a traced pass over a fixed number of queries, next to an
untraced pass over the same queries.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import reference
import workloads
from worker import LAZY_IMPORTS, calibrate

HERE = Path(__file__).resolve().parent

# Fresh interpreters timed for setup_s; the lower quartile is reported, as a
# slow spawn is the machine's doing.
SETUP_SPAWNS = 30
# Times are reported at the machine speed at which calibrate() takes this
# long. A query's wall time is scaled by it over the median calibration time
# of the queries up to CALIBRATION_WINDOW places before or after it.
CALIBRATION_REFERENCE_S = 0.001
CALIBRATION_WINDOW = 10
# A traced pass runs the fewest whole cycles of the workload's shapes that
# make at least this many queries (after the samples, for verify-oracle), so
# layer counts repeat exactly for a given seed.
TRACE_MIN_QUERIES = 20
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.{kind}": unit
       for layer in ("cli", "dsl", "systems", "snf", "ramanujan", "intarith", "ffsystems", "gfpoly")
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "intarith.factorize.calls": "count",
    "intarith.factorize.hit_ratio": "ratio",
    "ramanujan.ramanujan_c.calls": "count",
    "systems.divisor_rows": "count",
    "systems.oracle.tuples_scanned": "count",
    "systems.oracle.hit_ratio": "ratio",
    "gfpoly.divmod.calls": "count",
    "gfpoly.mul.calls": "count",
    "gfpoly.poly_gcd.calls": "count",
    "gfpoly.factorize_poly.calls": "count",
    "gfpoly.factorize_poly.distinct_ratio": "ratio",
    "ffsystems.eta.calls": "count",
    "ffsystems.divisor_rows": "count",
    "ffsystems.oracle.tuples_scanned": "count",
    "snf.max_entry_digits": "digits",
    "dsl.bytes_per_s": "B/s",
    "cli.output_bytes": "B",
    "cli.exit_nonzero": "count",
    "error_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}


def measure_setup(root: Path, workload: str) -> list[float]:
    """Times, scaled to the reference speed, for fresh interpreters to import
    congruences.cli and whatever the workload's first queries import lazily."""
    code = "import sys; sys.path.insert(0, 'src'); import congruences.cli"
    code += "".join(f"; import {name}" for name in LAZY_IMPORTS.get(workload, ()))
    times = []
    for _ in range(SETUP_SPAWNS):
        speed = [calibrate() for _ in range(3)]
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, check=True)
        seconds = perf_counter() - t0
        speed += [calibrate() for _ in range(3)]
        times.append(seconds * CALIBRATION_REFERENCE_S / statistics.median(speed))
    return times


def scaled_seconds(records: list[dict]) -> list[float]:
    """Each query's wall time at the reference machine speed."""
    speed = [r["calibration"] for r in records]
    w = CALIBRATION_WINDOW
    return [
        r["seconds"] * CALIBRATION_REFERENCE_S / statistics.median(speed[max(0, i - w): i + w + 1])
        for i, r in enumerate(records)
    ]


def current_cpu() -> int:
    """The CPU this process last ran on: field 39 of /proc/self/stat."""
    stat = Path("/proc/self/stat").read_text(encoding="ascii")
    return int(stat.rsplit(")", 1)[1].split()[36])


def trace_queries(workload: str, samples: Path) -> int:
    cycle = workloads.WORKLOADS[workload].cycle
    return workloads.lead(workload, samples) + cycle * math.ceil(TRACE_MIN_QUERIES / cycle)


def run_worker(root: Path, workload: str, seed: int, work: Path, *options: str) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--work", str(work), *options]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def failures(root: Path, workload: str, seed: int, records: list[dict]) -> list[str]:
    """The cause of every query whose answer is not the reference answer."""
    subcommand = workloads.WORKLOADS[workload].subcommand
    stream = workloads.queries(workload, seed, root / "samples")
    causes = []
    for i, record in enumerate(records):
        text = next(stream)
        cause = record["error"] or reference.check(
            subcommand, record["answer"], reference.expected(subcommand, text)
        )
        if cause:
            causes.append(f"query {i}: {cause.strip().splitlines()[-1]}")
    return causes


def latency_summary(seconds: list[float]) -> dict[str, float]:
    return {
        "latency_p50_ms": statistics.median(seconds) * 1000,
        "latency_p90_ms": statistics.quantiles(seconds, n=10)[8] * 1000,
        "query_s": sum(seconds),
    }


def end_to_end(root: Path, args, work: Path) -> tuple[dict, int, list[str]]:
    spawns = measure_setup(root, args.workload)
    untraced = run_worker(root, args.workload, args.seed, work, "--seconds", str(args.seconds))
    records = untraced["records"]
    causes = failures(root, args.workload, args.seed, records)
    summary = latency_summary(scaled_seconds(records))
    speed = statistics.median(r["calibration"] for r in records)
    print(f"# latency samples: {len(records)} queries, {summary['query_s']:.2f} s of query time")
    print(f"# calibrate() took {speed * 1000:.3f} ms (median), reference "
          f"{CALIBRATION_REFERENCE_S * 1000:g} ms; times are scaled to the reference")
    values = {
        "setup_s": statistics.quantiles(spawns, n=4)[0],
        "queries_per_s": (len(records) - len(causes)) / summary["query_s"],
        "latency_p50_ms": summary["latency_p50_ms"],
        "latency_p90_ms": summary["latency_p90_ms"],
        "peak_rss_mb": untraced["peak_rss_mb"],
    }
    return values, len(records), causes


def per_layer(root: Path, args, work: Path) -> tuple[dict, int, list[str]]:
    untraced = run_worker(root, args.workload, args.seed, work, "--seconds", str(args.seconds))
    traced = run_worker(root, args.workload, args.seed, work,
                        "--max-queries", str(trace_queries(args.workload, root / "samples")),
                        "--spans", str(root / ".bench_work" / f"spans-{args.workload}.npz"))
    records, traced_records = untraced["records"], traced["records"]
    causes = failures(root, args.workload, args.seed, records)
    causes += [f"traced {cause}"
               for cause in failures(root, args.workload, args.seed, traced_records)]
    attempted = len(records) + len(traced_records)
    plain = latency_summary(scaled_seconds(records)[: len(traced_records)])
    with_spans = latency_summary(scaled_seconds(traced_records))
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = with_spans["query_s"] / plain["query_s"]
    values["error_ratio"] = len(causes) / attempted
    print(f"# same {len(traced_records)} queries   untraced      traced")
    for key in ("query_s", "latency_p50_ms", "latency_p90_ms"):
        print(f"#   {key:<16} {plain[key]:>10.3f}  {with_spans[key]:>10.3f}")
    print("# layer self time (wall), share of the traced pass's wall query time")
    traced_s = sum(r["seconds"] for r in traced_records)
    layer_s = {k: v for k, v in values.items() if k.endswith(".self_s")}
    for key, value in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        print(f"#   {key:<18} {value:10.4f} s  {value / traced_s:6.1%}")
    return values, attempted, causes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "congruences" / "cli.py").is_file():
        print(f"error: {root} holds no src/congruences to benchmark", file=sys.stderr)
        return 2
    if args.workload == "verify-oracle" and not (root / "samples").is_dir():
        print(f"error: {root} holds no samples/ for verify-oracle", file=sys.stderr)
        return 2

    # One CPU for the run and every process it starts: the two vCPUs of this
    # machine differ in speed by up to a third, and which one is slower
    # changes, while a calibration speaks only for the CPU it ran on. The
    # CPU is the one the scheduler started this process on, the idler one.
    os.sched_setaffinity(0, {current_cpu()})
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    measure, units = (per_layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
    try:
        values, attempted, causes = measure(root, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# {args.workload} seed {args.seed}: {len(causes)} failed of {attempted}")
    for cause in causes[:20]:
        print(f"#   {cause}")
    result = {
        "correct": not causes,
        "attempted": attempted,
        "failed": len(causes),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
