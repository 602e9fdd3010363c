"""One closed-loop client: sends a workload's queries to `congruences.cli.run_cli`
in this process, one after another, and prints what it saw as JSON.

Started by run.py from the root of a checkout, whose `src/` it imports. Each
query's text is written to a file before its timer starts; the timer covers
run_cli alone (read, parse, count, JSON). Before each query the worker times
calibrate(), which says how fast the shared machine runs at that moment;
run.py scales the latencies by it. Untraced, it stops at the end of
the first whole cycle of query shapes by which the timed query time has
reached --seconds and at least MIN_QUERIES ran. Traced, it runs exactly
--max-queries queries with every layer wrapped by tracer.py. The peak
resident memory is read when MIN_QUERIES queries have run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

# Every untraced pass runs at least this many queries, so the p90 latency has
# at least ten samples beyond it.
MIN_QUERIES = 100
# Imports the program makes lazily on a workload's first query; they belong
# to set-up, not to that query's latency.
LAZY_IMPORTS = {"verify-oracle": ("numpy",)}
# Steps of calibrate(): about 1 ms of pure-Python integer arithmetic on a
# 2.0 GHz Xeon.
CALIBRATION_LOOPS = 6000


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python integer arithmetic, the
    kind of work the program does. It does not touch the program, so a change
    to the program cannot change it; only the machine's speed does."""
    t0 = perf_counter()
    s = 0
    for i in range(CALIBRATION_LOOPS):
        s = (s * 31 + i * 2654435761) % 1000000007
    return perf_counter() - t0


def _answer(subcommand: str, stdout: str) -> dict:
    payload = json.loads(stdout)
    if subcommand == "verify":
        methods = payload.get("methods", {})
        counts = {name: m["count"] for name, m in methods.items() if "count" in m}
        return {"agreement": payload.get("agreement"), "counts": counts}
    return {"count": payload.get("count")}


def _import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import congruences
    from congruences import cli

    if not Path(congruences.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"congruences imported from {congruences.__file__}, not {src}")
    return congruences, cli


def _layer_metrics(tracer, records, factorize_before, factorize_after) -> dict:
    from tracer import LAYERS, layer_totals

    totals = layer_totals(tracer)
    per, counters = totals["per_name"], tracer.counters
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = totals["self_s"][layer]
        metrics[f"{layer}.calls"] = totals["calls"][layer]
    hits = factorize_after.hits - factorize_before.hits
    misses = factorize_after.misses - factorize_before.misses
    tuples = counters["systems.oracle.tuples_scanned"]
    poly_factorizations = per["gfpoly.factorize_poly"]
    dsl_self = totals["self_s"]["dsl"]
    metrics.update({
        "intarith.factorize.calls": per["intarith.factorize"],
        "intarith.factorize.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "ramanujan.ramanujan_c.calls": per["ramanujan.ramanujan_c"],
        "systems.divisor_rows": counters["systems.divisor_rows"],
        "systems.oracle.tuples_scanned": tuples,
        "systems.oracle.hit_ratio": counters["systems.oracle.solutions"] / tuples if tuples else 0.0,
        "gfpoly.divmod.calls": per["gfpoly.divmod"],
        "gfpoly.mul.calls": per["gfpoly.mul"],
        "gfpoly.poly_gcd.calls": per["gfpoly.poly_gcd"],
        "gfpoly.factorize_poly.calls": poly_factorizations,
        "gfpoly.factorize_poly.distinct_ratio": (
            counters["gfpoly.factorize_poly.distinct"] / poly_factorizations
            if poly_factorizations else 0.0
        ),
        "ffsystems.eta.calls": per["ffsystems.eta"],
        "ffsystems.divisor_rows": counters["ffsystems.divisor_rows"],
        "ffsystems.oracle.tuples_scanned": counters["ffsystems.oracle.tuples_scanned"],
        "snf.max_entry_digits": counters["snf.max_entry_digits"],
        "dsl.bytes_per_s": counters["dsl.bytes"] / dsl_self if dsl_self else 0.0,
        "cli.output_bytes": sum(r["bytes"] for r in records),
        "cli.exit_nonzero": sum(1 for r in records if r["rc"] != 0),
    })
    query_s = sum(r["seconds"] for r in records)
    metrics["trace.unattributed_ratio"] = (query_s - sum(totals["self_s"].values())) / query_s
    return metrics


def _save_spans(tracer, path: Path) -> None:
    import numpy as np

    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name_id=np.frombuffer(tracer.name_id, dtype=np.int32),
        start=np.frombuffer(tracer.start, dtype=np.float64),
        end=np.frombuffer(tracer.end, dtype=np.float64),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        query=np.frombuffer(tracer.query, dtype=np.int32),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True, help="directory for query files")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-queries", type=int)
    parser.add_argument("--spans", type=Path, help="trace the layers and save the spans here")
    args = parser.parse_args()

    root = Path.cwd()
    package, cli = _import_program(root)
    import workloads

    for name in LAZY_IMPORTS.get(args.workload, ()):
        importlib.import_module(name)
    tracer = None
    if args.spans is not None:
        from tracer import LAYERS, Tracer, install

        layers = {name: importlib.import_module(f"congruences.{name}") for name in LAYERS}
        factorize = layers["intarith"].factorize
        tracer = Tracer()
        install(tracer, package, layers)
        factorize_before = factorize.cache_info()

    subcommand = workloads.WORKLOADS[args.workload].subcommand
    stream = workloads.queries(args.workload, args.seed, root / "samples")
    args.work.mkdir(parents=True, exist_ok=True)
    records = []
    busy = 0.0
    rss_mb = None
    # An untraced pass ends on a whole cycle of shapes, so every run has the
    # same mix of query sizes whatever the machine's speed.
    lead = workloads.lead(args.workload, root / "samples")
    cycle = workloads.WORKLOADS[args.workload].cycle
    while (
        len(records) < args.max_queries if args.max_queries is not None
        else busy < args.seconds or len(records) < MIN_QUERIES
        or (len(records) - lead) % cycle
    ):
        calibration = calibrate()
        path = args.work / f"{len(records):05d}.cong"
        path.write_text(next(stream), encoding="utf-8")
        if tracer is not None:
            tracer.query_id = len(records)
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli.run_cli([subcommand, str(path)])
            except Exception:
                error = traceback.format_exc(limit=-3)
            seconds = perf_counter() - t0
        busy += seconds
        path.unlink()
        answer = None
        if rc == 0:
            try:
                answer = _answer(subcommand, out.getvalue())
            except (ValueError, KeyError, AttributeError) as exc:
                error = f"unreadable output: {exc}"
        elif error is None:
            error = f"exit {rc}: {err.getvalue().strip()[:300]}"
        records.append({"seconds": seconds, "calibration": calibration, "rc": rc,
                        "answer": answer, "bytes": len(out.getvalue()), "error": error})
        if len(records) == MIN_QUERIES:
            # Peak memory over a fixed prefix of queries: the caches keep
            # growing, so a peak taken at the end would follow the machine's speed.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"records": records, "peak_rss_mb": rss_mb}
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, records, factorize_before,
                                          factorize.cache_info())
        _save_spans(tracer, args.spans)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
