"""Start-up ladder: the wall time of fresh processes that import the command
line or run one subcommand.

    python3 scripts/bench_startup.py --label change
    python3 scripts/bench_startup.py --label parent --src ../parent/src

Each rung is one command, run SPAWNS times in a fresh interpreter with --src
first on PYTHONPATH; the commands take turns, one spawn each per round, so a
drift in the machine's speed reaches all of them alike. The script pins
itself and its children to the first CPU it may run on. seconds is the lower
quartile of a rung's spawns, timed with time.perf_counter around
subprocess.run, and median_s their median. The first rung, `python -c pass`,
is the interpreter's own start-up, which no change to the package can lower.

Without a bytecode cache every spawn compiles each module it imports, so the
run records whether PYTHONDONTWRITEBYTECODE was set and whether the package
had a __pycache__ directory before the first spawn. The figures are stored
under --label in the output file (default BENCH_startup.json at the root of
the checkout), next to those of other labels.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from time import perf_counter

from ladder import ROOT, parse_args, write_run

SPAWNS = 30
INT_SAMPLE = "samples/int_restricted_15_14.cong"
COMMANDS = (
    ("python -c pass", ["-c", "pass"]),
    ("import congruences.cli", ["-c", "import congruences.cli"]),
    ("count int", ["-m", "congruences.cli", "count", INT_SAMPLE]),
    ("count poly", ["-m", "congruences.cli", "count", "samples/poly_restricted_gf3.cong"]),
    ("snf int", ["-m", "congruences.cli", "snf", "samples/int_system_12_35.cong"]),
    ("verify int", ["-m", "congruences.cli", "verify", INT_SAMPLE]),
)


def main() -> None:
    args = parse_args(__doc__.splitlines()[0], "BENCH_startup.json")
    src = args.src.resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])
    ))
    pycache = (src / "congruences" / "__pycache__").is_dir()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    times: dict[str, list[float]] = {name: [] for name, _ in COMMANDS}
    for _ in range(SPAWNS):
        for name, argv in COMMANDS:
            t0 = perf_counter()
            subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                           stdout=subprocess.DEVNULL)
            times[name].append(perf_counter() - t0)
    ladder = []
    for name, argv in COMMANDS:
        spawns = times[name]
        ladder.append({
            "command": name,
            "argv": argv,
            "seconds": statistics.quantiles(spawns, n=4)[0],
            "median_s": statistics.median(spawns),
        })
        print(f"{name:24s} {ladder[-1]['seconds'] * 1e3:7.1f} ms"
              f" (median {ladder[-1]['median_s'] * 1e3:.1f} ms)", flush=True)
    write_run(args.out, args.label, ladder, repeats=SPAWNS,
              pythondontwritebytecode=bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
              pycache_before=pycache)


if __name__ == "__main__":
    main()
