"""What the ladder scripts in this directory share: the best-of timer, the
--label/--src/--out arguments, and the merge of one labelled run into a
BENCH_*.json document.

A document holds {"runs": {label: run}}, so one file keeps the runs of two
commits made on one machine side by side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5


def best_of(fn) -> float:
    """The least wall time of REPEATS calls of fn."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return min(times)


def parse_args(description: str, out_name: str) -> argparse.Namespace:
    """Read --label, --src and --out, and put --src first on sys.path so that
    `congruences` is imported from there."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the congruences package to time")
    parser.add_argument("--out", type=Path, default=ROOT / out_name)
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    return args


def write_run(out: Path, label: str, ladder: list[dict], repeats: int = REPEATS,
              **facts) -> None:
    """Store ladder under label in out, next to the runs of other labels,
    with facts about the run beside the machine's."""
    document = json.loads(out.read_text()) if out.exists() else {}
    document.setdefault("runs", {})[label] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": repeats,
        **facts,
        "ladder": ladder,
    }
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
