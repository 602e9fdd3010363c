"""Output transcript: one sha256 per subcommand over everything the CLI prints
on a fixed corpus, to check that two commits print the same bytes.

    python3 scripts/transcript.py --src ../parent/src
    python3 scripts/transcript.py --workload snf-wide=200 --seed 1

The corpus is the shipped samples, every tests/data/**/*.cong, and the first
N queries of each named benchmark workload at each seed (drawn by
perfbench/workloads.py, which this script only reads). Each input runs
through `congruences.cli.run_cli` in this process under each of `snf`,
`verify`, `count`, `crt` and `enumerate --list`; the exit code, stdout and
stderr of every run go into that subcommand's hash. The inputs come from the
checkout holding this script, and `congruences` from --src, so a run against
another commit's src hashes the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = (("snf",), ("verify",), ("count",), ("crt",), ("enumerate", "--list"))
WORKLOADS = ("snf-wide=1200", "int-count=300", "poly-count=300", "verify-oracle=300")
SEEDS = (1, 5)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the congruences package to run")
    parser.add_argument("--workload", action="append", metavar="NAME=N",
                        help=f"first N queries of a workload (default {' '.join(WORKLOADS)})")
    parser.add_argument("--seed", action="append", type=int,
                        help="workload seed (default 1 and 5)")
    return parser.parse_args()


def corpus(workloads: list[str], seeds: list[int], scratch: Path):
    """The paths of the inputs, in a fixed order. Each workload query is
    written to the same scratch file, read before the next is written."""
    yield from sorted(ROOT.glob("samples/*.cong"))
    yield from sorted(ROOT.glob("tests/data/**/*.cong"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads as generator

    for spec in workloads:
        name, count = spec.split("=")
        for seed in seeds:
            texts = generator.queries(name, seed, ROOT / "samples")
            for text in itertools.islice(texts, int(count)):
                scratch.write_text(text, encoding="utf-8")
                yield scratch


def run(run_cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_cli(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    args = parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    from congruences.cli import run_cli

    hashes = {" ".join(sub): hashlib.sha256() for sub in SUBCOMMANDS}
    inputs = 0
    with tempfile.TemporaryDirectory() as scratch:
        for path in corpus(args.workload or list(WORKLOADS), args.seed or list(SEEDS),
                           Path(scratch) / "query.cong"):
            inputs += 1
            for sub in SUBCOMMANDS:
                record = run(run_cli, [sub[0], str(path), *sub[1:]])
                hashes[" ".join(sub)].update(json.dumps(record).encode() + b"\n")
    for sub, digest in hashes.items():
        print(f"{sub:16} {digest.hexdigest()}")
    print(f"{inputs} inputs")


if __name__ == "__main__":
    main()
