"""Divisor-table ladder: how long `count` takes to build and to write a
table of tau(m) = 2^k rows.

    python3 scripts/bench_divisor_table.py --label change
    python3 scripts/bench_divisor_table.py --label parent --src ../parent/src

For k = 4..12, m is the product of the first k primes and the system is
`mod m: x1 + x2 = 1` with gcd(x1, m) = gcd(x2, m) = 1. Each figure is the
best of 5 runs, timed with time.perf_counter:

- build_s: `restricted_system_count` on the built system, which builds the
  divisor table (m's factorization is cached after the first run);
- write_s: `cli._emit` of the `count` payload, into a string buffer;
- count_s: `cli.run_cli(["count", file])`, end to end.

The figures are stored under --label in the output file (default
BENCH_divisor_table.json at the root of the checkout), next to those of
other labels, so one file holds runs of two commits made on one machine.
output_sha256 is the hash of the written document, to compare the commits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

from ladder import best_of, parse_args, write_run

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
KS = range(4, 13)


def rung(k: int, cli, dsl, systems, work: Path) -> dict:
    m = 1
    for p in PRIMES[:k]:
        m *= p
    text = f"mod {m}: x1 + x2 = 1\ngcd(x1, {m}) = 1\ngcd(x2, {m}) = 1\n"
    path = work / f"k{k}.cong"
    path.write_text(text, encoding="utf-8")
    doc = dsl.parse_system(text)
    system, restrictions = dsl.build_system(doc), dsl.build_restrictions(doc)
    report = systems.restricted_system_count(system, restrictions)
    payload = {
        "schema": cli.SCHEMA,
        "count": str(report.count),
        "solvable": report.solvable,
        "theorem": report.theorem,
        "details": dict(report.details),
    }

    def write() -> str:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            cli._emit(payload)
        return buffer.getvalue()

    def count() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.run_cli(["count", str(path)]) != 0:
                raise SystemExit(f"count failed at k = {k}")

    output = write()
    return {
        "k": k,
        "rows": len(report.details["divisor_table"]),
        "build_s": best_of(lambda: systems.restricted_system_count(system, restrictions)),
        "write_s": best_of(write),
        "count_s": best_of(count),
        "output_bytes": len(output),
        "output_sha256": hashlib.sha256(output.encode()).hexdigest(),
    }


def main() -> None:
    args = parse_args(__doc__.splitlines()[0], "BENCH_divisor_table.json")
    from congruences import cli, dsl, systems

    with tempfile.TemporaryDirectory() as tmp:
        ladder = [rung(k, cli, dsl, systems, Path(tmp)) for k in KS]
    for r in ladder:
        print(f"k={r['k']:2d} rows={r['rows']:5d} build {r['build_s'] * 1e3:8.2f} ms"
              f"  write {r['write_s'] * 1e3:8.2f} ms  count {r['count_s'] * 1e3:8.2f} ms")
    write_run(args.out, args.label, ladder)


if __name__ == "__main__":
    main()
