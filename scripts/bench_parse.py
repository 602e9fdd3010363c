"""Parser ladder: how long `parse_system` takes on the text of k x (k+2)
integer systems.

    python3 scripts/bench_parse.py --label change
    python3 scripts/bench_parse.py --label parent --src ../parent/src

For k = 4, 8, 16, 32, 64 the ladder writes SYSTEMS seeded documents, each
drawn like a `bench_snf.py` system (moduli up to 10^7 that share a power of
one of 2, 3, 5, 7) and written one congruence per line, "mod m: a1*x1 + ...
= b", as the snf-wide benchmark queries are. seconds is the best of 5 runs
of `parse_system` over all of them, timed with time.perf_counter; bytes and
tokens are the rung's total text length and token count.

The figures are stored under --label in the output file (default
BENCH_parse.json at the root of the checkout), next to those of other
labels, so one file holds runs of two commits made on one machine.
documents_sha256 is the hash of the canonical text of every parsed
document, to compare the commits.
"""

from __future__ import annotations

import hashlib
import random
import re

from bench_snf import wide_system
from ladder import best_of, parse_args, write_run

KS = (4, 8, 16, 32, 64)
SYSTEMS = 20
# Identifiers, integers and symbols, as the format's grammar has them.
TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|[()+\-*^:,=]")


def system_text(rows, moduli, rhs) -> str:
    lines = []
    for m, row, b in zip(moduli, rows, rhs):
        terms = " + ".join(f"{a}*x{j + 1}" for j, a in enumerate(row))
        lines.append(f"mod {m}: {terms} = {b}")
    return "\n".join(lines) + "\n"


def rung(k: int, congruences) -> dict:
    texts = [wide_system(random.Random(f"bench_parse/{k}/{i}"), k, system_text)
             for i in range(SYSTEMS)]
    documents = "".join(congruences.format_document(congruences.parse_system(t)) for t in texts)
    return {
        "k": k,
        "systems": SYSTEMS,
        "bytes": sum(len(t) for t in texts),
        "tokens": sum(len(TOKEN.findall(t)) for t in texts),
        "seconds": best_of(lambda: [congruences.parse_system(t) for t in texts]),
        "documents_sha256": hashlib.sha256(documents.encode()).hexdigest(),
    }


def main() -> None:
    args = parse_args(__doc__.splitlines()[0], "BENCH_parse.json")
    import congruences

    ladder = []
    for k in KS:
        ladder.append(rung(k, congruences))
        r = ladder[-1]
        print(f"k={k:2d} {SYSTEMS} documents {r['tokens']:7d} tokens"
              f" {r['seconds'] * 1e3:9.2f} ms", flush=True)
    write_run(args.out, args.label, ladder)


if __name__ == "__main__":
    main()
