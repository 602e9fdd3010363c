"""Oracle ladder: how long `verify` takes as the lcm of the moduli gains one
prime power per rung, and how many tuples its oracle has to scan.

    python3 scripts/bench_oracle.py --label change
    python3 scripts/bench_oracle.py --label parent --src ../parent/src

Rung k (k = 1..8) is the n = 2 system with one row per prime power q_i of
4, 3, 5, 7, 11, 13, 17, 19 up to the k-th, row i reading
`mod q_i: x1 + (i + 1)*x2 = i`, so the lcm L is q_1 ... q_k. Each rung
records:

- whole_tuples: |L|^2, what a whole scan of (Z/L)^2 visits;
- piece_tuples: the sum of the q_i^2, what a scan by CRT pieces visits;
- oracle: the oracle's entry in the `verify` output (a count or the text
  of its "skipped");
- verify_s: `cli.run_cli(["verify", file])` end to end, the best of 5 runs
  timed with time.perf_counter.

The figures are stored under --label in the output file (default
BENCH_oracle.json at the root of the checkout), next to those of other
labels, so one file holds runs of two commits made on one machine.
output_sha256 is the hash of the `verify` output, to compare the commits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

from ladder import best_of, parse_args, write_run

PRIME_POWERS = (4, 3, 5, 7, 11, 13, 17, 19)


def rung(k: int, cli, work: Path) -> dict:
    pieces = PRIME_POWERS[:k]
    text = "".join(f"mod {q}: x1 + {i + 1}*x2 = {i}\n" for i, q in enumerate(pieces, 1))
    path = work / f"k{k}.cong"
    path.write_text(text, encoding="utf-8")

    def verify() -> str:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            if cli.run_cli(["verify", str(path)]) != 0:
                raise SystemExit(f"verify failed at k = {k}")
        return buffer.getvalue()

    output = verify()
    oracle = json.loads(output)["methods"]["oracle"]
    return {
        "k": k,
        "lcm": math.prod(pieces),
        "whole_tuples": math.prod(pieces) ** 2,
        "piece_tuples": sum(q**2 for q in pieces),
        "oracle": oracle.get("count", oracle.get("skipped")),
        "verify_s": best_of(verify),
        "output_sha256": hashlib.sha256(output.encode()).hexdigest(),
    }


def main() -> None:
    args = parse_args(__doc__.splitlines()[0], "BENCH_oracle.json")
    from congruences import cli

    with tempfile.TemporaryDirectory() as tmp:
        ladder = [rung(k, cli, Path(tmp)) for k in range(1, len(PRIME_POWERS) + 1)]
    for r in ladder:
        print(f"k={r['k']} L={r['lcm']:9d} whole {r['whole_tuples']:.2e} pieces"
              f" {r['piece_tuples']:5d}  verify {r['verify_s'] * 1e3:9.2f} ms  oracle {r['oracle']}")
    write_run(args.out, args.label, ladder)


if __name__ == "__main__":
    main()
