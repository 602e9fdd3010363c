"""Smith-form ladder: how long the invariant-factor count takes on k x (k+2)
integer systems with non-coprime moduli.

    python3 scripts/bench_snf.py --label change
    python3 scripts/bench_snf.py --label parent --src ../parent/src

For k = 4, 8, 12, 16, 24, 32 the ladder draws SYSTEMS seeded systems shaped
like the snf-wide benchmark queries: n = k + 2 variables, moduli up to 10^7
that share a power (1-3) of one of 2, 3, 5, 7, and coefficients and rhs
reduced by their row's modulus. seconds is the best of 5 runs of
`butson_stewart_count` over all of them, timed with time.perf_counter.

The figures are stored under --label in the output file (default
BENCH_snf.json at the root of the checkout), next to those of other labels,
so one file holds runs of two commits made on one machine.
invariant_factors_sha256 is the hash of the rung's invariant factors, to
compare the commits.
"""

from __future__ import annotations

import hashlib
import json
import random

from ladder import best_of, parse_args, write_run

KS = (4, 8, 12, 16, 24, 32)
SYSTEMS = 6
MODULUS_LIMIT = 10**7


def wide_system(rng: random.Random, k: int, congruence_system):
    n = k + 2
    shared = rng.choice((2, 3, 5, 7))
    moduli = []
    for _ in range(k):
        part = shared ** rng.randint(1, 3)
        moduli.append(part * rng.randrange(1, MODULUS_LIMIT // part))
    return congruence_system(
        tuple(tuple(rng.randrange(m) for _ in range(n)) for m in moduli),
        tuple(moduli),
        tuple(rng.randrange(m) for m in moduli),
    )


def rung(k: int, congruences) -> dict:
    systems = [
        wide_system(random.Random(f"bench_snf/{k}/{i}"), k, congruences.CongruenceSystem)
        for i in range(SYSTEMS)
    ]
    reports = [congruences.butson_stewart_count(system) for system in systems]
    factors = [[str(e) for e in report.details["invariant_factors"]] for report in reports]
    return {
        "k": k,
        "systems": SYSTEMS,
        "seconds": best_of(lambda: [congruences.butson_stewart_count(s) for s in systems]),
        "max_factor_digits": max(len(e) for row in factors for e in row),
        "invariant_factors_sha256": hashlib.sha256(json.dumps(factors).encode()).hexdigest(),
    }


def main() -> None:
    args = parse_args(__doc__.splitlines()[0], "BENCH_snf.json")
    import congruences

    ladder = []
    for k in KS:
        ladder.append(rung(k, congruences))
        r = ladder[-1]
        print(f"k={k:2d} {SYSTEMS} systems {r['seconds'] * 1e3:9.2f} ms"
              f"  largest factor {r['max_factor_digits']} digits", flush=True)
    write_run(args.out, args.label, ladder)


if __name__ == "__main__":
    main()
