"""Seeded workload generator: the `.cong` texts the benchmark feeds to the CLI.

Each workload is an endless, deterministic stream of distinct systems. Query i
takes its shape (sizes, routes, how the factors of the modulus are dealt to
the rows, which gcd restrictions are trivial) from a fixed cycle, so every run
sees the same mix, and its numbers (primes, irreducible factors, coefficients,
the other restrictions, right-hand sides) from a generator seeded by
(workload, seed, i).

    python3 perfbench/workloads.py --seed 7 --count 20 --out DIR   # all workloads
    python3 perfbench/workloads.py --describe                      # name and why
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from reference import Place, factor_int, irreducibles, padd, pdivmod, pmul, ppow

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_POLY_PRIMES = (2, 3, 5, 7)
_IRREDUCIBLES = {p: irreducibles(p) for p in _POLY_PRIMES}
_SNF_MODULUS_LIMIT = 10**7

# Each workload cycles through a fixed list of query shapes, drawn once from a
# generator with a fixed seed, never from --seed. The shapes step through the
# size ranges in small increments, so query costs have no large gaps and the
# latency quantiles of a run do not jump between clusters of shapes.


def _int_count_shapes(count: int = 60) -> list[tuple]:
    """(prime exponents of m, rows, variables, restricted): tau(m) steps
    log-uniformly from 16 to 4096; one shape in five is unrestricted."""
    rng = random.Random("int-count shapes")
    pool = [
        exps
        for omega in range(2, 9)
        for exps in itertools.combinations_with_replacement((3, 2, 1), omega)
        if 16 <= math.prod(e + 1 for e in exps) <= 4096
    ]
    shapes = []
    for j in range(count):
        target = math.log(16) + math.log(256) * j / (count - 1)
        nearest = sorted(pool, key=lambda e: abs(math.log(math.prod(x + 1 for x in e)) - target))
        exps = rng.choice(nearest[:3])
        shapes.append((exps, rng.randint(1, min(3, len(exps))), rng.choice((2, 3, 4)), j % 5 != 2))
    rng.shuffle(shapes)
    return shapes


def _available(p: int, degrees) -> bool:
    """Whether F_p has that many distinct monic irreducibles of each degree."""
    return all(
        degrees.count(d) <= sum(1 for q in _IRREDUCIBLES[p] if len(q) - 1 == d)
        for d in set(degrees)
    )


def _poly_count_shapes(count: int = 50) -> list[tuple]:
    """(p, degrees of the irreducible factors of H, their multiplicities, rows,
    variables, restricted): 2-5 factors of degree 1-3 with multiplicity 1-2,
    deg H at most 10, and the number of monic divisors of H stepping
    log-uniformly from 4 to 48; one shape in eight is unrestricted."""
    rng = random.Random("poly-count shapes")
    pool = [
        (degrees, mults)
        for k in range(2, 6)
        for degrees in itertools.combinations_with_replacement((1, 2, 3), k)
        for mults in itertools.product((1, 2), repeat=k)
        if sum(d * m for d, m in zip(degrees, mults)) <= 10
    ]
    shapes = []
    for j in range(count):
        p = _POLY_PRIMES[j % len(_POLY_PRIMES)]
        target = math.log(4) + math.log(48 / 4) * j / (count - 1)
        fits = [f for f in pool if _available(p, f[0])]
        nearest = sorted(fits, key=lambda f: abs(math.log(math.prod(m + 1 for m in f[1])) - target))
        degrees, mults = rng.choice(nearest[:3])
        shapes.append((p, degrees, mults, rng.randint(1, min(3, len(degrees))),
                       rng.choice((2, 3)), j % 8 != 5))
    rng.shuffle(shapes)
    return shapes


def _verify_shapes(count: int = 32) -> list[tuple]:
    """Alternately ("int", rows, variables, tuple space, restricted) with tuple
    spaces log-uniform in 1e4..1e6, and ("poly", p, rows of (degree,
    multiplicity) factors, variables, restricted) with at most 2e4 tuples;
    half of each kind restricted."""
    rng = random.Random("verify-oracle shapes")
    shapes = []
    for j in range(count):
        restricted = j % 4 < 2
        if j % 2 == 0:
            space = 10 ** (4 + 2 * (j // 2) / (count // 2 - 1))
            shapes.append(("int", rng.choice((1, 2)), rng.choice((2, 3)), space, restricted))
            continue
        p, n = rng.choice(_POLY_PRIMES), 2
        budget = int(math.log(2 * 10**4) / math.log(p)) // n
        while True:
            factors, total = [], rng.randint(2, budget)
            while sum(d * m for d, m in factors) < total:
                room = total - sum(d * m for d, m in factors)
                d = rng.choice([x for x in (1, 2, 3) if x <= room])
                factors.append((d, rng.choice([m for m in (1, 2) if d * m <= room])))
            if _available(p, [d for d, _ in factors]):
                break
        cut = rng.randint(1, len(factors))
        rows = tuple(r for r in (tuple(factors[:cut]), tuple(factors[cut:])) if r)
        shapes.append(("poly", p, rows, n, restricted))
    return shapes


_INT_COUNT_SHAPES = _int_count_shapes()
_POLY_COUNT_SHAPES = _poly_count_shapes()
_VERIFY_SHAPES = _verify_shapes()
_SNF_ROWS = tuple(range(4, 17))


@dataclass(frozen=True)
class Workload:
    subcommand: str
    why: str
    make: Callable[[random.Random, int], str]
    cycle: int  # number of shapes; query i has shape i % cycle


# ---------------------------------------------------------------------------
# Text formatting.


def _poly_text(coeffs) -> str:
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        power = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        if not power:
            terms.append(str(c))
        else:
            terms.append(power if c == 1 else f"{c}*{power}")
    return " + ".join(terms) or "0"


def _system_text(field, moduli, rows, rhs, table) -> str:
    fmt = str if field is None else _poly_text
    lines = [] if field is None else [f"field GF({field})"]
    for m, row, b in zip(moduli, rows, rhs):
        terms = " + ".join(
            f"{a}*x{j + 1}" if field is None else f"({_poly_text(a)})*x{j + 1}"
            for j, a in enumerate(row)
        )
        lines.append(f"mod {fmt(m)}: {terms} = {fmt(b)}")
    if table is not None:
        for m, values in zip(moduli, table):
            for j, t in enumerate(values):
                lines.append(f"gcd(x{j + 1}, {fmt(m)}) = {fmt(t)}")
    return "\n".join(lines) + "\n"


def _split(items: list, parts: int) -> list[list]:
    """Deal items into `parts` nonempty groups, in turn. The groups are fixed
    by the shape: how a modulus is shared out among the rows sets much of a
    query's cost."""
    return [items[i::parts] for i in range(parts)]


# ---------------------------------------------------------------------------
# Integer systems with pairwise coprime moduli.


def _int_system(rng, groups, n, restricted) -> str:
    """groups[i] lists the (prime, exponent) pairs of row i's modulus."""
    moduli = [math.prod(p**e for p, e in g) for g in groups]
    m = math.prod(moduli)
    rows = [[rng.randrange(1, m_i) for _ in range(n)] for m_i in moduli]
    table = None
    if restricted:
        # gcd(x_j, m_i) = prod p^k over p^e || m_i, with k = 0 in every other
        # (prime, variable) slot, as for polynomial systems below.
        slots = itertools.count()
        table = [
            [math.prod(p ** (0 if next(slots) % 2 else rng.randint(1, e)) for p, e in g)
             for _ in range(n)]
            for g in groups
        ]
    if rng.random() < 0.75:
        # Plant a solution so most systems are solvable: x_j = t_j * unit.
        xs = []
        for j in range(n):
            t_j = math.prod(row[j] for row in table) if table else 1
            unit = rng.randrange(1, m)
            while math.gcd(unit, m) != 1:
                unit = rng.randrange(1, m)
            xs.append(t_j * unit % m)
        rhs = [sum(a * x for a, x in zip(row, xs)) % m_i for row, m_i in zip(rows, moduli)]
    else:
        rhs = [rng.randrange(m_i) for m_i in moduli]
    return _system_text(None, moduli, rows, rhs, table)


def _int_count(rng: random.Random, i: int) -> str:
    exponents, k, n, restricted = _INT_COUNT_SHAPES[i % len(_INT_COUNT_SHAPES)]
    primes = rng.sample(_PRIMES, len(exponents))
    return _int_system(rng, _split(list(zip(primes, exponents)), k), n, restricted)


# ---------------------------------------------------------------------------
# Polynomial systems over F_p with pairwise coprime moduli.

def _random_poly(rng, p, degree):
    """A uniformly random polynomial of degree < degree."""
    coeffs = [rng.randrange(p) for _ in range(degree)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_system(rng, p, groups, n, restricted) -> str:
    """groups[i] lists the (irreducible, multiplicity) pairs of row i's modulus."""
    moduli = []
    for g in groups:
        h = (1,)
        for poly, e in g:
            h = pmul(h, ppow(poly, e, p), p)
        moduli.append(h)
    rows = []
    for h in moduli:
        row = []
        for _ in range(n):
            a = _random_poly(rng, p, len(h) - 1)
            row.append(a or (1,))
        rows.append(row)
    table = None
    if restricted:
        # gcd(x_j, H_i) = prod P^k over P^e || H_i, with k = 0 in every other
        # (factor, variable) slot: how many slots are unrestricted sets much
        # of a query's cost, so it is fixed by the shape, not by the seed.
        slots = itertools.count()
        table = []
        for g in groups:
            values = []
            for _ in range(n):
                t = (1,)
                for poly, e in g:
                    k = 0 if next(slots) % 2 else rng.randint(1, e)
                    t = pmul(t, ppow(poly, k, p), p)
                values.append(t)
            table.append(values)
    if rng.random() < 0.75:
        # Plant a solution: x_j = T_j * (a random unit modulo every P).
        big_h = (1,)
        for h in moduli:
            big_h = pmul(big_h, h, p)
        places = [Place(p, poly) for g in groups for poly, _ in g]
        xs = []
        for j in range(n):
            unit = _random_poly(rng, p, len(big_h) - 1)
            while any(place.valuation(unit, 1) for place in places):
                unit = _random_poly(rng, p, len(big_h) - 1)
            t_j = (1,)
            for values in table or ():
                t_j = pmul(t_j, values[j], p)
            xs.append(pmul(t_j, unit, p))
        rhs = []
        for row, h in zip(rows, moduli):
            acc = ()
            for a, x in zip(row, xs):
                acc = padd(acc, pmul(a, x, p), p)
            rhs.append(pdivmod(acc, h, p)[1])
    else:
        rhs = [_random_poly(rng, p, len(h) - 1) for h in moduli]
    return _system_text(p, moduli, rows, rhs, table)


def _distinct_irreducibles(rng, p, degrees):
    chosen = []
    for d in degrees:
        pool = [q for q in _IRREDUCIBLES[p] if len(q) - 1 == d and q not in chosen]
        chosen.append(rng.choice(pool))
    return chosen


def _poly_count(rng: random.Random, i: int) -> str:
    p, degrees, mults, k, n, restricted = _POLY_COUNT_SHAPES[i % len(_POLY_COUNT_SHAPES)]
    factors = list(zip(_distinct_irreducibles(rng, p, degrees), mults))
    return _poly_system(rng, p, _split(factors, k), n, restricted)


# ---------------------------------------------------------------------------
# Small systems for the enumeration oracle.


def _coprime_moduli(rng, k, limit):
    """k pairwise coprime moduli >= 2: k - 1 drawn at random, the last the
    largest that keeps the product at most limit, so the tuple space of a
    shape hardly changes with the seed."""
    while True:
        moduli = [rng.randrange(2, math.isqrt(limit) + 1) for _ in range(k - 1)]
        last = limit // math.prod(moduli)
        while last >= 2 and any(math.gcd(last, m) != 1 for m in moduli):
            last -= 1
        moduli.append(last)
        if last >= 2 and all(
            math.gcd(a, b) == 1 for x, a in enumerate(moduli) for b in moduli[x + 1 :]
        ):
            return moduli


def _verify(rng: random.Random, i: int) -> str:
    shape = _VERIFY_SHAPES[i % len(_VERIFY_SHAPES)]
    if shape[0] == "int":
        _, k, n, space, restricted = shape
        moduli = _coprime_moduli(rng, k, math.floor(space ** (1 / n)))
        groups = [[(place.p, e) for place, e in factor_int(m)] for m in moduli]
        return _int_system(rng, groups, n, restricted)
    _, p, rows, n, restricted = shape
    flat = iter(_distinct_irreducibles(rng, p, [d for row in rows for d, _ in row]))
    groups = [[(next(flat), m) for _, m in row] for row in rows]
    return _poly_system(rng, p, groups, n, restricted)


# ---------------------------------------------------------------------------
# Wide integer systems with non-coprime moduli, for the Smith form route.


def _snf_wide(rng: random.Random, i: int) -> str:
    k = _SNF_ROWS[i % len(_SNF_ROWS)]
    n = k + 2
    shared = rng.choice((2, 3, 5, 7))
    moduli = []
    for _ in range(k):
        part = shared ** rng.randint(1, 3)
        moduli.append(part * rng.randrange(1, _SNF_MODULUS_LIMIT // part))
    rows = [[rng.randrange(m) for _ in range(n)] for m in moduli]
    rhs = [rng.randrange(m) for m in moduli]
    return _system_text(None, moduli, rows, rhs, None)


WORKLOADS: dict[str, Workload] = {
    "int-count": Workload(
        "count",
        "count on Z systems, m with 2-8 primes, tau(m) 16-4096, 80% restricted: "
        "intarith, ramanujan and the systems divisor table do the work",
        _int_count,
        len(_INT_COUNT_SHAPES),
    ),
    "poly-count": Workload(
        "count",
        "count over F_p[t], p in {2,3,5,7}, H with 2-5 irreducible factors of degree 1-3: "
        "gfpoly divmod/gcd/factorize_poly and ffsystems.eta do the work",
        _poly_count,
        len(_POLY_COUNT_SHAPES),
    ),
    "verify-oracle": Workload(
        "verify",
        "verify on the 8 samples then small Z and F_p[t] systems (<=1e6 and <=2e4 tuples): "
        "the enumeration oracles and many tiny gfpoly operations",
        _verify,
        len(_VERIFY_SHAPES),
    ),
    "snf-wide": Workload(
        "snf",
        "snf on k x (k+2) Z systems, k 4-16, non-coprime moduli up to 1e7: "
        "snf.smith_normal_form and dsl parsing of long lines",
        _snf_wide,
        len(_SNF_ROWS),
    ),
}


def lead(name: str, samples: Path) -> int:
    """Queries that come before the first cycle of shapes: the shipped samples,
    for verify-oracle."""
    return len(list(samples.glob("*.cong"))) if name == "verify-oracle" else 0


def queries(name: str, seed: int, samples: Path | None = None) -> Iterator[str]:
    """The workload's texts in run order, all distinct. verify-oracle starts
    with the shipped samples, read from `samples`."""
    workload = WORKLOADS[name]
    seen: set[str] = set()
    if name == "verify-oracle":
        if samples is None:
            raise ValueError("verify-oracle needs the samples directory")
        for path in sorted(samples.glob("*.cong")):
            text = path.read_text(encoding="utf-8")
            seen.add(text)
            yield text
    for i in itertools.count():
        # A repeat is drawn again with the same shape, so query i keeps shape
        # i % cycle, which whole-cycle runs rely on.
        for attempt in itertools.count():
            text = workload.make(random.Random(f"{name}/{seed}/{i}/{attempt}"), i)
            if text not in seen:
                break
        seen.add(text)
        yield text


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--out", type=Path, help="directory for <workload>/<i>.cong files")
    parser.add_argument("--describe", action="store_true",
                        help="print the BENCHMARK.json workload entries and exit")
    args = parser.parse_args()
    if args.describe:
        print(json.dumps([{"name": n, "why": w.why} for n, w in WORKLOADS.items()], indent=2))
        return
    if args.out is None:
        parser.error("--out is required unless --describe is given")
    for name in WORKLOADS:
        target = args.out / name
        target.mkdir(parents=True, exist_ok=True)
        stream = queries(name, args.seed, Path("samples"))
        for i in range(args.count):
            (target / f"{i:05d}.cong").write_text(next(stream), encoding="utf-8")


if __name__ == "__main__":
    main()
