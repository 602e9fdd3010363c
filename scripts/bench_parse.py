"""Parser ladder: how long `parse_system` takes on the text of k x (k+2)
systems over Z and over F_p[t].

    python3 scripts/bench_parse.py --label change
    python3 scripts/bench_parse.py --label parent --src ../parent/src

Integer rungs, k = 4, 8, 16, 32, 64: SYSTEMS seeded documents, each drawn
like a `bench_snf.py` system (moduli up to 10^7 that share a power of one of
2, 3, 5, 7) and written one congruence per line, "mod m: a1*x1 + ... = b",
as the snf-wide benchmark queries are.

Polynomial rungs, k = 1, 2, 4, 8, 16: SYSTEMS seeded documents shaped like
the poly-count benchmark queries: a "field GF(p)" header with p one of 2, 3,
5, 7; each row's modulus the product of 2-5 distinct monic irreducibles of
degree 1-3; every coefficient a random nonzero polynomial of lower degree,
written in parentheses, "(t^2 + 2*t)*x1"; and one gcd restriction per
variable on the first row's modulus.

seconds is the best of 5 runs of `parse_system` over a rung's documents,
timed with time.perf_counter; bytes and tokens are the rung's total text
length and token count.

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
POLY_KS = (1, 2, 4, 8, 16)
SYSTEMS = 20
# Identifiers, integers and symbols, as the format's grammar has them.
TOKEN = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|[()+\-*^:,=]")


def system_text(rows, moduli, rhs) -> str:
    lines = []
    for m, row, b in zip(moduli, rows, rhs):
        terms = " + ".join(f"{a}*x{j + 1}" for j, a in enumerate(row))
        lines.append(f"mod {m}: {terms} = {b}")
    return "\n".join(lines) + "\n"


def irreducibles(p: int) -> list[tuple[int, ...]]:
    """The monic polynomials of degree 1-3 over F_p with no root, so
    irreducible; ascending coefficients."""
    out = []
    for degree in (1, 2, 3):
        for n in range(p**degree):
            coeffs = tuple(n // p**i % p for i in range(degree)) + (1,)
            if degree == 1 or all(
                sum(c * x**i for i, c in enumerate(coeffs)) % p for x in range(p)
            ):
                out.append(coeffs)
    return out


def poly_mul(a, b, p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return tuple(out)


def poly_text(coeffs) -> str:
    """Descending terms c*t^k, as the poly-count queries write them."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if not c:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            power = "t" if k == 1 else f"t^{k}"
            terms.append(power if c == 1 else f"{c}*{power}")
    return " + ".join(terms) or "0"


def poly_document(rng: random.Random, k: int) -> str:
    p = rng.choice((2, 3, 5, 7))
    pool = irreducibles(p)
    moduli, factors = [], []
    for _ in range(k):
        chosen = rng.sample(pool, rng.randint(2, 5))
        h = (1,)
        for f in chosen:
            h = poly_mul(h, f, p)
        moduli.append(h)
        factors.append(chosen)

    def below(h) -> tuple[int, ...]:
        """A random nonzero polynomial of degree below that of h."""
        coeffs = [rng.randrange(p) for _ in range(len(h) - 1)]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return tuple(coeffs) or (1,)

    lines = [f"field GF({p})"]
    for h in moduli:
        terms = " + ".join(f"({poly_text(below(h))})*x{j + 1}" for j in range(k + 2))
        lines.append(f"mod {poly_text(h)}: {terms} = {poly_text(below(h))}")
    for j in range(k + 2):
        value = rng.choice(factors[0] + [(1,)])
        lines.append(f"gcd(x{j + 1}, {poly_text(moduli[0])}) = {poly_text(value)}")
    return "\n".join(lines) + "\n"


def rung(ring: str, k: int, texts: list[str], congruences) -> dict:
    documents = "".join(congruences.format_document(congruences.parse_system(t)) for t in texts)
    return {
        "ring": ring,
        "k": k,
        "systems": len(texts),
        "bytes": sum(len(t) for t in texts),
        "tokens": sum(len(TOKEN.findall(t)) for t in texts),
        "seconds": best_of(lambda: [congruences.parse_system(t) for t in texts]),
        "documents_sha256": hashlib.sha256(documents.encode()).hexdigest(),
    }


def main() -> None:
    args = parse_args(__doc__.splitlines()[0], "BENCH_parse.json")
    import congruences

    rungs = [("Z", k, [wide_system(random.Random(f"bench_parse/{k}/{i}"), k, system_text)
                       for i in range(SYSTEMS)]) for k in KS]
    rungs += [("F_p[t]", k, [poly_document(random.Random(f"bench_parse/poly/{k}/{i}"), k)
                             for i in range(SYSTEMS)]) for k in POLY_KS]
    ladder = []
    for ring, k, texts in rungs:
        ladder.append(rung(ring, k, texts, congruences))
        r = ladder[-1]
        print(f"{ring:6s} k={k:2d} {SYSTEMS} documents {r['tokens']:7d} tokens"
              f" {r['seconds'] * 1e3:9.2f} ms", flush=True)
    write_run(args.out, args.label, ladder)


if __name__ == "__main__":
    main()
