"""Independent reference implementations used by the test suite.

Everything here is deliberately naive (trial division, exhaustive scans,
cyclotomic-integer reduction) and shares no code with the library paths it
checks.
"""

from __future__ import annotations

import math
import random
from itertools import product

import numpy as np

from congruences.ffsystems import PolyCongruenceSystem, PolyRestrictionTable
from congruences.gfpoly import (
    GFPolynomial,
    PrimeField,
    monic_divisors,
    poly_gcd,
    residues,
)
from congruences.systems import CongruenceSystem, RestrictionTable


def ref_factor(n: int) -> list[tuple[int, int]]:
    """Plain trial division, for cross-checking factorize."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def ref_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def ref_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def ref_mobius(n: int) -> int:
    out = 1
    for _, e in ref_factor(n):
        if e >= 2:
            return 0
        out = -out
    return out


def cyclotomic_dft(values: dict[int, int], r: int, b: int) -> int:
    """sum_{k=1..r} f(gcd(k, r)) e(-bk/r) evaluated exactly in Z[zeta_r].

    Builds the group-ring element and reduces it modulo the r-th cyclotomic
    polynomial; the remainder must be a rational integer.
    """
    from sympy import Poly, cyclotomic_poly, symbols

    coeffs = [0] * r
    for k in range(1, r + 1):
        coeffs[(-b * k) % r] += values[math.gcd(k, r)]
    x = symbols("x")
    element = Poly(list(reversed(coeffs)), x, domain="ZZ")
    modulus = Poly(cyclotomic_poly(r, x), x, domain="ZZ")
    remainder = element.div(modulus)[1]
    rem_coeffs = remainder.all_coeffs()
    assert len(rem_coeffs) <= 1, "transform value is not a rational integer"
    return int(rem_coeffs[0]) if rem_coeffs else 0


def brute_count_int(
    system: CongruenceSystem, table: RestrictionTable | None = None
) -> tuple[int, list[tuple[int, ...]]]:
    """Exhaustive numpy scan of Z_m^n, m = lcm of the moduli: the count and
    every solution, in lexicographic order.

    All of Z_m^n is held at once, so m^n must stay small (the differential
    suites keep it at most a few times 10^5).
    """
    m = math.lcm(*system.moduli)
    xs = np.indices((m,) * system.n).reshape(system.n, -1)
    ok = np.ones(xs.shape[1], dtype=bool)
    for row, m_i, b_i in zip(system.coefficients, system.moduli, system.rhs):
        acc = np.zeros_like(ok, dtype=np.int64)
        for a, x in zip(row, xs):
            acc = (acc + a % m_i * x) % m_i
        ok &= acc == b_i % m_i
    if table is not None and table.entries:
        for m_i, entries in zip(system.moduli, table.entries):
            for x, t_ij in zip(xs, entries):
                ok &= np.gcd(x, m_i) == t_ij
    sols = [tuple(sol) for sol in xs[:, ok].T.tolist()]
    return len(sols), sols


def brute_count_int_naive(
    system: CongruenceSystem, table: RestrictionTable | None = None
) -> tuple[int, list[tuple[int, ...]]]:
    """Naive nested-loop count over Z_m^n, m = lcm of the moduli; the
    reference for brute_count_int."""
    m = math.lcm(*system.moduli)
    count = 0
    sols = []
    for xs in product(range(m), repeat=system.n):
        ok = True
        for row, m_i, b_i in zip(system.coefficients, system.moduli, system.rhs):
            if sum(a * x for a, x in zip(row, xs)) % m_i != b_i % m_i:
                ok = False
                break
        if ok and table is not None and table.entries:
            for i in range(system.k):
                for j in range(system.n):
                    if math.gcd(xs[j], system.moduli[i]) != table.entries[i][j]:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            count += 1
            sols.append(xs)
    return count, sols


def brute_sum_restricted(m: int, b: int, t: tuple[int, ...]) -> int:
    """Count x_1 + ... + x_n = b mod m with gcd(x_i, m) = t_i, by scanning."""
    count = 0
    for xs in product(range(m), repeat=len(t)):
        if sum(xs) % m != b % m:
            continue
        if all(math.gcd(x, m) == t_i for x, t_i in zip(xs, t)):
            count += 1
    return count


def brute_count_ff(
    system: PolyCongruenceSystem, table: PolyRestrictionTable | None = None
) -> tuple[int, list[tuple[GFPolynomial, ...]]]:
    """Exhaustive scan of the residues modulo the lcm of the moduli: the
    count and every solution, in the order of the naive scan.

    a_ij * x mod h_i and gcd(x, h_i) are tabulated once per residue x, so
    each tuple is checked by lookups. A sum of residues mod h_i is itself
    reduced, so row i holds when the looked-up terms add up to b_i mod h_i.
    """
    from congruences.gfpoly import poly_lcm_many

    xs_all = residues(system.field, poly_lcm_many(system.moduli).degree)
    zero = GFPolynomial.zero(system.field)
    rows = [
        ([{x: a * x % h_i for x in xs_all} for a in row], b_i % h_i)
        for row, h_i, b_i in zip(system.coefficients, system.moduli, system.rhs)
    ]
    gcd_checks = []
    if table is not None and table.entries:
        for h_i, entries in zip(system.moduli, table.entries):
            gcds = {x: poly_gcd(x, h_i) for x in xs_all}
            gcd_checks.extend((j, gcds, t_ij) for j, t_ij in enumerate(entries))
    sols = [
        xs
        for xs in product(xs_all, repeat=system.n)
        if all(gcds[xs[j]] == t_ij for j, gcds, t_ij in gcd_checks)
        and all(
            sum(map(dict.__getitem__, terms, xs), zero) == target for terms, target in rows
        )
    ]
    return len(sols), sols


def brute_count_ff_naive(
    system: PolyCongruenceSystem, table: PolyRestrictionTable | None = None
) -> tuple[int, list[tuple[GFPolynomial, ...]]]:
    """Naive polynomial scan over residues modulo the lcm of the moduli; the
    reference for brute_count_ff."""
    from congruences.gfpoly import poly_lcm_many

    big_h = poly_lcm_many(system.moduli)
    zero = GFPolynomial.zero(system.field)
    count = 0
    sols = []
    for xs in product(residues(system.field, big_h.degree), repeat=system.n):
        ok = True
        for row, h_i, b_i in zip(system.coefficients, system.moduli, system.rhs):
            acc = zero
            for a, x in zip(row, xs):
                acc = acc + a * x
            if (acc - b_i) % h_i != zero:
                ok = False
                break
        if ok and table is not None and table.entries:
            for i in range(system.k):
                for j in range(system.n):
                    if poly_gcd(xs[j], system.moduli[i]) != table.entries[i][j]:
                        ok = False
                        break
                if not ok:
                    break
        if ok:
            count += 1
            sols.append(xs)
    return count, sols


def brute_sum_restricted_ff(
    h: GFPolynomial, b: GFPolynomial, t: tuple[GFPolynomial, ...]
) -> int:
    """Count X_1 + ... + X_n = B mod H with gcd(X_i, H) = H_i, by scanning."""
    field = h.field
    big_h = h.monic()
    count = 0
    zero = GFPolynomial.zero(field)
    for xs in product(residues(field, big_h.degree), repeat=len(t)):
        acc = zero
        for x in xs:
            acc = acc + x
        if (acc - b) % big_h != zero:
            continue
        if all(poly_gcd(x, big_h) == t_i for x, t_i in zip(xs, t)):
            count += 1
    return count


def random_int_instance(
    rng: random.Random,
) -> tuple[CongruenceSystem, RestrictionTable | None]:
    """A random system within the differential-suite bounds: total modulus
    <= 300, n <= 3, k <= 2, scan space <= 3 * 10^5 tuples."""
    n = rng.choice([1, 2, 3])
    k = rng.choice([1, 2])
    while True:
        moduli = [rng.randrange(2, 60) for _ in range(k)]
        if any(
            math.gcd(moduli[i], moduli[j]) != 1
            for i in range(k)
            for j in range(i + 1, k)
        ):
            continue
        m = math.prod(moduli)
        if m > 300 or m**n > 3 * 10**5:
            continue
        break
    coefficients = tuple(
        tuple(rng.randrange(-m_i, 2 * m_i) for _ in range(n)) for m_i in moduli
    )
    rhs = tuple(rng.randrange(-m_i, 2 * m_i) for m_i in moduli)
    system = CongruenceSystem(coefficients, tuple(moduli), rhs)
    if rng.random() < 0.7:
        entries = tuple(
            tuple(rng.choice(ref_divisors(m_i)) for _ in range(n)) for m_i in moduli
        )
        return system, RestrictionTable(entries)
    return system, None


def random_poly(rng: random.Random, field: PrimeField, degree: int) -> GFPolynomial:
    coeffs = [rng.randrange(field.p) for _ in range(degree)]
    coeffs.append(rng.randrange(1, field.p))
    return GFPolynomial.from_coeffs(field, coeffs)


def random_poly_instance(
    rng: random.Random, p: int
) -> tuple[PolyCongruenceSystem, PolyRestrictionTable | None]:
    """A random polynomial system over F_p with a small scan space."""
    field = PrimeField(p)
    n = rng.choice([1, 2])
    k = rng.choice([1, 2])
    total_budget = 4 if p == 3 else 3
    while True:
        degrees = [rng.randrange(1, 3) for _ in range(k)]
        if sum(degrees) > total_budget:
            continue
        moduli = [random_poly(rng, field, d) for d in degrees]
        if any(
            poly_gcd(moduli[i], moduli[j]).degree != 0
            for i in range(k)
            for j in range(i + 1, k)
        ):
            continue
        break
    coefficients = tuple(
        tuple(
            GFPolynomial.from_coeffs(
                field, [rng.randrange(p) for _ in range(h_i.degree + 1)]
            )
            for _ in range(n)
        )
        for h_i in moduli
    )
    rhs = tuple(
        GFPolynomial.from_coeffs(field, [rng.randrange(p) for _ in range(h_i.degree + 1)])
        for h_i in moduli
    )
    system = PolyCongruenceSystem(field, coefficients, tuple(moduli), rhs)
    if rng.random() < 0.6:
        entries = tuple(
            tuple(rng.choice(monic_divisors(h_i.monic())) for _ in range(n))
            for h_i in moduli
        )
        return system, PolyRestrictionTable(entries)
    return system, None
