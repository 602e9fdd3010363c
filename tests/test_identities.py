"""Exact identities that check the counting formulas where the oracle cannot.

The systems drawn here lie past the oracle's 10^8 tuples, so no scan checks
them. Each identity checks formula against formula, over Z and over F_p[t].

CRT factorization: for pairwise coprime moduli m_1..m_k, x mod m is the tuple
of its residues x mod m_i, row i and the restrictions gcd(x_j, m_i) = t_ij
read only x mod m_i, so the count of the system is the product of the counts
of its rows, each taken alone in (R/m_i)^n, restricted or not.
What it can catch: a slip in how the whole-system formula combines rows (the
CRT residue b, the column products t_j and d_j, the phi ratio over m, the
divisor table of m against those of the m_i). What it cannot catch: a wrong
one-row formula, since both sides use it, nor an error in what both sides
share: factoring, the local Ramanujan (eta) values and `_crt`.

Partition: every solution has exactly one table of gcds (gcd(x_j, m_i))_ij,
so the restricted counts over all tables with t_ij | m_i add up to the
unrestricted count. What it can catch: an error in any term of the
restricted formula (the phi ratio `_phi_of_quotient` reads, the divisor
table, the CRT residue) that does not cancel over the tables, since the
unrestricted count shares none of them, only gcds and norms. What it cannot
catch: errors that the tables' counts cancel in their sum.

Invariances: permuting the variables together with their restriction
columns, and replacing x_j by u x_j for a unit u mod m (column j of the
coefficients scaled by u^-1), which keeps every gcd(x_j, m_i), leave the
restricted count unchanged. What they can catch: a column read against
another column's restrictions, coefficients or gcds d_ij, and coefficients
taken before their reduction mod m_i. What they cannot catch: anything
symmetric in the columns and blind to units, which is most of the formula.
"""

import math
import random
from itertools import product

import pytest

from congruences import (
    CapExceededError,
    GFPolynomial,
    PrimeField,
    divisors,
    factorize_poly,
    is_probable_prime,
    monic_divisors,
    poly_gcd,
    restricted_system_count,
    system_count,
)
from congruences.ffsystems import PolyRing
from congruences.systems import INT, oracle_count
from oracle_utils import random_poly

ORACLE_CAP = 10**8


def int_prime(rng):
    """A prime of 7 to 9 digits: above the trial-division bound of 10^6,
    and split off by Pollard rho within its step budget."""
    p = rng.randrange(10**6, 10**9)
    while not is_probable_prime(p):
        p += 1
    return p


def int_rows(rng, k, n, exponent=None):
    """k rows mod p^e (distinct primes p, e <= 2 or the given exponent) with
    coefficients and a planted solution x that often share powers of p,
    b = A.x and t the gcds of x."""
    primes = set()
    while len(primes) < k:
        primes.add(int_prime(rng))
    rows = []
    for p in sorted(primes):
        e = exponent or rng.randint(1, 2)
        m = p**e

        def shared():
            return rng.randrange(m) * p ** rng.randint(0, e) % m

        a = tuple(shared() for _ in range(n))
        x = [shared() for _ in range(n)]
        b = sum(a_j * x_j for a_j, x_j in zip(a, x)) % m
        rows.append((a, m, b, tuple(math.gcd(x_j, m) for x_j in x)))
    return rows


def irreducible(rng, field, degree):
    while True:
        h = random_poly(rng, field, degree).monic()
        if factorize_poly(h).factors == ((h, 1),):
            return h


def poly_rows(rng, field, k, n, exponent=None):
    """k rows mod P^e (distinct monic irreducibles P, e <= 2 or the given
    exponent), each of which alone passes the oracle cap: |P^e|^n > 10^8.
    Coefficients, the planted solution, b and t as in `int_rows`."""
    least = math.floor(math.log(ORACLE_CAP, field.p) / n) + 1  # deg(P^e) at least
    zero = GFPolynomial.zero(field)
    chosen = []
    rows = []
    while len(rows) < k:
        e = exponent or rng.randint(1, 2)
        big_p = irreducible(rng, field, -(-least // e) + rng.randint(0, 2))
        if big_p in chosen:
            continue
        chosen.append(big_p)
        h = GFPolynomial.one(field)
        for _ in range(e):
            h = h * big_p

        def shared():
            out = random_poly(rng, field, h.degree)
            for _ in range(rng.randint(0, e)):
                out = out * big_p
            return out % h

        a = tuple(shared() for _ in range(n))
        x = [shared() for _ in range(n)]
        b = zero
        for a_j, x_j in zip(a, x):
            b = b + a_j * x_j
        rows.append((a, h, b % h, tuple(poly_gcd(x_j, h) for x_j in x)))
    return rows


def build(ring, rows):
    """The system of the rows (a, m, b, t) and its restriction table."""
    a, m, b, t = zip(*rows)
    return ring.system(a, m, b), ring.restriction_table(t)


def test_crt_factorization_past_the_oracle_cap():
    rng = random.Random(0xC27)
    # 8 Z systems: a restricted count factors only its modulus, but each
    # case still factors k + 1 numbers with no prime factor below 10^6 (m and
    # each row's modulus), at 10-30 ms of Pollard rho apiece.
    cases = [(INT, int_rows(rng, rng.randint(2, 3), rng.randint(2, 3))) for _ in range(8)]
    for case in range(20):
        field = PrimeField((2, 3)[case % 2])
        rows = poly_rows(rng, field, rng.randint(2, 3), rng.randint(2, 3))
        cases.append((PolyRing(field), rows))
    for ring, rows in cases:
        system, restrictions = build(ring, rows)
        with pytest.raises(CapExceededError):
            oracle_count(system, restrictions)
        one_row = [build(ring, [row]) for row in rows]
        plain = system_count(system).count
        assert plain > 0
        assert plain == math.prod(system_count(s).count for s, _ in one_row)
        restricted = restricted_system_count(system, restrictions).count
        assert restricted > 0
        assert restricted == math.prod(
            restricted_system_count(s, table).count for s, table in one_row
        )


def test_restricted_counts_over_all_gcd_tables_add_up_to_the_plain_count():
    # Two rows mod p^2 (or P^2) and n <= 2 variables: 3^(2n) <= 81 tables,
    # each counted on the same modulus, so m is factored once per system.
    rng = random.Random(0x9A7)
    cases = []
    for n in (1, 2, 2):
        cases.append((INT, int_rows(rng, 2, n, exponent=2), divisors))
        field = PrimeField((2, 3)[n % 2])
        cases.append((PolyRing(field), poly_rows(rng, field, 2, n, exponent=2), monic_divisors))
    for ring, rows, divisors_of in cases:
        system, _ = build(ring, rows)
        with pytest.raises(CapExceededError):
            oracle_count(system)
        row_tables = [list(product(divisors_of(m_i), repeat=system.n)) for m_i in system.moduli]
        counts = [
            restricted_system_count(system, ring.restriction_table(table)).count
            for table in product(*row_tables)
        ]
        assert len(counts) == 3 ** (2 * system.n)
        assert sum(counts) == system_count(system).count
        assert sum(count > 0 for count in counts) > 1


def random_unit(rng, ring, m):
    """A unit mod m, drawn from the residues."""
    while True:
        if ring is INT:
            u = rng.randrange(1, m)
        else:
            u = random_poly(rng, ring.field, rng.randrange(m.degree))
        if ring.gcd(u, m) == ring.one:
            return u


def test_restricted_count_is_invariant_under_column_permutation_and_unit_scaling():
    rng = random.Random(0x1A7)
    cases = [(INT, int_rows(rng, rng.randint(2, 3), 3)) for _ in range(4)]
    for case in range(6):
        field = PrimeField((2, 3, 5)[case % 3])
        cases.append((PolyRing(field), poly_rows(rng, field, rng.randint(2, 3), 3)))
    for ring, rows in cases:
        system, restrictions = build(ring, rows)
        with pytest.raises(CapExceededError):
            oracle_count(system, restrictions)
        count = restricted_system_count(system, restrictions).count
        assert count > 0

        order = rng.sample(range(system.n), system.n)
        if order == sorted(order):
            order.reverse()
        permuted = [
            (tuple(a[j] for j in order), m_i, b_i, tuple(t[j] for j in order))
            for a, m_i, b_i, t in rows
        ]
        assert restricted_system_count(*build(ring, permuted)).count == count

        m = ring.lcm(system.moduli)
        inverses = [ring.inverse(random_unit(rng, ring, m), m) for _ in range(system.n)]
        scaled = [
            (tuple(a_j * u_inv % m_i for a_j, u_inv in zip(a, inverses)), m_i, b_i, t)
            for a, m_i, b_i, t in rows
        ]
        assert scaled != rows
        assert restricted_system_count(*build(ring, scaled)).count == count
