"""Differential tests of the restricted-count divisor tables, both rings.

The library builds each table prime by prime. The reference here evaluates
every row directly, one Ramanujan (eta) sum per divisor and column, as the
formula reads. The systems reach tau(m) = 4096 and H with five irreducible
factors, beyond the brute-force oracle's reach.
"""

import math
import operator
import random

from congruences import (
    CongruenceSystem,
    GFPolynomial,
    PolyCongruenceSystem,
    PolyRestrictionTable,
    PrimeField,
    RestrictionTable,
    crt_poly,
    crt_solve,
    divisors,
    eta,
    factorize_poly,
    monic_divisors,
    poly_gcd,
    ramanujan_c,
    residues,
    restricted_count_unit_coeffs,
    restricted_count_unit_coeffs_ff,
    restricted_system_count,
    restricted_system_count_ff,
)
from oracle_utils import random_poly

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def per_divisor_table_int(system, restrictions):
    """Rows of sum_{d | m} C_d(b) prod_l C_{m/(t_l d_l)}(m/d), one divisor at a time."""
    b, m = crt_solve(system.rhs, system.moduli)
    t_cols, d_cols = [], []
    for j in range(system.n):
        t_j = d_j = 1
        for i in range(system.k):
            t_ij = restrictions.entries[i][j]
            t_j *= t_ij
            d_j *= math.gcd(system.coefficients[i][j], system.moduli[i] // t_ij)
        t_cols.append(t_j)
        d_cols.append(d_j)
    rows = []
    for d in divisors(m):
        rhs_value = ramanujan_c(d, b)
        variable_values = [
            ramanujan_c(m // (t_l * d_l), m // d) for t_l, d_l in zip(t_cols, d_cols)
        ]
        prod = rhs_value
        for v in variable_values:
            prod *= v
        rows.append({"divisor": d, "rhs_value": rhs_value,
                     "variable_values": variable_values, "product": prod})
    return rows


def per_divisor_table_ff(system, restrictions):
    """The polynomial analogue: eta(B, D) and eta(H/D, H/(T_l D_l)) per monic D | H."""
    b, big_h = crt_poly(system.rhs, system.moduli)
    big_h = big_h.monic()
    one = GFPolynomial.one(system.field)
    t_cols, d_cols = [], []
    for j in range(system.n):
        t_j = d_j = one
        for i in range(system.k):
            t_ij = restrictions.entries[i][j]
            t_j = t_j * t_ij
            d_j = d_j * poly_gcd(system.coefficients[i][j], system.moduli[i].monic() // t_ij)
        t_cols.append(t_j)
        d_cols.append(d_j)
    rows = []
    for d in monic_divisors(big_h):
        rhs_value = eta(b, d)
        quotient = big_h // d
        variable_values = [
            eta(quotient, big_h // (t_l * d_l)) for t_l, d_l in zip(t_cols, d_cols)
        ]
        prod = rhs_value
        for v in variable_values:
            prod *= v
        rows.append({"divisor": d, "rhs_value": rhs_value,
                     "variable_values": variable_values, "product": prod})
    return rows


def unit_coefficient_inputs(system, restrictions, crt):
    """(m, b, t) for x_1 + ... + x_n = b mod m with gcd(x_j, m) = t_j, taken
    from a system: m and b from its CRT, t_j the product of column j's
    restrictions."""
    b, m = crt(system.rhs, system.moduli)
    t = []
    for column in zip(*restrictions.entries):
        t_j = column[0]
        for t_ij in column[1:]:
            t_j = t_j * t_ij
        t.append(t_j)
    return m, b, t


def random_int_system(rng, exponents):
    """Moduli built from distinct primes with the given exponents, dealt to
    1-3 rows, and coefficients that often share prime powers with them. The
    restrictions are the gcds of a planted solution, which also gives the
    right-hand side half of the time (a random one otherwise)."""
    primes = rng.sample(PRIMES, len(exponents))
    k = rng.randint(1, min(3, len(primes)))
    parts = [[] for _ in range(k)]
    for idx, (p, e) in enumerate(zip(primes, exponents)):
        parts[idx % k].append((p, e))
    n = rng.randint(1, 4)
    planted = rng.random() < 0.5

    def shared(row):
        return math.prod(p ** rng.randint(0, e) for p, e in row)

    moduli, restrictions, coefficients, rhs = [], [], [], []
    for row in parts:
        m_i = math.prod(p**e for p, e in row)
        x = [rng.randrange(m_i) * shared(row) % m_i for _ in range(n)]
        a = [rng.randrange(m_i) * shared(row) for _ in range(n)]
        moduli.append(m_i)
        restrictions.append(tuple(math.gcd(x_j, m_i) for x_j in x))
        coefficients.append(tuple(a))
        rhs.append(sum(map(operator.mul, a, x)) % m_i if planted else rng.randrange(m_i))
    return (
        CongruenceSystem(tuple(coefficients), tuple(moduli), tuple(rhs)),
        RestrictionTable(tuple(restrictions)),
    )


def irreducibles(field, degree):
    lead = GFPolynomial.from_coeffs(field, [0] * degree + [1])
    out = []
    for tail in residues(field, degree):
        h = tail + lead
        if factorize_poly(h).factors == ((h, 1),):
            out.append(h)
    return out


def power(poly, e):
    out = GFPolynomial.one(poly.field)
    for _ in range(e):
        out = out * poly
    return out


def random_poly_system(rng, field, factor_count):
    """H with factor_count distinct monic irreducible factors of degree 1-3
    and exponents 1-2, dealt to 1-3 rows, and coefficients that often share
    a factor with their modulus. The restrictions are the gcds of a planted
    solution, which also gives the right-hand side half of the time."""
    pool = [h for degree in (1, 2, 3) for h in irreducibles(field, degree)]
    chosen = rng.sample(pool, factor_count)
    k = rng.randint(1, min(3, factor_count))
    parts = [[] for _ in range(k)]
    for idx, irreducible in enumerate(chosen):
        parts[idx % k].append((irreducible, rng.randint(1, 2)))
    n = rng.randint(1, 3)
    planted = rng.random() < 0.5

    def shared(row, h_i):
        out = random_poly(rng, field, h_i.degree)
        for irreducible, e in row:
            out = out * power(irreducible, rng.randint(0, e))
        return out % h_i

    moduli, restrictions, coefficients, rhs = [], [], [], []
    for row in parts:
        h_i = GFPolynomial.one(field)
        for irreducible, e in row:
            h_i = h_i * power(irreducible, e)
        x = [shared(row, h_i) for _ in range(n)]
        a = [shared(row, h_i) for _ in range(n)]
        moduli.append(h_i)
        restrictions.append(tuple(poly_gcd(x_j, h_i) for x_j in x))
        coefficients.append(tuple(a))
        b_i = GFPolynomial.zero(field)
        for a_j, x_j in zip(a, x):
            b_i = b_i + a_j * x_j
        rhs.append(b_i % h_i if planted else random_poly(rng, field, h_i.degree))
    return (
        PolyCongruenceSystem(field, tuple(coefficients), tuple(moduli), tuple(rhs)),
        PolyRestrictionTable(tuple(restrictions)),
    )


def test_int_divisor_table_matches_per_divisor_evaluation():
    rng = random.Random(0xD1F)
    shapes = [(1,) * 12, (3,) * 6, (1, 3, 1, 3, 1, 3, 1)]  # tau(m) = 4096, 4096, 512
    while len(shapes) < 40:
        exponents = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 8)))
        if math.prod(e + 1 for e in exponents) <= 4096:
            shapes.append(exponents)
    nonzero = 0
    for exponents in shapes:
        system, restrictions = random_int_system(rng, exponents)
        report = restricted_system_count(system, restrictions)
        table = report.details["divisor_table"]
        assert table == per_divisor_table_int(system, restrictions)
        assert len(table) == math.prod(e + 1 for e in exponents)
        assert report.details["divisor_sum"] == sum(row["product"] for row in table)
        nonzero += report.details["divisor_sum"] != 0
        m, b, t = unit_coefficient_inputs(system, restrictions, crt_solve)
        unit_system = CongruenceSystem(((1,) * len(t),), (m,), (b,))
        unit_table = per_divisor_table_int(unit_system, RestrictionTable((tuple(t),)))
        assert restricted_count_unit_coeffs(m, b, t) == sum(
            row["product"] for row in unit_table
        ) // m
    assert nonzero >= 10


def test_ff_divisor_table_matches_per_divisor_evaluation():
    rng = random.Random(0xD1E)
    nonzero = 0
    for case in range(24):
        field = PrimeField((2, 3)[case % 2])
        system, restrictions = random_poly_system(rng, field, 5 if case < 8 else rng.randint(1, 4))
        report = restricted_system_count_ff(system, restrictions)
        table = report.details["divisor_table"]
        reference = per_divisor_table_ff(system, restrictions)
        assert [row["divisor"] for row in table] == [row["divisor"] for row in reference]
        assert table == reference
        assert report.details["divisor_sum"] == sum(row["product"] for row in table)
        nonzero += report.details["divisor_sum"] != 0
        big_h, b, t = unit_coefficient_inputs(system, restrictions, crt_poly)
        one = GFPolynomial.one(field)
        unit_system = PolyCongruenceSystem(field, ((one,) * len(t),), (big_h,), (b,))
        unit_report = restricted_count_unit_coeffs_ff(big_h, b, t)
        assert unit_report.details["divisor_table"] == per_divisor_table_ff(
            unit_system, PolyRestrictionTable((tuple(t),))
        )
        assert unit_report.theorem == "restricted_sum_poly"
    assert nonzero >= 8
