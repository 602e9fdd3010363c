"""Differential tests of the restricted-count divisor tables, both rings.

The library builds each table prime by prime from the sums' local values.
The reference here evaluates every row directly, one Ramanujan (eta) divisor
sum per divisor and column, as the formula reads. The systems reach
tau(m) = 4096 and H with five irreducible factors, beyond the brute-force
oracle's reach.
"""

import math
import operator
import random

import congruences.cli as cli_module
import congruences.ffsystems as ffsystems_module
import congruences.gfpoly as gfpoly_module
import congruences.intarith as intarith_module
import congruences.systems as systems_module
from congruences import (
    CongruenceSystem,
    DivisorTable,
    GFPolynomial,
    PolyCongruenceSystem,
    PolyRestrictionTable,
    PrimeField,
    RestrictionTable,
    divisors,
    eta,
    factorize_poly,
    monic_divisors,
    phi_poly,
    poly_gcd,
    ramanujan_c_sum,
    residues,
    restricted_system_count,
    restricted_system_count_ff,
    single_restricted_count,
)
from congruences.ffsystems import PolyRing
from oracle_utils import random_poly

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def per_divisor_table_int(system, restrictions):
    """Rows of sum_{d | m} C_d(b) prod_l C_{m/(t_l d_l)}(m/d), one divisor at a time."""
    b, m = system.ring.crt(system.rhs, system.moduli)
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
        rhs_value = ramanujan_c_sum(d, b)
        variable_values = [
            ramanujan_c_sum(m // (t_l * d_l), m // d) for t_l, d_l in zip(t_cols, d_cols)
        ]
        prod = rhs_value
        for v in variable_values:
            prod *= v
        rows.append({"divisor": d, "rhs_value": rhs_value,
                     "variable_values": variable_values, "product": prod})
    return rows


def per_divisor_table_ff(system, restrictions):
    """The polynomial analogue: eta(B, D) and eta(H/D, H/(T_l D_l)) per monic D | H."""
    b, big_h = system.ring.crt(system.rhs, system.moduli)
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


def unit_coefficient_system(system, restrictions):
    """The one-row system x_1 + ... + x_n = b mod m with gcd(x_j, m) = t_j,
    taken from a system: m and b from its CRT, t_j the product of column j's
    restrictions. Every coefficient is 1, so every d_j is 1."""
    ring = system.ring
    b, m = ring.crt(system.rhs, system.moduli)
    t = []
    for column in zip(*restrictions.entries):
        t_j = column[0]
        for t_ij in column[1:]:
            t_j = t_j * t_ij
        t.append(t_j)
    return (
        ring.system(((ring.one,) * len(t),), (m,), (b,)),
        ring.restriction_table((tuple(t),)),
    )


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


def random_poly_system(rng, field, factor_count, exponents=None):
    """H with factor_count distinct monic irreducible factors of degree 1-3
    and exponents 1-2 (or the given exponents), dealt to 1-3 rows, and
    coefficients that often share a factor with their modulus. The
    restrictions are the gcds of a planted solution, which also gives the
    right-hand side half of the time."""
    pool = [h for degree in (1, 2, 3) for h in irreducibles(field, degree)]
    chosen = rng.sample(pool, factor_count)
    k = rng.randint(1, min(3, factor_count))
    parts = [[] for _ in range(k)]
    for idx, irreducible in enumerate(chosen):
        e = rng.randint(1, 2) if exponents is None else exponents[idx]
        parts[idx % k].append((irreducible, e))
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


def assert_table_rows(table, sort_key):
    """Every row's variable_values is a list, and the rows are ordered by
    the ring's sort key of their divisors."""
    assert all(type(row["variable_values"]) is list for row in table)
    keys = [sort_key(row["divisor"]) for row in table]
    assert keys == sorted(keys)


def assert_reads_as_rows(table, rows, capsys):
    """table is a DivisorTable that reads as the list rows, by length,
    index (negative too) and iteration, and compares equal to it
    from either side. A row read from it is a fresh dict: changing it
    changes neither the table nor what the CLI writes of it. A table with
    one product changed differs."""
    assert type(table) is DivisorTable
    assert len(table) == len(rows)
    assert table[-1] == rows[-1] and table[-len(rows)] == rows[0]
    assert list(table) == rows
    assert table == rows and rows == table
    products = (*table.products[:-1], table.products[-1] + 1)
    changed = DivisorTable(table.divisors, table.rhs_values, table.columns, products)
    assert changed != table and changed != rows and rows != changed
    cli_module._emit({"divisor_table": table})
    written = capsys.readouterr().out
    for row in (table[0], table[-1], next(iter(table))):
        row["product"] += 1
        row["variable_values"].append(0)
    assert table[0] == rows[0] and table[-1] == rows[-1]
    cli_module._emit({"divisor_table": table})
    assert capsys.readouterr().out == written


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
        assert_table_rows(table, int)
        assert len(table) == math.prod(e + 1 for e in exponents)
        assert report.details["divisor_sum"] == sum(row["product"] for row in table)
        nonzero += report.details["divisor_sum"] != 0
        unit_system, unit_restrictions = unit_coefficient_system(system, restrictions)
        unit_report = restricted_system_count(unit_system, unit_restrictions)
        m = unit_system.moduli[0]
        unit_table = per_divisor_table_int(unit_system, unit_restrictions)
        assert unit_report.details["divisor_table"] == unit_table
        assert unit_report.count == sum(row["product"] for row in unit_table) // m
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
        assert_table_rows(table, GFPolynomial.sort_key)
        assert report.details["divisor_sum"] == sum(row["product"] for row in table)
        nonzero += report.details["divisor_sum"] != 0
        unit_system, unit_restrictions = unit_coefficient_system(system, restrictions)
        unit_report = restricted_system_count_ff(unit_system, unit_restrictions)
        assert unit_report.details["divisor_table"] == per_divisor_table_ff(
            unit_system, unit_restrictions
        )
    assert nonzero >= 8


def test_divisor_tables_of_one_prime_power_and_of_ten_primes(capsys):
    # p^e for e = 1..6, and ten distinct primes (1024 rows), over Z and over
    # F_3[t], where ten irreducibles of degree at most 3 exist.
    rng = random.Random(0xD1D)
    shapes = [(e,) for e in range(1, 7)] + [(1,) * 10]
    for exponents in shapes:
        system, restrictions = random_int_system(rng, exponents)
        table = restricted_system_count(system, restrictions).details["divisor_table"]
        assert len(table) == math.prod(e + 1 for e in exponents)
        reference = per_divisor_table_int(system, restrictions)
        assert table == reference
        assert_table_rows(table, int)
        assert_reads_as_rows(table, reference, capsys)
    field = PrimeField(3)
    for exponents in shapes:
        system, restrictions = random_poly_system(rng, field, len(exponents), exponents)
        table = restricted_system_count_ff(system, restrictions).details["divisor_table"]
        assert len(table) == math.prod(e + 1 for e in exponents)
        reference = per_divisor_table_ff(system, restrictions)
        assert table == reference
        assert_table_rows(table, GFPolynomial.sort_key)
        assert_reads_as_rows(table, reference, capsys)


def planted_restricted_system(ring, moduli, coefficients, x):
    """The system A.x = b mod m_i with the gcd table of the planted solution x."""
    rhs = []
    for row, m_i in zip(coefficients, moduli):
        b_i = ring.zero
        for a_ij, x_j in zip(row, x):
            b_i = b_i + a_ij * x_j
        rhs.append(b_i % m_i)
    table = tuple(tuple(ring.gcd(x_j, m_i) for x_j in x) for m_i in moduli)
    system = ring.system(tuple(coefficients), tuple(moduli), tuple(rhs))
    return system, ring.restriction_table(table)


def expected_phi_ratio(ring, system, restrictions, phi):
    """prod_j phi(m/t_j) / phi(m/(t_j d_j)) as the formula reads, with phi given."""
    m = ring.lcm(system.moduli)
    ratio = 1
    for j in range(system.n):
        t_j = d_j = ring.one
        for i, m_i in enumerate(system.moduli):
            t_ij = restrictions.entries[i][j]
            t_j = t_j * t_ij
            d_j = d_j * ring.gcd(system.coefficients[i][j], m_i // t_ij)
        ratio *= phi(m // t_j) // phi(m // (t_j * d_j))
    return ratio


def test_restricted_count_factors_only_the_modulus(monkeypatch):
    # Every phi argument and divisor table column of a restricted count
    # divides m, so the count factors m alone, over Z and over F_p[t]. Over
    # Z: rows modulo a 9-digit prime and the squares of two more, whose
    # divisors each cost a trial division to 10^6 and a Pollard rho walk.
    seen = []

    def spy(factor):
        def spied(value):
            seen.append(value)
            return factor(value)
        return spied

    for module, name in (
        (intarith_module, "factorize"),
        (systems_module, "factorize"),
        (gfpoly_module, "factorize_poly"),
        (ffsystems_module, "factorize_poly"),
    ):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))

    q, p1, p2 = 299173913, 999999937, 999999929
    system, restrictions = planted_restricted_system(
        CongruenceSystem.ring,
        [q, p1**2, p2**2],
        [(1, 2, 3), (p1, 1, 5 * p1), (1, p2, 7)],
        [2 * p1, 5, 3 * p2],
    )
    report = restricted_system_count(system, restrictions)
    m = q * p1**2 * p2**2
    assert seen == [m]
    assert report.count > 0

    def phi_of_known_primes(n):
        out = 1
        for p in (q, p1, p2):
            if n % p == 0:
                v = 0
                while n % p == 0:
                    n //= p
                    v += 1
                out *= p ** (v - 1) * (p - 1)
        assert n == 1
        return out

    assert report.details["phi_ratio"] == expected_phi_ratio(
        system.ring, system, restrictions, phi_of_known_primes
    )
    assert report.details["phi_ratio"] > 1

    # One congruence: its phi ratio reads both arguments from m/t alone.
    seen.clear()
    m, t = q * p1**2 * p2, p1
    single = single_restricted_count(p2, p2 * 2 * p1 % m, m, t)
    assert seen == [m // t]
    assert single.count == phi_of_known_primes(m // t) // phi_of_known_primes(m // (t * p2)) > 1

    field = PrimeField(3)

    def poly(*coeffs):
        return GFPolynomial.from_coeffs(field, coeffs)

    one, t = poly(1), poly(0, 1)
    # t^3 + 2t + 1, t^2 + 1 and t + 1 are irreducible over F_3.
    p_1, p_2, p_3 = poly(1, 2, 0, 1), poly(1, 0, 1), poly(1, 1)
    system, restrictions = planted_restricted_system(
        PolyRing(field),
        [p_1, p_2 * p_2, p_3 * p_3],
        [(one, t, one), (p_2, one, p_2 * t), (one, p_3, t)],
        [t * p_2, poly(2, 1), p_3 * t],
    )
    seen.clear()
    report = restricted_system_count_ff(system, restrictions)
    m = p_1 * p_2 * p_2 * p_3 * p_3
    assert seen == [m]
    assert report.count > 0
    monkeypatch.undo()
    assert report.details["phi_ratio"] == expected_phi_ratio(
        system.ring, system, restrictions, phi_poly
    )
    assert report.details["phi_ratio"] > 1
