"""Tests for integer congruence systems: CRT, counting formulas, enumeration."""

import math
import random
from itertools import product

import pytest

from congruences import (
    CapExceededError,
    CongruenceSystem,
    HypothesisError,
    RestrictionTable,
    crt_solve,
    divisors,
    enumerate_solutions,
    lehmer_count,
    restricted_system_count,
    single_restricted_count,
    system_count,
)
from oracle_utils import brute_count_int, random_int_instance


def test_crt_examples():
    assert crt_solve((7, 9), (15, 14)) == (37, 210)
    assert crt_solve((1, 2), (4, 6)) is None
    assert crt_solve((1, 3), (4, 6)) == (9, 12)
    assert crt_solve((5,), (7,)) == (5, 7)
    assert crt_solve((-1, -1), (4, 6)) == (11, 12)


def test_crt_validation():
    with pytest.raises(ValueError):
        crt_solve((), ())
    with pytest.raises(ValueError):
        crt_solve((1, 2), (4,))
    with pytest.raises(ValueError):
        crt_solve((0,), (1,))


def test_crt_random_vs_brute():
    rng = random.Random(31)
    for _ in range(500):
        k = rng.randrange(1, 4)
        moduli = [rng.randrange(2, 30) for _ in range(k)]
        residues = [rng.randrange(-30, 60) for _ in range(k)]
        m = math.lcm(*moduli)
        matches = [
            x for x in range(m) if all((x - r) % m_i == 0 for r, m_i in zip(residues, moduli))
        ]
        got = crt_solve(residues, moduli)
        if not matches:
            assert got is None
        else:
            assert len(matches) == 1
            assert got == (matches[0], m)


def test_lehmer_examples():
    report = lehmer_count((2, 2), 2, 12)
    assert report.count == 24
    assert report.solvable is True
    assert report.theorem == "lehmer"
    assert report.details["gcd"] == 2
    # Unsolvable when the gcd does not divide the rhs.
    assert lehmer_count((2, 2), 1, 12).count == 0
    # Zero row: everything or nothing.
    assert lehmer_count((0, 0), 0, 5).count == 25
    assert lehmer_count((0, 0), 3, 5).count == 0


def test_lehmer_vs_brute():
    rng = random.Random(32)
    for _ in range(200):
        m = rng.randrange(2, 20)
        n = rng.randrange(1, 4)
        a = tuple(rng.randrange(-m, 2 * m) for _ in range(n))
        b = rng.randrange(-m, 2 * m)
        system = CongruenceSystem((a,), (m,), (b,))
        brute, _ = brute_count_int(system)
        assert lehmer_count(a, b, m).count == brute


def test_system_count_examples():
    system = CongruenceSystem(((2, 2), (5, 7)), (12, 35), (2, 1))
    report = system_count(system)
    assert report.count == 840
    assert report.details["modulus"] == 420
    assert report.details["row_gcds"] == [2, 1]

    system = CongruenceSystem(
        ((3, 6, 3), (4, 2, 8), (2, 3, 1)), (9, 16, 5), (3, 4, 2)
    )
    report = system_count(system)
    assert report.count == 3110400
    assert report.details["row_gcds"] == [3, 2, 1]


def test_system_count_requires_coprime_moduli():
    system = CongruenceSystem(((1, 1), (1, 2)), (4, 6), (0, 0))
    with pytest.raises(HypothesisError):
        system_count(system)


def test_system_count_vs_enumeration():
    rng = random.Random(33)
    checked = 0
    while checked < 120:
        system, _ = random_int_instance(rng)
        report = system_count(system)
        count, _ = enumerate_solutions(system)
        # The formula counts in Z_M^n for M the product of the moduli while the
        # scan uses the lcm; coprimality makes these equal.
        assert report.count == count
        checked += 1


def test_count_depends_only_on_rhs_class():
    rng = random.Random(34)
    for _ in range(100):
        system, table = random_int_instance(rng)
        shifted = CongruenceSystem(
            system.coefficients,
            system.moduli,
            tuple(b + m * rng.randrange(-3, 4) for b, m in zip(system.rhs, system.moduli)),
        )
        if table is None:
            assert system_count(system).count == system_count(shifted).count
        else:
            assert (
                restricted_system_count(system, table).count
                == restricted_system_count(shifted, table).count
            )


def test_unit_scaling_invariance():
    # Multiplying a row by a unit mod its modulus does not change solutions.
    rng = random.Random(35)
    for _ in range(100):
        system, table = random_int_instance(rng)
        units = []
        for m_i in system.moduli:
            while True:
                u = rng.randrange(1, m_i)
                if math.gcd(u, m_i) == 1:
                    units.append(u)
                    break
        scaled = CongruenceSystem(
            tuple(
                tuple(u * a for a in row)
                for u, row in zip(units, system.coefficients)
            ),
            system.moduli,
            tuple(u * b for u, b in zip(units, system.rhs)),
        )
        if table is None:
            assert system_count(system).count == system_count(scaled).count
        else:
            assert (
                restricted_system_count(system, table).count
                == restricted_system_count(scaled, table).count
            )


def test_single_restricted_examples():
    # 2x = 4 mod 8 with gcd(x, 8) = 2: x in {2, 6}.
    report = single_restricted_count(2, 4, 8, 2)
    assert report.count == 2
    assert report.theorem == "restricted_single"
    # t must divide gcd(b, m).
    assert single_restricted_count(2, 3, 8, 2).count == 0
    assert single_restricted_count(2, 3, 8, 2).details["reason"]
    # gcd mismatch between coefficient and rhs sides.
    assert single_restricted_count(2, 4, 8, 4).count == 0


def test_single_restricted_exhaustive_small():
    for m in range(2, 21):
        for t in divisors(m):
            for a in range(m):
                for b in range(m):
                    brute = sum(
                        1
                        for x in range(m)
                        if (a * x - b) % m == 0 and math.gcd(x, m) == t
                    )
                    assert single_restricted_count(a, b, m, t).count == brute, (
                        a,
                        b,
                        m,
                        t,
                    )


def test_single_restricted_random_larger():
    rng = random.Random(36)
    for _ in range(300):
        m = rng.randrange(2, 120)
        t = rng.choice(divisors(m))
        a = rng.randrange(-m, 2 * m)
        b = rng.randrange(-m, 2 * m)
        brute = sum(
            1 for x in range(m) if (a * x - b) % m == 0 and math.gcd(x, m) == t
        )
        assert single_restricted_count(a, b, m, t).count == brute


def test_single_restricted_agrees_with_system_formula():
    for m in range(2, 21):
        for t in divisors(m):
            for a in range(m):
                for b in range(m):
                    system = CongruenceSystem(((a,),), (m,), (b,))
                    table = RestrictionTable(((t,),))
                    assert (
                        restricted_system_count(system, table).count
                        == single_restricted_count(a, b, m, t).count
                    )


def test_restricted_system_reference_example():
    system = CongruenceSystem(((1, 2), (3, 1)), (15, 14), (7, 9))
    table = RestrictionTable(((5, 3), (2, 7)))
    report = restricted_system_count(system, table)
    assert report.count == 1
    assert report.details["crt_residue"] == 37
    assert report.details["modulus"] == 210
    assert report.details["restriction_products"] == [10, 21]
    assert report.details["coefficient_gcds"] == [1, 1]
    assert report.details["divisor_sum"] == 210
    assert len(report.details["divisor_table"]) == 16
    count, sols = enumerate_solutions(system, table)
    assert count == 1
    assert sols == [(10, 21)]


def test_restricted_system_validation():
    system = CongruenceSystem(((1, 2), (3, 1)), (15, 14), (7, 9))
    with pytest.raises(ValueError):
        restricted_system_count(system, RestrictionTable(()))
    with pytest.raises(ValueError):
        restricted_system_count(system, RestrictionTable(((1,), (1,))))
    with pytest.raises(HypothesisError):
        restricted_system_count(system, RestrictionTable(((1, 4), (1, 2))))
    bad = CongruenceSystem(((1, 1), (1, 1)), (4, 6), (0, 0))
    with pytest.raises(HypothesisError):
        restricted_system_count(bad, RestrictionTable(((1, 1), (1, 1))))


def test_restriction_table_validation():
    with pytest.raises(ValueError):
        RestrictionTable(((1, 2), (1,)))
    with pytest.raises(ValueError):
        RestrictionTable(((0,),))
    assert RestrictionTable(()).entries == ()


def test_differential_formula_vs_oracle():
    rng = random.Random(37)
    disagreements = 0
    for _ in range(200):
        system, table = random_int_instance(rng)
        if table is None:
            formula = system_count(system).count
        else:
            formula = restricted_system_count(system, table).count
        oracle, _ = enumerate_solutions(system, table)
        if formula != oracle:
            disagreements += 1
    assert disagreements == 0


def test_enumerate_matches_naive_scan():
    rng = random.Random(38)
    checked = 0
    while checked < 40:
        system, table = random_int_instance(rng)
        m = math.lcm(*system.moduli)
        if m**system.n > 20000:
            continue
        count, sols = enumerate_solutions(system, table)
        brute_count, brute_sols = brute_count_int(system, table)
        assert count == brute_count
        if sols is not None:
            assert sols == brute_sols
        checked += 1


def test_enumerate_solution_list_behaviour():
    # All 2^11 tuples solve the zero congruence, which is above the listing
    # threshold, so the list is withheld.
    system = CongruenceSystem(((0,) * 11,), (2,), (0,))
    count, sols = enumerate_solutions(system)
    assert count == 2048
    assert sols is None
    # Small solution sets come back sorted.
    small = CongruenceSystem(((1, 1),), (4, ), (1,))
    count, sols = enumerate_solutions(small)
    assert count == 4
    assert sols == [(0, 1), (1, 0), (2, 3), (3, 2)]


def test_enumerate_cap():
    system = CongruenceSystem(((0,) * 11,), (2,), (0,))
    with pytest.raises(CapExceededError):
        enumerate_solutions(system, cap=100)
    # Past the int64 scan's modulus limit the oracle refuses, whatever the cap.
    system = CongruenceSystem(((1,),), (3000000019,), (0,))
    with pytest.raises(CapExceededError):
        enumerate_solutions(system, cap=10**10)


def test_congruence_system_validation():
    with pytest.raises(ValueError):
        CongruenceSystem((), (), ())
    with pytest.raises(ValueError):
        CongruenceSystem(((1,),), (1,), (0,))
    with pytest.raises(ValueError):
        CongruenceSystem(((1, 2), (1,)), (3, 5), (0, 0))
    with pytest.raises(ValueError):
        CongruenceSystem(((1,),), (3, 5), (0,))
