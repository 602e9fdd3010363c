"""Tests for Ramanujan sums and the E/J counts."""

import math
import random

import pytest

from congruences import (
    CongruenceSystem,
    HypothesisError,
    MultiIndex,
    RestrictionTable,
    divisors,
    e_function,
    euler_phi,
    j_function,
    mobius,
    ramanujan_c,
    ramanujan_c_sum,
    restricted_system_count,
)
from oracle_utils import brute_sum_restricted, cyclotomic_dft


def test_ramanujan_special_values():
    for a in range(10):
        assert ramanujan_c(1, a) == 1
    for m in range(1, 60):
        assert ramanujan_c(m, 0) == euler_phi(m)
        assert ramanujan_c(m, 1) == mobius(m)
    assert ramanujan_c(6, 3) == -2
    assert ramanujan_c(9, 3) == -3
    assert ramanujan_c(8, 4) == -4
    assert ramanujan_c(8, 2) == 0


def test_ramanujan_reference_values():
    table = {
        (2, 37): -1,
        (21, 210): 12,
        (10, 210): 4,
        (10, 105): -4,
        (105, 37): -1,
        (21, 7): -6,
    }
    for (m, a), want in table.items():
        assert ramanujan_c(m, a) == want
        assert ramanujan_c_sum(m, a) == want


def test_explicit_sum_matches_closed_form():
    for m in range(1, 301):
        for a in range(m + 1):
            assert ramanujan_c_sum(m, a) == ramanujan_c(m, a)
    # Prime powers far past m <= 300, at every valuation of a around the exponent.
    for m, p, e in ((2**60, 2, 60), (3**40, 3, 40), (7**2 * 11**3, 11, 3)):
        for j in (*range(e + 2), 2 * e):
            for unit in (1, -1, 5 * 13, m + 1):
                a = p**j * unit
                assert ramanujan_c_sum(m, a) == ramanujan_c(m, a)
        assert ramanujan_c(m, 0) == ramanujan_c_sum(m, 0) == euler_phi(m)


def test_evenness_mod_m():
    for m in range(1, 501):
        values = {d: ramanujan_c(m, d) for d in divisors(m)}
        for a in range(2 * m):
            assert ramanujan_c(m, a) == values[math.gcd(a, m)]


def test_negation_and_shift_invariance():
    rng = random.Random(21)
    for _ in range(300):
        m = rng.randrange(1, 400)
        a = rng.randrange(-2 * m, 2 * m)
        assert ramanujan_c(m, a) == ramanujan_c(m, -a)
        assert ramanujan_c(m, a) == ramanujan_c(m, a + m)


def test_multiplicativity_in_modulus():
    rng = random.Random(22)
    checked = 0
    while checked < 300:
        m1 = rng.randrange(1, 80)
        m2 = rng.randrange(1, 80)
        if math.gcd(m1, m2) != 1:
            continue
        a = rng.randrange(0, m1 * m2)
        assert ramanujan_c(m1 * m2, a) == ramanujan_c(m1, a) * ramanujan_c(m2, a)
        checked += 1


def test_ramanujan_agrees_with_cyclotomic_unit_sum():
    # C_m(a) is the sum of e(-a k / m) over units k; realize that sum exactly
    # in the cyclotomic integers and compare.
    for m in range(1, 41):
        values = {d: (1 if d == 1 else 0) for d in divisors(m)}
        for a in range(m):
            assert ramanujan_c(m, a) == cyclotomic_dft(values, m, a)


def test_multi_index_validation():
    MultiIndex((2, 3), 6)
    MultiIndex((2, 2), 2)
    with pytest.raises(ValueError):
        MultiIndex((2, 3), 4)  # lcm does not divide ambient
    with pytest.raises(ValueError):
        MultiIndex((), 6)
    with pytest.raises(ValueError):
        MultiIndex((0, 3), 6)


def test_j_function_values():
    assert j_function(0, MultiIndex((1,), 1)) == 1
    assert j_function(0, MultiIndex((2, 2), 2)) == 2
    assert j_function(1, MultiIndex((2, 2), 2)) == 2
    assert j_function(0, MultiIndex((4, 4), 4)) == 4
    # With a strictly larger ambient modulus the support shrinks.
    assert j_function(1, MultiIndex((2, 2), 4)) == 0
    assert j_function(2, MultiIndex((2, 2), 4)) == 2


def test_e_function_values():
    assert e_function(0, MultiIndex((1,), 1)) == 1
    assert e_function(5, MultiIndex((1,), 1)) == 1
    assert e_function(0, MultiIndex((2, 2), 2)) == 1
    assert e_function(1, MultiIndex((2, 2), 2)) == 0
    assert e_function(1, MultiIndex((2,), 2)) == 1
    assert e_function(0, MultiIndex((2,), 2)) == 0


def unit_coefficient_count(m, b, t):
    """Solutions of x_1 + ... + x_n = b (mod m) with gcd(x_i, m) = t_i: the
    one-row restricted system with every coefficient 1."""
    system = CongruenceSystem(((1,) * len(t),), (m,), (b,))
    return restricted_system_count(system, RestrictionTable((tuple(t),))).count


def test_e_function_counts_restricted_sums():
    # E(b; m/t_1, ..., m/t_n) with ambient m counts solutions of
    # x_1 + ... + x_n = b (mod m) with gcd(x_i, m) = t_i; check all three
    # routes (Moebius expansion, divisor sum, brute scan) against each other.
    rng = random.Random(24)
    for _ in range(120):
        m = rng.randrange(2, 40)
        n = rng.randrange(1, 4)
        t = tuple(rng.choice(divisors(m)) for _ in range(n))
        b = rng.randrange(m)
        via_e = e_function(b, MultiIndex(tuple(m // t_i for t_i in t), m))
        via_sum = unit_coefficient_count(m, b, t)
        brute = brute_sum_restricted(m, b, t)
        assert via_e == via_sum == brute


def test_moebius_inversion_of_e():
    # Summing E over all divisor tuples of the moduli recovers J.
    rng = random.Random(25)
    import itertools

    for _ in range(200):
        n = rng.randrange(1, 3)
        moduli = tuple(rng.randrange(1, 13) for _ in range(n))
        ambient = math.lcm(*moduli) * rng.choice([1, 2, 3])
        b = rng.randrange(ambient)
        total = 0
        for combo in itertools.product(*(divisors(m_i) for m_i in moduli)):
            total += e_function(b, MultiIndex(combo, ambient))
        assert total == j_function(b, MultiIndex(moduli, ambient))


def test_restricted_count_unit_coeffs_values():
    # x + y = 0 mod 12 with both unknowns units: y = -x, so phi(12) solutions.
    assert unit_coefficient_count(12, 0, (1, 1)) == 4
    assert unit_coefficient_count(12, 0, (1, 1)) == brute_sum_restricted(12, 0, (1, 1))
    # Single unknown: gcd(b, m) must equal t.
    assert unit_coefficient_count(12, 4, (4,)) == 1
    assert unit_coefficient_count(12, 4, (2,)) == 0


def test_restricted_count_validation():
    with pytest.raises(HypothesisError):
        unit_coefficient_count(12, 0, (5,))  # 5 does not divide 12
