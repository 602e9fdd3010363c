"""Tests for Ramanujan sums, even-function transforms, and the E/J counts."""

import math
import random

import pytest

from congruences import (
    EvenFunctionTable,
    MultiIndex,
    divisors,
    e_function,
    euler_phi,
    even_dft,
    j_function,
    mobius,
    ramanujan_c,
    ramanujan_c_sum,
    restricted_count_unit_coeffs,
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


def test_even_function_table_validation():
    with pytest.raises(ValueError):
        EvenFunctionTable(12, {1: 1})  # missing divisors
    with pytest.raises(ValueError):
        EvenFunctionTable(12, {d: 0 for d in (1, 2, 3, 4, 5, 6, 12)})
    table = EvenFunctionTable(12, {d: d for d in (1, 2, 3, 4, 6, 12)})
    assert table(5) == 1
    assert table(8) == 4
    assert table(-3) == 3


def test_even_dft_unit_indicator_gives_ramanujan():
    r = 210
    table = EvenFunctionTable(r, {d: (1 if d == 1 else 0) for d in divisors(r)})
    for b in (0, 1, 37, 105):
        assert even_dft(table, b) == ramanujan_c(r, b)


def test_even_dft_matches_cyclotomic_oracle():
    rng = random.Random(23)
    for _ in range(40):
        r = rng.randrange(1, 61)
        values = {d: rng.randrange(-5, 6) for d in divisors(r)}
        table = EvenFunctionTable(r, values)
        for b in range(r + 1):
            assert even_dft(table, b) == cyclotomic_dft(values, r, b)


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
        via_sum = restricted_count_unit_coeffs(m, b, t)
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
    assert restricted_count_unit_coeffs(12, 0, (1, 1)) == 4
    assert restricted_count_unit_coeffs(12, 0, (1, 1)) == brute_sum_restricted(
        12, 0, (1, 1)
    )
    # Single unknown: gcd(b, m) must equal t.
    assert restricted_count_unit_coeffs(12, 4, (4,)) == 1
    assert restricted_count_unit_coeffs(12, 4, (2,)) == 0
    # m = 1: the single residue 0 solves everything.
    assert restricted_count_unit_coeffs(1, 0, (1,)) == 1


def test_restricted_count_validation():
    with pytest.raises(ValueError):
        restricted_count_unit_coeffs(12, 0, (5,))  # 5 does not divide 12
    with pytest.raises(ValueError):
        restricted_count_unit_coeffs(12, 0, ())
