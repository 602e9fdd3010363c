"""Unit and property tests for exact integer arithmetic helpers."""

import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from congruences import (
    FactoredInteger,
    divisors,
    euler_phi,
    factorize,
    is_probable_prime,
    mobius,
    nary_gcd,
    nary_lcm,
)
from congruences.errors import CapExceededError
from congruences import intarith
from congruences.intarith import _TRIAL_LIMIT, _strong_lucas_probable_prime
from oracle_utils import ref_divisors, ref_factor, ref_mobius, ref_phi


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(2).factors == ((2, 1),)
    assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))
    assert factorize(210).factors == ((2, 1), (3, 1), (5, 1), (7, 1))
    assert factorize(1024).factors == ((2, 10),)


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


@given(st.integers(min_value=1, max_value=5000))
@settings(max_examples=300, deadline=None)
def test_factorize_matches_trial_division(n):
    assert factorize(n).factors == tuple(ref_factor(n))


def test_factored_integer_validation():
    with pytest.raises(ValueError):
        FactoredInteger(12, ((2, 1), (3, 1)))  # product mismatch
    with pytest.raises(ValueError):
        FactoredInteger(12, ((3, 1), (2, 2)))  # out of order
    ok = FactoredInteger(12, ((2, 2), (3, 1)))
    assert ok.value == 12


def test_factorize_large_semiprime():
    p, q = 10**9 + 7, 10**9 + 9
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_factorize_splits_a_prime_below_10_to_the_12():
    p, q = 999999999989, 10**20 + 39
    assert factorize(p * q).factors == ((p, 1), (q, 1))


def test_factorize_past_the_rho_budget_raises():
    # Pollard rho needs about sqrt(p) steps; 10**19 is far past the budget.
    with pytest.raises(CapExceededError, match="a 40-digit composite exceeds the budget"):
        factorize((10**19 + 51) * (10**20 + 39))


def _primes_past_the_trial_bound(rng, count):
    """Primes between the trial bound and 10**6, the extremes first."""
    drawn = [sympy.nextprime(rng.randrange(_TRIAL_LIMIT, 10**6 - 17)) for _ in range(count)]
    return [sympy.nextprime(_TRIAL_LIMIT), sympy.prevprime(10**6), *drawn]


def test_factorize_products_of_primes_past_the_trial_bound():
    # Pollard rho splits these: trial division stops at _TRIAL_LIMIT.
    rng = random.Random(26)
    primes = _primes_past_the_trial_bound(rng, 6)
    products = [p * q for p, q in zip(primes, primes[1:])]
    products += [primes[0] ** 3, primes[1] ** 2, primes[0] * primes[1] * primes[2]]
    products += [2**5 * 3 * 997 * p for p in primes[:3]]
    for n in products:
        factorize.cache_clear()
        assert factorize(n).factors == tuple(ref_factor(n)), n


def test_factorize_up_to_10_to_the_6_by_trial_division_alone(monkeypatch):
    def no_rho(n, rng):
        raise AssertionError(f"Pollard rho called on {n}")

    monkeypatch.setattr(intarith, "_pollard_rho", no_rho)
    rng = random.Random(27)
    # 997**2: the largest n up to 10**6 with no prime factor below 997.
    for n in (997**2, 10**6, 999983, 997 * 1003, *(rng.randrange(2, 10**6) for _ in range(200))):
        factorize.cache_clear()
        assert factorize(n).factors == tuple(ref_factor(n)), n


def test_factorize_prime_power_beyond_trial_range():
    p = 1000003
    assert factorize(p * p).factors == ((p, 2),)


def test_is_probable_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_probable_prime(n) == (n in primes)


# psi_12 and psi_13: the least strong pseudoprimes to all prime bases up to
# 37 and up to 41 respectively.
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def test_is_probable_prime_past_the_witness_bound():
    assert not sympy.isprime(PSI_12) and not sympy.isprime(PSI_13)
    assert not is_probable_prime(PSI_12)
    assert not is_probable_prime(PSI_13)
    for prime in (399165290221, 798330580441, 1287836182261, 2575672364521):
        assert is_probable_prime(prime)
    for e in (89, 107, 127, 521):
        assert is_probable_prime(2**e - 1)
        assert not is_probable_prime(2**e + 1)
    rng = random.Random(79)
    for _ in range(2000):
        n = rng.randrange(PSI_12, 10**40)
        assert is_probable_prime(n) == sympy.isprime(n)


def test_is_probable_prime_size_bound():
    # Mersenne prime M_2203 lies past the 2048-bit bound, M_1279 within it.
    assert is_probable_prime(2**1279 - 1)
    with pytest.raises(CapExceededError, match="a 2203-bit number exceeds the limit of 2048"):
        is_probable_prime(2**2203 - 1)
    # A huge number with a prime factor up to 37 is settled without the test.
    assert not is_probable_prime(3 * 2**5000)
    with pytest.raises(CapExceededError, match="exceeds the limit of 2048 bits"):
        factorize(6 * (2**2203 - 1))


def test_strong_lucas_pseudoprimes():
    # The strong Lucas test with Selfridge's parameters passes every prime and,
    # below 60000, exactly these composites (OEIS A217255).
    passed = []
    for n in range(41, 60000, 2):
        if any(n % p == 0 for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
            continue
        if _strong_lucas_probable_prime(n):
            passed.append(n)
        else:
            assert not sympy.isprime(n)
    assert [n for n in passed if not sympy.isprime(n)] == [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519
    ]


def test_divisors_examples():
    assert divisors(1) == (1,)
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert divisors(210) == tuple(ref_divisors(210))


@given(st.integers(min_value=1, max_value=2000))
@settings(max_examples=200, deadline=None)
def test_divisors_sorted_and_complete(n):
    ds = divisors(n)
    assert list(ds) == sorted(ds)
    assert list(ds) == ref_divisors(n)


def test_nary_gcd_lcm_examples():
    assert nary_gcd((0, 0)) == 0
    assert nary_gcd((4, 6, 8)) == 2
    assert nary_gcd((0, 5)) == 5
    assert nary_lcm((4, 6)) == 12
    assert nary_lcm((2, 3, 5)) == 30
    with pytest.raises(ValueError):
        nary_gcd(())
    with pytest.raises(ValueError):
        nary_lcm((0, 3))


def test_mobius_phi_examples():
    assert mobius(1) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1
    assert mobius(210) == 1
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(210) == 48


@given(st.integers(min_value=1, max_value=1500))
@settings(max_examples=200, deadline=None)
def test_mobius_phi_match_brute(n):
    assert mobius(n) == ref_mobius(n)
    assert euler_phi(n) == ref_phi(n)


def test_phi_divisor_sum_identity():
    for n in range(1, 401):
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_mobius_divisor_sum_identity():
    for n in range(1, 401):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_multiplicativity_on_coprime_pairs():
    rng = random.Random(1201)
    checked = 0
    while checked < 500:
        a = rng.randrange(1, 400)
        b = rng.randrange(1, 400)
        if math.gcd(a, b) != 1:
            continue
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)
        assert mobius(a * b) == mobius(a) * mobius(b)
        checked += 1


def test_gcd_distributes_over_coprime_product():
    # (m1 * m2, m) = (m1, m)(m2, m) and [m1 * m2, m] * m = [m1, m][m2, m]
    # whenever (m1, m2) = 1.
    rng = random.Random(1202)
    checked = 0
    while checked < 500:
        m1 = rng.randrange(1, 200)
        m2 = rng.randrange(1, 200)
        if math.gcd(m1, m2) != 1:
            continue
        m = rng.randrange(1, 500)
        assert math.gcd(m1 * m2, m) == math.gcd(m1, m) * math.gcd(m2, m)
        assert math.lcm(m1 * m2, m) * m == math.lcm(m1, m) * math.lcm(m2, m)
        checked += 1


def test_lcm_of_cofactors_identity():
    # [m/d_1, ..., m/d_n] = m / (d_1, ..., d_n) for divisors d_i of m.
    rng = random.Random(1203)
    for _ in range(500):
        m = rng.randrange(2, 400)
        ds = [rng.choice(divisors(m)) for _ in range(rng.randrange(1, 4))]
        assert nary_lcm(tuple(m // d for d in ds)) == m // nary_gcd(tuple(ds))
