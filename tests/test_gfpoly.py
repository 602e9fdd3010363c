"""Tests for polynomial arithmetic, factorization and divisor machinery over F_p."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congruences import (
    FactoredPolynomial,
    GFPolynomial,
    PrimeField,
    factorize_poly,
    format_poly,
    mobius_poly,
    monic_divisors,
    parse_poly,
    phi_poly,
    poly_ext_gcd,
    poly_gcd,
    poly_lcm,
    pow_mod,
    residues,
)

PRIMES = (2, 3, 5, 7)


def P(p: int, *coeffs: int) -> GFPolynomial:
    """Ascending-coefficient constructor shorthand."""
    return GFPolynomial.from_coeffs(PrimeField(p), coeffs)


@st.composite
def poly_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    field = PrimeField(p)
    mk = lambda: GFPolynomial.from_coeffs(
        field, draw(st.lists(st.integers(0, p - 1), max_size=7))
    )
    return field, mk(), mk(), mk()


def test_prime_field_validation():
    PrimeField(2)
    PrimeField(97)
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)


def test_prime_field_inverse():
    field = PrimeField(11)
    for a in range(1, 11):
        assert a * field.inv(a) % 11 == 1
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_polynomial_validation():
    field = PrimeField(3)
    with pytest.raises(ValueError):
        GFPolynomial(field, (1, 0))  # trailing zero
    with pytest.raises(ValueError):
        GFPolynomial(field, (4,))  # unreduced coefficient
    assert GFPolynomial.from_coeffs(field, (4, 3)) == P(3, 1)
    assert GFPolynomial.zero(field).degree == -1
    assert GFPolynomial.one(field).is_unit


def test_basic_arithmetic_values():
    # (t + 1)(t + 2) = t^2 + 2 over F_3.
    assert P(3, 1, 1) * P(3, 2, 1) == P(3, 2, 0, 1)
    assert P(3, 1, 1) + P(3, 2, 2) == P(3, 0, 0)
    assert -P(5, 1, 2) == P(5, 4, 3)
    q, r = divmod(P(5, 1, 0, 0, 1), P(5, 2, 1))
    assert q * P(5, 2, 1) + r == P(5, 1, 0, 0, 1)
    assert r.degree < 1


@given(poly_pairs())
@settings(max_examples=300, deadline=None)
def test_ring_axioms(data):
    field, a, b, c = data
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + GFPolynomial.zero(field) == a
    assert a * GFPolynomial.one(field) == a
    assert a - a == GFPolynomial.zero(field)


@given(poly_pairs())
@settings(max_examples=300, deadline=None)
def test_division_identity(data):
    field, a, b, _ = data
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(poly_pairs())
@settings(max_examples=300, deadline=None)
def test_gcd_properties(data):
    field, a, b, _ = data
    g = poly_gcd(a, b)
    if a.is_zero and b.is_zero:
        assert g.is_zero
        return
    assert g.divides(a) and g.divides(b)
    assert g.lc == 1
    eg, s, t = poly_ext_gcd(a, b)
    assert eg == g
    assert s * a + t * b == g
    ell = poly_lcm(a, b)
    if not a.is_zero and not b.is_zero:
        assert a.divides(ell) and b.divides(ell)
        assert ell.degree == a.degree + b.degree - g.degree


def test_norm_and_monic():
    assert P(3, 0, 0, 1).norm() == 9
    assert P(5, 1).norm() == 1
    assert P(5, 2, 4).monic() == P(5, 3, 1)
    with pytest.raises(ValueError):
        GFPolynomial.zero(PrimeField(3)).norm()


def test_pow_mod():
    field = PrimeField(3)
    x = GFPolynomial.indeterminate(field)
    modulus = P(3, 1, 0, 1)  # t^2 + 1
    assert pow_mod(x, 9, modulus) == x
    assert pow_mod(x, 2, modulus) == P(3, 2)  # t^2 = -1


def test_factorize_examples():
    # t^2 + 1 irreducible over F_3, split over F_5.
    f = factorize_poly(P(3, 1, 0, 1))
    assert f.factors == ((P(3, 1, 0, 1), 1),)
    f = factorize_poly(P(5, 1, 0, 1))
    assert f.factors == ((P(5, 2, 1), 1), (P(5, 3, 1), 1))
    # (t + 1)^2 over F_2 with a repeated factor.
    f = factorize_poly(P(2, 1, 0, 1))
    assert f.factors == ((P(2, 1, 1), 2),)
    # Non-monic input keeps the unit.
    f = factorize_poly(P(5, 2, 0, 2))  # 2 * (t^2 + 1)
    assert f.unit == 2
    assert f.factors == ((P(5, 2, 1), 1), (P(5, 3, 1), 1))


def test_factorize_equal_degree_split_char2():
    # Two distinct cubic irreducibles over F_2 in one squarefree part.
    product = P(2, 1, 1, 0, 1) * P(2, 1, 0, 1, 1)
    f = factorize_poly(product)
    assert f.factors == ((P(2, 1, 0, 1, 1), 1), (P(2, 1, 1, 0, 1), 1))


def test_factorize_deterministic():
    poly = P(5, 3, 1, 4, 0, 2, 1)
    # factorize_poly is memoised; __wrapped__ runs the seeded splitting afresh.
    assert factorize_poly.__wrapped__(poly) == factorize_poly.__wrapped__(poly)


def _is_irreducible_brute(f: GFPolynomial) -> bool:
    if f.degree < 1:
        return False
    for e in range(1, f.degree):
        for tail in residues(f.field, e):
            candidate = tail + GFPolynomial.from_coeffs(
                f.field, [0] * e + [1]
            )
            if candidate.divides(f):
                return False
    return True


def test_factorize_random_roundtrip():
    rng = random.Random(51)
    for _ in range(150):
        p = rng.choice(PRIMES)
        field = PrimeField(p)
        coeffs = [rng.randrange(p) for _ in range(rng.randrange(1, 8))]
        coeffs.append(rng.randrange(1, p))
        poly = GFPolynomial.from_coeffs(field, coeffs)
        factored = factorize_poly(poly)
        rebuilt = GFPolynomial.constant(field, factored.unit)
        for g, e in factored.factors:
            assert _is_irreducible_brute(g)
            assert g.lc == 1
            for _ in range(e):
                rebuilt = rebuilt * g
        assert rebuilt == poly


def test_factored_polynomial_validation():
    field = PrimeField(3)
    with pytest.raises(ValueError):
        FactoredPolynomial(P(3, 1, 1), 2, ((P(3, 1, 1), 1),))
    with pytest.raises(ValueError):
        FactoredPolynomial(
            P(3, 0, 0, 1), 1, ((P(3, 0, 1), 1), (P(3, 0, 1), 1))
        )
    ok = FactoredPolynomial(P(3, 0, 0, 1), 1, ((P(3, 0, 1), 2),))
    assert ok.value == P(3, 0, 0, 1)


def test_monic_divisors_order():
    divisors = monic_divisors(P(3, 0, 0, 1) * P(3, 1, 1))  # t^2 (t + 1)
    assert [format_poly(d) for d in divisors] == [
        "1",
        "t",
        "t + 1",
        "t^2",
        "t^2 + t",
        "t^3 + t^2",
    ]


def test_monic_divisors_count():
    rng = random.Random(52)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        field = PrimeField(p)
        coeffs = [rng.randrange(p) for _ in range(rng.randrange(1, 6))]
        coeffs.append(rng.randrange(1, p))
        poly = GFPolynomial.from_coeffs(field, coeffs)
        expected = 1
        for _, e in factorize_poly(poly).factors:
            expected *= e + 1
        divisors = monic_divisors(poly)
        assert len(divisors) == expected
        assert len(set(divisors)) == expected
        assert all(d.divides(poly) for d in divisors)
        keys = [d.sort_key() for d in divisors]
        assert keys == sorted(keys)


def test_mobius_poly_values():
    assert mobius_poly(GFPolynomial.zero(PrimeField(3))) == 0
    assert mobius_poly(P(3, 2)) == 1
    assert mobius_poly(P(3, 0, 1)) == -1
    assert mobius_poly(P(3, 0, 1) * P(3, 1, 1)) == 1
    assert mobius_poly(P(3, 0, 0, 1)) == 0


def test_mobius_divisor_sum():
    for p in (2, 3, 5):
        field = PrimeField(p)
        for lead in range(1, 4):
            for tail in residues(field, lead):
                h = tail + GFPolynomial.from_coeffs(field, [0] * lead + [1])
                total = sum(mobius_poly(d) for d in monic_divisors(h))
                assert total == 0


def test_phi_poly_values():
    assert phi_poly(P(3, 0, 1)) == 2
    assert phi_poly(P(3, 0, 0, 1)) == 6
    assert phi_poly(P(5, 0, 0, 0, 1)) == 100
    assert phi_poly(P(3, 7)) == 1
    assert phi_poly(GFPolynomial.zero(PrimeField(3))) == 0


def test_phi_poly_matches_unit_count():
    one = {2: P(2, 1), 3: P(3, 1), 5: P(5, 1)}
    for p in (2, 3, 5):
        field = PrimeField(p)
        for lead in (1, 2, 3):
            for tail in residues(field, lead):
                h = tail + GFPolynomial.from_coeffs(field, [0] * lead + [1])
                brute = sum(
                    1 for x in residues(field, h.degree) if poly_gcd(x, h) == one[p]
                )
                assert phi_poly(h) == brute


def test_phi_poly_divisor_sum_identity():
    for p in (2, 3, 5):
        field = PrimeField(p)
        for lead in (1, 2, 3):
            for tail in residues(field, lead):
                h = tail + GFPolynomial.from_coeffs(field, [0] * lead + [1])
                assert sum(phi_poly(d) for d in monic_divisors(h)) == h.norm()


def test_residues_base_p_order():
    field = PrimeField(3)
    pool = residues(field, 2)
    assert len(pool) == 9
    for c, poly in enumerate(pool):
        coeffs = list(poly.coefficients) + [0] * (2 - len(poly.coefficients))
        assert coeffs == [(c // 3**i) % 3 for i in range(2)]


def test_parse_poly_examples():
    field = PrimeField(5)
    assert parse_poly("3*t + 1", field) == P(5, 1, 3)
    assert parse_poly("t^3 - t", field) == P(5, 0, 4, 0, 1)
    assert parse_poly("-2", field) == P(5, 3)
    assert parse_poly("0", field) == GFPolynomial.zero(field)
    assert parse_poly("t^2+t+1", field) == P(5, 1, 1, 1)
    # Reduction happens in the target field.
    assert parse_poly("3*t + 1", PrimeField(3)) == P(3, 1)


def test_parse_poly_errors():
    field = PrimeField(3)
    for bad in ("", "t*", "x", "2*x", "t^", "3 4", "+", "t^-1", "2**t", "t # 1"):
        with pytest.raises(ValueError):
            parse_poly(bad, field)


def test_format_poly_examples():
    assert format_poly(GFPolynomial.zero(PrimeField(3))) == "0"
    assert format_poly(P(3, 1)) == "1"
    assert format_poly(P(3, 0, 1)) == "t"
    assert format_poly(P(5, 1, 3)) == "3*t + 1"
    assert format_poly(P(5, 0, 2, 0, 1)) == "t^3 + 2*t"


@given(poly_pairs())
@settings(max_examples=300, deadline=None)
def test_parse_format_roundtrip(data):
    field, a, _, _ = data
    assert parse_poly(format_poly(a), field) == a


def test_norm_multiplicative():
    rng = random.Random(53)
    for _ in range(100):
        p = rng.choice(PRIMES)
        field = PrimeField(p)
        a = GFPolynomial.from_coeffs(
            field, [rng.randrange(p) for _ in range(3)] + [rng.randrange(1, p)]
        )
        b = GFPolynomial.from_coeffs(
            field, [rng.randrange(p) for _ in range(2)] + [rng.randrange(1, p)]
        )
        assert (a * b).norm() == a.norm() * b.norm()
