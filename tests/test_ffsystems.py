"""Tests for congruence systems over F_p[t]: eta sums, counts, enumeration."""

import random
from itertools import product

import pytest

from congruences import (
    CapExceededError,
    GFPolynomial,
    HypothesisError,
    PolyCongruenceSystem,
    PolyRestrictionTable,
    PrimeField,
    enumerate_solutions_ff,
    eta,
    eta_closed_form,
    eta_direct_oracle,
    i_and_j_functions_ff,
    monic_divisors,
    phi_poly,
    poly_gcd,
    poly_lcm_many,
    residues,
    restricted_system_count_ff,
    single_restricted_count_ff,
    system_count_ff,
    tau,
)
from congruences.dsl import build_restrictions, build_system, parse_system
from congruences.ffsystems import PolyRing
from congruences.systems import _SCAN_BLOCK
from oracle_utils import (
    brute_count_ff,
    brute_count_ff_naive,
    brute_sum_restricted_ff,
    random_int_instance,
    random_poly,
    random_poly_instance,
)


def P(p: int, *coeffs: int) -> GFPolynomial:
    return GFPolynomial.from_coeffs(PrimeField(p), coeffs)


def monic_polys(p: int, degree: int) -> list[GFPolynomial]:
    field = PrimeField(p)
    lead = GFPolynomial.from_coeffs(field, [0] * degree + [1])
    return [tail + lead for tail in residues(field, degree)]


def test_tau_values():
    assert tau(P(3, 0, 1), P(3, 0, 0, 1)) == 1  # t mod t^2
    assert tau(P(3, 1), P(3, 0, 0, 1)) == 0
    assert tau(P(3, 2), P(3, 1, 1)) == 2
    assert tau(P(3, 1, 1), P(3, 1, 1)) == 0
    assert tau(P(3, 0, 0, 1), P(3, 0, 0, 1)) == 0
    with pytest.raises(ValueError):
        tau(P(3, 1), P(3, 2))


def test_char_exponent_additive():
    rng = random.Random(61)
    field = PrimeField(5)
    h = P(5, 1, 2, 0, 1)
    for _ in range(100):
        g = random_poly(rng, field, rng.randrange(0, 3))
        a = random_poly(rng, field, rng.randrange(0, 3))
        b = random_poly(rng, field, rng.randrange(0, 3))
        assert tau(g * (a + b), h) == (tau(g * a, h) + tau(g * b, h)) % 5


def test_eta_special_values():
    t_sq = P(3, 0, 0, 1)
    assert eta(GFPolynomial.zero(PrimeField(3)), t_sq) == phi_poly(t_sq)
    assert eta(P(3, 1), t_sq) == 0  # mu(t^2) = 0
    assert eta(P(3, 1), P(3, 0, 1)) == -1  # mu(t)
    assert eta(P(3, 0, 1), t_sq) == -3
    assert eta(P(3, 0, 0, 1), t_sq) == 6
    assert eta(P(3, 1), P(3, 2)) == 1  # unit modulus
    # Non-monic moduli are normalized first.
    assert eta(P(3, 0, 1), P(3, 0, 0, 2)) == -3


def test_eta_depends_only_on_gcd():
    rng = random.Random(62)
    field = PrimeField(3)
    for _ in range(200):
        h = random_poly(rng, field, rng.randrange(1, 4))
        g = random_poly(rng, field, rng.randrange(0, 5))
        assert eta(g, h) == eta(poly_gcd(g, h.monic()), h)


def test_eta_multiplicative_in_modulus():
    rng = random.Random(63)
    field = PrimeField(3)
    checked = 0
    while checked < 150:
        h1 = random_poly(rng, field, rng.randrange(1, 3))
        h2 = random_poly(rng, field, rng.randrange(1, 3))
        if poly_gcd(h1, h2).degree != 0:
            continue
        g = random_poly(rng, field, rng.randrange(0, 4))
        assert eta(g, h1 * h2) == eta(g, h1) * eta(g, h2)
        checked += 1


def test_eta_triple_agreement_exhaustive_f3():
    field = PrimeField(3)
    for degree in (1, 2, 3):
        for h in monic_polys(3, degree):
            for g in residues(field, degree):
                want = eta_direct_oracle(g, h)
                assert eta(g, h) == want
                assert eta_closed_form(g, h) == want


def test_eta_triple_agreement_exhaustive_f5_deg2():
    field = PrimeField(5)
    for degree in (1, 2):
        for h in monic_polys(5, degree):
            for g in residues(field, degree):
                want = eta_direct_oracle(g, h)
                assert eta(g, h) == want
                assert eta_closed_form(g, h) == want


def test_eta_triple_agreement_random_larger():
    rng = random.Random(64)
    field = PrimeField(5)
    for _ in range(40):
        h = random_poly(rng, field, rng.randrange(3, 5))
        g = random_poly(rng, field, rng.randrange(0, 5))
        want = eta_direct_oracle(g, h)
        assert eta(g, h) == want
        assert eta_closed_form(g, h) == want
    # Prime powers P^e with e up to 8, beyond the oracle's guard: the divisor
    # sum and the local product, at every valuation of G around e.
    for p, irreducible in ((2, P(2, 1, 1, 1)), (3, P(3, 1, 0, 1)), (5, P(5, 2, 1))):
        for e in range(1, 9):
            h = irreducible
            for _ in range(e - 1):
                h = h * irreducible
            for j in range(e + 2):
                g = random_poly(rng, PrimeField(p), rng.randrange(0, 2))
                for _ in range(j):
                    g = g * irreducible
                assert eta(g, h) == eta_closed_form(g, h)


def test_eta_direct_oracle_guard():
    field = PrimeField(3)
    huge = GFPolynomial.from_coeffs(field, [1] + [0] * 10 + [1])
    with pytest.raises(CapExceededError):
        eta_direct_oracle(P(3, 1), huge)


def test_character_orthogonality_tally():
    # Summing the character over all G mod H vanishes unless H divides A.
    field = PrimeField(3)
    for degree in (1, 2, 3):
        for h in monic_polys(3, degree):
            pool = residues(field, degree)
            for a in pool:
                counts = [0, 0, 0]
                for g in pool:
                    counts[tau(g * a, h)] += 1
                if a.is_zero:
                    assert counts == [len(pool), 0, 0]
                else:
                    assert counts[1] == counts[2]
                    assert counts[0] == counts[1]


def test_gcd_class_character_sums_give_eta():
    # Tallying the character over a fixed gcd class reproduces eta at the
    # cofactor modulus: an independent route through tau itself.
    field = PrimeField(3)
    for degree in (1, 2, 3):
        for h in monic_polys(3, degree):
            pool = residues(field, degree)
            for h1 in monic_divisors(h):
                for g in residues(field, max(degree - h1.degree, 0) or 1):
                    counts = [0, 0, 0]
                    for a in pool:
                        if poly_gcd(a, h) == h1:
                            counts[tau(g * a, h)] += 1
                    assert counts[1] == counts[2]
                    assert counts[0] - counts[1] == eta(g, h // h1)


def test_crt_poly_examples():
    crt5, crt3 = PolyRing(PrimeField(5)).crt, PolyRing(PrimeField(3)).crt
    b, m = crt5((P(5, 1, 3), P(5, 3)), (P(5, 0, 0, 1), P(5, 1, 1)))
    assert b == P(5, 1, 3)
    assert m == P(5, 0, 0, 1, 1)
    b, m = crt3((P(3, 1, 3), P(3, 1)), (P(3, 0, 0, 1), P(3, 1, 1)))
    assert b == P(3, 1)
    # 1 mod t^2 and 0 mod t contradict each other.
    assert crt3((P(3, 1), P(3, 0)), (P(3, 0, 0, 1), P(3, 0, 1))) is None
    with pytest.raises(ValueError):
        crt3((), ())
    with pytest.raises(ValueError):
        crt3((P(3, 1),), (P(3, 2),))


def test_crt_poly_random():
    rng = random.Random(65)
    checked = 0
    while checked < 150:
        p = rng.choice((2, 3, 5))
        field = PrimeField(p)
        k = rng.randrange(1, 4)
        moduli = [random_poly(rng, field, rng.randrange(1, 3)) for _ in range(k)]
        coprime = all(
            poly_gcd(moduli[i], moduli[j]).degree == 0
            for i in range(k)
            for j in range(i + 1, k)
        )
        if not coprime:
            continue
        rhs = [random_poly(rng, field, rng.randrange(0, 4)) for _ in range(k)]
        b, m = PolyRing(field).crt(rhs, moduli)
        prod = moduli[0]
        for h in moduli[1:]:
            prod = prod * h
        assert m == prod.monic()
        assert b.degree < m.degree
        for r_i, h_i in zip(rhs, moduli):
            assert (b - r_i) % h_i == GFPolynomial.zero(field)
        checked += 1


def _t4_system(p: int) -> PolyCongruenceSystem:
    field = PrimeField(p)
    return PolyCongruenceSystem(
        field,
        ((P(p, 0, 1), P(p, 0, 0, 1)),),
        (P(p, 0, 0, 0, 0, 1),),
        (P(p, 0, 2, 0, 1),),
    )


def test_system_count_ff_reference():
    report = system_count_ff(_t4_system(3))
    assert report.count == 243
    assert report.theorem == "coprime_system_poly"
    assert report.details["row_gcds"] == [P(3, 0, 1)]
    assert system_count_ff(_t4_system(5)).count == 3125
    count, _ = enumerate_solutions_ff(_t4_system(3))
    assert count == 243


def test_system_count_ff_unsolvable():
    field = PrimeField(3)
    system = PolyCongruenceSystem(
        field,
        ((P(3, 0, 1), P(3, 0, 0, 1)),),
        (P(3, 0, 0, 0, 0, 1),),
        (P(3, 1),),
    )
    report = system_count_ff(system)
    assert report.count == 0
    assert report.solvable is False


def test_system_count_ff_requires_coprime():
    field = PrimeField(3)
    system = PolyCongruenceSystem(
        field,
        ((P(3, 1),), (P(3, 1),)),
        (P(3, 0, 0, 1), P(3, 0, 1)),
        (P(3, 0), P(3, 0)),
    )
    with pytest.raises(HypothesisError):
        system_count_ff(system)


def test_single_restricted_ff_exhaustive_small():
    field = PrimeField(3)
    for degree in (1, 2):
        for h in monic_polys(3, degree):
            pool = residues(field, degree)
            for t in monic_divisors(h):
                for a in pool:
                    for b in pool:
                        brute = sum(
                            1
                            for x in pool
                            if (a * x - b) % h == GFPolynomial.zero(field)
                            and poly_gcd(x, h) == t
                        )
                        report = single_restricted_count_ff(a, b, h, t)
                        assert report.count == brute, (a, b, h, t)


def test_single_restricted_ff_random_deg3():
    rng = random.Random(66)
    field = PrimeField(3)
    zero = GFPolynomial.zero(field)
    for _ in range(60):
        h = random_poly(rng, field, 3).monic()
        pool = residues(field, 3)
        t = rng.choice(monic_divisors(h))
        a = random_poly(rng, field, rng.randrange(0, 4))
        b = random_poly(rng, field, rng.randrange(0, 4))
        brute = sum(
            1 for x in pool if (a * x - b) % h == zero and poly_gcd(x, h) == t
        )
        assert single_restricted_count_ff(a, b, h, t).count == brute


def test_restricted_sum_ff_three_routes():
    rng = random.Random(67)
    field = PrimeField(3)
    for _ in range(80):
        h = random_poly(rng, field, rng.randrange(1, 4)).monic()
        n = rng.randrange(1, 3)
        t = tuple(rng.choice(monic_divisors(h)) for _ in range(n))
        b = random_poly(rng, field, rng.randrange(0, 4))
        # The one-row system X_1 + ... + X_n = B mod H with unit coefficients.
        system = PolyCongruenceSystem(field, ((GFPolynomial.one(field),) * n,), (h,), (b,))
        count = restricted_system_count_ff(system, PolyRestrictionTable((t,))).count
        brute = brute_sum_restricted_ff(h, b, t)
        i_val, _ = i_and_j_functions_ff(b, tuple(h // t_i for t_i in t), h)
        assert count == brute == i_val


def _restricted_reference_system(p: int):
    field = PrimeField(p)
    system = PolyCongruenceSystem(
        field,
        ((P(p, 1), P(p, 1, 1)), (P(p, 1), P(p, 1))),
        (P(p, 0, 0, 1), P(p, 1, 1)),
        (P(p, 1, 3), P(p, -2)),
    )
    table = PolyRestrictionTable(
        (
            (P(p, 1), P(p, 0, 1)),
            (P(p, 1), P(p, 1)),
        )
    )
    return system, table


def test_restricted_system_ff_reference_counts():
    for p, want in ((3, 2), (5, 12), (7, 30)):
        system, table = _restricted_reference_system(p)
        report = restricted_system_count_ff(system, table)
        assert report.count == want
        assert report.count == (p - 1) * (p - 2)
        assert report.theorem == "restricted_system_poly"
        products = [row["product"] for row in report.details["divisor_table"]]
        q = p
        assert products == [
            q * (q - 1) ** 4,
            q * (q - 1) ** 3,
            -q * (q - 1) ** 2,
            0,
            -q * (q - 1),
            0,
        ]


def test_restricted_system_ff_matches_enumeration():
    for p in (3, 5):
        system, table = _restricted_reference_system(p)
        report = restricted_system_count_ff(system, table)
        count, sols = enumerate_solutions_ff(system, table)
        assert report.count == count
        if p == 3:
            assert sols == [
                (P(3, 1, 2), P(3, 0, 1)),
                (P(3, 1, 1, 2), P(3, 0, 2, 1)),
            ]


def test_restricted_system_ff_validation():
    system, table = _restricted_reference_system(3)
    with pytest.raises(ValueError):
        restricted_system_count_ff(system, PolyRestrictionTable(()))
    bad_value = PolyRestrictionTable(
        ((P(3, 1), P(3, 1, 1)), (P(3, 1), P(3, 1)))
    )
    with pytest.raises(HypothesisError):
        restricted_system_count_ff(system, bad_value)


def test_poly_restriction_table_validation():
    with pytest.raises(ValueError):
        PolyRestrictionTable(((P(3, 2),),))  # not monic
    with pytest.raises(ValueError):
        PolyRestrictionTable(((GFPolynomial.zero(PrimeField(3)),),))


def test_mi_of_i_recovers_j():
    rng = random.Random(68)
    field = PrimeField(3)
    checked = 0
    while checked < 200:
        n = rng.randrange(1, 3)
        moduli = tuple(random_poly(rng, field, rng.randrange(1, 3)) for _ in range(n))
        ambient = poly_lcm_many(moduli)
        if rng.random() < 0.5:
            extra = random_poly(rng, field, 1)
            ambient = ambient * extra
        a = random_poly(rng, field, rng.randrange(0, ambient.degree + 1))
        total = 0
        for combo in product(*(monic_divisors(h.monic()) for h in moduli)):
            total += i_and_j_functions_ff(a, combo, ambient)[0]
        _, j_val = i_and_j_functions_ff(a, moduli, ambient)
        assert total == j_val
        checked += 1


def test_differential_ff_formula_vs_oracle():
    rng = random.Random(69)
    for _ in range(80):
        p = rng.choice((3, 5))
        system, table = random_poly_instance(rng, p)
        if table is None:
            formula = system_count_ff(system).count
        else:
            formula = restricted_system_count_ff(system, table).count
        oracle, _ = enumerate_solutions_ff(system, table)
        assert formula == oracle


def test_brute_count_ff_matches_naive_loop():
    # The tabulated oracle against the nested loop, on the first 40
    # polynomial instances of criterion 6e's stream, which follow its 500
    # integer instances.
    rng = random.Random(0x6E01)
    for _ in range(500):
        random_int_instance(rng)
    for _ in range(40):
        system, table = random_poly_instance(rng, rng.choice([3, 5]))
        assert brute_count_ff(system, table) == brute_count_ff_naive(system, table)


def test_enumerate_ff_code_order_and_cap():
    field = PrimeField(2)
    system = PolyCongruenceSystem(
        field,
        ((P(2, 1), P(2, 1)),),
        (P(2, 0, 1),),
        (P(2, 0),),
    )
    count, sols = enumerate_solutions_ff(system)
    assert count == 2
    assert sols == [
        (GFPolynomial.zero(field), GFPolynomial.zero(field)),
        (P(2, 1), P(2, 1)),
    ]
    with pytest.raises(CapExceededError):
        enumerate_solutions_ff(system, cap=1)


_GCDS_7 = "".join(f"gcd(x{j}, t + 1) = {'t + 1' if j == 2 else 1}\n" for j in range(1, 8))
# t^15 + ... + t + 1 has base-2 code 2^16 - 1: the last tuple of the first block.
_LAST_OF_BLOCK = " + ".join(f"t^{w}" for w in range(15, 0, -1)) + " + 1"


@pytest.mark.parametrize(
    "text, hit_blocks",
    [
        (f"field GF(2)\nmod t^17: x1 = {_LAST_OF_BLOCK}\n", 1),
        ("field GF(3)\nmod t^11: 2*x1 = t^10 + 1\n", 1),
        ("field GF(5)\nmod t + 1: x1 + 2*x2 + 3*x3 + 4*x4 + x5 + x6 + x7 = 2\n" + _GCDS_7, 2),
        ("field GF(7)\nmod t^3 + t: x1 + 2*x2 = 1\ngcd(x1, t^3 + t) = t\ngcd(x2, t^3 + t) = 1\n", 2),
    ],
    ids=["GF(2)", "GF(3)", "GF(5)", "GF(7)"],
)
def test_enumerate_ff_across_scan_blocks(text, hit_blocks):
    doc = parse_system(text)
    system, table = build_system(doc), build_restrictions(doc)
    size = poly_lcm_many(system.moduli).norm()
    assert size**system.n > _SCAN_BLOCK
    count, sols = enumerate_solutions_ff(system, table)
    brute, brute_sols = brute_count_ff(system, table)
    assert (count, sols) == (brute, brute_sols if brute <= 1000 else None)

    def index(sol) -> int:  # the solution's position in the scan
        p = system.field.p
        codes = [sum(c * p**w for w, c in enumerate(x.coefficients)) for x in sol]
        return sum(c * size ** (system.n - 1 - j) for j, c in enumerate(codes))

    assert len({index(sol) // _SCAN_BLOCK for sol in sols or []}) == hit_blocks


def test_unit_row_scaling_invariance_ff():
    rng = random.Random(70)
    for _ in range(60):
        p = rng.choice((3, 5))
        system, table = random_poly_instance(rng, p)
        units = [rng.randrange(1, p) for _ in range(system.k)]
        scaled = PolyCongruenceSystem(
            system.field,
            tuple(
                tuple(a.scale(u) for a in row)
                for u, row in zip(units, system.coefficients)
            ),
            system.moduli,
            tuple(b.scale(u) for u, b in zip(units, system.rhs)),
        )
        if table is None:
            assert system_count_ff(system).count == system_count_ff(scaled).count
        else:
            assert (
                restricted_system_count_ff(system, table).count
                == restricted_system_count_ff(scaled, table).count
            )


def test_poly_congruence_system_validation():
    field = PrimeField(3)
    with pytest.raises(ValueError):
        PolyCongruenceSystem(field, (), (), ())
    with pytest.raises(ValueError):
        PolyCongruenceSystem(field, ((P(3, 1),),), (P(3, 2),), (P(3, 0),))
    with pytest.raises(ValueError):
        PolyCongruenceSystem(field, ((P(5, 1),),), (P(3, 0, 1),), (P(3, 0),))
