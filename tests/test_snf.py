"""Tests for Smith normal form and the invariant-factor counting route."""

import math
import random

import pytest

from congruences import (
    CongruenceSystem,
    butson_stewart_count,
    enumerate_solutions,
    lift_to_common_modulus,
    smith_normal_form,
    system_count,
)


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def det(mat):
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        minor = tuple(row[:j] + row[j + 1 :] for row in mat[1:])
        total += (-1) ** j * mat[0][j] * det(minor)
    return total


def ref_rank(mat):
    from sympy import Matrix

    return Matrix([list(row) for row in mat]).rank()


def ref_invariant_factors(mat):
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    factors = invariant_factors(Matrix([list(row) for row in mat]), domain=ZZ)
    return tuple(abs(int(e)) for e in factors if e)


def random_unimodular(rng, size, steps):
    u = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(steps):
        i, j = rng.sample(range(size), 2)
        q = rng.randrange(-3, 4)
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    return u


def check_snf(matrix):
    result = smith_normal_form(matrix)
    u, v = result.transforms
    s = mat_mul(mat_mul(u, matrix), v)
    k, n = len(matrix), len(matrix[0])
    for i in range(k):
        for j in range(n):
            if i == j and i < result.rank:
                assert s[i][j] == result.invariant_factors[i]
            else:
                assert s[i][j] == 0
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    for e1, e2 in zip(result.invariant_factors, result.invariant_factors[1:]):
        assert e2 % e1 == 0
    assert result.rank == ref_rank(matrix)
    assert result.invariant_factors == ref_invariant_factors(matrix)
    return result


def test_snf_reference_examples():
    result = check_snf(((70, 70), (60, 84)))
    assert result.invariant_factors == (2, 840)
    result = check_snf(((240, 480, 240), (45, 810, 405), (288, 432, 144)))
    # Divisibility chain and exact diagonalization checked in check_snf.
    assert result.rank == 3


def test_snf_small_cases():
    assert smith_normal_form(((1,),)).invariant_factors == (1,)
    assert smith_normal_form(((0,),)).invariant_factors == ()
    assert smith_normal_form(((4, 6),)).invariant_factors == (2,)
    assert smith_normal_form(((2, 0), (0, 3))).invariant_factors == (1, 6)
    assert smith_normal_form(((0, 0), (0, 0))).invariant_factors == ()


def test_snf_validation():
    with pytest.raises(ValueError):
        smith_normal_form(())
    with pytest.raises(ValueError):
        smith_normal_form(((1, 2), (3,)))


def test_snf_random_matrices():
    rng = random.Random(41)
    for _ in range(250):
        k = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        matrix = tuple(
            tuple(rng.randrange(-30, 31) for _ in range(n)) for _ in range(k)
        )
        check_snf(matrix)
    # Wide k x (k+2) matrices with entries up to 10^7, as in snf-wide queries.
    for _ in range(20):
        k = rng.randrange(2, 7)
        check_snf(
            tuple(
                tuple(rng.randrange(-10**7, 10**7 + 1) for _ in range(k + 2))
                for _ in range(k)
            )
        )
    # U D V with a known divisibility chain D, some of it zero, so the
    # divisibility fix-up and long Euclid runs both occur.
    for _ in range(20):
        k = rng.randrange(2, 7)
        n = rng.randrange(2, k + 3)
        chain = [rng.choice((1, 2, 3))]
        for _ in range(min(k, n) - 1):
            chain.append(chain[-1] * rng.choice((0, 1, 2, 6, 35)))
        d = [[chain[i] if i == j else 0 for j in range(n)] for i in range(k)]
        matrix = mat_mul(
            mat_mul(random_unimodular(rng, k, 12), d), random_unimodular(rng, n, 12)
        )
        assert check_snf(matrix).invariant_factors == tuple(e for e in chain if e)


def test_snf_deterministic():
    matrix = ((12, 8, 6), (4, 10, 2))
    assert smith_normal_form(matrix) == smith_normal_form(matrix)


def test_lift_to_common_modulus():
    system = CongruenceSystem(((2, 2), (5, 7)), (12, 35), (2, 1))
    matrix, rhs, m = lift_to_common_modulus(system)
    assert m == 420
    assert matrix == ((70, 70), (60, 84))
    assert rhs == (70, 12)


def test_butson_stewart_reference_counts():
    system = CongruenceSystem(((2, 2), (5, 7)), (12, 35), (2, 1))
    report = butson_stewart_count(system)
    assert report.count == 840
    assert report.theorem == "butson_stewart"
    assert report.details["invariant_factors"] == [2, 840]
    assert report.details["factor_gcds"] == [2, 420]
    assert report.details["modulus"] == 420

    system = CongruenceSystem(
        ((3, 6, 3), (4, 2, 8), (2, 3, 1)), (9, 16, 5), (3, 4, 2)
    )
    report = butson_stewart_count(system)
    assert report.count == 3110400
    assert report.details["invariant_factors"] == [6, 720, 3600]


def test_butson_stewart_agrees_with_coprime_formula():
    rng = random.Random(42)
    checked = 0
    while checked < 120:
        k = rng.randrange(1, 3)
        n = rng.randrange(k, 4)
        moduli = [rng.randrange(2, 40) for _ in range(k)]
        if any(
            math.gcd(moduli[i], moduli[j]) != 1
            for i in range(k)
            for j in range(i + 1, k)
        ):
            continue
        system = CongruenceSystem(
            tuple(
                tuple(rng.randrange(-10, 11) for _ in range(n)) for _ in range(k)
            ),
            tuple(moduli),
            tuple(rng.randrange(50) for _ in range(k)),
        )
        via_snf = butson_stewart_count(system)
        assert via_snf.count == system_count(system).count
        checked += 1


def test_butson_stewart_vs_enumeration_non_coprime():
    # Any shape: k up to 4 rows over n <= 3 variables, some rows repeated.
    rng = random.Random(43)
    checked = new_shapes = 0
    while checked < 200:
        k = rng.randrange(1, 5)
        n = rng.randrange(1, 4)
        moduli = tuple(rng.randrange(2, 13) for _ in range(k))
        if math.lcm(*moduli) ** n > 3 * 10**5:
            continue
        rows = []
        for _ in range(k):
            if rows and rng.random() < 0.3:
                rows.append(rng.choice(rows))
            else:
                rows.append(tuple(rng.randrange(-12, 13) for _ in range(n)))
        system = CongruenceSystem(
            tuple(rows), moduli, tuple(rng.randrange(-12, 13) for _ in range(k))
        )
        via_snf = butson_stewart_count(system)
        count, _ = enumerate_solutions(system)
        assert via_snf.count == count, system
        new_shapes += k > n or len(via_snf.details["factor_gcds"]) < k
        checked += 1
    assert new_shapes >= 100


def test_butson_stewart_every_shape():
    # Solvable and unsolvable cases of an overdetermined system, a
    # rank-deficient one (zero row), one with duplicate rows, the all-zero
    # matrix, zero columns, negative coefficients and a tall system of rank 1,
    # where the column reduction drops columns or passes over rows.
    systems = [
        CongruenceSystem(((1,), (1,)), (2, 3), (0, 0)),
        CongruenceSystem(((1,), (1,)), (2, 3), (1, 2)),
        CongruenceSystem(((2,), (3,)), (4, 6), (1, 0)),
        CongruenceSystem(((0, 0), (1, 1)), (2, 3), (0, 0)),
        CongruenceSystem(((0, 0), (1, 1)), (2, 3), (1, 0)),
        CongruenceSystem(((1, 1), (1, 1)), (2, 2), (0, 0)),
        CongruenceSystem(((1, 1), (1, 1)), (2, 2), (0, 1)),
        CongruenceSystem(((0, 0), (0, 0)), (4, 6), (0, 0)),
        CongruenceSystem(((0, 0), (0, 0)), (4, 6), (0, 3)),
        CongruenceSystem(((2, 0), (3, 0)), (4, 6), (2, 3)),
        CongruenceSystem(((0, 2, 0), (0, 3, 0)), (4, 6), (2, 1)),
        CongruenceSystem(((-3, 5, -2), (4, -6, 0)), (8, 10), (-1, 4)),
        CongruenceSystem(((-3, 5, -2), (4, -6, 0)), (8, 10), (-1, 3)),
        CongruenceSystem(((2, -2), (-4, 4), (6, -6)), (4, 8, 12), (2, 4, 6)),
    ]
    counts = [butson_stewart_count(system).count for system in systems]
    assert counts == [enumerate_solutions(system)[0] for system in systems]
    assert counts == [1, 1, 0, 12, 0, 2, 0, 144, 0, 72, 0, 1600, 0, 288]


def snf_wide_system(rng, k):
    """A k x (k+2) system shaped like the snf-wide benchmark queries: moduli
    up to 10^7 that share a power of one of 2, 3, 5, 7."""
    n = k + 2
    shared = rng.choice((2, 3, 5, 7))
    moduli = []
    for _ in range(k):
        part = shared ** rng.randint(1, 3)
        moduli.append(part * rng.randrange(1, 10**7 // part))
    return CongruenceSystem(
        tuple(tuple(rng.randrange(m) for _ in range(n)) for m in moduli),
        tuple(moduli),
        tuple(rng.randrange(m) for m in moduli),
    )


def test_butson_stewart_on_wide_lifted_systems():
    # The count diagonalizes the column-reduced matrix; its factors must be
    # those of the raw lifted matrix.
    rng = random.Random(44)
    for k in range(4, 15):
        for _ in range(2):
            system = snf_wide_system(rng, k)
            matrix, _, m = lift_to_common_modulus(system)
            report = butson_stewart_count(system)
            factors = tuple(report.details["invariant_factors"])
            assert factors == ref_invariant_factors(matrix)
            assert report.details["factor_gcds"] == [math.gcd(e, m) for e in factors]
            if k <= 6:
                assert check_snf(matrix).invariant_factors == factors


def test_butson_stewart_tall_system_needs_the_divisibility_fix_up():
    # The column reduction leaves the coefficients as they are, so both the
    # count and smith_normal_form diagonalize the lifted matrix
    # ((2, 0), (0, 3), (2, 2)). The first pivot 2 clears its row and column
    # and leaves 3 and 2 below it, and 2 does not divide 3: without the
    # fix-up the diagonal would not be a chain.
    system = CongruenceSystem(((1, 0), (0, 1), (2, 2)), (3, 2, 6), (1, 0, 2))
    matrix, _, _ = lift_to_common_modulus(system)
    assert matrix == ((2, 0), (0, 3), (2, 2))
    report = butson_stewart_count(system)
    assert report.details["invariant_factors"] == [1, 2]
    assert check_snf(matrix).invariant_factors == (1, 2)
    assert report.count == enumerate_solutions(system)[0]
    unsolvable = CongruenceSystem(system.coefficients, system.moduli, (1, 0, 1))
    assert butson_stewart_count(unsolvable).count == enumerate_solutions(unsolvable)[0]
