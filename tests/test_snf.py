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
from congruences import snf
from congruences.snf import (
    _diagonal_smith,
    _diagonalize,
    _hermite_basis,
    _index_multiple,
    _prime_to,
)


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def det(mat):
    # Bareiss's fraction-free elimination: every division is exact.
    a = [list(row) for row in mat]
    n = len(a)
    sign, prev = 1, 1
    for t in range(n - 1):
        if not a[t][t]:
            i = next((i for i in range(t + 1, n) if a[i][t]), None)
            if i is None:
                return 0
            a[t], a[i] = a[i], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
        prev = a[t][t]
    return sign * a[-1][-1]


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


def check_snf(matrix, reference=True):
    # reference=False skips sympy, whose rank and invariant factors take
    # seconds to minutes on lifted matrices past k = 14.
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
    if reference:
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
    # The count diagonalizes the lift of a Hermite basis of A's columns; its
    # factors must be those of the raw lifted matrix. Past k = 14 the
    # reference is smith_normal_form on that matrix, which reduces no columns
    # first, checked by U D A V = S with U, V unimodular.
    rng = random.Random(44)
    for k in range(4, 17):
        for _ in range(2):
            system = snf_wide_system(rng, k)
            matrix, _, m = lift_to_common_modulus(system)
            report = butson_stewart_count(system)
            factors = tuple(report.details["invariant_factors"])
            if k <= 14:
                assert factors == ref_invariant_factors(matrix)
            if k <= 6 or k > 14:
                assert check_snf(matrix, reference=k <= 14).invariant_factors == factors
            assert report.details["factor_gcds"] == [math.gcd(e, m) for e in factors]


def test_butson_stewart_tall_system_needs_the_divisibility_fix_up():
    # The columns of A are already a Hermite basis (pivots 1 in rows 0 and 1,
    # nothing left of them to reduce), so both the count and
    # smith_normal_form diagonalize the lifted matrix ((2, 0), (0, 3), (2, 2)).
    # The first pivot 2 clears its row and column and leaves 3 and 2 below
    # it, and 2 does not divide 3: without the fix-up the diagonal would not
    # be a chain.
    system = CongruenceSystem(((1, 0), (0, 1), (2, 2)), (3, 2, 6), (1, 0, 2))
    assert _hermite_basis(system.coefficients, 3, 2) == [[1, 0, 2], [0, 1, 2]]
    matrix, _, _ = lift_to_common_modulus(system)
    assert matrix == ((2, 0), (0, 3), (2, 2))
    report = butson_stewart_count(system)
    assert report.details["invariant_factors"] == [1, 2]
    assert check_snf(matrix).invariant_factors == (1, 2)
    assert report.count == enumerate_solutions(system)[0]
    unsolvable = CongruenceSystem(system.coefficients, system.moduli, (1, 0, 1))
    assert butson_stewart_count(unsolvable).count == enumerate_solutions(unsolvable)[0]


def check_hermite_basis(matrix):
    """_hermite_basis of matrix: its columns span the column lattice of
    matrix, and they are in the Hermite normal form its docstring promises."""
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    k, n = len(matrix), len(matrix[0])
    basis = _hermite_basis(matrix, k, n)
    r = len(basis)
    assert r == ref_rank(matrix)
    pivots = []
    for col in basis:
        assert len(col) == k
        i = next(i for i, x in enumerate(col) if x)
        assert col[i] > 0
        pivots.append(i)
    assert pivots == sorted(set(pivots))
    for j, col in enumerate(basis):
        for right, i in zip(basis[j + 1 :], pivots[j + 1 :]):
            assert -right[i] <= 2 * col[i] < right[i]
    b = Matrix(k, r, [col[i] for i in range(k) for col in basis])
    reference = hermite_normal_form(Matrix(matrix))
    assert reference == hermite_normal_form(b)
    # The modulus of the index step is a multiple of the lattice index,
    # det of the reference form, whenever the rank is k.
    modulus = _index_multiple(matrix)
    if r == k:
        assert modulus % int(reference.det()) == 0
    else:
        assert modulus is None
    return basis


def test_hermite_basis_spans_the_column_lattice():
    rng = random.Random(46)
    for k in range(4, 17):
        check_hermite_basis(snf_wide_system(rng, k).coefficients)
    # Small matrices of every shape: k > n, zero rows and columns, repeated
    # rows, negative entries, rank deficiency and the zero matrix.
    deficient = 0
    for _ in range(300):
        k = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        rows = []
        for _ in range(k):
            draw = rng.random()
            if rows and draw < 0.2:
                rows.append(rng.choice(rows))
            elif draw < 0.3:
                rows.append([0] * n)
            else:
                rows.append([rng.randrange(-9, 10) for _ in range(n)])
        if rng.random() < 0.2:
            zero = rng.randrange(n)
            for row in rows:
                row[zero] = 0
        deficient += len(check_hermite_basis(rows)) < min(k, n)
    assert deficient >= 50
    assert _hermite_basis(((0, 0), (0, 0)), 2, 2) == []
    # Entries that fill the pivot rows: the basis is reduced, (2, 5) and
    # (0, 7) become (2, -2) and (0, 7).
    assert _hermite_basis(((2, 0), (5, 7)), 2, 2) == [[2, -2], [0, 7]]


def with_basis(rng, rows, n):
    """A k x n matrix whose columns span the lattice spanned by the columns of
    the k x k rows: [rows | 0] times a random unimodular n x n matrix."""
    padded = [list(row) + [0] * (n - len(row)) for row in rows]
    w = random_unimodular(rng, n, 3 * n) if n > 1 else [[rng.choice((1, -1))]]
    return mat_mul(padded, w)


def test_index_step_by_case(monkeypatch):
    # The rank checks mod p that the index step makes, as (p, passed).
    checks = []
    eliminate = snf._eliminate

    def spy(matrix, p=0):
        row = eliminate(matrix, p)
        if p:
            checks.append((p, any(row or ())))
        return row

    monkeypatch.setattr(snf, "_eliminate", spy)
    # Index 1, though the minors the elimination leaves in its last row, 0
    # and 2, are even: A mod 2 has rank 2, so 2 leaves the modulus.
    matrix = ((2, 1, 0), (0, 0, 1))
    assert _index_multiple(matrix) == 1
    assert checks == [(2, True)]
    assert check_hermite_basis(matrix) == [[1, 0], [0, 1]]
    # Indices 8, 9 and 6, two with entries left of the pivot in a pivot row:
    # each prime of the index stays in the modulus, as A mod p has rank
    # below k.
    rng = random.Random(50)
    for rows, basis in (
        (((1, 0, 0), (0, 1, 0), (3, 5, 8)), [[1, 0, 3], [0, 1, -3], [0, 0, 8]]),
        (((3, 0, 0), (1, 3, 0), (0, 2, 1)), [[3, 1, 0], [0, 3, 0], [0, 0, 1]]),
        (((2, 0), (1, 3)), [[2, 1], [0, 3]]),
    ):
        checks.clear()
        index = det(rows)
        matrix = with_basis(rng, rows, len(rows) + 2)
        assert _index_multiple(matrix) % index == 0
        assert all(index % p == 0 for p, passed in checks if not passed)
        assert check_hermite_basis(matrix) == basis
    # An index prime past the trial primes stays in the modulus unfactored.
    matrix = with_basis(rng, ((1, 0), (0, 1000003)), 4)
    assert _index_multiple(matrix) % 1000003 == 0
    assert check_hermite_basis(matrix) == [[1, 0], [0, 1000003]]
    # Rank below k, and k > n: no modulus, so no rank check either.
    checks.clear()
    for matrix in (((1, 2, 3), (2, 4, 6)), ((1, 0), (0, 1), (1, 1)), ((0, 0, 0),)):
        assert _index_multiple(matrix) is None
        check_hermite_basis(matrix)
    assert checks == []
    # Random lattices of index above 1, from lower triangular bases.
    for _ in range(60):
        k = rng.randrange(1, 6)
        rows = [
            [rng.choice((1, 1, 2, 3, 4, 9)) if i == j else rng.randrange(-9, 10) * (j < i)
             for j in range(k)]
            for i in range(k)
        ]
        check_hermite_basis(with_basis(rng, rows, k + rng.randrange(3)))


def test_coprime_split_against_enumeration_and_the_lifted_smith_form():
    # Full-rank systems A = [B | 0] W of index h = det B > 1, with a planted
    # solution x0 whose rhs A x0 is then changed in one of three ways: at the
    # primes of h only, away from them only, or not at all. Away from h, B is
    # invertible, so only the first kind can be unsolvable.
    rng = random.Random(51)
    unsolvable = [0, 0, 0]
    checked = 0
    while checked < 150:
        k = rng.randrange(1, 4)
        n = rng.randrange(k, 4)
        moduli = tuple(rng.randrange(2, 13) for _ in range(k))
        if math.lcm(*moduli) ** n > 3 * 10**5:
            continue
        rows = [
            [rng.choice((1, 2, 3, 4, 6)) if i == j else rng.randrange(-5, 6) * (j < i)
             for j in range(k)]
            for i in range(k)
        ]
        h = det(rows)
        if h == 1:
            continue
        matrix = with_basis(rng, rows, n)
        x0 = [rng.randrange(12) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
        kind = checked % 3
        for i, m_i in enumerate(moduli):
            q = m_i // _prime_to(m_i, h)
            if kind == 0:
                rhs[i] += m_i // q * rng.randrange(q)
            elif kind == 1:
                rhs[i] += q * rng.randrange(m_i // q)
        system = CongruenceSystem(matrix, moduli, tuple(rhs))
        report = butson_stewart_count(system)
        lifted, _, _ = lift_to_common_modulus(system)
        factors = smith_normal_form(lifted).invariant_factors
        assert tuple(report.details["invariant_factors"]) == factors
        assert report.count == enumerate_solutions(system)[0], system
        unsolvable[kind] += not report.solvable
        checked += 1
    assert unsolvable[0] >= 10 and unsolvable[1] == unsolvable[2] == 0


def column_changes(rng, rows, steps):
    """rows times a unimodular W: steps elementary column operations, each
    adding a multiple of one column to another, swapping two or negating
    one."""
    cols = [list(col) for col in zip(*rows)]
    for _ in range(steps):
        i, j = rng.sample(range(len(cols)), 2) if len(cols) > 1 else (0, 0)
        op = rng.randrange(3) if len(cols) > 1 else 2
        if op == 0:
            q = rng.choice((-3, -2, -1, 1, 2, 3))
            cols[i] = [x + q * y for x, y in zip(cols[i], cols[j])]
        elif op == 1:
            cols[i], cols[j] = cols[j], cols[i]
        else:
            cols[i] = [-x for x in cols[i]]
    return tuple(zip(*cols))


def test_butson_stewart_invariant_under_unimodular_column_changes():
    # x -> W^-1 x maps the solutions of A x = b onto those of (A W) y = b, and
    # D A W has the invariant factors of D A.
    def same_count(system, rng):
        changed = CongruenceSystem(
            column_changes(rng, system.coefficients, 3 * system.n), system.moduli, system.rhs
        )
        before, after = butson_stewart_count(system), butson_stewart_count(changed)
        assert (after.count, after.solvable) == (before.count, before.solvable)
        for key in ("invariant_factors", "factor_gcds"):
            assert after.details[key] == before.details[key]
        return changed, after

    rng = random.Random(47)
    solvable = 0
    for k in range(4, 17):
        for _ in range(2):
            system = snf_wide_system(rng, k)
            if rng.random() < 0.5:
                x = [rng.randrange(10**7) for _ in range(system.n)]
                rhs = tuple(sum(a * y for a, y in zip(row, x)) for row in system.coefficients)
                system = CongruenceSystem(system.coefficients, system.moduli, rhs)
            solvable += same_count(system, rng)[1].solvable
    assert solvable >= 13
    checked = 0
    while checked < 150:
        k = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        moduli = tuple(rng.randrange(2, 13) for _ in range(k))
        if math.lcm(*moduli) ** n > 3 * 10**5:
            continue
        system = CongruenceSystem(
            tuple(tuple(rng.randrange(-12, 13) for _ in range(n)) for _ in range(k)),
            moduli,
            tuple(rng.randrange(-12, 13) for _ in range(k)),
        )
        changed, report = same_count(system, rng)
        assert report.count == enumerate_solutions(changed)[0]
        checked += 1


def diagonal_route(system):
    """The lifted D B of the system when its Hermite basis B is square and
    diagonal, as (diagonal, lifted rhs, m); else None."""
    k = system.k
    basis = _hermite_basis(system.coefficients, k, system.n)
    if len(basis) != k or any(col[i] for j, col in enumerate(basis) for i in range(j + 1, k)):
        return None
    matrix, rhs, m = lift_to_common_modulus(
        CongruenceSystem(tuple(zip(*basis)), system.moduli, system.rhs)
    )
    return [matrix[i][i] for i in range(k)], list(rhs), m


def test_diagonal_smith_swaps_reorder_and_rows_decide_solvability():
    # B = I with moduli that share primes: D = diag(m/m_i) = diag(9, 4, 6)
    # for m = 36 is no chain, so the swaps reorder it.
    system = CongruenceSystem(((1, 0, 0, 5), (0, 1, 0, 7), (0, 0, 1, 1)), (4, 9, 6), (1, 2, 3))
    diagonal, _, m = diagonal_route(system)
    assert (diagonal, m) == ([9, 4, 6], 36)
    assert _diagonal_smith(diagonal) == [1, 6, 36]
    report = butson_stewart_count(system)
    assert report.details["invariant_factors"] == [1, 6, 36]
    assert report.count == enumerate_solutions(system)[0] == 6 * 36 * 36
    # A diagonal B that is not I: A = diag(2, 3) padded with zero columns,
    # so D B = diag(18, 12), whose pivots do not divide every rhs.
    for rhs, count in (((2, 3), 6 * 36 * 36), ((1, 0), 0), ((0, 1), 0)):
        system = CongruenceSystem(((2, 0, 0), (0, 3, 0)), (4, 9), rhs)
        diagonal, _, _ = diagonal_route(system)
        assert diagonal == [18, 12]
        report = butson_stewart_count(system)
        assert report.details["invariant_factors"] == [6, 36]
        assert (report.count, report.solvable) == (count, count > 0)
        assert report.count == enumerate_solutions(system)[0]
    # Unsolvable only in the middle row, for m = 105: gcd(15, 105) = 15 does
    # not divide the lifted rhs 14 * 5 = 70.
    system = CongruenceSystem(((6, 0, 0), (0, 3, 0), (0, 0, 4)), (15, 21, 15), (12, 14, 1))
    assert diagonal_route(system)[0] == [42, 15, 28]
    report = butson_stewart_count(system)
    assert report.details["invariant_factors"] == [1, 42, 420]
    assert (report.count, report.solvable) == (0, False)
    assert enumerate_solutions(system)[0] == 0


def test_diagonal_smith_agrees_with_enumeration_and_the_pivot_loop():
    rng = random.Random(48)
    # Small systems A = diag(d) W, W unimodular: the Hermite basis of A is
    # diag(d), often not I, and half are made solvable.
    checked = unsolvable = 0
    while checked < 200:
        k = rng.randrange(1, 4)
        n = rng.randrange(k, 4)
        moduli = tuple(rng.randrange(2, 13) for _ in range(k))
        if math.lcm(*moduli) ** n > 3 * 10**5:
            continue
        diag = [[rng.choice((1, 1, 2, 3, 4)) * (i == j) for j in range(n)] for i in range(k)]
        w = random_unimodular(rng, n, 2 * n) if n > 1 else [[rng.choice((1, -1))]]
        rows = mat_mul(diag, w)
        rhs = tuple(rng.randrange(-12, 13) for _ in range(k))
        if rng.random() < 0.5:
            x = [rng.randrange(12) for _ in range(n)]
            rhs = tuple(sum(a * y for a, y in zip(row, x)) for row in rows)
        system = CongruenceSystem(rows, moduli, rhs)
        assert diagonal_route(system) is not None
        report = butson_stewart_count(system)
        assert report.count == enumerate_solutions(system)[0], system
        unsolvable += not report.solvable
        checked += 1
    assert 20 <= unsolvable <= 180
    # snf-wide shapes: the swaps give the factors, and the rows of D B the
    # solvability and the count, that the pivot loop gives on the same D B.
    # Nearly all their diagonal bases are I, with which every rhs is
    # solvable; the small systems above cover unsolvable ones.
    diagonal_seen = 0
    for k in range(4, 17):
        for _ in range(4):
            system = snf_wide_system(rng, k)
            route = diagonal_route(system)
            if route is None:
                continue
            diagonal, rhs, m = route
            augmented = [
                [x * (i == j) for j in range(k)] + [c]
                for i, (x, c) in enumerate(zip(diagonal, rhs))
            ]
            general = _diagonalize(augmented, k, k)
            factors = _diagonal_smith(diagonal)
            assert factors == general
            gcds = [math.gcd(e, m) for e in factors]
            assert all(c % math.gcd(d, m) == 0 for c, d in zip(rhs, diagonal)) == all(
                row[-1] % g == 0 for row, g in zip(augmented, gcds)
            )
            assert math.prod(math.gcd(d, m) for d in diagonal) == math.prod(gcds)
            report = butson_stewart_count(system)
            assert report.details["invariant_factors"] == factors
            diagonal_seen += 1
    assert diagonal_seen >= 20


def test_butson_stewart_takes_both_routes(monkeypatch):
    # snf-wide shapes have full-rank lattices of index 1 and of index above 1.
    # Each takes the swaps once; only an index above 1 runs the pivot loop,
    # and then on the small diag(g) B, never on the lifted D B.
    calls = {"swaps": 0, "pivot loop": []}
    diagonal_smith, diagonalize = snf._diagonal_smith, snf._diagonalize

    def swaps(diagonal):
        calls["swaps"] += 1
        return diagonal_smith(diagonal)

    def pivot_loop(a, k, n):
        calls["pivot loop"].append([row[:n] for row in a[:k]])
        return diagonalize(a, k, n)

    monkeypatch.setattr(snf, "_diagonal_smith", swaps)
    monkeypatch.setattr(snf, "_diagonalize", pivot_loop)
    rng = random.Random(49)
    indices = []
    for k in range(4, 17):
        for _ in range(3):
            system = snf_wide_system(rng, k)
            basis = _hermite_basis(system.coefficients, k, system.n)
            assert len(basis) == k
            indices.append(math.prod(col[i] for i, col in enumerate(basis)))
            lifted, _, _ = lift_to_common_modulus(
                CongruenceSystem(tuple(zip(*basis)), system.moduli, system.rhs)
            )
            seen = len(calls["pivot loop"])
            butson_stewart_count(system)
            lifted = [list(row) for row in lifted]
            assert all(block != lifted for block in calls["pivot loop"][seen:])
    assert 1 in indices and any(h > 1 for h in indices)
    assert calls["swaps"] == 39
    assert len(calls["pivot loop"]) == sum(h > 1 for h in indices)
