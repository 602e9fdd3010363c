"""Smith normal form over Z and the invariant-factor solution count.

The reduction uses only elementary unimodular row/column operations on exact
integers, applied to one augmented matrix: the system in the top left, the
columns that carry the row operations (U, or the rhs) to its right, and the
rows that carry the column operations (V) below it. Each step clears the
pivot's row first, by Euclid with column operations, and then its column with
row operations, each of which changes one entry of the system besides the
carried columns. Every pivot is a minimal-absolute-value nonzero entry, of the
remaining block at the start of a step and of the pivot's row or column after
each round of nearest-integer reduction; ties go by position, so the run is
deterministic.

The count of a system A x = b (mod m_i in row i) needs the invariant factors
of the lifted matrix D A, D = diag(m/m_i), whose entries run to hundreds of
digits. It first brings the columns of the unlifted A, one at a time, into a
basis B of the lattice they span, kept in Hermite normal form (Kannan and
Bachem, SIAM J. Comput. 1979; Cohen 1993, section 2.4): A V = [B | 0] with V
unimodular. Column operations commute with the row scaling,
D (A V) = (D A) V, so D B has the invariant factors of D A. For A of rank k,
B is found modulo a multiple M of det B (Domich, Kannan and Trotter, Math.
Oper. Res. 1987), and D B is never formed: its factors are those of the part
u of D prime to det B, by gcd/lcm swaps, times those of a small matrix at the
primes of det B, which the pivot loop diagonalizes. Two invariants carry
this: M stays a multiple of the index [Z^k : L(A)] = det B, and no prime
divides both det B and an entry of u.
"""

from __future__ import annotations

import math
from typing import Sequence

from .intarith import nary_lcm
from .report import CountReport
from .systems import CongruenceSystem
from .value import Value

Matrix = tuple[tuple[int, ...], ...]

# The primes that `_index_multiple` tries to take out of its modulus.
_TRIAL_PRIMES = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1)))


class SnfResult(Value):
    """Diagonalization U A V = S with U, V unimodular.

    invariant_factors are the positive diagonal entries e_1 | e_2 | ... | e_r;
    rank is r.
    """

    invariant_factors: tuple[int, ...]
    rank: int
    transforms: tuple[Matrix, Matrix]

    def __init__(self, invariant_factors, rank, transforms) -> None:
        _check_chain(invariant_factors)
        if rank != len(invariant_factors):
            raise ValueError("rank must equal the number of invariant factors")
        vars(self).update(invariant_factors=invariant_factors, rank=rank, transforms=transforms)


def _check_chain(factors: Sequence[int]) -> None:
    if any(e <= 0 for e in factors):
        raise ValueError("invariant factors must be positive")
    for a, b in zip(factors, factors[1:]):
        if b % a:
            raise ValueError("invariant factors must form a divisibility chain")


def lift_to_common_modulus(
    system: CongruenceSystem,
) -> tuple[Matrix, tuple[int, ...], int]:
    """Scale row i by m/m_i so every congruence holds modulo m = lcm(moduli)."""
    rows, m = _lift_rows(
        [(*row, b_i) for row, b_i in zip(system.coefficients, system.rhs)], system.moduli
    )
    return tuple(tuple(row[:-1]) for row in rows), tuple(row[-1] for row in rows), m


def _lift_rows(
    rows: Sequence[Sequence[int]], moduli: Sequence[int]
) -> tuple[list[list[int]], int]:
    """Row i of rows scaled by m/m_i, with m = lcm(moduli); return them and m."""
    m = nary_lcm(moduli)
    return [[x * (m // m_i) for x in row] for row, m_i in zip(rows, moduli)], m


def _diagonalize(a: list[list[int]], k: int, n: int) -> list[int]:
    """Reduce the k x n top-left block of the augmented matrix a in place to
    Smith form; return its positive diagonal e_1 | ... | e_r.

    Columns past n ride along with the row operations, and rows past k (which
    need only n entries) with the column operations. Each step takes the
    smallest nonzero entry of the remaining block as pivot. It runs Euclid
    along the pivot row with column operations until the row is clear: the
    pivot moves to column t, the other entries of the row are reduced by it
    with nearest-integer quotients, and the smallest remainder is the next
    pivot. The rows above it are zero in columns t..n-1, so the column
    operations skip them. It then clears the column with row operations,
    which change only the column and the carried entries. A remainder left in
    the column is smaller than the pivot, so it moves up and the step repeats.
    If the pivot then fails to divide some entry of the remaining block, that
    entry's row is added to the pivot row and the step goes on, so
    e_1 | e_2 | ... holds.
    """
    carried = range(n, len(a[0]))
    t = 0
    while t < min(k, n):
        pivot = min(
            ((abs(a[i][j]), i, j) for i in range(t, k) for j in range(t, n) if a[i][j]),
            default=None,
        )
        if pivot is None:
            break
        _, i, j = pivot
        while i is not None:
            a[t], a[i] = a[i], a[t]
            rest = a[t:]
            top = rest[0]
            while j is not None:
                for row in rest:
                    row[t], row[j] = row[j], row[t]
                p = top[t]
                for j in range(t + 1, n):
                    if top[j]:
                        q = (2 * top[j] + p) // (2 * p)
                        for row in rest:
                            row[j] -= q * row[t]
                j = min(((abs(top[j]), j) for j in range(t + 1, n) if top[j]), default=(0, None))[1]
            if top[t] < 0:
                a[t] = top = [-x for x in top]
            p = top[t]
            for row in a[t + 1 : k]:
                if row[t]:
                    q = (2 * row[t] + p) // (2 * p)
                    row[t] -= q * p
                    for c in carried:
                        row[c] -= q * top[c]
            i = min(((abs(a[i][t]), i) for i in range(t + 1, k) if a[i][t]), default=(0, None))[1]
            if i is None:
                i = next((i for i in range(t + 1, k) if any(x % p for x in a[i][t + 1 : n])), None)
                if i is not None:
                    a[t] = [x + y for x, y in zip(top, a[i])]
                    i = t
            j = t
        t += 1
    return [a[i][i] for i in range(t)]


def _diagonal_smith(diagonal: list[int]) -> list[int]:
    """Invariant factors e_1 | ... | e_k of diag(diagonal), positive entries.

    For i < j in turn, (d_i, d_j) becomes (gcd, lcm), which a unimodular row
    and column step do to diag(d_i, d_j). After the pass over i, d_i divides
    every later entry. A pair with d_i | d_j needs no step.
    """
    d = list(diagonal)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                g = math.gcd(a, b)
                d[i], d[j] = g, a * (b // g)
    return d


def _prime_to(x: int, h: int) -> int:
    """The largest divisor of x > 0 that is prime to h."""
    g = math.gcd(x, h)
    while g > 1:
        x //= g
        g = math.gcd(x, g * g)
    return x


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SnfResult:
    """Smith normal form of an integer matrix, with its transforms."""
    k = len(matrix)
    n = len(matrix[0]) if k else 0
    if k == 0 or n == 0:
        raise ValueError("matrix must be nonempty")
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix rows must have equal length")
    # [A | I_k] over [I_n]: U collects in the right columns, V in the low rows.
    a = [list(map(int, row)) + [int(i == j) for j in range(k)] for i, row in enumerate(matrix)]
    a += [[int(i == j) for j in range(n)] for i in range(n)]
    factors = _diagonalize(a, k, n)
    return SnfResult(
        invariant_factors=tuple(factors),
        rank=len(factors),
        transforms=(tuple(tuple(row[n:]) for row in a[:k]), tuple(map(tuple, a[k:]))),
    )


def _eliminate(matrix: Sequence[Sequence[int]], p: int = 0) -> list[int] | None:
    """The last row that Gaussian elimination of the k x n matrix leaves, with
    the first nonzero entry of the remaining block as each pivot, or None if
    there is none. Over Z (p = 0) it is fraction free (Bareiss), so the row
    holds k x k minors up to sign; mod a prime p the row is nonzero iff the
    matrix has rank k mod p."""
    a = [[x % p for x in row] if p else list(row) for row in matrix]
    prev = 1
    while len(a) > 1:
        i, j = next(((i, j) for i, row in enumerate(a) for j, x in enumerate(row) if x), (0, None))
        if j is None:
            return None
        top = a.pop(i)
        pivot = top.pop(j)
        for i, row in enumerate(a):
            f = row.pop(j)
            if p:
                a[i] = [(x * pivot - f * y) % p for x, y in zip(row, top)]
            else:
                a[i] = [(x * pivot - f * y) // prev for x, y in zip(row, top)]
        prev = pivot
    return a[0]


def _index_multiple(matrix: Sequence[Sequence[int]]) -> int | None:
    """A multiple M of the index [Z^k : L] of the lattice L spanned by the
    columns of the k x n matrix, or None when its rank is below k.

    The index, the gcd of all k x k minors, divides the gcd M of those that
    `_eliminate` leaves. A trial prime p leaves M only if the matrix has rank
    k mod p, so that p does not divide the index; any other factor stays.
    """
    index = math.gcd(*(_eliminate(matrix) or ()))
    if not index:
        return None
    for p in _TRIAL_PRIMES:
        if p > index:
            break
        if index % p == 0 and any(_eliminate(matrix, p) or ()):
            index = _prime_to(index, p)
    return index


def _hermite_basis(matrix: Sequence[Sequence[int]], k: int, n: int) -> list[list[int]]:
    """The columns of a basis, in Hermite normal form, of the lattice spanned by
    the columns of the k x n matrix; there are r = rank of them.

    When r = k, M Z^k lies in the lattice for M = `_index_multiple`, so the
    columns mod M and those of M I go in instead: the same lattice, whose
    entries on the way grow with the minors of A mod M, not of A. M = 1
    gives I.

    The columns of the matrix go in one at a time. A column v walks down its
    nonzero entries. At a row that is no basis column's pivot row, v becomes
    a basis column there, with its pivot made positive. At basis column b's
    pivot row, with pivot p, v is first reduced by b with the nearest-integer
    quotient. If that leaves an entry x != 0 in the pivot row, the unimodular
    2 x 2 step (b, v) -> (s b + t v, (x/g) b - (p/g) v), where
    g = gcd(p, x) = s p + t x, leaves the pivot g in b and a zero in v. Then
    v walks on; a v that runs out of nonzero entries lay in the lattice
    already. After every change to the basis the entries of the pivot rows
    are reduced again, so that at all times the basis columns are zero above
    their pivots and every entry x of a pivot row with pivot p, left of that
    pivot, has -p <= 2x < p. Only the rows that are no pivot row can hold
    large entries.
    """
    modulus = _index_multiple(matrix)
    if modulus == 1:
        return [[int(i == j) for i in range(k)] for j in range(k)]
    columns = [list(col) for col in zip(*matrix)]
    if modulus is not None:
        columns = [[x % modulus for x in col] for col in columns]
        columns += [[modulus * (i == j) for i in range(k)] for j in range(k)]
    basis: list[list[int]] = []
    pivots: list[int] = []
    for v in columns:
        c = 0
        for i in range(k):
            x = v[i]
            if not x:
                continue
            while c < len(pivots) and pivots[c] < i:
                c += 1
            inserted = c == len(pivots) or pivots[c] != i
            if inserted:
                basis.insert(c, v if x > 0 else [-y for y in v])
                pivots.insert(c, i)
            else:
                b = basis[c]
                p = b[i]
                q = (2 * x + p) // (2 * p)
                if q:
                    v = [z - q * y for y, z in zip(b, v)]
                    x = v[i]
                    if not x:
                        continue
                g = math.gcd(p, x)
                pg, xg = p // g, x // g
                t = pow(xg, -1, pg)
                s = (1 - t * xg) // pg
                basis[c] = [s * y + t * z for y, z in zip(b, v)]
                v = [xg * y - pg * z for y, z in zip(b, v)]
            # Column c and the pivot row of column c changed: reduce the
            # columns up to c at the pivot rows from c's on, top down.
            for h in range(c + 1):
                col = basis[h]
                for b, at in zip(basis[max(h + 1, c) :], pivots[max(h + 1, c) :]):
                    q = (2 * col[at] + b[at]) // (2 * b[at])
                    if q:
                        col = [y - q * z for y, z in zip(col, b)]
                basis[h] = col
            if inserted:
                break
    return basis


def butson_stewart_count(system: CongruenceSystem) -> CountReport:
    """Invariant-factor count of solutions modulo m = lcm(moduli).

    Row i of the system holds modulo m once it is scaled by m/m_i: D A x = D b
    with D = diag(m/m_i). The columns of A are first brought into a basis B of
    the lattice they span, in Hermite normal form (`_hermite_basis`), so
    A V = [B | 0] with V unimodular and B of r = rank A columns. Column
    operations commute with the row scaling, D (A V) = (D A) V, so D B has the
    invariant factors e_1 | ... | e_r of D A, and D B y = D b is solvable iff
    D A x = D b is. Then the count is the product of the gcd(e_i, m) times
    m^(n - r). Any shape: k > n and rank-deficient matrices included.

    When r = k, let h = det B and split each D_i = g_i u_i, g_i made of the
    primes of h and u_i prime to h. At a prime not dividing h, B is
    invertible, so D B has the local factors of diag(u), which
    `_diagonal_smith` gives, and B y = b is solvable. At a prime of h, diag(u)
    is invertible, so D B has the local factors of the small diag(g) B, which
    `_diagonalize` gives with g o b carried, and the system is solvable there
    iff gcd(e'_i, m) divides the carried rhs in every row, e' its factors. No
    prime divides both h and a u_i, so the product of the two chains is the
    chain of D B, and the system is solvable iff it is at the primes of h.
    With h = 1 that is every system, and the factors are the swaps of D.

    When r < k, D B itself is diagonalized, U D B W = diag(e_1, ..., e_r),
    carrying D b. The system is solvable iff gcd(e_i, m) divides (U D b)_i
    for i <= r and (U D b)_i = 0 mod m for i > r.
    """
    k = system.k
    basis = _hermite_basis(system.coefficients, k, system.n)
    r = len(basis)
    if r == k:
        m = nary_lcm(system.moduli)
        h = math.prod(col[i] for i, col in enumerate(basis))
        lifts = [m // m_i for m_i in system.moduli]
        u = [_prime_to(d, h) for d in lifts]
        g = [d // u_i for d, u_i in zip(lifts, u)]
        augmented = [
            [g_i * col[i] for col in basis] + [g_i * b_i]
            for i, (g_i, b_i) in enumerate(zip(g, system.rhs))
        ]
        pivots = _diagonalize(augmented, k, k) if h > 1 else [1] * k
        factors = [x * y for x, y in zip(_diagonal_smith(u), pivots)]
    else:
        augmented, m = _lift_rows(
            [[*(col[i] for col in basis), b_i] for i, b_i in enumerate(system.rhs)],
            system.moduli,
        )
        pivots = factors = _diagonalize(augmented, k, r)
    _check_chain(factors)
    transformed = [row[-1] for row in augmented]
    factor_gcds = [math.gcd(e_i, m) for e_i in factors]
    solvable = all(
        c % math.gcd(p, m) == 0 for c, p in zip(transformed, pivots)
    ) and all(c % m == 0 for c in transformed[r:])
    count = math.prod(factor_gcds) * m ** (system.n - r) if solvable else 0
    return CountReport(
        count=count,
        solvable=solvable,
        theorem="butson_stewart",
        details={
            "modulus": m,
            "invariant_factors": factors,
            "factor_gcds": factor_gcds,
        },
    )
