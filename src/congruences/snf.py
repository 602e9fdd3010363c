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
digits. It first reduces the unlifted A by column operations alone, with the
same Euclid step, to A V = [B | 0] with B in column echelon form. V is
unimodular and column operations commute with the row scaling,
D (A V) = (D A) V, so the lifted D B has the invariant factors of D A and is
what gets diagonalized. B ends with small entries, often the identity up to
signs, so that takes far fewer operations on long integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .intarith import nary_lcm
from .report import CountReport
from .systems import CongruenceSystem

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SnfResult:
    """Diagonalization U A V = S with U, V unimodular.

    invariant_factors are the positive diagonal entries e_1 | e_2 | ... | e_r;
    rank is r.
    """

    invariant_factors: tuple[int, ...]
    rank: int
    transforms: tuple[Matrix, Matrix]

    def __post_init__(self) -> None:
        _check_chain(self.invariant_factors)
        if self.rank != len(self.invariant_factors):
            raise ValueError("rank must equal the number of invariant factors")


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


def _clear_row(rest: list[list[int]], t: int, j: int, n: int) -> None:
    """Euclid along rest[0] with column operations on the rows of rest.

    Column j, one with a nonzero entry of rest[0] among columns t..n-1, moves
    to column t; the entries of columns t+1..n-1 are reduced by it with
    nearest-integer quotients; the smallest remainder becomes the next j, until
    only column t of rest[0] is nonzero there. Rows of the matrix not in rest
    must be zero in columns t..n-1, so the operations skip them.
    """
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


def _diagonalize(a: list[list[int]], k: int, n: int) -> list[int]:
    """Reduce the k x n top-left block of the augmented matrix a in place to
    Smith form; return its positive diagonal e_1 | ... | e_r.

    Columns past n ride along with the row operations, and rows past k (which
    need only n entries) with the column operations. Each step takes the
    smallest nonzero entry of the remaining block as pivot. It runs Euclid
    along the pivot row with column operations (`_clear_row`; the rows above
    it are zero there and are skipped) until the row is clear, then clears the
    column with row operations, which change only the column and the carried
    entries. A remainder left in the column is smaller than the pivot, so it
    moves up and the step repeats. If the pivot then fails to divide some
    entry of the remaining block, that entry's row is added to the pivot row
    and the step goes on, so e_1 | e_2 | ... holds.
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
            _clear_row(a[t:], t, j, n)
            top = a[t]
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


def _reduce_columns(a: list[list[int]], n: int) -> int:
    """Reduce the rows a, n entries each, in place by unimodular column
    operations to column echelon form; return the number r of pivot columns.

    A column pointer c starts at 0. Each row that is nonzero in columns c..n-1
    is cleared there by Euclid (`_clear_row`), which leaves its pivot in column
    c; the entries of that row left of the pivot are then reduced by it with
    nearest-integer quotients, and c moves on. Rows that are zero in columns
    c..n-1 are passed over, and the reduction stops once c reaches n.
    Columns r..n-1 end all zero.
    """
    c = 0
    for i, top in enumerate(a):
        if c == n:
            break
        j = min(((abs(top[j]), j) for j in range(c, n) if top[j]), default=(0, None))[1]
        if j is None:
            continue
        rest = a[i:]
        _clear_row(rest, c, j, n)
        p = top[c]
        for j in range(c):
            if top[j]:
                q = (2 * top[j] + p) // (2 * p)
                for row in rest:
                    row[j] -= q * row[c]
        c += 1
    return c


def butson_stewart_count(system: CongruenceSystem) -> CountReport:
    """Invariant-factor count of solutions modulo m = lcm(moduli).

    Row i of the system holds modulo m once it is scaled by m/m_i: D A x = D b
    with D = diag(m/m_i). A is first reduced by unimodular column operations,
    A V = [B | 0] with B of r = rank A columns (`_reduce_columns`). Column
    operations commute with the row scaling, D (A V) = (D A) V, and V is
    unimodular, so D B has the invariant factors of the lifted matrix D A.
    B is in column echelon form with small entries, often the identity up to
    signs, so diagonalizing D B takes far fewer operations on the long
    entries of D than diagonalizing D A would. D B is diagonalized,
    U D B W = diag(e_1, ..., e_r), carrying D b through the row operations.
    The system is solvable iff gcd(e_i, m) divides (U D b)_i for i <= r and
    (U D b)_i = 0 mod m for i > r; then the count is the product of the
    gcd(e_i, m) times m^(n - r). Any shape: k > n and rank-deficient matrices
    included.
    """
    reduced = [list(row) for row in system.coefficients]
    r = _reduce_columns(reduced, system.n)
    augmented, m = _lift_rows(
        [[*row[:r], b_i] for row, b_i in zip(reduced, system.rhs)], system.moduli
    )
    factors = _diagonalize(augmented, system.k, r)
    _check_chain(factors)
    transformed = [row[-1] for row in augmented]
    factor_gcds = [math.gcd(e_i, m) for e_i in factors]
    solvable = all(c % g == 0 for c, g in zip(transformed, factor_gcds)) and all(
        c % m == 0 for c in transformed[r:]
    )
    count = math.prod(factor_gcds) * m ** (system.n - r) if solvable else 0
    return CountReport(
        count=count,
        solvable=solvable,
        theorem="butson_stewart",
        details={
            "modulus": m,
            "invariant_factors": factors,
            "transformed_rhs": [c % m for c in transformed],
            "factor_gcds": factor_gcds,
        },
    )
