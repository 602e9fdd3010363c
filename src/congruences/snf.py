"""Smith normal form over Z and the invariant-factor solution count.

The reduction uses only elementary unimodular row/column operations on exact
integers; the pivot is always a minimal-absolute-value nonzero entry, ties
broken by position, so the run is deterministic.
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
    m = nary_lcm(system.moduli)
    matrix = []
    rhs = []
    for row, b_i, m_i in zip(system.coefficients, system.rhs, system.moduli):
        scale = m // m_i
        matrix.append(tuple(a * scale for a in row))
        rhs.append(b_i * scale)
    return tuple(matrix), tuple(rhs), m


def _diagonalize(a: list[list[int]], rows: list[list[int]], cols: list[list[int]]) -> list[int]:
    """Reduce the k x n matrix a in place to Smith form; return its positive
    diagonal e_1 | ... | e_r.

    Each row operation on a is repeated on the k rows of `rows`, and each
    column operation on the n columns of `cols` (a list of rows of length n).
    """
    k, n = len(a), len(a[0])

    def swap_rows(i1, i2):
        for mat in (a, rows):
            mat[i1], mat[i2] = mat[i2], mat[i1]

    def swap_cols(j1, j2):
        for mat in (a, cols):
            for row in mat:
                row[j1], row[j2] = row[j2], row[j1]

    def add_row(dst, src, q):
        # row dst += q * row src
        for mat in (a, rows):
            mat[dst] = [x + q * y for x, y in zip(mat[dst], mat[src])]

    def add_col(dst, src, q):
        for mat in (a, cols):
            for row in mat:
                row[dst] += q * row[src]

    def negate_row(i):
        for mat in (a, rows):
            mat[i] = [-x for x in mat[i]]

    t = 0
    while t < min(k, n):
        # Deterministic pivot: minimal |value| among nonzero entries, first by
        # position on ties.
        pivot = min(
            ((abs(a[i][j]), i, j) for i in range(t, k) for j in range(t, n) if a[i][j]),
            default=None,
        )
        if pivot is None:
            break
        swap_rows(t, pivot[1])
        swap_cols(t, pivot[2])
        while True:
            if a[t][t] < 0:
                negate_row(t)
            p = a[t][t]
            for i in range(t + 1, k):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // p))
            i = next((i for i in range(t + 1, k) if a[i][t]), None)
            if i is not None:
                swap_rows(t, i)
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // p))
            j = next((j for j in range(t + 1, n) if a[t][j]), None)
            if j is not None:
                swap_cols(t, j)
                continue
            # Pivot must divide everything that remains, so later factors
            # stay multiples of earlier ones.
            i = next((i for i in range(t + 1, k) if any(x % p for x in a[i][t + 1 :])), None)
            if i is None:
                break
            add_row(t, i, 1)
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
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    factors = _diagonalize([list(map(int, row)) for row in matrix], u, v)
    return SnfResult(
        invariant_factors=tuple(factors),
        rank=len(factors),
        transforms=(tuple(map(tuple, u)), tuple(map(tuple, v))),
    )


def butson_stewart_count(system: CongruenceSystem) -> CountReport:
    """Invariant-factor count of solutions modulo m = lcm(moduli).

    Lift every row to the common modulus and diagonalize, U A V =
    diag(e_1, ..., e_r), carrying the rhs b through the row operations. The
    system is solvable iff gcd(e_i, m) divides (U b)_i for i <= r and
    (U b)_i = 0 mod m for i > r; then the count is the product of the
    gcd(e_i, m) times m^(n - r). Any shape: k > n and rank-deficient lifted
    matrices included.
    """
    matrix, rhs, m = lift_to_common_modulus(system)
    carried = [[b_i] for b_i in rhs]
    factors = _diagonalize([list(row) for row in matrix], carried, [])
    _check_chain(factors)
    transformed = [c for (c,) in carried]
    factor_gcds = [math.gcd(e_i, m) for e_i in factors]
    r = len(factors)
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
