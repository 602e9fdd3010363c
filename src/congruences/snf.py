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


def _diagonalize(a: list[list[int]], k: int, n: int) -> list[int]:
    """Reduce the k x n top-left block of the augmented matrix a in place to
    Smith form; return its positive diagonal e_1 | ... | e_r.

    Columns past n ride along with the row operations, and rows past k (which
    need only n entries) with the column operations. Each step takes the
    smallest nonzero entry of the remaining block as pivot. It runs Euclid
    along the pivot row with column operations (the rows above it are zero
    there and are skipped) until the row is clear, then clears the column with
    row operations, which change only the column and the carried entries. A
    remainder left in the column is smaller than the pivot, so it moves up and
    the step repeats. If the pivot then fails to divide some entry of the
    remaining block, that entry's row is added to the pivot row and the step
    goes on, so e_1 | e_2 | ... holds.
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
            top, rest = a[t], a[t:]
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
    augmented = [[*row, b_i] for row, b_i in zip(matrix, rhs)]
    factors = _diagonalize(augmented, system.k, system.n)
    _check_chain(factors)
    transformed = [row[-1] for row in augmented]
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
