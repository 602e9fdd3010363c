"""Linear congruence systems over Z: solvability, exact counts, enumeration.

Counting follows the classical formulas (single congruence gcd test, coprime
systems, gcd-restricted systems via Ramanujan sums); enumeration is an
independent exhaustive oracle over residue tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Sequence, TypeVar

from .errors import CapExceededError, ExactnessError, HypothesisError
from .intarith import euler_phi, factorize, nary_gcd, nary_lcm
from .ramanujan import ramanujan_c
from .report import CountReport

DEFAULT_ENUMERATION_CAP = 10**8

# Largest ambient modulus for which the int64 vectorized scan cannot overflow
# (products stay below 2**63 after per-step reduction).
_NUMPY_MODULUS_LIMIT = 3 * 10**9

# A ring element: an int, or a GFPolynomial over F_p[t].
R = TypeVar("R")


@dataclass(frozen=True)
class CongruenceSystem:
    """k linear congruences in n variables: row i reads
    sum_j coefficients[i][j] * x_j = rhs[i] mod moduli[i]."""

    coefficients: tuple[tuple[int, ...], ...]
    moduli: tuple[int, ...]
    rhs: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.coefficients)
        if k == 0:
            raise ValueError("at least one congruence required")
        if len(self.moduli) != k or len(self.rhs) != k:
            raise ValueError("coefficients, moduli and rhs must have equal length")
        n = len(self.coefficients[0])
        if n == 0:
            raise ValueError("at least one variable required")
        if any(len(row) != n for row in self.coefficients):
            raise ValueError("all rows must have the same number of coefficients")
        if any(m < 2 for m in self.moduli):
            raise ValueError("every modulus must be at least 2")

    @property
    def k(self) -> int:
        return len(self.moduli)

    @property
    def n(self) -> int:
        return len(self.coefficients[0])


@dataclass(frozen=True)
class RestrictionTable:
    """Required gcd values t_ij = gcd(x_j, m_i), one entry per row and variable.

    An empty table behaves as "no restrictions".
    """

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.entries:
            n = len(self.entries[0])
            if any(len(row) != n for row in self.entries):
                raise ValueError("restriction rows must have equal length")
            for row in self.entries:
                if any(t < 1 for t in row):
                    raise ValueError("restriction values must be positive")

    def validate_for(self, system: CongruenceSystem) -> None:
        if not self.entries:
            return
        if len(self.entries) != system.k or len(self.entries[0]) != system.n:
            raise ValueError("restriction table shape must match the system")
        for row, m_i in zip(self.entries, system.moduli):
            for t in row:
                if m_i % t:
                    raise HypothesisError(
                        f"restriction value {t} does not divide modulus {m_i}"
                    )


def crt_solve(residues: Sequence[int], moduli: Sequence[int]) -> tuple[int, int] | None:
    """Simultaneous residue b mod lcm(moduli), or None when inconsistent.

    Solvable exactly when every pair satisfies b_i = b_j mod gcd(m_i, m_j).
    """
    if not residues or len(residues) != len(moduli):
        raise ValueError("residues and moduli must be equal-length and nonempty")
    if any(m < 2 for m in moduli):
        raise ValueError("moduli must be at least 2")
    b = residues[0] % moduli[0]
    m = moduli[0]
    for r_i, m_i in zip(residues[1:], moduli[1:]):
        g = math.gcd(m, m_i)
        if (b - r_i) % g:
            return None
        step = m_i // g
        k = ((r_i - b) // g * pow(m // g, -1, step)) % step if step > 1 else 0
        b += m * k
        m *= step
        b %= m
    return b, m


def lehmer_count(a: Sequence[int], b: int, m: int) -> CountReport:
    """Count solutions of a single congruence a.x = b mod m in Z_m^n."""
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if not a:
        raise ValueError("at least one coefficient required")
    n = len(a)
    reduced = [a_j % m for a_j in a]
    ell = nary_gcd([*reduced, m])
    solvable = (b % m) % ell == 0
    count = ell * m ** (n - 1) if solvable else 0
    return CountReport(
        count=count,
        solvable=solvable,
        theorem="lehmer",
        details={"gcd": ell, "modulus": m},
    )


def _require_pairwise_coprime(moduli: Sequence[int]) -> None:
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if math.gcd(moduli[i], moduli[j]) != 1:
                raise HypothesisError(
                    f"moduli {moduli[i]} and {moduli[j]} are not coprime"
                )


def system_count(system: CongruenceSystem) -> CountReport:
    """Count solutions of a system with pairwise coprime moduli, in Z_m^n with
    m the product of the moduli."""
    _require_pairwise_coprime(system.moduli)
    m = 1
    for m_i in system.moduli:
        m *= m_i
    row_gcds = []
    solvable = True
    for row, b_i, m_i in zip(system.coefficients, system.rhs, system.moduli):
        ell = nary_gcd([*(a % m_i for a in row), m_i])
        row_gcds.append(ell)
        if (b_i % m_i) % ell:
            solvable = False
    count = 0
    if solvable:
        count = m ** (system.n - 1)
        for ell in row_gcds:
            count *= ell
    return CountReport(
        count=count,
        solvable=solvable,
        theorem="coprime_system",
        details={"modulus": m, "row_gcds": row_gcds},
    )


def single_restricted_count(a: int, b: int, m: int, t: int) -> CountReport:
    """Count x mod m with a*x = b mod m and gcd(x, m) = t.

    Solvable iff t divides gcd(b, m) and gcd(a, m/t) = gcd(b/t, m/t); the
    count is then phi(m/t) / phi(m/(t*d)) with d = gcd(a, m/t).
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if t < 1:
        raise ValueError("restriction value must be positive")
    b_red = b % m
    g = math.gcd(b_red, m)
    if g % t:
        return CountReport(0, False, "restricted_single",
                           {"reason": "t does not divide gcd(b, m)"})
    mt = m // t
    d = math.gcd(a, mt)
    if d != math.gcd(b_red // t, mt):
        return CountReport(0, False, "restricted_single",
                           {"reason": "gcd(a, m/t) differs from gcd(b/t, m/t)",
                            "coefficient_gcd": d})
    num = euler_phi(mt)
    den = euler_phi(mt // d)
    if num % den:
        raise ExactnessError("phi ratio must be exact")
    count = num // den
    return CountReport(count, count > 0, "restricted_single",
                       {"coefficient_gcd": d, "modulus": m})


def prime_by_prime_divisor_table(
    prime_powers: Sequence[Sequence[R]],
    b: R,
    column_moduli: Sequence[R],
    ramanujan: Callable[[R, R], int],
    gcd: Callable[[R, R], R],
    sort_key: Callable[[R], Any],
) -> tuple[list[dict[str, Any]], int]:
    """Rows and sum of  sum_{d | m} C_d(b) prod_l C_{M_l}(m/d), prime by prime.

    Ring-generic (Z or F_p[t]): prime_powers holds, for each prime power p^e
    exactly dividing m, the list p^0, ..., p^e; each M_l divides m;
    ramanujan(q, a) is C_q(a) and gcd is the normalised gcd. C_q(a) is
    multiplicative in q and depends on a only through gcd(a, q), so the row
    of d = prod_p p^f is the entrywise product of one local row per prime,
    with values C_{p^f}(b) and C_{gcd(M_l, p^e)}(p^(e-f)). Those e + 1 local
    rows per prime are evaluated once and multiplied out. The rows come back
    as divisor-table dicts ordered by sort_key(divisor).

    Raises ExactnessError unless the rows sum to the product over the primes
    of the local sums.
    """
    local_tables = []
    expected = 1
    for powers in prime_powers:
        e = len(powers) - 1
        q_cols = [gcd(m_l, powers[e]) for m_l in column_moduli]
        local = []
        for f, p_f in enumerate(powers):
            rhs_value = ramanujan(p_f, b)
            variable_values = [ramanujan(q, powers[e - f]) for q in q_cols]
            prod = rhs_value
            for v in variable_values:
                prod *= v
            local.append((p_f, rhs_value, variable_values, prod))
        local_tables.append(local)
        expected *= sum(row[3] for row in local)

    rows = local_tables[0]
    for local in local_tables[1:]:
        rows = [
            (d * d_p, r * r_p, [v * v_p for v, v_p in zip(vs, vs_p)], prod * prod_p)
            for d, r, vs, prod in rows
            for d_p, r_p, vs_p, prod_p in local
        ]
    rows.sort(key=lambda row: sort_key(row[0]))
    total = sum(row[3] for row in rows)
    if total != expected:
        raise ExactnessError("divisor sum must equal the product of its per-prime sums")
    table = [
        {"divisor": d, "rhs_value": r, "variable_values": vs, "product": prod}
        for d, r, vs, prod in rows
    ]
    return table, total


def restricted_system_count(
    system: CongruenceSystem, restrictions: RestrictionTable
) -> CountReport:
    """Count solutions in Z_m^n (m the product of the pairwise coprime moduli)
    under the full gcd restriction table.

    Evaluates the Ramanujan-sum formula
        (1/m) * prod_j phi(m/t_j)/phi(m/(t_j d_j))
             * sum_{d | m} C_d(b) prod_l C_{m/(t_l d_l)}(m/d)
    with t_j the product of column j's restrictions, d_ij = gcd(a_ij, m_i/t_ij),
    d_j the product of column j's d_ij, and b the simultaneous residue of the
    rhs. The divisor sum is built prime by prime: for each p^e exactly
    dividing m, C_{p^f}(b) and C_{p^mu_l}(p^(e-f)) are evaluated once for
    f = 0..e (p^mu_l exactly dividing m/(t_l d_l)), and each divisor's row is
    the product of its primes' values (`prime_by_prime_divisor_table`). The
    formula is total: it returns 0 exactly on unsolvable systems.
    """
    _require_pairwise_coprime(system.moduli)
    if not restrictions.entries:
        raise ValueError("restricted_system_count needs a nonempty restriction table")
    restrictions.validate_for(system)

    k, n = system.k, system.n
    solved = crt_solve(system.rhs, system.moduli)
    assert solved is not None  # coprime moduli are always consistent
    b, m = solved

    t_cols = []
    d_cols = []
    for j in range(n):
        t_j = 1
        d_j = 1
        for i in range(k):
            t_ij = restrictions.entries[i][j]
            t_j *= t_ij
            d_j *= math.gcd(system.coefficients[i][j], system.moduli[i] // t_ij)
        t_cols.append(t_j)
        d_cols.append(d_j)

    ratio = 1
    for t_j, d_j in zip(t_cols, d_cols):
        num = euler_phi(m // t_j)
        den = euler_phi(m // (t_j * d_j))
        if num % den:
            raise ExactnessError("phi ratio must be exact")
        ratio *= num // den

    table, total = prime_by_prime_divisor_table(
        [[p**f for f in range(e + 1)] for p, e in factorize(m).factors],
        b,
        [m // (t_l * d_l) for t_l, d_l in zip(t_cols, d_cols)],
        ramanujan_c,
        math.gcd,
        int,
    )
    if total % m:
        raise ExactnessError("divisor sum must be divisible by the modulus")
    count = ratio * (total // m)
    if count < 0:
        raise ExactnessError("restricted count must be nonnegative")
    return CountReport(
        count=count,
        solvable=count > 0,
        theorem="restricted_system",
        details={
            "crt_residue": b,
            "modulus": m,
            "restriction_products": t_cols,
            "coefficient_gcds": d_cols,
            "phi_ratio": ratio,
            "divisor_table": table,
            "divisor_sum": total,
        },
    )


def _restriction_triples(
    system: CongruenceSystem, restrictions: RestrictionTable | None
) -> list[tuple[int, int, int]]:
    if restrictions is None or not restrictions.entries:
        return []
    restrictions.validate_for(system)
    out = []
    for i in range(system.k):
        for j in range(system.n):
            out.append((j, system.moduli[i], restrictions.entries[i][j]))
    return out


def enumerate_solutions(
    system: CongruenceSystem,
    restrictions: RestrictionTable | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[int, list[tuple[int, ...]] | None]:
    """Exhaustively scan Z_m^n (m = lcm of the moduli) and count solutions.

    Independent of every counting formula above. Returns (count, solutions)
    where solutions is the lexicographically ordered list of solution tuples
    when there are at most 1000 of them, else None.
    """
    m = nary_lcm(system.moduli)
    n = system.n
    total = m**n
    if total > cap:
        raise CapExceededError(f"scan of {total} tuples exceeds cap {cap}")
    triples = _restriction_triples(system, restrictions)
    rows = [
        (tuple(a % m_i for a in row), m_i, b_i % m_i)
        for row, m_i, b_i in zip(system.coefficients, system.moduli, system.rhs)
    ]
    if m < _NUMPY_MODULUS_LIMIT:
        return _enumerate_numpy(rows, triples, m, n, total)
    return _enumerate_python(rows, triples, m, n)


def _enumerate_numpy(rows, triples, m, n, total):
    import numpy as np

    block = 1 << 20
    pows = [m ** (n - 1 - j) for j in range(n)]
    count = 0
    hits: list[int] | None = []
    for start in range(0, total, block):
        stop = min(start + block, total)
        idx = np.arange(start, stop, dtype=np.int64)
        coords = [(idx // p) % m for p in pows]
        mask = np.ones(idx.shape, dtype=bool)
        for row, m_i, b_i in rows:
            acc = np.zeros(idx.shape, dtype=np.int64)
            for a_ij, x_j in zip(row, coords):
                if a_ij:
                    acc = (acc + a_ij * (x_j % m_i)) % m_i
            mask &= acc == b_i
        for j, m_i, t_ij in triples:
            mask &= np.gcd(coords[j], m_i) == t_ij
        found = int(mask.sum())
        count += found
        if hits is not None and found:
            if count <= 1000:
                hits.extend(int(f) for f in idx[mask])
            else:
                hits = None
    if hits is None:
        return count, None
    solutions = [tuple((f // p) % m for p in pows) for f in hits]
    return count, solutions


def _enumerate_python(rows, triples, m, n):
    count = 0
    hits: list[tuple[int, ...]] | None = []
    for candidate in product(range(m), repeat=n):
        ok = True
        for row, m_i, b_i in rows:
            acc = 0
            for a_ij, x_j in zip(row, candidate):
                acc = (acc + a_ij * x_j) % m_i
            if acc != b_i:
                ok = False
                break
        if ok:
            for j, m_i, t_ij in triples:
                if math.gcd(candidate[j], m_i) != t_ij:
                    ok = False
                    break
        if ok:
            count += 1
            if hits is not None:
                if count <= 1000:
                    hits.append(candidate)
                else:
                    hits = None
    return count, hits
