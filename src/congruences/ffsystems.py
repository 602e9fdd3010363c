"""Linear congruence systems over F_p[t]: eta sums, counts, enumeration.

Mirrors the integer module with the polynomial analogues: |H| = p^deg(H)
replaces the modulus, eta(G, H) replaces the Ramanujan sum, and additive
characters are handled through their exponents (integers in [0, p)), never
through complex numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

from .errors import CapExceededError, ExactnessError, HypothesisError
from .gfpoly import (
    GFPolynomial,
    PrimeField,
    factorize_poly,
    mobius_poly,
    monic_divisors,
    phi_poly,
    poly_gcd,
    poly_gcd_many,
    poly_ext_gcd,
    poly_lcm_many,
    residues,
)
from .report import CountReport
from .systems import DEFAULT_ENUMERATION_CAP, prime_by_prime_divisor_table

_ETA_ORACLE_CAP = 10**5


def tau(a: GFPolynomial, h: GFPolynomial) -> int:
    """Coefficient of t^(deg h - 1) in a mod h; the character-defining map."""
    if h.degree < 1:
        raise ValueError("modulus must be non-constant")
    r = a % h
    target = h.degree - 1
    if r.degree < target:
        return 0
    return r.coefficients[target]


@dataclass(frozen=True)
class CharacterExponent:
    """Exponent of the additive character value, an element of [0, p)."""

    value: int
    p: int

    def __post_init__(self) -> None:
        if not 0 <= self.value < self.p:
            raise ValueError("exponent must lie in [0, p)")


def char_exponent(g: GFPolynomial, h: GFPolynomial, a: GFPolynomial) -> CharacterExponent:
    """Exponent of E(G, H) evaluated at A, i.e. tau(G * A mod H)."""
    return CharacterExponent(tau(g * a, h), h.field.p)


def eta(g: GFPolynomial, h: GFPolynomial) -> int:
    """eta(G, H): the polynomial analogue of the Ramanujan sum.

    Evaluated as the divisor sum of |D| * mu(H/D) over monic D dividing
    gcd(G, H); computed on the monic normalization of h.
    """
    if h.is_zero:
        raise ValueError("modulus must be nonzero")
    big_h = h.monic()
    if big_h.degree == 0:
        return 1
    g_part = poly_gcd(g, big_h)
    return sum(d.norm() * mobius_poly(big_h // d) for d in monic_divisors(g_part))


def eta_closed_form(g: GFPolynomial, h: GFPolynomial) -> int:
    """eta via phi(H) mu(N) / phi(N) with N = H / gcd(G, H); exact division."""
    if h.is_zero:
        raise ValueError("modulus must be nonzero")
    big_h = h.monic()
    if big_h.degree == 0:
        return 1
    n_part = big_h // poly_gcd(g, big_h)
    mu = mobius_poly(n_part)
    if mu == 0:
        return 0
    phi_h = phi_poly(big_h)
    phi_n = phi_poly(n_part)
    if phi_h % phi_n:
        raise ExactnessError("phi(N) must divide phi(H)")
    return mu * (phi_h // phi_n)


def eta_direct_oracle(g: GFPolynomial, h: GFPolynomial) -> int:
    """eta by brute force: tally character exponents over the units mod H.

    The nonzero exponent classes must appear equally often (the sum is a
    rational integer), so the result is n_0 - n_1. Guarded by |H| <= 10^5.
    """
    if h.is_zero:
        raise ValueError("modulus must be nonzero")
    big_h = h.monic()
    if big_h.degree == 0:
        return 1
    if big_h.norm() > _ETA_ORACLE_CAP:
        raise CapExceededError(f"|H| = {big_h.norm()} exceeds oracle guard")
    field = big_h.field
    one = GFPolynomial.one(field)
    counts = [0] * field.p
    for a in residues(field, big_h.degree):
        if poly_gcd(a, big_h) != one:
            continue
        counts[tau(g * a, big_h)] += 1
    nonzero = counts[1:]
    if any(c != nonzero[0] for c in nonzero):
        raise ExactnessError("nonzero character classes must be equidistributed")
    return counts[0] - counts[1]


def crt_poly(
    rhs: Sequence[GFPolynomial], moduli: Sequence[GFPolynomial]
) -> tuple[GFPolynomial, GFPolynomial]:
    """Simultaneous residue modulo the product of pairwise coprime moduli."""
    if not rhs or len(rhs) != len(moduli):
        raise ValueError("rhs and moduli must be equal-length and nonempty")
    if any(h.degree < 1 for h in moduli):
        raise ValueError("moduli must be non-constant")
    b = rhs[0] % moduli[0]
    m = moduli[0].monic()
    for r_i, h_i in zip(rhs[1:], moduli[1:]):
        g, s, _ = poly_ext_gcd(m, h_i)
        if g.degree != 0:
            raise HypothesisError("moduli must be pairwise coprime")
        merged = (m * h_i).monic()
        b = (b + m * s * (r_i - b)) % merged
        m = merged
    return b, m


@dataclass(frozen=True)
class PolyCongruenceSystem:
    """k linear congruences over F_p[t] in n variables."""

    field: PrimeField
    coefficients: tuple[tuple[GFPolynomial, ...], ...]
    moduli: tuple[GFPolynomial, ...]
    rhs: tuple[GFPolynomial, ...]

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
        if any(h.degree < 1 for h in self.moduli):
            raise ValueError("every modulus must be non-constant")
        for poly in (*self.moduli, *self.rhs, *(c for row in self.coefficients for c in row)):
            if poly.field != self.field:
                raise ValueError("all polynomials must live over the system's field")

    @property
    def k(self) -> int:
        return len(self.moduli)

    @property
    def n(self) -> int:
        return len(self.coefficients[0])


@dataclass(frozen=True)
class PolyRestrictionTable:
    """Required monic gcd values T_ij = gcd(X_j, H_i)."""

    entries: tuple[tuple[GFPolynomial, ...], ...]

    def __post_init__(self) -> None:
        if self.entries:
            n = len(self.entries[0])
            if any(len(row) != n for row in self.entries):
                raise ValueError("restriction rows must have equal length")
            for row in self.entries:
                for t in row:
                    if t.is_zero or t.lc != 1:
                        raise ValueError("restriction values must be monic")

    def validate_for(self, system: PolyCongruenceSystem) -> None:
        if not self.entries:
            return
        if len(self.entries) != system.k or len(self.entries[0]) != system.n:
            raise ValueError("restriction table shape must match the system")
        for row, h_i in zip(self.entries, system.moduli):
            for t in row:
                if not t.divides(h_i):
                    raise HypothesisError("restriction value must divide its modulus")


def _require_pairwise_coprime_poly(moduli: Sequence[GFPolynomial]) -> None:
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if poly_gcd(moduli[i], moduli[j]).degree != 0:
                raise HypothesisError("moduli must be pairwise coprime")


def system_count_ff(system: PolyCongruenceSystem) -> CountReport:
    """Count solutions of a pairwise-coprime system in (F_p[t]/H)^n with H the
    product of the moduli: |H|^(n-1) times the product of the row gcd norms."""
    _require_pairwise_coprime_poly(system.moduli)
    norm = 1
    for h_i in system.moduli:
        norm *= h_i.norm()
    row_gcds = []
    solvable = True
    for row, b_i, h_i in zip(system.coefficients, system.rhs, system.moduli):
        ell = poly_gcd_many([*row, h_i])
        row_gcds.append(ell)
        if not ell.divides(b_i):
            solvable = False
    count = 0
    if solvable:
        count = norm ** (system.n - 1)
        for ell in row_gcds:
            count *= ell.norm()
    return CountReport(
        count=count,
        solvable=solvable,
        theorem="coprime_system_poly",
        details={"modulus_norm": norm, "row_gcds": row_gcds},
    )


def single_restricted_count_ff(
    a: GFPolynomial, b: GFPolynomial, h: GFPolynomial, t: GFPolynomial
) -> CountReport:
    """Count X mod H with A*X = B mod H and gcd(X, H) = T (monic T)."""
    if h.degree < 1:
        raise ValueError("modulus must be non-constant")
    if t.is_zero or t.lc != 1:
        raise ValueError("restriction value must be monic")
    big_h = h.monic()
    b_red = b % big_h
    g = poly_gcd(b_red, big_h)
    if not t.divides(g):
        return CountReport(0, False, "restricted_single_poly",
                           {"reason": "T does not divide gcd(B, H)"})
    ht = big_h // t
    d = poly_gcd(a, ht)
    if d != poly_gcd(b_red // t, ht):
        return CountReport(0, False, "restricted_single_poly",
                           {"reason": "gcd(A, H/T) differs from gcd(B/T, H/T)",
                            "coefficient_gcd": d})
    num = phi_poly(ht)
    den = phi_poly(ht // d)
    if num % den:
        raise ExactnessError("phi ratio must be exact")
    count = num // den
    return CountReport(count, count > 0, "restricted_single_poly",
                       {"coefficient_gcd": d})


def restricted_count_unit_coeffs_ff(
    h: GFPolynomial, b: GFPolynomial, t: Sequence[GFPolynomial]
) -> CountReport:
    """Solutions of X_1 + ... + X_n = B mod H with gcd(X_i, H) = H_i.

    (1/|H|) * sum over monic D | H of eta(B, D) * prod_i eta(H/D, H/H_i).
    """
    if h.degree < 1:
        raise ValueError("modulus must be non-constant")
    if not t:
        raise ValueError("at least one restriction required")
    big_h = h.monic()
    for h_i in t:
        if h_i.is_zero or h_i.lc != 1 or not h_i.divides(big_h):
            raise ValueError("each H_i must be a monic divisor of H")
    table = []
    total = 0
    for d in monic_divisors(big_h):
        rhs_value = eta(b, d)
        quotient = big_h // d
        variable_values = [eta(quotient, big_h // h_i) for h_i in t]
        prod = rhs_value
        for v in variable_values:
            prod *= v
        table.append({"divisor": d, "rhs_value": rhs_value,
                      "variable_values": variable_values, "product": prod})
        total += prod
    norm = big_h.norm()
    if total % norm:
        raise ExactnessError("divisor sum must be divisible by |H|")
    count = total // norm
    if count < 0:
        raise ExactnessError("restricted count must be nonnegative")
    return CountReport(
        count=count,
        solvable=count > 0,
        theorem="restricted_sum_poly",
        details={"modulus_norm": norm, "divisor_table": table, "divisor_sum": total},
    )


def restricted_system_count_ff(
    system: PolyCongruenceSystem, restrictions: PolyRestrictionTable
) -> CountReport:
    """Count solutions in (F_p[t]/H)^n (H the product of the pairwise coprime
    moduli) under the full gcd restriction table.

    Polynomial analogue of the restricted-system formula:
        (1/|H|) * prod_j phi(H/T_j)/phi(H/(T_j D_j))
               * sum_{D | H} eta(B, D) prod_l eta(H/D, H/(T_l D_l))
    with T_j the product of column j's restrictions, D_ij = gcd(A_ij, H_i/T_ij)
    and B the simultaneous residue of the rhs. The divisor sum is built prime
    by prime: for each P^e exactly dividing H, eta(B, P^f) and
    eta(P^(e-f), P^mu_l) are evaluated once for f = 0..e (P^mu_l exactly
    dividing H/(T_l D_l)), and each divisor's row is the product of its
    irreducibles' values (`prime_by_prime_divisor_table`). Total: returns 0
    exactly on unsolvable systems.
    """
    _require_pairwise_coprime_poly(system.moduli)
    if not restrictions.entries:
        raise ValueError("restricted_system_count_ff needs a nonempty restriction table")
    restrictions.validate_for(system)

    k, n = system.k, system.n
    b, big_h = crt_poly(system.rhs, system.moduli)
    big_h = big_h.monic()

    t_cols = []
    d_cols = []
    one = GFPolynomial.one(system.field)
    for j in range(n):
        t_j = one
        d_j = one
        for i in range(k):
            t_ij = restrictions.entries[i][j]
            t_j = t_j * t_ij
            h_over = system.moduli[i].monic() // t_ij
            d_j = d_j * poly_gcd(system.coefficients[i][j], h_over)
        t_cols.append(t_j)
        d_cols.append(d_j)

    ratio = 1
    for t_j, d_j in zip(t_cols, d_cols):
        num = phi_poly(big_h // t_j)
        den = phi_poly(big_h // (t_j * d_j))
        if num % den:
            raise ExactnessError("phi ratio must be exact")
        ratio *= num // den

    prime_powers = []
    for poly, exponent in factorize_poly(big_h).factors:
        powers = [one]
        for _ in range(exponent):
            powers.append(powers[-1] * poly)
        prime_powers.append(powers)
    table, total = prime_by_prime_divisor_table(
        prime_powers,
        b,
        [big_h // (t_l * d_l) for t_l, d_l in zip(t_cols, d_cols)],
        lambda q, a: eta(a, q),
        poly_gcd,
        GFPolynomial.sort_key,
    )
    norm = big_h.norm()
    if total % norm:
        raise ExactnessError("divisor sum must be divisible by |H|")
    count = ratio * (total // norm)
    if count < 0:
        raise ExactnessError("restricted count must be nonnegative")
    return CountReport(
        count=count,
        solvable=count > 0,
        theorem="restricted_system_poly",
        details={
            "crt_residue": b,
            "modulus": big_h,
            "modulus_norm": norm,
            "restriction_products": t_cols,
            "coefficient_gcds": d_cols,
            "phi_ratio": ratio,
            "divisor_table": table,
            "divisor_sum": total,
        },
    )


def i_and_j_functions_ff(
    a: GFPolynomial, moduli: Sequence[GFPolynomial], ambient: GFPolynomial
) -> tuple[int, int]:
    """The pair (I, J) at A for moduli H_1..H_n inside an ambient modulus H.

    J is prod |H_i| / |lcm| when (H / lcm) divides A, else 0; I is its Mobius
    expansion over divisor tuples (the integer E function's analogue).
    """
    if any(h.is_zero for h in moduli) or ambient.is_zero:
        raise ValueError("moduli and ambient modulus must be nonzero")
    lcm = poly_lcm_many(moduli)
    big_h = ambient.monic()
    if not lcm.divides(big_h):
        raise ValueError("ambient modulus must be a common multiple of the moduli")

    def j_value(parts: Sequence[GFPolynomial]) -> int:
        part_lcm = poly_lcm_many(parts)
        if not (big_h // part_lcm).divides(a):
            return 0
        prod = 1
        for h_i in parts:
            prod *= h_i.norm()
        return prod // part_lcm.norm()

    j_val = j_value([h.monic() for h in moduli])
    i_val = 0
    divisor_lists = [monic_divisors(h.monic()) for h in moduli]
    for combo in product(*divisor_lists):
        sign = 1
        for h_i, d_i in zip(moduli, combo):
            sign *= mobius_poly(h_i.monic() // d_i)
            if sign == 0:
                break
        if sign == 0:
            continue
        i_val += sign * j_value(combo)
    return i_val, j_val


def enumerate_solutions_ff(
    system: PolyCongruenceSystem,
    restrictions: PolyRestrictionTable | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[int, list[tuple[GFPolynomial, ...]] | None]:
    """Exhaustively scan residue tuples modulo H = lcm(moduli); the oracle.

    Returns (count, solutions) with solutions listed in base-p code order per
    variable when there are at most 1000, else None.
    """
    field = system.field
    big_h = poly_lcm_many(system.moduli)
    n = system.n
    size = big_h.norm()
    total = size**n
    if total > cap:
        raise CapExceededError(f"scan of {total} tuples exceeds cap {cap}")
    pool = residues(field, big_h.degree)
    p = field.p

    rows = []
    for row, b_i, h_i in zip(system.coefficients, system.rhs, system.moduli):
        width = h_i.degree

        def pad(poly: GFPolynomial, w: int = width) -> tuple[int, ...]:
            return poly.coefficients + (0,) * (w - len(poly.coefficients))

        contribs = [
            [pad((a_ij * x) % h_i) for x in pool] for a_ij in row
        ]
        rows.append((contribs, pad(b_i % h_i)))

    checks: list[tuple[int, list[bool]]] = []
    if restrictions is not None and restrictions.entries:
        restrictions.validate_for(system)
        for i in range(system.k):
            h_i = system.moduli[i]
            for j in range(n):
                t_ij = restrictions.entries[i][j]
                allowed = [poly_gcd(x, h_i) == t_ij for x in pool]
                checks.append((j, allowed))

    count = 0
    hits: list[tuple[int, ...]] | None = []
    for codes in product(range(size), repeat=n):
        ok = True
        for contribs, target in rows:
            width = len(target)
            acc = [0] * width
            for j in range(n):
                term = contribs[j][codes[j]]
                for w in range(width):
                    acc[w] += term[w]
            if tuple(c % p for c in acc) != target:
                ok = False
                break
        if ok:
            for j, allowed in checks:
                if not allowed[codes[j]]:
                    ok = False
                    break
        if ok:
            count += 1
            if hits is not None:
                if count <= 1000:
                    hits.append(codes)
                else:
                    hits = None
    if hits is None:
        return count, None
    return count, [tuple(pool[c] for c in codes) for codes in hits]
