"""F_p[t] behind the ring interface of the systems module: the ring itself,
the brute-force eta oracle and the exhaustive enumeration oracle.

The counting theorems and character sums live once in `systems`; `PolyRing`
supplies their polynomial analogues: |H| = p^deg(H) replaces the modulus and
eta(G, H) the Ramanujan sum. Additive characters are handled through their
exponents (integers in [0, p)), never through complex numbers. The eta, I/J
and `_ff` functions are entry points over the shared formulas, and CRT is
`PolyRing.crt`.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from .errors import CapExceededError, ExactnessError
from .gfpoly import (
    GFPolynomial,
    PrimeField,
    factorize_poly,
    format_poly,
    poly_ext_gcd,
    poly_gcd,
    poly_lcm_many,
    residues,
)
from .report import CountReport
from .systems import (
    DEFAULT_ENUMERATION_CAP,
    RestrictionTable,
    _crt,
    _e_value,
    _j_value,
    _ramanujan_divisor_sum,
    _ramanujan_sum,
    _restriction_triples,
    _scan,
    _scan_modulus,
    _single_restricted,
    _SystemRows,
    restricted_system_count,
    system_count,
)

_ETA_ORACLE_CAP = 10**5

# Most table entries the F_p[t] oracle builds before it scans: one per residue
# for the residue list, each coefficient and each gcd restriction. Each entry
# is a polynomial product or gcd in Python, so this bounds that Python work.
_POLY_TABLE_LIMIT = 10**6


def tau(a: GFPolynomial, h: GFPolynomial) -> int:
    """Coefficient of t^(deg h - 1) in a mod h; the character-defining map."""
    if h.degree < 1:
        raise ValueError("modulus must be non-constant")
    r = a % h
    target = h.degree - 1
    if r.degree < target:
        return 0
    return r.coefficients[target]


def eta(g: GFPolynomial, h: GFPolynomial) -> int:
    """eta(G, H): the polynomial analogue of the Ramanujan sum.

    Evaluated as the divisor sum of |D| * mu(H/D) over monic D dividing
    gcd(G, H); computed on the monic normalization of h.
    """
    if h.is_zero:
        raise ValueError("modulus must be nonzero")
    return _ramanujan_divisor_sum(PolyRing(h.field), h, g)


def eta_closed_form(g: GFPolynomial, h: GFPolynomial) -> int:
    """eta as the product over P^s exactly dividing H of its local values."""
    if h.is_zero:
        raise ValueError("modulus must be nonzero")
    return _ramanujan_sum(PolyRing(h.field), h, g)


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


class PolyRing:
    """F_p[t] behind the ring interface of `systems.IntRing`.

    Normal forms are monic, the norm of H is |H| = p^deg(H) (0 for the zero
    polynomial), and eta(B, H) is the Ramanujan sum C_H(B). The
    methods look their helpers up at call time, so they follow whatever the
    module namespace holds.
    """

    suffix = "_poly"  # appended to theorem names
    norm_key = "modulus_norm"  # details key of the norm |H|
    modulus_rule = "non-constant"
    normal_word = "monic"

    def __init__(self, field: PrimeField):
        self.field = field
        self.zero = GFPolynomial.zero(field)
        self.one = GFPolynomial.one(field)

    @staticmethod
    def is_normal(t: GFPolynomial) -> bool:
        return not t.is_zero and t.lc == 1

    def normalise(self, h: GFPolynomial) -> GFPolynomial:
        return h.monic()

    def norm(self, h: GFPolynomial) -> int:
        return h.norm() if h.coefficients else 0

    def gcd(self, a: GFPolynomial, b: GFPolynomial) -> GFPolynomial:
        return poly_gcd(a, b)

    def inverse(self, a: GFPolynomial, h: GFPolynomial) -> GFPolynomial:
        return poly_ext_gcd(a, h)[1] % h

    def lcm(self, values: Sequence[GFPolynomial]) -> GFPolynomial:
        return poly_lcm_many(values)

    def factor(self, h: GFPolynomial) -> tuple[tuple[GFPolynomial, int], ...]:
        return factorize_poly(h).factors

    sort_key = staticmethod(GFPolynomial.sort_key)

    def format(self, value: GFPolynomial) -> str:
        return format_poly(value)

    def system(self, coefficients, moduli, rhs) -> PolyCongruenceSystem:
        return PolyCongruenceSystem(self.field, coefficients, moduli, rhs)

    def restriction_table(self, entries) -> PolyRestrictionTable:
        return PolyRestrictionTable(entries)

    def crt(self, rhs, moduli) -> tuple[GFPolynomial, GFPolynomial] | None:
        return _crt(self, rhs, moduli)

    def oracle(self, system, restrictions, cap: int):
        return enumerate_solutions_ff(system, restrictions, cap=cap)


class PolyCongruenceSystem(_SystemRows):
    """k linear congruences over F_p[t] in n variables."""

    field: PrimeField
    coefficients: tuple[tuple[GFPolynomial, ...], ...]
    moduli: tuple[GFPolynomial, ...]
    rhs: tuple[GFPolynomial, ...]

    def __init__(self, field, coefficients, moduli, rhs) -> None:
        # ring is not one of the value's _fields, so ==, hash, repr and pickling ignore it.
        vars(self).update(field=field, ring=PolyRing(field))
        super().__init__(coefficients, moduli, rhs)
        for poly in (*moduli, *rhs, *(c for row in coefficients for c in row)):
            if poly.field != field:
                raise ValueError("all polynomials must live over the system's field")


class PolyRestrictionTable(RestrictionTable):
    """Required monic gcd values T_ij = gcd(X_j, H_i)."""

    entries: tuple[tuple[GFPolynomial, ...], ...]

    _kind = PolyRing


# A system carries its ring, so the generic counts take F_p[t] systems as they are.
system_count_ff = system_count
restricted_system_count_ff = restricted_system_count


def single_restricted_count_ff(
    a: GFPolynomial, b: GFPolynomial, h: GFPolynomial, t: GFPolynomial
) -> CountReport:
    """Count X mod H with A*X = B mod H and gcd(X, H) = T (monic T)."""
    return _single_restricted(PolyRing(h.field), a, b, h, t)


def i_and_j_functions_ff(
    a: GFPolynomial, moduli: Sequence[GFPolynomial], ambient: GFPolynomial
) -> tuple[int, int]:
    """The pair (I, J) at A for moduli H_1..H_n inside an ambient modulus H.

    J is prod |H_i| / |lcm| when (H / lcm) divides A, else 0; I is its Mobius
    expansion over divisor tuples (the integer E function's analogue).
    """
    if any(h.is_zero for h in moduli) or ambient.is_zero:
        raise ValueError("moduli and ambient modulus must be nonzero")
    big_h = ambient.monic()
    if not poly_lcm_many(moduli).divides(big_h):
        raise ValueError("ambient modulus must be a common multiple of the moduli")
    ring = PolyRing(big_h.field)
    moduli = [h.monic() for h in moduli]
    return _e_value(ring, a, moduli, big_h), _j_value(ring, a, moduli, big_h)


def enumerate_solutions_ff(
    system: PolyCongruenceSystem,
    restrictions: PolyRestrictionTable | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[int, list[tuple[GFPolynomial, ...]] | None]:
    """Exhaustively scan residue tuples modulo H = lcm(moduli); the oracle.

    Returns (count, solutions) with solutions listed in base-p code order per
    variable when there are at most 1000, else None. Raises CapExceededError
    past cap tuples or past 10^6 entries in the tables it builds.
    """
    field = system.field
    big_h, size = _scan_modulus(system, cap)
    n = system.n
    triples = _restriction_triples(system, restrictions)
    entries = size * (1 + system.k * n + len(triples))
    if entries > _POLY_TABLE_LIMIT:
        raise CapExceededError(
            f"oracle tables of {entries} entries exceed the limit {_POLY_TABLE_LIMIT}"
        )
    import numpy as np

    pool = residues(field, big_h.degree)
    p = field.p
    dtype = np.min_scalar_type(n * (p - 1))  # holds a sum of n coefficients

    def table(polys, width: int):
        """Row w < width: the coefficients of t^w of the polynomials, in order."""
        zeros = (0,) * width
        flat = chain.from_iterable((f.coefficients + zeros)[:width] for f in polys)
        return np.fromiter(flat, dtype).reshape(-1, width).T.copy()

    rows = []
    for row, b_i, h_i in zip(system.coefficients, system.rhs, system.moduli):
        tables = [table(((a_ij * x) % h_i for x in pool), h_i.degree) for a_ij in row]
        rows.append((tables, table([b_i % h_i], h_i.degree)[:, 0]))
    checks = [
        (j, np.fromiter((poly_gcd(x, h) == t for x in pool), bool)) for j, h, t in triples
    ]

    def passes(codes: tuple):
        mask = np.ones(codes[0].shape, dtype=bool)
        for tables, target in rows:
            acc = sum(t.take(c, axis=1) for t, c in zip(tables, codes)) % p
            for acc_w, b_w in zip(acc, target):
                mask &= acc_w == b_w
        for j, allowed in checks:
            mask &= allowed.take(codes[j])
        return mask

    count, hits = _scan(size, n, passes)
    return count, None if hits is None else [tuple(pool[c] for c in codes) for codes in hits]
