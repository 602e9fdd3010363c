"""Linear congruence systems: solvability, exact counts, enumeration.

The counting theorems are written once, against a small ring interface:
`IntRing` below for Z, and `ffsystems.PolyRing` for F_p[t], where |H| =
p^deg(H) is the norm and eta sums stand in for Ramanujan sums. A system
carries its ring, so every formula here serves both (single congruence gcd
test, coprime systems, gcd-restricted systems via Ramanujan sums). So do
the character sums beneath them: the Ramanujan sum by its local product and
by its divisor sum, and the E (I) and J functions.
Enumeration is one independent exhaustive oracle for both rings (`_scan`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .errors import CapExceededError, ExactnessError, HypothesisError
from .intarith import divisors, euler_phi, factorize, mobius, nary_gcd, nary_lcm
from .report import CountReport

if TYPE_CHECKING:
    from .ffsystems import PolyCongruenceSystem, PolyRing

DEFAULT_ENUMERATION_CAP = 10**8

# Largest ambient modulus for which the int64 vectorized scan cannot overflow
# (products stay below 2**63 after per-step reduction).
_NUMPY_MODULUS_LIMIT = 3 * 10**9

# Tuples per block of the oracle scan. Larger blocks are no faster, and their
# freed arrays raise glibc's mmap threshold, so later ones stay in the heap.
_SCAN_BLOCK = 1 << 16


class IntRing:
    """Z as the counting formulas see it.

    Moduli and restriction values are positive, so every one is its own
    normal form and its norm |m| (the number of residues) is m itself. The
    methods look their helpers up at call time, so they follow whatever the
    module namespace holds.
    """

    suffix = ""  # appended to theorem names
    norm_key = "modulus"  # details key of the norm |m|
    modulus_rule = "at least 2"
    normal_word = "positive"
    zero = 0
    one = 1

    @staticmethod
    def is_normal(t: int) -> bool:
        return t >= 1

    def normalise(self, m: int) -> int:
        return m

    def norm(self, m: int) -> int:
        return m

    def gcd(self, a: int, b: int) -> int:
        return math.gcd(a, b)

    def divides(self, d: int, a: int) -> bool:
        return a % d == 0

    def inverse(self, a: int, m: int) -> int:
        return pow(a, -1, m)

    def lcm(self, values: Sequence[int]) -> int:
        return nary_lcm(values)

    def factor(self, m: int) -> tuple[tuple[int, int], ...]:
        return factorize(m).factors

    def phi(self, m: int) -> int:
        return euler_phi(m)

    def mobius(self, m: int) -> int:
        return mobius(m)

    def divisors(self, m: int) -> tuple[int, ...]:
        return divisors(m)

    sort_key = int
    format = str

    def system(self, coefficients, moduli, rhs) -> CongruenceSystem:
        return CongruenceSystem(coefficients, moduli, rhs)

    def restriction_table(self, entries) -> RestrictionTable:
        return RestrictionTable(entries)

    def crt(self, residues: Sequence[int], moduli: Sequence[int]) -> tuple[int, int] | None:
        return _crt(self, residues, moduli)

    def oracle(self, system, restrictions, cap: int):
        return enumerate_solutions(system, restrictions, cap=cap)


INT = IntRing()


class _SystemRows:
    """Checks and shape shared by the system types: k linear congruences in
    n variables over self.ring, row i reading
    sum_j coefficients[i][j] * x_j = rhs[i] mod moduli[i]."""

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
        ring = self.ring
        if any(ring.norm(m) < 2 for m in self.moduli):
            raise ValueError(f"every modulus must be {ring.modulus_rule}")

    @property
    def k(self) -> int:
        return len(self.moduli)

    @property
    def n(self) -> int:
        return len(self.coefficients[0])


@dataclass(frozen=True)
class CongruenceSystem(_SystemRows):
    """k linear congruences over Z in n variables."""

    coefficients: tuple[tuple[int, ...], ...]
    moduli: tuple[int, ...]
    rhs: tuple[int, ...]

    ring = INT


@dataclass(frozen=True)
class RestrictionTable:
    """Required gcd values t_ij = gcd(x_j, m_i), one entry per row and variable.

    An empty table behaves as "no restrictions".
    """

    entries: tuple[tuple[int, ...], ...]

    _kind = IntRing  # what a restriction value must be: is_normal, normal_word

    def __post_init__(self) -> None:
        if self.entries:
            n = len(self.entries[0])
            if any(len(row) != n for row in self.entries):
                raise ValueError("restriction rows must have equal length")
            if not all(self._kind.is_normal(t) for row in self.entries for t in row):
                raise ValueError(f"restriction values must be {self._kind.normal_word}")

    def validate_for(self, system) -> None:
        if not self.entries:
            return
        if len(self.entries) != system.k or len(self.entries[0]) != system.n:
            raise ValueError("restriction table shape must match the system")
        ring = system.ring
        for row, m_i in zip(self.entries, system.moduli):
            for t in row:
                if not ring.divides(t, m_i):
                    raise HypothesisError(
                        f"restriction value {ring.format(t)} does not divide"
                        f" modulus {ring.format(m_i)}"
                    )


def _require_pairwise_coprime(ring: IntRing | PolyRing, moduli: Sequence) -> None:
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if ring.gcd(moduli[i], moduli[j]) != ring.one:
                raise HypothesisError(
                    f"moduli {ring.format(moduli[i])} and {ring.format(moduli[j])}"
                    " are not coprime"
                )


def _crt(ring: IntRing | PolyRing, residues: Sequence, moduli: Sequence):
    """Simultaneous residue b modulo the normalised lcm of the moduli, as
    (b, lcm), or None when inconsistent.

    Solvable exactly when every pair satisfies b_i = b_j mod gcd(m_i, m_j).
    """
    if not residues or len(residues) != len(moduli):
        raise ValueError("residues and moduli must be equal-length and nonempty")
    if any(ring.norm(m) < 2 for m in moduli):
        raise ValueError(f"moduli must be {ring.modulus_rule}")
    m = ring.normalise(moduli[0])
    b = residues[0] % m
    for r_i, m_i in zip(residues[1:], moduli[1:]):
        g = ring.gcd(m, m_i)
        if (b - r_i) % g != ring.zero:
            return None
        # m/g and m_i/g are coprime, so m/g is invertible modulo step.
        step = m_i // g
        b += m * ((r_i - b) // g * ring.inverse(m // g, step) % step)
        m = ring.normalise(m * step)
        b %= m
    return b, m


def crt_solve(residues: Sequence[int], moduli: Sequence[int]) -> tuple[int, int] | None:
    """Simultaneous residue b mod lcm(moduli), or None when inconsistent.

    Solvable exactly when every pair satisfies b_i = b_j mod gcd(m_i, m_j).
    """
    return _crt(INT, residues, moduli)


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


def system_count(system: CongruenceSystem | PolyCongruenceSystem) -> CountReport:
    """Count solutions of a system with pairwise coprime moduli, in R_m^n with
    m the product of the moduli: |m|^(n-1) times the product of the row gcd
    norms when each row gcd divides its rhs, else 0."""
    ring = system.ring
    _require_pairwise_coprime(ring, system.moduli)
    norm = 1
    for m_i in system.moduli:
        norm *= ring.norm(m_i)
    row_gcds = []
    solvable = True
    for row, b_i, m_i in zip(system.coefficients, system.rhs, system.moduli):
        ell = m_i
        for a in row:
            ell = ring.gcd(ell, a)
        row_gcds.append(ell)
        if not ring.divides(ell, b_i):
            solvable = False
    count = 0
    if solvable:
        count = norm ** (system.n - 1)
        for ell in row_gcds:
            count *= ring.norm(ell)
    return CountReport(
        count=count,
        solvable=solvable,
        theorem="coprime_system" + ring.suffix,
        details={ring.norm_key: norm, "row_gcds": row_gcds},
    )


def _phi_ratio(ring: IntRing | PolyRing, num: Any, den: Any) -> int:
    """phi(num) / phi(den), which the theory makes exact."""
    phi_num = ring.phi(num)
    phi_den = ring.phi(den)
    if phi_num % phi_den:
        raise ExactnessError("phi ratio must be exact")
    return phi_num // phi_den


def _single_restricted(ring: IntRing | PolyRing, a: Any, b: Any, m: Any, t: Any) -> CountReport:
    """`single_restricted_count` over either ring."""
    if ring.norm(m) < 2:
        raise ValueError(f"modulus must be {ring.modulus_rule}")
    if not ring.is_normal(t):
        raise ValueError(f"restriction value must be {ring.normal_word}")
    theorem = "restricted_single" + ring.suffix
    m = ring.normalise(m)
    b_red = b % m
    if not ring.divides(t, ring.gcd(b_red, m)):
        return CountReport(0, False, theorem, {"reason": "t does not divide gcd(b, m)"})
    mt = m // t
    d = ring.gcd(a, mt)
    if d != ring.gcd(b_red // t, mt):
        return CountReport(0, False, theorem,
                           {"reason": "gcd(a, m/t) differs from gcd(b/t, m/t)",
                            "coefficient_gcd": d})
    count = _phi_ratio(ring, mt, mt // d)
    return CountReport(count, count > 0, theorem,
                       {"coefficient_gcd": d, ring.norm_key: ring.norm(m)})


def single_restricted_count(a: int, b: int, m: int, t: int) -> CountReport:
    """Count x mod m with a*x = b mod m and gcd(x, m) = t.

    Solvable iff t divides gcd(b, m) and gcd(a, m/t) = gcd(b/t, m/t); the
    count is then phi(m/t) / phi(m/(t*d)) with d = gcd(a, m/t).
    """
    return _single_restricted(INT, a, b, m, t)


def _local_ramanujan(norm: int, s: int, v: int) -> int:
    """C_{P^s}(a) for a prime P of norm |P| and v = v_P(a) (or any v >= s
    when P^s divides a): 1 when s = 0, |P|^(s-1) (|P| - 1) when P^s | a,
    -|P|^(s-1) when P^(s-1) exactly divides a, else 0."""
    if s == 0:
        return 1
    if v >= s:
        return norm ** (s - 1) * (norm - 1)
    return -(norm ** (s - 1)) if v == s - 1 else 0


def _valuation(ring: IntRing | PolyRing, p: Any, a: Any, cap: int) -> int:
    """v_P(a) capped at cap, so a = 0 gives cap."""
    v = 0
    while v < cap and a % p == ring.zero:
        a //= p
        v += 1
    return v


def _ramanujan_sum(ring: IntRing | PolyRing, q: Any, a: Any) -> int:
    """C_q(a), eta(A, Q) over F_p[t], as the product of its local values
    over the prime powers P^s exactly dividing q."""
    return math.prod(
        _local_ramanujan(ring.norm(p), s, _valuation(ring, p, a, s)) for p, s in ring.factor(q)
    )


def _ramanujan_divisor_sum(ring: IntRing | PolyRing, q: Any, a: Any) -> int:
    """C_q(a) as the sum of |d| mu(q/d) over the normal divisors d of gcd(a, q)."""
    q = ring.normalise(q)
    return sum(ring.norm(d) * ring.mobius(q // d) for d in ring.divisors(ring.gcd(a, q)))


def _j_value(ring: IntRing | PolyRing, a: Any, moduli: Sequence, ambient: Any) -> int:
    """J(a; m_1..m_n): the product of the |m_i| over |lcm| when (ambient / lcm)
    divides a, else 0. Moduli and ambient modulus are normal."""
    lcm = ring.lcm(moduli)
    if not ring.divides(ambient // lcm, a):
        return 0
    return math.prod(ring.norm(m_i) for m_i in moduli) // ring.norm(lcm)


def _e_value(ring: IntRing | PolyRing, a: Any, moduli: Sequence, ambient: Any) -> int:
    """E(a; m_1..m_n), I over F_p[t]: the Mobius expansion, over normal
    d_i dividing m_i, of J(a; d_1..d_n) mu(m_1/d_1) ... mu(m_n/d_n), with the
    same ambient modulus throughout. Moduli and ambient modulus are normal."""
    total = 0
    for combo in product(*(ring.divisors(m_i) for m_i in moduli)):
        sign = math.prod(ring.mobius(m_i // d_i) for m_i, d_i in zip(moduli, combo))
        if sign:
            total += sign * _j_value(ring, a, combo, ambient)
    return total


def prime_by_prime_divisor_table(
    ring: IntRing | PolyRing, m: Any, b: Any, column_moduli: Sequence[Any]
) -> tuple[list[dict[str, Any]], int]:
    """Rows and sum of  sum_{d | m} C_d(b) prod_l C_{M_l}(m/d), prime by prime.

    Each M_l divides m, and C is the Ramanujan sum (eta over F_p[t]). C_q(a)
    is multiplicative in q, so the row of d = prod_p p^f is the entrywise
    product of one local row per prime power p^e exactly dividing m, with the
    local values C_{p^f}(b) and C_{p^mu_l}(p^(e-f)), p^mu_l exactly dividing
    M_l. Those e + 1 local rows per prime are evaluated once and multiplied
    out. The rows come back as divisor-table dicts ordered by
    ring.sort_key(divisor).

    Raises ExactnessError unless the rows sum to the product over the primes
    of the local sums.
    """
    rows = [(ring.one, 1, [1] * len(column_moduli), 1)]
    expected = 1
    for p, e in ring.factor(m):
        norm = ring.norm(p)
        v_b = _valuation(ring, p, b, e)
        mus = [_valuation(ring, p, m_l, e) for m_l in column_moduli]
        local = []
        p_f = ring.one
        for f in range(e + 1):
            r = _local_ramanujan(norm, f, v_b)
            vs = [_local_ramanujan(norm, mu, e - f) for mu in mus]
            local.append((p_f, r, vs, math.prod(vs, start=r)))
            p_f = p_f * p
        expected *= sum(row[3] for row in local)
        rows = [
            (d * d_p, r * r_p, [v * v_p for v, v_p in zip(vs, vs_p)], prod * prod_p)
            for d, r, vs, prod in rows
            for d_p, r_p, vs_p, prod_p in local
        ]
    sort_key = ring.sort_key
    rows.sort(key=lambda row: sort_key(row[0]))
    total = sum(row[3] for row in rows)
    if total != expected:
        raise ExactnessError("divisor sum must equal the product of its per-prime sums")
    table = [
        {"divisor": d, "rhs_value": r, "variable_values": vs, "product": prod}
        for d, r, vs, prod in rows
    ]
    return table, total


def _divide_by_norm(ring: IntRing | PolyRing, total: int, m: Any) -> int:
    """total / |m| for a divisor sum that the theory makes divisible by |m|."""
    norm = ring.norm(m)
    if total % norm:
        raise ExactnessError("divisor sum must be divisible by the norm of the modulus")
    return total // norm


def restricted_system_count(
    system: CongruenceSystem | PolyCongruenceSystem, restrictions: RestrictionTable
) -> CountReport:
    """Count solutions in R_m^n (m the product of the pairwise coprime moduli)
    under the full gcd restriction table.

    Evaluates the Ramanujan-sum formula (eta sums over F_p[t])
        (1/|m|) * prod_j phi(m/t_j)/phi(m/(t_j d_j))
               * sum_{d | m} C_d(b) prod_l C_{m/(t_l d_l)}(m/d)
    with t_j the product of column j's restrictions, d_ij = gcd(a_ij, m_i/t_ij),
    d_j the product of column j's d_ij, and b the simultaneous residue of the
    rhs. The divisor sum is built prime by prime: for each p^e exactly
    dividing m, C_{p^f}(b) and C_{p^mu_l}(p^(e-f)) are evaluated once for
    f = 0..e (p^mu_l exactly dividing m/(t_l d_l)), and each divisor's row is
    the product of its primes' values (`prime_by_prime_divisor_table`). The
    formula is total: it returns 0 exactly on unsolvable systems.
    """
    ring = system.ring
    _require_pairwise_coprime(ring, system.moduli)
    if not restrictions.entries:
        raise ValueError("restricted_system_count needs a nonempty restriction table")
    restrictions.validate_for(system)

    b, m = _crt(ring, system.rhs, system.moduli)  # coprime moduli: never None
    t_cols = []
    d_cols = []
    for j in range(system.n):
        t_j = d_j = ring.one
        for i in range(system.k):
            t_ij = restrictions.entries[i][j]
            t_j = t_j * t_ij
            m_over = ring.normalise(system.moduli[i]) // t_ij
            d_j = d_j * ring.gcd(system.coefficients[i][j], m_over)
        t_cols.append(t_j)
        d_cols.append(d_j)

    ratio = 1
    for t_j, d_j in zip(t_cols, d_cols):
        ratio *= _phi_ratio(ring, m // t_j, m // (t_j * d_j))

    table, total = prime_by_prime_divisor_table(
        ring, m, b, [m // (t_l * d_l) for t_l, d_l in zip(t_cols, d_cols)]
    )
    count = ratio * _divide_by_norm(ring, total, m)
    if count < 0:
        raise ExactnessError("restricted count must be nonnegative")
    return CountReport(
        count=count,
        solvable=count > 0,
        theorem="restricted_system" + ring.suffix,
        details={
            "crt_residue": b,
            # Over Z the norm is the modulus itself and both keys are "modulus".
            "modulus": m,
            ring.norm_key: ring.norm(m),
            "restriction_products": t_cols,
            "coefficient_gcds": d_cols,
            "phi_ratio": ratio,
            "divisor_table": table,
            "divisor_sum": total,
        },
    )


def _unit_coefficient_sum(
    ring: IntRing | PolyRing, m: Any, b: Any, t: Sequence[Any]
) -> CountReport:
    """Solutions of x_1 + ... + x_n = b mod m with gcd(x_i, m) = t_i.

    Evaluated as (1/|m|) * sum over d | m of C_d(b) * prod_i C_{m/t_i}(m/d),
    the divisor sum built prime by prime with M_i = m/t_i; the sum is
    asserted divisible by |m| and the result nonnegative.
    """
    if not t:
        raise ValueError("at least one restriction required")
    m = ring.normalise(m)
    if not all(ring.is_normal(t_i) and ring.divides(t_i, m) for t_i in t):
        raise ValueError(f"each t_i must be a {ring.normal_word} divisor of m")
    table, total = prime_by_prime_divisor_table(ring, m, b, [m // t_i for t_i in t])
    count = _divide_by_norm(ring, total, m)
    if count < 0:
        raise ExactnessError("restricted count must be nonnegative")
    return CountReport(
        count=count,
        solvable=count > 0,
        theorem="restricted_sum" + ring.suffix,
        details={ring.norm_key: ring.norm(m), "divisor_table": table, "divisor_sum": total},
    )


def restricted_count_unit_coeffs(m: int, b: int, t: Sequence[int]) -> int:
    """Solutions of x_1 + ... + x_n = b mod m with gcd(x_i, m) = t_i.

    Evaluated as (1/m) * sum over d | m of C_d(b) * prod_i C_{m/t_i}(m/d); the
    divisor sum is asserted divisible by m and the result nonnegative.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    return _unit_coefficient_sum(INT, m, b, t).count


def _scan_modulus(system, cap: int) -> tuple[Any, int]:
    """The lcm of the moduli and its norm, once the norm^n residue tuples are
    known to fit within cap. Neither the lcm nor a long tuple count is ever
    written in decimal: both can pass Python's limit on int-to-str conversion."""
    ring = system.ring
    lcm = ring.lcm(system.moduli)
    size = ring.norm(lcm)
    total = size**system.n
    if total > cap:
        shown = total if total < 10**50 else f"about 10^{math.log10(total):.1f}"
        raise CapExceededError(f"scan of {shown} tuples exceeds cap {cap}")
    return lcm, size


def _restriction_triples(system, restrictions: RestrictionTable | None) -> list[tuple]:
    """(j, m_i, t_ij) for every entry of a nonempty table, checked against
    the system; [] for no restrictions."""
    if restrictions is None or not restrictions.entries:
        return []
    restrictions.validate_for(system)
    out = []
    for i in range(system.k):
        for j in range(system.n):
            out.append((j, system.moduli[i], restrictions.entries[i][j]))
    return out


def _scan(size: int, n: int, passes: Callable) -> tuple[int, list[tuple[int, ...]] | None]:
    """(count, hits) of the tuples of [0, size)^n that `passes` accepts.

    Walks the tuples in lexicographic order, _SCAN_BLOCK at a time; `passes`
    maps a block's n per-variable code arrays to a boolean mask. hits lists
    the accepted tuples in order when there are at most 1000, else is None.
    """
    import numpy as np

    total = size**n
    count = 0
    hits: list[tuple[int, ...]] | None = []
    for start in range(0, total, _SCAN_BLOCK):
        codes = np.unravel_index(np.arange(start, min(start + _SCAN_BLOCK, total)), (size,) * n)
        mask = passes(codes)
        found = int(np.count_nonzero(mask))
        count += found
        if hits is not None and found:
            hits = hits + list(zip(*(c[mask].tolist() for c in codes))) if count <= 1000 else None
    return count, hits


def enumerate_solutions(
    system: CongruenceSystem,
    restrictions: RestrictionTable | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[int, list[tuple[int, ...]] | None]:
    """Exhaustively scan Z_m^n (m = lcm of the moduli) and count solutions.

    Independent of every counting formula above. Returns (count, solutions)
    where solutions is the lexicographically ordered list of solution tuples
    when there are at most 1000 of them, else None. The scan is vectorised
    in int64, so it covers only m below 3*10^9.
    """
    m, _ = _scan_modulus(system, cap)
    if m >= _NUMPY_MODULUS_LIMIT:
        raise CapExceededError(f"the oracle scans only moduli below {_NUMPY_MODULUS_LIMIT}")
    import numpy as np

    triples = _restriction_triples(system, restrictions)
    rows = [
        (tuple(a % m_i for a in row), m_i, b_i % m_i)
        for row, m_i, b_i in zip(system.coefficients, system.moduli, system.rhs)
    ]

    def passes(coords: tuple):
        mask = np.ones(coords[0].shape, dtype=bool)
        for row, m_i, b_i in rows:
            acc = np.zeros(coords[0].shape, dtype=np.int64)
            for a_ij, x_j in zip(row, coords):
                if a_ij:
                    acc = (acc + a_ij * (x_j % m_i)) % m_i
            mask &= acc == b_i
        for j, m_i, t_ij in triples:
            mask &= np.gcd(coords[j], m_i) == t_ij
        return mask

    return _scan(m, system.n, passes)
