"""Independent reference answers for the benchmark's queries.

Nothing here imports `congruences`: the reference reads the same `.cong`
text the program reads, with its own small parser, and counts by a different
route than the program's divisor-sum formulas and its integer Smith form.

* `count` and `verify` queries (pairwise coprime moduli): the count is the
  CRT product, over every prime power p^e exactly dividing a row's modulus
  (or irreducible power P^e over F_p[t]), of the number of local solutions
  of that row in (R/P^e)^n under the gcd restrictions read at P. Each local
  count is a residue histogram over the chain ring R/P^e. Every histogram
  that arises is invariant under multiplication by units, so it is stored as
  one value per valuation class (P^k * unit, k = 0..e, class e being {0})
  and the convolutions run class by class. The benchmark's tests check this
  against exhaustive scans of Z/p^e and F_p[t]/P^e.
* `snf` queries (any moduli): the lifted system modulo m = lcm(moduli) is
  split by CRT over the prime powers of m, and each local system is
  diagonalised over Z/p^e with minimal-valuation pivots; the count is the
  product of the local counts. The tests check it against sympy's Smith form
  on small systems.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

# Largest degree of an irreducible factor the polynomial reference can find
# by trial division; the workloads only build moduli from such factors.
MAX_FACTOR_DEGREE = 3


class UnsupportedByReference(ValueError):
    """The query lies outside what this reference can count."""


# --------------------------------------------------------------------------
# Polynomials over F_p as ascending coefficient tuples with no trailing zero.


def ptrim(coeffs, p: int) -> tuple[int, ...]:
    out = [c % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def padd(a, b, p: int) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    return ptrim([x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)], p)


def pmul(a, b, p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ptrim(out, p)


def ppow(poly, e: int, p: int) -> tuple[int, ...]:
    out: tuple[int, ...] = (1,)
    for _ in range(e):
        out = pmul(out, poly, p)
    return out


def pdivmod(a, b, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    rem = list(a)
    inv = pow(b[-1], -1, p)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    for shift in range(len(a) - len(b), -1, -1):
        f = rem[shift + len(b) - 1] * inv % p
        quo[shift] = f
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - f * c) % p
    return ptrim(quo, p), ptrim(rem[: len(b) - 1], p)


def pgcd(a, b, p: int) -> tuple[int, ...]:
    """Monic gcd of two nonzero polynomials."""
    while b:
        a, b = b, pdivmod(a, b, p)[1]
    return pmonic(a, p)


def pmonic(a, p: int) -> tuple[int, ...]:
    inv = pow(a[-1], -1, p)
    return ptrim([c * inv for c in a], p)


@functools.lru_cache(maxsize=None)
def irreducibles(p: int, max_degree: int = MAX_FACTOR_DEGREE) -> list[tuple[int, ...]]:
    """Monic irreducibles of degree 1..max_degree, by a sieve on monic
    polynomials: a monic polynomial is irreducible when no smaller one in the
    list divides it."""
    found: list[tuple[int, ...]] = []
    for degree in range(1, max_degree + 1):
        for code in range(p**degree):
            poly = tuple((code // p**i) % p for i in range(degree)) + (1,)
            if all(pdivmod(poly, q, p)[1] for q in found if 2 * (len(q) - 1) <= degree):
                found.append(poly)
    return found


# --------------------------------------------------------------------------
# The chain rings Z/p^e and F_p[t]/P^e, seen through valuations.


@dataclass(frozen=True)
class Place:
    """A prime p of Z (poly=None) or a monic irreducible P of F_p[t]."""

    p: int
    poly: tuple[int, ...] | None = None

    @property
    def residue_size(self) -> int:
        return self.p if self.poly is None else self.p ** (len(self.poly) - 1)

    def valuation(self, value, cap: int) -> int:
        """v(value) capped at cap; the zero element has valuation cap."""
        v = 0
        if self.poly is None:
            while v < cap and value % self.p == 0:
                value //= self.p
                v += 1
            return v
        while v < cap and value:
            quo, rem = pdivmod(value, self.poly, self.p)
            if rem:
                break
            value, v = quo, v + 1
        return cap if not value else v


def class_sizes(q: int, e: int) -> list[int]:
    """|V_k| for the valuation classes of a chain ring with residue field of
    size q and length e."""
    return [q ** (e - k) - q ** (e - k - 1) for k in range(e)] + [1]


def convolve_classes(f: list[int], g: list[int], size: list[int]) -> list[int]:
    """h(z) = sum_u f(u) g(z - u) for unit-invariant f and g, stored per class.

    For z in class k < e, the pairs (u, z - u) with u in class i are:
    i < k -> z - u in class i; i > k -> z - u in class k; i = k -> z - u in
    any class j > k (|V_j| ways) or in class k (|V_k| - |V_{k+1..e}| ways).
    For z = 0, u and -u share a class.
    """
    e = len(size) - 1
    h = [0] * (e + 1)
    h[e] = sum(f[i] * g[i] * size[i] for i in range(e + 1))
    for k in range(e):
        above = sum(size[k + 1 :])
        total = f[k] * (g[k] * (size[k] - above) + sum(g[j] * size[j] for j in range(k + 1, e + 1)))
        total += sum(f[i] * g[i] * size[i] for i in range(k))
        total += g[k] * sum(f[i] * size[i] for i in range(k + 1, e + 1))
        h[k] = total
    return h


def local_count(q: int, e: int, coeff_vals, allowed, rhs_val: int) -> int:
    """Solutions y in (R/P^e)^n of sum a_j y_j = b with v(y_j) in allowed[j].

    coeff_vals[j] = v(a_j) and rhs_val = v(b), both capped at e.
    """
    size = class_sizes(q, e)
    f = [0] * e + [1]
    for s, classes in zip(coeff_vals, allowed):
        g = [0] * (e + 1)
        for k in classes:
            c = min(s + k, e)
            g[c] += size[k] // size[c]
        f = convolve_classes(f, g, size)
    return f[rhs_val]


# --------------------------------------------------------------------------
# Reading the `.cong` text.


@dataclass(frozen=True)
class Document:
    """A system as the reference reads it. Integers are ints; polynomials are
    ascending coefficient tuples over F_p (p = field, None in integer mode)."""

    field: int | None
    moduli: tuple
    rows: tuple[dict, ...]  # variable name -> coefficient
    rhs: tuple
    restrictions: dict  # (variable, row index) -> value

    @property
    def variables(self) -> list[str]:
        names = {name for row in self.rows for name in row}
        return sorted(names, key=lambda v: int(v[1:]))


def _split_signed(text: str) -> list[tuple[int, str]]:
    """'a + b - c' -> [(1, 'a'), (1, 'b'), (-1, 'c')], ignoring +/- inside
    parentheses."""
    out, depth, sign, start = [], 0, 1, 0
    text = text.strip()
    if text.startswith("-"):
        sign, start = -1, 1
    for i in range(start, len(text)):
        ch = text[i]
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and ch in "+-" and text[start:i].strip():
            out.append((sign, text[start:i].strip()))
            sign, start = (1 if ch == "+" else -1), i + 1
    out.append((sign, text[start:].strip()))
    return out


def _value(text: str, field: int | None):
    text = text.strip()
    if field is None:
        return int(text)
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    total: tuple[int, ...] = ()
    for sign, mono in _split_signed(text):
        coeff, power = 1, 0
        factors = [f.strip() for f in mono.split("*")]
        for factor in factors:
            if factor.startswith("t"):
                power = int(factor.split("^")[1]) if "^" in factor else 1
            else:
                coeff = int(factor)
        total = padd(total, (0,) * power + (sign * coeff,), field)
    return total


def parse(text: str) -> Document:
    field = None
    moduli, rows, rhs, gcd_lines = [], [], [], []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("field"):
            field = int(re.fullmatch(r"field\s+GF\((\d+)\)", line).group(1))
        elif line.startswith("mod"):
            head, body = line[3:].split(":", 1)
            linear, right = body.split("=")
            modulus = _value(head, field)
            row: dict = {}
            for sign, term in _split_signed(linear):
                coeff_text, _, name = term.rpartition("*") if "*" in term else ("", "", term)
                coeff = _value(coeff_text, field) if coeff_text else (1 if field is None else (1,))
                if sign < 0:
                    coeff = -coeff if field is None else ptrim([-c for c in coeff], field)
                name = f"x{int(name.strip()[1:])}"
                if name in row:
                    coeff = row[name] + coeff if field is None else padd(row[name], coeff, field)
                row[name] = coeff
            moduli.append(modulus)
            rows.append(row)
            rhs.append(_value(right, field))
        elif line.startswith("gcd"):
            match = re.fullmatch(r"gcd\(\s*(x\d+)\s*,(.*)\)\s*=(.*)", line)
            gcd_lines.append((f"x{int(match.group(1)[1:])}", _value(match.group(2), field),
                              _value(match.group(3), field)))
        else:
            raise UnsupportedByReference(f"cannot read line {raw!r}")
    key = (lambda v: v) if field is None else (lambda v: pmonic(v, field))
    row_of = {key(m): i for i, m in enumerate(moduli)}
    restrictions = {(name, row_of[key(mod)]): value for name, mod, value in gcd_lines}
    return Document(field, tuple(moduli), tuple(rows), tuple(rhs), restrictions)


# --------------------------------------------------------------------------
# Factoring moduli.


def factor_int(n: int) -> list[tuple[Place, int]]:
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((Place(d), e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((Place(n), 1))
    return out


def factor_poly(h: tuple[int, ...], p: int, table: list[tuple[int, ...]]) -> list[tuple[Place, int]]:
    out = []
    h = pmonic(h, p)
    for irreducible in table:
        if len(h) < len(irreducible):
            break
        place = Place(p, irreducible)
        e = place.valuation(h, len(h))
        if e:
            h = pdivmod(h, ppow(irreducible, e, p), p)[0]
            out.append((place, e))
    if len(h) > 1:
        raise UnsupportedByReference(f"modulus has an irreducible factor of degree > {MAX_FACTOR_DEGREE}")
    return out


def _factor_moduli(doc: Document) -> list[list[tuple[Place, int]]]:
    if doc.field is None:
        return [factor_int(m) for m in doc.moduli]
    table = irreducibles(doc.field)
    return [factor_poly(h, doc.field, table) for h in doc.moduli]


# --------------------------------------------------------------------------
# Reference counts.


def local_product_count(doc: Document) -> int:
    """Solutions in (R/H)^n, H the product of the pairwise coprime moduli."""
    names = doc.variables
    zero = 0 if doc.field is None else ()
    restricted = bool(doc.restrictions)
    if restricted and len(doc.restrictions) != len(names) * len(doc.rows):
        raise UnsupportedByReference("partial restriction table")
    for (name, i), value in doc.restrictions.items():
        modulus = doc.moduli[i]
        if (modulus % value if doc.field is None else pdivmod(modulus, value, doc.field)[1]):
            raise UnsupportedByReference(f"restriction on {name} does not divide its modulus")
    factored = _factor_moduli(doc)
    places = [place for row in factored for place, _ in row]
    if len(set(places)) != len(places):
        raise UnsupportedByReference("moduli are not pairwise coprime")
    count = 1
    for i, (row, b) in enumerate(zip(doc.rows, doc.rhs)):
        for place, e in factored[i]:
            coeff_vals = [place.valuation(row.get(name, zero), e) for name in names]
            if restricted:
                allowed = [(place.valuation(doc.restrictions[(name, i)], e),) for name in names]
            else:
                allowed = [range(e + 1)] * len(names)
            count *= local_count(place.residue_size, e, coeff_vals, allowed, place.valuation(b, e))
    return count


def _local_snf_count(rows: list[list[int]], n: int, p: int, e: int) -> int:
    """Solutions in (Z/p^e)^n of the augmented rows [a | b], by diagonalising
    with a minimal-valuation pivot at each step."""
    q = p**e
    place = Place(p)
    rows = [r[:] for r in rows]
    count, rank = 1, 0
    while True:
        best = None
        for i in range(rank, len(rows)):
            for j in range(rank, n):
                v = place.valuation(rows[i][j], e)
                if v < e and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        v, i, j = best
        rows[rank], rows[i] = rows[i], rows[rank]
        for r in rows:
            r[rank], r[j] = r[j], r[rank]
        pivot = rows[rank]
        inv = pow(pivot[rank] // p**v, -1, q)
        for r in rows[rank + 1 :]:
            if r[rank] % q:
                f = (r[rank] // p**v) * inv % q
                r[:] = [(x - f * y) % q for x, y in zip(r, pivot)]
        # The pivot divides the rest of its row, so column operations clear
        # it without touching the right-hand side or the rows below.
        if place.valuation(pivot[n], e) < v:
            return 0
        count *= p**v
        rank += 1
    if any(r[n] % q for r in rows[rank:]):
        return 0
    return count * q ** (n - rank)


def snf_count(doc: Document) -> int:
    """Solutions in (Z/m)^n, m = lcm(moduli), of an integer system with any
    moduli."""
    if doc.field is not None:
        raise UnsupportedByReference("snf applies to integer systems only")
    names = doc.variables
    n = len(names)
    count = 1
    primes: dict[int, int] = {}
    for m_i in doc.moduli:
        for place, e in factor_int(m_i):
            primes[place.p] = max(primes.get(place.p, 0), e)
    for p, e in primes.items():
        local = []
        for row, m_i, b in zip(doc.rows, doc.moduli, doc.rhs):
            lift = p ** (e - Place(p).valuation(m_i, e))
            if lift % p**e:
                local.append([row.get(name, 0) * lift % p**e for name in names] + [b * lift % p**e])
        count *= _local_snf_count(local, n, p, e)
    return count


@dataclass(frozen=True)
class Expected:
    """The reference count, and whether `verify` must have run its oracle:
    the program scans when the tuple space is within its default cap."""

    count: int
    oracle_required: bool


ORACLE_CAP = 10**8


def expected(subcommand: str, text: str) -> Expected:
    doc = parse(text)
    count = snf_count(doc) if subcommand == "snf" else local_product_count(doc)
    if doc.field is None:
        space = math.lcm(*doc.moduli) ** len(doc.variables)
    else:
        space = doc.field ** (sum(len(h) - 1 for h in doc.moduli) * len(doc.variables))
    return Expected(count, space <= ORACLE_CAP)


def check(subcommand: str, answer: dict, want: Expected) -> str | None:
    """None when the program's answer matches the reference, else the cause."""
    if subcommand in ("count", "snf"):
        got = answer.get("count")
        return None if got == str(want.count) else f"count {got} != reference {want.count}"
    if not answer.get("agreement"):
        return "methods disagree"
    counts = answer.get("counts", {})
    required = ("formula", "oracle") if want.oracle_required else ("formula",)
    for method in required:
        if method not in counts:
            return f"{method} skipped"
    for method, got in counts.items():
        if got != str(want.count):
            return f"{method} count {got} != reference {want.count}"
    return None
