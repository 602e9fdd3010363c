"""Polynomials over prime fields F_p: arithmetic, gcd, factorization, divisors.

Coefficients are stored ascending, reduced into [0, p), with no trailing
zeros. Factorization is squarefree decomposition, distinct-degree splitting,
then equal-degree splitting with a fixed seed, so repeated runs agree.

Ring operations work on bare coefficient tuples (the `_add` ... `_gcd` kernel
below) and wrap each result once with `_trusted`, which skips the checks that
public construction makes: a result of ring arithmetic is reduced and trimmed
by construction.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

from .intarith import _divisor_list, _mobius, _phi, is_probable_prime
from .value import Value

_SPLITTING_SEED = 0x5EED
# Bounded so that memory stays flat over a long stream of distinct moduli.
_FACTOR_CACHE_SIZE = 1024

Coeffs = tuple[int, ...]


class PrimeField(Value):
    """The field F_p for a prime p."""

    p: int

    def __init__(self, p) -> None:
        if p < 2 or not is_probable_prime(p):
            raise ValueError("field order must be a prime number")
        vars(self).update(p=p)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.p == other.p  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self.p)

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("no inverse of 0")
        return pow(a, self.p - 2, self.p)


def _trim(coeffs: list[int]) -> Coeffs:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _add(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _trim(out)


def _sub(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _mul(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    # The leading coefficient is a product of two nonzero field elements.
    return tuple([c % p for c in out])


def _divmod(a: Coeffs, b: Coeffs, p: int) -> tuple[Coeffs, Coeffs]:
    """Quotient and remainder of a by a nonzero b."""
    top = len(b) - 1
    if len(a) <= top:
        return (), a
    lead = b[-1]
    inv = 1 if lead == 1 else pow(lead, p - 2, p)
    low = b[:-1]
    rem = list(a)
    quo = [0] * (len(a) - top)
    for shift in range(len(a) - 1 - top, -1, -1):
        factor = rem[shift + top] * inv % p
        if factor:
            quo[shift] = factor
            for i, c in enumerate(low, shift):
                rem[i] -= factor * c
    # quo[-1] is a[-1] / b[-1], nonzero; rem is reduced only at the end.
    return tuple(quo), _trim([c % p for c in rem[:top]])


def _rem(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    """Remainder of a by a nonzero b."""
    if len(b) == 2 and len(a) > 1:
        # Division by a linear b: the remainder is a evaluated at b's root.
        root = -b[0] * pow(b[1], p - 2, p) % p
        value = 0
        for c in reversed(a):
            value = (value * root + c) % p
        return (value,) if value else ()
    return _divmod(a, b, p)[1]


def _monic(a: Coeffs, p: int) -> Coeffs:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], p - 2, p)
    return tuple(c * inv % p for c in a)


def _gcd(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    """Monic gcd; gcd(0, 0) = 0."""
    while len(b) > 1:
        a, b = b, _rem(a, b, p)
    # A nonzero constant b is a unit, so the gcd is 1.
    return (1,) if b else _monic(a, p)


class GFPolynomial(Value):
    """A polynomial over a prime field, coefficients ascending by power of t."""

    __slots__ = ("field", "coefficients")
    field: PrimeField
    coefficients: tuple[int, ...]

    def __init__(self, field, coefficients) -> None:
        p = field.p
        if any(not 0 <= c < p for c in coefficients):
            raise ValueError("coefficients must be reduced into [0, p)")
        if coefficients and coefficients[-1] == 0:
            raise ValueError("no trailing zero coefficients allowed")
        _set_field(self, field)
        _set_coefficients(self, coefficients)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        field = self.field
        return self.coefficients == other.coefficients and (  # type: ignore[attr-defined]
            other.field is field or other.field == field  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.coefficients))

    @classmethod
    def from_coeffs(cls, field: PrimeField, coeffs: Iterable[int]) -> GFPolynomial:
        return cls(field, _trim([c % field.p for c in coeffs]))

    @classmethod
    def zero(cls, field: PrimeField) -> GFPolynomial:
        return _trusted(field, ())

    @classmethod
    def one(cls, field: PrimeField) -> GFPolynomial:
        return _trusted(field, (1,))

    @classmethod
    def constant(cls, field: PrimeField, c: int) -> GFPolynomial:
        return cls.from_coeffs(field, (c,))

    @classmethod
    def indeterminate(cls, field: PrimeField) -> GFPolynomial:
        return _trusted(field, (0, 1))

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is reported as -1
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def lc(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def norm(self) -> int:
        """p ** degree: the number of residues modulo this polynomial."""
        if self.is_zero:
            raise ValueError("zero polynomial has no norm")
        return self.field.p**self.degree

    def monic(self) -> GFPolynomial:
        c = self.coefficients
        if not c or c[-1] == 1:
            return self
        return _trusted(self.field, _monic(c, self.field.p))

    def scale(self, c: int) -> GFPolynomial:
        p = self.field.p
        return _trusted(self.field, _trim([x * c % p for x in self.coefficients]))

    def derivative(self) -> GFPolynomial:
        p = self.field.p
        return _trusted(
            self.field, _trim([i * c % p for i, c in enumerate(self.coefficients)][1:])
        )

    def _check_field(self, other: GFPolynomial) -> PrimeField:
        field = self.field
        if other.field is not field and other.field != field:
            raise ValueError("mixed fields")
        return field

    def __add__(self, other: GFPolynomial) -> GFPolynomial:
        field = self._check_field(other)
        return _trusted(field, _add(self.coefficients, other.coefficients, field.p))

    def __neg__(self) -> GFPolynomial:
        p = self.field.p
        return _trusted(self.field, tuple(-c % p for c in self.coefficients))

    def __sub__(self, other: GFPolynomial) -> GFPolynomial:
        field = self._check_field(other)
        return _trusted(field, _sub(self.coefficients, other.coefficients, field.p))

    def __mul__(self, other: GFPolynomial) -> GFPolynomial:
        field = self._check_field(other)
        return _trusted(field, _mul(self.coefficients, other.coefficients, field.p))

    def __divmod__(self, other: GFPolynomial) -> tuple[GFPolynomial, GFPolynomial]:
        field = self._check_field(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = _divmod(self.coefficients, other.coefficients, field.p)
        return _trusted(field, quo), _trusted(field, rem)

    def __mod__(self, other: GFPolynomial) -> GFPolynomial:
        return divmod(self, other)[1]

    def __floordiv__(self, other: GFPolynomial) -> GFPolynomial:
        return divmod(self, other)[0]

    def divides(self, other: GFPolynomial) -> bool:
        if self.is_zero:
            return other.is_zero
        field = self._check_field(other)
        return not _divmod(other.coefficients, self.coefficients, field.p)[1]

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """(degree, ascending coefficient tuple): the canonical divisor order."""
        return (self.degree, self.coefficients)


_set_field = GFPolynomial.field.__set__
_set_coefficients = GFPolynomial.coefficients.__set__


def _trusted(field: PrimeField, coefficients: Coeffs) -> GFPolynomial:
    """A polynomial from coefficients already reduced into [0, p) and trimmed.

    For results of ring operations only: unlike GFPolynomial(...) it checks
    nothing.
    """
    poly = object.__new__(GFPolynomial)
    _set_field(poly, field)
    _set_coefficients(poly, coefficients)
    return poly


def poly_gcd(a: GFPolynomial, b: GFPolynomial) -> GFPolynomial:
    """Monic gcd; gcd(0, 0) = 0."""
    field = a._check_field(b)
    return _trusted(field, _gcd(a.coefficients, b.coefficients, field.p))


def poly_ext_gcd(
    a: GFPolynomial, b: GFPolynomial
) -> tuple[GFPolynomial, GFPolynomial, GFPolynomial]:
    """(g, s, t) with s*a + t*b = g and g the monic gcd."""
    field = a.field
    one = GFPolynomial.one(field)
    zero = GFPolynomial.zero(field)
    r0, r1 = a, b
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    inv = field.inv(r0.lc)
    return r0.monic(), s0.scale(inv), t0.scale(inv)


def poly_lcm(a: GFPolynomial, b: GFPolynomial) -> GFPolynomial:
    if a.is_zero or b.is_zero:
        return GFPolynomial.zero(a.field)
    return ((a * b) // poly_gcd(a, b)).monic()


def poly_lcm_many(values: Sequence[GFPolynomial]) -> GFPolynomial:
    if not values:
        raise ValueError("poly_lcm_many needs at least one value")
    out = values[0]
    for v in values[1:]:
        out = poly_lcm(out, v)
    return out.monic()


def pow_mod(base: GFPolynomial, exponent: int, modulus: GFPolynomial) -> GFPolynomial:
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    result = GFPolynomial.one(base.field)
    base = base % modulus
    while exponent:
        if exponent & 1:
            result = result * base % modulus
        base = base * base % modulus
        exponent >>= 1
    return result


class FactoredPolynomial(Value):
    """value = unit * product of monic irreducible factors ** exponents."""

    value: GFPolynomial
    unit: int
    factors: tuple[tuple[GFPolynomial, int], ...]

    def __init__(self, value, unit, factors) -> None:
        field = value.field
        if not 1 <= unit < field.p:
            raise ValueError("unit must be a nonzero field element")
        check = GFPolynomial.constant(field, unit)
        previous = None
        for poly, exponent in factors:
            if exponent < 1:
                raise ValueError("exponents must be at least 1")
            if poly.is_zero or poly.lc != 1 or poly.degree < 1:
                raise ValueError("factors must be monic and non-constant")
            key = poly.sort_key()
            if previous is not None and key <= previous:
                raise ValueError("factors must be sorted and distinct")
            previous = key
            for _ in range(exponent):
                check = check * poly
        if check != value:
            raise ValueError("factorization does not multiply back to value")
        vars(self).update(value=value, unit=unit, factors=factors)


def _pth_root(f: GFPolynomial) -> GFPolynomial:
    # Frobenius fixes F_p, so only the exponents are divided by p.
    return _trusted(f.field, _trim(list(f.coefficients[:: f.field.p])))


def _squarefree_parts(f: GFPolynomial) -> list[tuple[GFPolynomial, int]]:
    """f monic -> [(g, e)] with f = prod g**e, g squarefree pairwise coprime."""
    p = f.field.p
    if f.degree <= 0:
        return []
    d = f.derivative()
    if d.is_zero:
        return [(g, e * p) for g, e in _squarefree_parts(_pth_root(f))]
    out: list[tuple[GFPolynomial, int]] = []
    c = poly_gcd(f, d)
    w = f // c
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        out.extend((g, e * p) for g, e in _squarefree_parts(_pth_root(c)))
    return out


def _distinct_degree(f: GFPolynomial) -> list[tuple[GFPolynomial, int]]:
    """f monic squarefree -> [(product of degree-d irreducible factors, d)]."""
    p = f.field.p
    x = GFPolynomial.indeterminate(f.field)
    out = []
    g = f
    h = x % g
    d = 0
    while g.degree > 0 and 2 * (d + 1) <= g.degree:
        d += 1
        h = pow_mod(h, p, g)
        gd = poly_gcd(h - x, g)
        if gd.degree > 0:
            out.append((gd, d))
            g = g // gd
            h = h % g
    if g.degree > 0:
        out.append((g, g.degree))
    return out


def _random_poly(field: PrimeField, degree: int, rng: random.Random) -> GFPolynomial:
    coeffs = [rng.randrange(field.p) for _ in range(degree)]
    coeffs.append(rng.randrange(1, field.p))
    return GFPolynomial.from_coeffs(field, coeffs)


def _equal_degree(f: GFPolynomial, d: int, rng: random.Random) -> list[GFPolynomial]:
    """f monic squarefree, all irreducible factors of degree d -> those factors."""
    p = f.field.p
    if f.degree == d:
        return [f]
    one = GFPolynomial.one(f.field)
    while True:
        u = _random_poly(f.field, rng.randrange(1, f.degree), rng)
        g = poly_gcd(u, f)
        if 0 < g.degree < f.degree:
            break
        if p == 2:
            w = GFPolynomial.zero(f.field)
            v = u % f
            for _ in range(d):
                w = (w + v) % f
                v = v * v % f
            g = poly_gcd(w, f)
        else:
            w = pow_mod(u, (p**d - 1) // 2, f)
            g = poly_gcd(w - one, f)
        if 0 < g.degree < f.degree:
            break
    return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


@lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def factorize_poly(h: GFPolynomial) -> FactoredPolynomial:
    """Factor a nonzero polynomial into monic irreducibles times a unit.

    Memoised: the counting formulas factor the same divisors of one modulus
    many times.
    """
    if h.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    unit = h.lc
    monic = h.monic()
    rng = random.Random(_SPLITTING_SEED)
    counts: dict[GFPolynomial, int] = {}
    for squarefree, multiplicity in _squarefree_parts(monic):
        for part, degree in _distinct_degree(squarefree):
            for irreducible in _equal_degree(part, degree, rng):
                counts[irreducible] = counts.get(irreducible, 0) + multiplicity
    factors = tuple(sorted(counts.items(), key=lambda kv: kv[0].sort_key()))
    return FactoredPolynomial(value=h, unit=unit, factors=factors)


def monic_divisors(h: GFPolynomial) -> tuple[GFPolynomial, ...]:
    """All monic divisors, ordered by (degree, coefficient tuple)."""
    if h.is_zero:
        raise ValueError("zero polynomial has no divisor list")
    one = GFPolynomial.one(h.field)
    return _divisor_list(factorize_poly(h).factors, one, GFPolynomial.sort_key)


def mobius_poly(h: GFPolynomial) -> int:
    """Mobius function on F_p[t]: (-1)^(number of irreducible factors) on
    squarefree polynomials, 0 otherwise; 1 on units and 0 on the zero input."""
    if h.is_zero:
        return 0
    return _mobius(factorize_poly(h).factors)


def phi_poly(h: GFPolynomial) -> int:
    """Totient on F_p[t]: units coprime to h among residues modulo h.

    Evaluated by the product of |P|^(e-1) * (|P| - 1) over the factorization
    h = unit * prod P^e; phi(0) = 0 and phi(unit) = 1 by convention.
    """
    if h.is_zero:
        return 0
    return _phi(factorize_poly(h).factors, GFPolynomial.norm)


def residues(field: PrimeField, degree_bound: int) -> list[GFPolynomial]:
    """All polynomials of degree < degree_bound, in base-p counting order."""
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    # reversed so index c maps to digits of c base p: coeff of t^i is
    # (c // p**i) % p
    return [
        _trusted(field, _trim(list(reversed(combo))))
        for combo in product(range(field.p), repeat=degree_bound)
    ]


def format_poly(poly: GFPolynomial) -> str:
    """Canonical text: descending powers, zero terms omitted, '0' for zero."""
    if poly.is_zero:
        return "0"
    parts = []
    for k in range(poly.degree, -1, -1):
        c = poly.coefficients[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{k}" if c == 1 else f"{c}*t^{k}")
    return " + ".join(parts)
