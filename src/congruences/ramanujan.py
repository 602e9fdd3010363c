"""Ramanujan sums, even functions and their divisor-sum transforms.

All character sums are evaluated as integer divisor sums; no complex
exponentials appear anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Mapping

from .errors import ExactnessError
from .intarith import divisors, euler_phi, mobius, nary_lcm


def ramanujan_c_sum(m: int, a: int) -> int:
    """C_m(a) by the explicit formula: sum of mu(m/d) * d over d | gcd(a, m)."""
    if m < 1:
        raise ValueError("modulus must be positive")
    g = math.gcd(a, m)
    return sum(mobius(m // d) * d for d in divisors(g))


def ramanujan_c(m: int, a: int) -> int:
    """Ramanujan sum C_m(a).

    Evaluated through the closed form phi(m) mu(N) / phi(N) with N = m / (a, m);
    the division is exact because phi(N) divides phi(m). Agreement with the
    explicit divisor sum is pinned by the test suite.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    g = math.gcd(a, m)
    n = m // g
    mu = mobius(n)
    if mu == 0:
        return 0
    phi_m = euler_phi(m)
    phi_n = euler_phi(n)
    if phi_m % phi_n:
        raise ExactnessError("phi(N) must divide phi(m)")
    return mu * (phi_m // phi_n)


@dataclass(frozen=True)
class EvenFunctionTable:
    """An r-even function, stored by its values on the divisors of the period."""

    period: int
    values: Mapping[int, int]

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be positive")
        expected = set(divisors(self.period))
        if set(self.values) != expected:
            raise ValueError("values must be keyed by exactly the divisors of the period")

    def __call__(self, b: int) -> int:
        return self.values[math.gcd(b, self.period)]


def even_dft(f: EvenFunctionTable, b: int) -> int:
    """Discrete Fourier transform of an r-even function at b.

    Computed as the divisor sum of f(d) * C_{r/d}(b); exact, no roots of unity.
    """
    r = f.period
    return sum(f.values[d] * ramanujan_c(r // d, b) for d in divisors(r))


@dataclass(frozen=True)
class MultiIndex:
    """Positive moduli m_1..m_n together with an explicit ambient modulus m.

    The ambient modulus must be a common multiple of the m_i; E and J values
    depend on it, so it is never inferred silently.
    """

    moduli: tuple[int, ...]
    ambient: int

    def __post_init__(self) -> None:
        if not self.moduli:
            raise ValueError("at least one modulus required")
        if any(m < 1 for m in self.moduli):
            raise ValueError("moduli must be positive")
        if self.ambient < 1 or self.ambient % nary_lcm(self.moduli):
            raise ValueError("ambient modulus must be a common multiple of the moduli")


def j_function(b: int, idx: MultiIndex) -> int:
    """J(b; m_1..m_n): product of the m_i over their lcm when (m/lcm) | b, else 0."""
    lcm = nary_lcm(idx.moduli)
    if b % (idx.ambient // lcm):
        return 0
    out = 1
    for m_i in idx.moduli:
        out *= m_i
    return out // lcm


def e_function(b: int, idx: MultiIndex) -> int:
    """E(b; m_1..m_n) via Mobius expansion over divisor tuples of the moduli.

    Equals the character-sum definition but is evaluated entirely in integers:
    sum over d_i | m_i of J(b; d_1..d_n) mu(m_1/d_1) ... mu(m_n/d_n), with the
    same ambient modulus throughout.
    """
    total = 0
    divisor_lists = [divisors(m_i) for m_i in idx.moduli]
    for combo in product(*divisor_lists):
        sign = 1
        for m_i, d_i in zip(idx.moduli, combo):
            sign *= mobius(m_i // d_i)
            if sign == 0:
                break
        if sign == 0:
            continue
        total += sign * j_function(b, MultiIndex(combo, idx.ambient))
    return total
