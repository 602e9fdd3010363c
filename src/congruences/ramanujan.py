"""Ramanujan sums and the E/J counting functions over Z.

The sums are written once for both rings in `systems`, in integers only (no
complex exponentials anywhere); the functions here are their Z entry points.
"""

from __future__ import annotations

from .intarith import nary_lcm
from .systems import INT, _e_value, _j_value, _ramanujan_divisor_sum, _ramanujan_sum
from .value import Value


def ramanujan_c_sum(m: int, a: int) -> int:
    """C_m(a) by the explicit formula: sum of mu(m/d) * d over d | gcd(a, m)."""
    if m < 1:
        raise ValueError("modulus must be positive")
    return _ramanujan_divisor_sum(INT, m, a)


def ramanujan_c(m: int, a: int) -> int:
    """Ramanujan sum C_m(a), the product over p^s exactly dividing m of its
    local values; the test suite pins its agreement with the divisor sum."""
    if m < 1:
        raise ValueError("modulus must be positive")
    return _ramanujan_sum(INT, m, a)


class MultiIndex(Value):
    """Positive moduli m_1..m_n together with an explicit ambient modulus m.

    The ambient modulus must be a common multiple of the m_i; E and J values
    depend on it, so it is never inferred silently.
    """

    moduli: tuple[int, ...]
    ambient: int

    def __init__(self, moduli, ambient) -> None:
        if not moduli:
            raise ValueError("at least one modulus required")
        if any(m < 1 for m in moduli):
            raise ValueError("moduli must be positive")
        if ambient < 1 or ambient % nary_lcm(moduli):
            raise ValueError("ambient modulus must be a common multiple of the moduli")
        vars(self).update(moduli=moduli, ambient=ambient)


def j_function(b: int, idx: MultiIndex) -> int:
    """J(b; m_1..m_n): product of the m_i over their lcm when (m/lcm) | b, else 0."""
    return _j_value(INT, b, idx.moduli, idx.ambient)


def e_function(b: int, idx: MultiIndex) -> int:
    """E(b; m_1..m_n) via Mobius expansion over divisor tuples of the moduli.

    Equals the character-sum definition but is evaluated entirely in integers:
    sum over d_i | m_i of J(b; d_1..d_n) mu(m_1/d_1) ... mu(m_n/d_n), with the
    same ambient modulus throughout.
    """
    return _e_value(INT, b, idx.moduli, idx.ambient)
