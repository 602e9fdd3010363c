"""Exact integer arithmetic: factorization, divisors, gcd/lcm, Mobius, totient.

Everything works on plain Python ints (arbitrary precision) and never touches
floating point. Factorization is trial division up to 1000 followed by
Pollard rho, with Miller-Rabin primality checks that are deterministic below
3.18 * 10**23 and Baillie-PSW above, so results are reproducible across runs.
Pollard rho works under a step budget, and the primality test takes numbers
of at most 2048 bits, so a number whose factors lie past their reach is a
CapExceededError, not a hang.

Euler phi, Mobius mu and the divisor list are written once (`_phi`, `_mobius`,
`_divisor_list`) over a factorization: the (P, e) pairs of distinct primes P
of Z or of F_p[t], the ring's one and its norm |P| (P, or p^deg(P)).
"""

from __future__ import annotations

import math
import random
from functools import lru_cache, reduce
from typing import Any, Callable, Sequence

from .errors import CapExceededError
from .value import Value

# Trial division stops here, so it alone splits every n up to 10**6; past it
# Pollard rho finds a prime factor p in about sqrt(p) steps, which beat the
# trial steps at every bound tried between 1000 and 10**6.
_TRIAL_LIMIT = 1000
# Pollard rho may take _RHO_STEPS steps on a composite of up to
# _RHO_FULL_BITS bits, enough to split off any prime up to about 10**12 (the
# walk needs about sqrt(p) steps). A step's modular products cost about the
# square of the size, so a larger composite gets that many fewer steps.
_RHO_STEPS = 2**23
_RHO_FULL_BITS = 256

# The first 12 primes as Miller-Rabin witnesses decide primality for every
# n below psi_12 = 318665857834031151167461, the least strong pseudoprime to
# all of them; above it a strong Lucas test completes Baillie-PSW.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 318665857834031151167461
# Largest size the test takes on. A prime of 2048 bits takes about half a
# second (12 Miller-Rabin rounds and a Lucas test), and the cost grows faster
# than the square of the size.
_PRIME_BITS = 2048


class FactoredInteger(Value):
    """A positive integer with its canonical prime factorization.

    factors is a tuple of (prime, exponent) pairs with strictly increasing
    primes and exponents >= 1; the empty tuple represents 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __init__(self, value, factors) -> None:
        if value < 1:
            raise ValueError("value must be a positive integer")
        previous = 1
        product = 1
        for prime, exponent in factors:
            if prime <= previous:
                raise ValueError("primes must be strictly increasing")
            if exponent < 1:
                raise ValueError("exponents must be at least 1")
            previous = prime
            product *= prime**exponent
        if product != value:
            raise ValueError("factorization does not multiply back to value")
        vars(self).update(value=value, factors=factors)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the first 12 prime bases, deterministic below psi_12;
    from psi_12 on, also the strong Lucas test, so it is then at least the
    Baillie-PSW test, which no composite is known to pass. Past _PRIME_BITS
    bits, n with no prime factor up to 37 is a CapExceededError."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n.bit_length() > _PRIME_BITS:
        raise CapExceededError(
            f"a primality test on a {n.bit_length()}-bit number exceeds the limit"
            f" of {_PRIME_BITS} bits"
        )
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_DETERMINISTIC_BOUND or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd n >= 1."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (Baillie-Wagstaff 1980)
    for odd n > 37 with no prime factor up to 37.

    D is the first of 5, -7, 9, -11, ... with (D / n) = -1, P = 1 and
    Q = (1 - D) / 4. With n + 1 = d * 2^s, d odd, n passes when U_d = 0 or
    V_(d 2^r) = 0 (mod n) for some 0 <= r < s.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D / n) = -1 exists for a square
    d_param = 5
    while True:
        jacobi = _jacobi(d_param, n)
        if jacobi == -1:
            break
        if jacobi == 0:
            return False  # gcd(D, n) > 1 and n > |D|
        d_param = -d_param - 2 if d_param > 0 else -d_param + 2
    q = (1 - d_param) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n, from k = 1 up the binary digits of d.
    u, v, q_k = 1, 1, q % n
    for bit in bin(d)[3:]:
        u, v, q_k = u * v % n, (v * v - 2 * q_k) % n, q_k * q_k % n
        if bit == "1":
            u, v = u + v, d_param * u + v  # twice U_(k+1), V_(k+1) for P = 1
            u = (u + n if u % 2 else u) // 2 % n
            v = (v + n if v % 2 else v) // 2 % n
            q_k = q_k * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * q_k) % n
        if v == 0:
            return True
        q_k = q_k * q_k % n
    return False


def _pollard_rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant), or
    CapExceededError once the step budget for n's size is spent."""
    budget = _RHO_STEPS * _RHO_FULL_BITS**2 // max(n.bit_length(), _RHO_FULL_BITS) ** 2
    steps = budget
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if 2 * r > steps:
                raise CapExceededError(
                    f"factoring a {len(str(n))}-digit composite exceeds the budget "
                    f"of {budget} Pollard rho steps"
                )
            steps -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=65536)
def factorize(n: int) -> FactoredInteger:
    """Factor a positive integer into primes."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    remaining = n
    counts: dict[int, int] = {}
    for p in (2, 3, 5):
        while remaining % p == 0:
            counts[p] = counts.get(p, 0) + 1
            remaining //= p
    # 2/3/5 wheel for the rest of the trial range.
    offsets = (4, 2, 4, 2, 4, 6, 2, 6)
    p, i = 7, 0
    while p <= _TRIAL_LIMIT and p * p <= remaining:
        while remaining % p == 0:
            counts[p] = counts.get(p, 0) + 1
            remaining //= p
        p += offsets[i]
        i = (i + 1) % 8
    if remaining > 1:
        stack = [remaining]
        rng = random.Random(0x5EED ^ n)
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if is_probable_prime(m):
                counts[m] = counts.get(m, 0) + 1
                continue
            d = _pollard_rho(m, rng)
            stack.append(d)
            stack.append(m // d)
    return FactoredInteger(n, tuple(sorted(counts.items())))


def nary_gcd(values: Sequence[int]) -> int:
    """gcd of one or more integers; nonnegative, gcd(0, ..., 0) = 0."""
    if not values:
        raise ValueError("nary_gcd needs at least one value")
    return reduce(math.gcd, values)


def nary_lcm(values: Sequence[int]) -> int:
    """lcm of one or more positive integers."""
    if not values:
        raise ValueError("nary_lcm needs at least one value")
    if any(v < 1 for v in values):
        raise ValueError("nary_lcm expects positive integers")
    return reduce(math.lcm, values)


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors, ascending."""
    return _divisor_list(factorize(n).factors, 1, None)


def mobius(n: int) -> int:
    """Mobius function of a positive integer."""
    return _mobius(factorize(n).factors)


def euler_phi(n: int) -> int:
    """Euler totient of a positive integer."""
    return _phi(factorize(n).factors, int)


def _phi(factors: Sequence[tuple[Any, int]], norm: Callable[[Any], int]) -> int:
    """phi: the product of |P|^(e-1) (|P| - 1) over the pairs."""
    out = 1
    for prime, exponent in factors:
        size = norm(prime)
        out *= size ** (exponent - 1) * (size - 1)
    return out


def _mobius(factors: Sequence[tuple[Any, int]]) -> int:
    """mu: (-1)^(number of pairs) when every exponent is 1, else 0."""
    if any(e >= 2 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def _divisor_list(factors: Sequence[tuple[Any, int]], one: Any, sort_key: Callable | None) -> tuple:
    """The normal divisors, the products of P^f, 0 <= f <= e, sorted by sort_key."""
    out = [one]
    for prime, exponent in factors:
        powers = [one]
        for _ in range(exponent):
            powers.append(powers[-1] * prime)
        out = [d * q for d in out for q in powers]
    return tuple(sorted(out, key=sort_key))
