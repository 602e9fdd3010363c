"""Exception types shared across the library."""

from __future__ import annotations


class CongruenceError(Exception):
    """Base class for all library-specific errors."""


class HypothesisError(CongruenceError):
    """A theorem's hypothesis is violated (e.g. moduli not pairwise coprime,
    or a restriction value that does not divide its modulus)."""


class CapExceededError(CongruenceError):
    """An exhaustive scan would exceed the configured work cap."""


class ExactnessError(CongruenceError):
    """An internal exactness assertion failed (a division that the theory
    guarantees to be exact was not). Indicates an arithmetic bug."""
