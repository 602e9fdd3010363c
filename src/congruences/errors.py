"""Exception types shared across the library."""

from __future__ import annotations


class CongruenceError(Exception):
    """Base class for all library-specific errors."""


class HypothesisError(CongruenceError):
    """A theorem's hypothesis is violated (e.g. moduli not pairwise coprime,
    or a restriction value that does not divide its modulus)."""


class UnsupportedShapeError(CongruenceError):
    """Kept as a public name only: the library no longer raises it, since the
    invariant-factor count covers every shape of lifted system."""


class CapExceededError(CongruenceError):
    """An exhaustive scan would exceed the configured work cap."""


class ExactnessError(CongruenceError):
    """An internal exactness assertion failed (a division that the theory
    guarantees to be exact was not). Indicates an arithmetic bug."""
