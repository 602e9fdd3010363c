"""Count reports: an exact solution count plus derivation metadata."""

from __future__ import annotations

from typing import Any, Mapping

from .value import Value


class CountReport(Value):
    """Result of a counting formula.

    count is an exact nonnegative integer, solvable mirrors count > 0, theorem
    names the formula used, and details holds the named intermediates the
    formula produced (gcds, crt residue, ...); it defaults to a new empty
    dict. A restricted count's divisor table is a `systems.DivisorTable`, a
    read-only sequence of row dicts.
    """

    count: int
    solvable: bool
    theorem: str
    details: Mapping[str, Any]

    def __init__(self, count, solvable, theorem, details=None) -> None:
        if count < 0:
            raise ValueError("count must be nonnegative")
        if solvable != (count > 0):
            raise ValueError("solvable flag must equal count > 0")
        if details is None:
            details = {}
        vars(self).update(count=count, solvable=solvable, theorem=theorem, details=details)
