"""Count reports: an exact solution count plus derivation metadata."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass(frozen=True)
class CountReport:
    """Result of a counting formula.

    count is an exact nonnegative integer, solvable mirrors count > 0, theorem
    names the formula used, and details holds the named intermediates the
    formula produced (gcds, crt residue, ...). A restricted count's divisor
    table is a `systems.DivisorTable`, a read-only sequence of row dicts.
    """

    count: int
    solvable: bool
    theorem: str
    details: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        if self.solvable != (self.count > 0):
            raise ValueError("solvable flag must equal count > 0")
