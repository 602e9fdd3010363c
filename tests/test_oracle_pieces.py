"""The oracle's count by coprime pieces of the lcm against the whole scan.

`systems.oracle_count` multiplies whole scans modulo pairwise coprime pieces
q of the lcm of the moduli. Each random system here is also scanned whole by
`ring.oracle`, and the two counts must agree: over Z and over GF(2), GF(3)
and GF(5), with non-coprime moduli, restricted and unrestricted tables,
unsolvable systems, n = 1..3 and rows coprime to a piece.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

from congruences.cli import run_cli
from congruences.errors import CapExceededError, HypothesisError
from congruences.ffsystems import PolyCongruenceSystem, PolyRestrictionTable
from congruences.gfpoly import GFPolynomial, PrimeField, poly_gcd, poly_lcm_many
from congruences.systems import (
    CongruenceSystem,
    RestrictionTable,
    _coprime_pieces,
    oracle_count,
)

SAMPLES_DIR = Path(__file__).resolve().parent.parent / "samples"

# Most tuples in the whole scan of one random system. The F_p[t] whole scan
# first builds its tables with one Python polynomial product per residue,
# coefficient and restriction, so its systems are kept smaller.
_WHOLE_SCAN_LIMIT = 20000
_WHOLE_POLY_SCAN_LIMIT = 4000


def _int_system(rng: random.Random):
    """Moduli drawn independently, so often not coprime. Half the systems
    have a planted solution x0, and half of their restrictions are its gcds."""
    n = rng.choice([1, 2, 3])
    k = rng.choice([1, 2, 3])
    while True:
        moduli = tuple(rng.randrange(2, 50) for _ in range(k))
        if math.lcm(*moduli) ** n <= _WHOLE_SCAN_LIMIT:
            break
    coefficients = tuple(tuple(rng.randrange(-m, 2 * m) for _ in range(n)) for m in moduli)
    x0 = [rng.randrange(math.lcm(*moduli)) for _ in range(n)]
    if rng.random() < 0.5:
        rhs = tuple(sum(a * x for a, x in zip(row, x0)) for row in coefficients)
    else:
        rhs = tuple(rng.randrange(-m, 2 * m) for m in moduli)
    table = None
    if rng.random() < 0.6:
        table = RestrictionTable(tuple(
            tuple(
                math.gcd(x, m) if rng.random() < 0.5
                else rng.choice([d for d in range(1, m + 1) if m % d == 0])
                for x in x0
            )
            for m in moduli
        ))
    return CongruenceSystem(coefficients, moduli, rhs), table


def _poly(rng: random.Random, field: PrimeField, degree: int, monic: bool = False):
    top = 1 if monic else rng.randrange(1, field.p)
    return GFPolynomial.from_coeffs(field, [rng.randrange(field.p) for _ in range(degree)] + [top])


def _poly_system(rng: random.Random, p: int):
    """As `_int_system` over F_p[t]; moduli are often products of a shared
    factor with another, so that they are not coprime."""
    field = PrimeField(p)
    n = rng.choice([1, 2, 3])
    k = rng.choice([1, 2, 3])
    while True:
        shared = _poly(rng, field, rng.randrange(1, 3), monic=True)
        moduli = tuple(
            shared * _poly(rng, field, rng.randrange(0, 2)) if rng.random() < 0.5
            else _poly(rng, field, rng.randrange(1, 4))
            for _ in range(k)
        )
        if poly_lcm_many(moduli).norm() ** n <= _WHOLE_POLY_SCAN_LIMIT:
            break
    coefficients = tuple(
        tuple(_poly(rng, field, rng.randrange(0, h.degree + 1)) for _ in range(n)) for h in moduli
    )
    x0 = [_poly(rng, field, rng.randrange(0, 4)) for _ in range(n)]
    if rng.random() < 0.5:
        rhs = tuple(
            sum((a * x for a, x in zip(row, x0)), GFPolynomial.zero(field)) for row in coefficients
        )
    else:
        rhs = tuple(_poly(rng, field, h.degree) for h in moduli)
    table = None
    if rng.random() < 0.6:
        table = PolyRestrictionTable(tuple(
            tuple(poly_gcd(x if rng.random() < 0.5 else _poly(rng, field, 2), h) for x in x0)
            for h in moduli
        ))
    return PolyCongruenceSystem(field, coefficients, moduli, rhs), table


def _check_against_whole_scan(systems) -> set[str]:
    """Assert that the pieces give the whole scan's count on every system,
    and return the kinds of system that were seen."""
    seen = set()
    for system, table in systems:
        ring = system.ring
        want, _ = ring.oracle(system, table, 10**8)
        assert oracle_count(system, table) == want, (system, table)
        pieces = _coprime_pieces(ring, ring.lcm(system.moduli), 10**8)
        seen.add(f"n={system.n}")
        seen.add("restricted" if table is not None else "unrestricted")
        seen.add("solvable" if want else "unsolvable")
        if any(ring.gcd(a, b) != ring.one for i, a in enumerate(system.moduli)
               for b in system.moduli[i + 1:]):
            seen.add("non-coprime")
        if len(pieces) > 1 and any(
            ring.gcd(m, q) == ring.one for q in pieces for m in system.moduli
        ):
            seen.add("row coprime to a piece")
    return seen


_KINDS = {
    "n=1", "n=2", "n=3", "restricted", "unrestricted", "solvable", "unsolvable",
    "non-coprime", "row coprime to a piece",
}


def test_pieces_match_whole_scan_over_z():
    rng = random.Random(20261019)
    seen = _check_against_whole_scan(_int_system(rng) for _ in range(300))
    assert seen == _KINDS


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pieces_match_whole_scan_over_fp(p):
    rng = random.Random(f"pieces over GF({p})")
    seen = _check_against_whole_scan(_poly_system(rng, p) for _ in range(150))
    assert seen == _KINDS


def test_row_coprime_to_a_piece():
    # Piece 4 drops the mod 9 row and piece 9 the mod 4 row; the mod 6 row
    # is read mod 2 on one piece and mod 3 on the other.
    system = CongruenceSystem(((1, 0), (2, 1), (1, 1)), (4, 9, 6), (1, 3, 4))
    assert _coprime_pieces(system.ring, 36, 10**8) == [4, 9]
    want, _ = system.ring.oracle(system, None, 10**8)
    assert oracle_count(system, None) == want


def test_table_is_checked_against_the_whole_system():
    # gcd(4, 2) | 2 and gcd(4, 3) | 3, but 4 does not divide 6.
    system = CongruenceSystem(((1,),), (6,), (1,))
    table = RestrictionTable(((4,),))
    with pytest.raises(HypothesisError, match="restriction value 4 does not divide modulus 6"):
        oracle_count(system, table)
    field = PrimeField(2)
    t = GFPolynomial.indeterminate(field)
    one = GFPolynomial.one(field)
    system = PolyCongruenceSystem(field, ((one,),), (t * (t + one),), (one,))
    with pytest.raises(HypothesisError, match="does not divide"):
        oracle_count(system, PolyRestrictionTable(((t * t,),)))


def test_cap_applies_to_the_sum_over_pieces_before_the_table_check():
    system = CongruenceSystem(((1, 1),), (6,), (1,))
    table = RestrictionTable(((4, 1),))
    # 2^2 + 3^2 tuples: a cap error at cap 12, then the hypothesis error at 13.
    with pytest.raises(CapExceededError, match="scan of 13 tuples exceeds cap 12"):
        oracle_count(system, table, cap=12)
    with pytest.raises(HypothesisError):
        oracle_count(system, table, cap=13)
    assert oracle_count(system, None, cap=13) == 6


def test_pieces_only_below_the_cap():
    # |L| past the cap leaves L whole, so it is never factored.
    assert _coprime_pieces(CongruenceSystem.ring, 6, 5) == [6]
    assert _coprime_pieces(CongruenceSystem.ring, 6, 6) == [2, 3]


def _run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("path", sorted(SAMPLES_DIR.glob("*.cong")), ids=lambda p: p.stem)
def test_enumerate_count_matches_list(capsys, path):
    code, out, err = _run(capsys, "enumerate", str(path))
    assert code == 0, err
    count = json.loads(out)["count"]
    code, out, err = _run(capsys, "enumerate", "--list", str(path))
    if code == 0:
        assert json.loads(out)["count"] == count
    else:
        # The whole scan is over the cap; the formula must agree instead.
        assert (code, out) == (2, "") and "exceeds cap" in err
        code, out, err = _run(capsys, "count", str(path))
        assert json.loads(out)["count"] == count


def test_cap_message_gives_the_sum_over_pieces(capsys, tmp_path):
    path = tmp_path / "wide.cong"
    terms = " + ".join(f"x{j}" for j in range(1, 202))
    path.write_text(f"mod 6: {terms} = 1\n")  # 2^201 + 3^201 tuples
    code, out, err = _run(capsys, "verify", str(path))
    assert code == 0, err
    assert json.loads(out)["methods"]["oracle"] == {
        "skipped": "scan of about 10^95.9 tuples exceeds cap 100000000"
    }


@pytest.mark.parametrize("text", [
    # lcm 12 (10^30 + 57)(10^30 + 91), a 62-digit number with a 60-digit semiprime cofactor
    f"mod {6 * (10**30 + 57) * (10**30 + 91)}: x1 + x2 = 1\nmod 4: x1 = 1\n",
    "field GF(2)\nmod t^20000: x1 + x2 = 1\n",
], ids=["semiprime", "t^20000"])
def test_hostile_lcm_is_not_factored(capsys, tmp_path, text):
    path = tmp_path / "hostile.cong"
    path.write_text(text)
    start = time.perf_counter()
    code, out, err = _run(capsys, "verify", str(path))
    assert time.perf_counter() - start < 2
    assert code == 0, err
    assert "exceeds cap" in json.loads(out)["methods"]["oracle"]["skipped"]
