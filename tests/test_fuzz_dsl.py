"""Fuzzing of the text format: small documents generated as text, over Z and
over GF(2)/GF(3), with varied spellings (unreduced and negated coefficients,
leading zeros in variable names, comments, spacing).

Every document must parse, reprint through `format_document` to an equal
document, and get a count or a hypothesis error (exit 2) from `count`; when
the residue tuples number at most 10^4, `count` must equal the oracle.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from congruences import (
    GFPolynomial,
    PrimeField,
    format_document,
    monic_divisors,
    parse_poly,
    parse_system,
)
from congruences.cli import run_cli

ORACLE_TUPLES = 10**4


def cli(path: Path, *argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli([*argv, str(path)])
    return code, out.getvalue(), err.getvalue()


@st.composite
def int_literal(draw, value: int, modulus: int) -> str:
    """value, sometimes plus a multiple of the modulus."""
    return str(value + modulus * draw(st.integers(0, 2)))


@st.composite
def poly_text(draw, coeffs: tuple[int, ...], p: int) -> str:
    """A sum of atoms c, t, c*t^k, t^k equal to the polynomial with ascending
    coefficients coeffs, atoms in any order, some subtracted."""
    atoms = [(k, c) for k, c in enumerate(coeffs) if c]
    if not atoms:
        return draw(st.sampled_from(["0", str(p), f"0*t^{draw(st.integers(1, 3))}"]))
    atoms = draw(st.permutations(atoms))
    out = []
    for i, (k, c) in enumerate(atoms):
        minus = draw(st.booleans())
        shown = (p - c) % p if minus else c
        shown += p * draw(st.integers(0, 1))
        power = "" if k == 0 else ("t" if k == 1 and draw(st.booleans()) else f"t^{k}")
        if not power:
            atom = str(shown)
        elif shown == 1 and draw(st.booleans()):
            atom = power
        else:
            atom = f"{shown}*{power}"
        sign = ("-" if minus else "") if i == 0 else (" - " if minus else " + ")
        out.append(sign + atom)
    return "".join(out)


@st.composite
def documents(draw) -> tuple[str, int | None]:
    """Document text and its field order (None over Z)."""
    p = draw(st.sampled_from([None, 2, 3]))
    k = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3))
    field = PrimeField(p) if p else None

    def element(max_degree: int) -> tuple[int, ...]:
        return tuple(draw(st.lists(st.integers(0, p - 1), max_size=max_degree + 1)))

    if p is None:
        moduli = [draw(st.integers(2, 30)) for _ in range(k)]
        texts = [str(m) for m in moduli]
    else:
        moduli, texts = [], []
        for _ in range(k):
            tail = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3))
            coeffs = (*tail, draw(st.integers(1, p - 1)))
            moduli.append(GFPolynomial.from_coeffs(field, coeffs))
            texts.append(draw(poly_text(coeffs, p)))

    def value(m, signed: bool) -> str:
        if p is None:
            v = draw(st.integers(-40 if signed else 0, 40))
            return str(v) if v < 0 else draw(int_literal(v, m))
        return draw(poly_text(element(m.degree + 1), p))

    lines = [f"field GF( {p} )" if draw(st.booleans()) else f"field GF({p})"] if p else []
    used: list[int] = []
    for m, m_text in zip(moduli, texts):
        row = draw(st.lists(st.integers(1, n), min_size=1, max_size=n + 1))
        used.extend(row)
        terms = []
        for i, j in enumerate(row):
            name = f"x{'0' * draw(st.integers(0, 1))}{j}"
            minus = draw(st.booleans())
            sign = ("-" if minus else "") if i == 0 else (" - " if minus else " + ")
            coeff = value(m, signed=False)
            if p is not None and ("+" in coeff or "-" in coeff):
                coeff = f"({coeff})"
            terms.append(sign + (name if draw(st.booleans()) else f"{coeff}*{name}"))
        comment = draw(st.sampled_from(["", "  # row", "\t#"]))
        lines.append(f"mod {m_text}: {''.join(terms)} = {value(m, signed=True)}{comment}")

    if draw(st.booleans()):
        seen = set()
        for m, m_text in zip(moduli, texts):
            key = m if p is None else m.monic()
            if key in seen:
                continue
            seen.add(key)
            divisors = (
                [d for d in range(1, m + 1) if m % d == 0] if p is None else monic_divisors(m)
            )
            for j in sorted(set(used)):
                t = draw(st.sampled_from(divisors))
                t_text = str(t) if p is None else draw(poly_text(t.coefficients, p))
                lines.append(f"gcd(x{j}, {m_text}) = {t_text}")
    return "\n".join(lines) + "\n", p


@given(documents())
@settings(max_examples=150, deadline=None)
def test_generated_documents_round_trip_and_match_the_oracle(case):
    text, p = case
    doc = parse_system(text)
    assert parse_system(format_document(doc)) == doc
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cong"
        path.write_text(text)
        code, out, err = cli(path, "count")
        assert code in (0, 2), err
        if code == 2:
            assert out == "" and err.startswith("error: ")
            return
        # count succeeded, so the moduli are pairwise coprime.
        norm = math.prod(
            line.modulus if p is None else p**line.modulus.degree for line in doc.congruences
        )
        if norm ** len(doc.variables) <= ORACLE_TUPLES:
            code, oracle_out, err = cli(path, "enumerate")
            assert code == 0, err
            assert json.loads(out)["count"] == json.loads(oracle_out)["count"], text


_SPACE = st.sampled_from(["", " ", "\t", "  "])


@st.composite
def linear_forms(draw) -> tuple[str, int, dict[int, int]]:
    """A congruence "mod m: form = 0" whose form repeats variables, spelled
    with or without leading zeros, with either sign and any spacing; with m
    and the sum of each variable index's signed coefficients."""
    m = draw(st.integers(2, 10**12))
    sums: dict[int, int] = {}
    form = ""
    for i in range(draw(st.integers(1, 12))):
        minus = draw(st.booleans())
        if i or minus:
            form += draw(_SPACE) + ("-" if minus else "+") + draw(_SPACE)
        j = draw(st.integers(1, 6))
        name = f"x{'0' * draw(st.integers(0, 2))}{j}"
        coeff = draw(st.one_of(st.none(), st.integers(0, 10**15)))
        if coeff is None:
            form += name
            coeff = 1
        else:
            form += f"{coeff}{draw(_SPACE)}*{draw(_SPACE)}{name}"
        sums[j] = sums.get(j, 0) + (-coeff if minus else coeff)
    return f"mod {m}:{draw(_SPACE)}{form}{draw(_SPACE)}= 0\n", m, sums


@given(linear_forms())
@settings(max_examples=200, deadline=None)
def test_linear_form_sums_each_variables_coefficients(case):
    text, m, sums = case
    (line,) = parse_system(text).congruences
    assert line.terms == tuple((sums[j] % m, f"x{j}") for j in sorted(sums)), text


@st.composite
def poly_sums(draw) -> tuple[PrimeField, str, GFPolynomial]:
    """A sum of atoms c, t, c*t, c*t^k, t^k with either sign and any spacing,
    and the GFPolynomial sum of its atoms."""
    field = PrimeField(draw(st.sampled_from([2, 3, 5, 7])))
    total = GFPolynomial.zero(field)
    text = ""
    for i in range(draw(st.integers(1, 8))):
        minus = draw(st.booleans())
        if i or minus:
            text += draw(_SPACE) + ("-" if minus else "+") + draw(_SPACE)
        c, k = draw(st.integers(0, 3 * field.p)), draw(st.integers(0, 12))
        spellings = [f"{c}*t^{k}"]
        if k == 0:
            spellings.append(str(c))
        if k == 1:
            spellings.append(f"{c}{draw(_SPACE)}*{draw(_SPACE)}t")
        if c == 1:
            spellings.append(f"t^{draw(_SPACE)}{k}" if k != 1 else "t")
        text += draw(st.sampled_from(spellings))
        atom = GFPolynomial.from_coeffs(field, [0] * k + [c])
        total = total - atom if minus else total + atom
    return field, text, total


@given(poly_sums())
@settings(max_examples=200, deadline=None)
def test_polynomial_sum_equals_the_sum_of_its_atoms(case):
    field, text, total = case
    assert parse_poly(text, field) == total, text
    # The same sum as a parenthesized coefficient and as a right-hand side.
    modulus = parse_poly("t^13 + 1", field)
    doc = parse_system(f"field GF({field.p})\nmod t^13 + 1: ({text})*x1 = {text}\n")
    assert doc.congruences[0].terms == ((total % modulus, "x1"),), text
    assert doc.congruences[0].rhs == total % modulus, text
