"""Tests for the text format: parsing, diagnostics, round-trips, building."""

from pathlib import Path

import pytest

from congruences import (
    CongruenceSystem,
    HypothesisError,
    ParseError,
    PolyCongruenceSystem,
    PolyRestrictionTable,
    PrimeField,
    RestrictionTable,
    build_restrictions,
    build_system,
    format_document,
    parse_poly,
    parse_system,
)

TESTS_DIR = Path(__file__).resolve().parent
SAMPLES_DIR = TESTS_DIR.parent / "samples"
DATA_DIR = TESTS_DIR / "data"

SAMPLE_FILES = sorted(SAMPLES_DIR.glob("*.cong"))
GOLDEN_FILES = sorted(DATA_DIR.glob("*.cong"))


def test_sample_corpus_present():
    assert len(SAMPLE_FILES) >= 8
    assert len(GOLDEN_FILES) >= 12


def test_parse_integer_document():
    doc = parse_system("mod 12: 2*x1 + 2*x2 = 2\nmod 35: 5*x1 + 7*x2 = 1\n")
    assert doc.field_order is None
    assert doc.variables == ("x1", "x2")
    assert doc.congruences[0].modulus == 12
    assert doc.congruences[0].terms == ((2, "x1"), (2, "x2"))
    assert doc.congruences[0].rhs == 2
    system = build_system(doc)
    assert isinstance(system, CongruenceSystem)
    assert system.coefficients == ((2, 2), (5, 7))
    assert system.moduli == (12, 35)
    assert system.rhs == (2, 1)
    assert build_restrictions(doc) is None


def test_parse_polynomial_document():
    text = (
        "field GF(3)\n"
        "mod t^2: x1 + (1 + t)*x2 = 3*t + 1\n"
        "mod t + 1: x1 + x2 = -2\n"
        "gcd(x1, t^2) = 1\n"
        "gcd(x2, t^2) = t\n"
        "gcd(x1, t + 1) = 1\n"
        "gcd(x2, t + 1) = 1\n"
    )
    doc = parse_system(text)
    assert doc.field_order == 3
    field = PrimeField(3)
    system = build_system(doc)
    assert isinstance(system, PolyCongruenceSystem)
    assert system.moduli == (
        parse_poly("t^2", field),
        parse_poly("t + 1", field),
    )
    # rhs is reduced into the residue ring: 3t + 1 = 1 and -2 = 1 over F_3.
    assert system.rhs == (parse_poly("1", field), parse_poly("1", field))
    table = build_restrictions(doc)
    assert isinstance(table, PolyRestrictionTable)
    assert table.entries == (
        (parse_poly("1", field), parse_poly("t", field)),
        (parse_poly("1", field), parse_poly("1", field)),
    )


def test_coefficients_reduced_and_combined():
    doc = parse_system("mod 12: 14*x1 + x1 - x2 = 26\n")
    line = doc.congruences[0]
    assert line.terms == ((3, "x1"), (11, "x2"))
    assert line.rhs == 2


def test_zero_coefficient_terms_are_kept():
    doc = parse_system("mod 3: 3*x1 + x2 = 1\n")
    assert doc.congruences[0].terms == ((0, "x1"), (1, "x2"))
    assert doc.variables == ("x1", "x2")
    system = build_system(doc)
    assert system.coefficients == ((0, 1),)


def test_variable_index_normalization_and_order():
    doc = parse_system("mod 5: x2 + 4*x10 = 3\nmod 7: x07 = 1\n")
    assert doc.variables == ("x2", "x7", "x10")
    system = build_system(doc)
    # zero-filled columns for variables a row does not mention
    assert system.coefficients == ((1, 0, 4), (0, 1, 0))


def test_leading_minus_and_signed_rhs():
    doc = parse_system("mod 9: -x1 + 2*x2 = -4\n")
    assert doc.congruences[0].terms == ((8, "x1"), (2, "x2"))
    assert doc.congruences[0].rhs == 5


def test_polynomial_unary_minus():
    doc = parse_system("field GF(5)\nmod t^2: -t*x1 = -2\n")
    field = PrimeField(5)
    assert doc.congruences[0].terms == ((parse_poly("4*t", field), "x1"),)
    assert doc.congruences[0].rhs == parse_poly("3", field)


def test_restriction_values_are_monicized():
    doc = parse_system(
        "field GF(5)\nmod t^2: x1 = t\ngcd(x1, t^2) = 2*t\n"
    )
    field = PrimeField(5)
    assert doc.restrictions[0].value == parse_poly("t", field)


def test_format_document_canonical_text():
    doc = parse_system(
        "field GF(3)\nmod t^2:x1+(1+t)*x2=3*t+1\nmod t+1:x1+x2=-2\n"
    )
    assert format_document(doc) == (
        "field GF(3)\n"
        "mod t^2: x1 + (t + 1)*x2 = 1\n"
        "mod t + 1: x1 + x2 = 1\n"
    )
    doc = parse_system("mod 9: -x1 = -4")
    assert format_document(doc) == "mod 9: 8*x1 = 5\n"
    # Tab and NBSP are whitespace; \x0b and \x0c break lines, as in
    # str.splitlines; Arabic-Indic digits are digits; "#" hides anything.
    cases = {
        "mod 12:\tx1 +\xa03*x2 = 1\n": "mod 12: x1 + 3*x2 = 1\n",
        "mod 12: x1 = 1\x0bmod 35: x2 = 3\x0cgcd(x1, 12) = 1\n": (
            "mod 12: x1 = 1\nmod 35: x2 = 3\ngcd(x1, 12) = 1\n"
        ),
        "mod \u0661\u0662: x1 = 1\n": "mod 12: x1 = 1\n",
        "mod 12: x1 = 1  # \u00e9\n": "mod 12: x1 = 1\n",
    }
    for text, canonical in cases.items():
        assert format_document(parse_system(text)) == canonical, repr(text)


def test_roundtrip_fixpoint_on_samples():
    for path in SAMPLE_FILES:
        text = path.read_text(encoding="utf-8")
        doc = parse_system(text)
        canonical = format_document(doc)
        reparsed = parse_system(canonical)
        assert reparsed == doc, path.name
        assert format_document(reparsed) == canonical, path.name


def test_roundtrip_fixpoint_on_handwritten_edge_cases():
    cases = [
        "mod 2: x1 = 1\n",
        "mod 12: 11*x1 + x3 = 0\ngcd(x1, 12) = 4\ngcd(x3, 12) = 1\n",
        "mod 6: 0*x1 + x2 = 5\n",
        "field GF(2)\nmod t^3 + t + 1: x1 + x2 = t^2\n",
        "field GF(7)\nmod t^2 + 1: (3*t + 2)*x1 = 6*t\ngcd(x1, t^2 + 1) = 1\n",
    ]
    for text in cases:
        doc = parse_system(text)
        canonical = format_document(doc)
        assert parse_system(canonical) == doc, text


def test_build_restrictions_fills_rows_by_modulus_value():
    text = (
        "mod 15: x1 + 2*x2 = 7\n"
        "mod 14: 3*x1 + x2 = 9\n"
        "gcd(x1, 15) = 1\n"
        "gcd(x2, 15) = 3\n"
        "gcd(x1, 14) = 1\n"
        "gcd(x2, 14) = 2\n"
    )
    table = build_restrictions(parse_system(text))
    assert isinstance(table, RestrictionTable)
    assert table.entries == ((1, 3), (1, 2))


def test_build_restrictions_incomplete_table():
    text = "mod 15: x1 + 2*x2 = 7\ngcd(x1, 15) = 1\n"
    with pytest.raises(HypothesisError) as info:
        build_restrictions(parse_system(text))
    assert "missing gcd(x2, 15)" in str(info.value)


def test_build_restrictions_incomplete_other_row():
    text = (
        "mod 15: x1 = 7\n"
        "mod 14: x1 = 9\n"
        "gcd(x1, 15) = 1\n"
    )
    with pytest.raises(HypothesisError) as info:
        build_restrictions(parse_system(text))
    assert "missing gcd(x1, 14)" in str(info.value)


def test_duplicate_modulus_rows_share_restrictions():
    text = (
        "mod 6: x1 = 1\n"
        "mod 6: 5*x1 = 5\n"
        "gcd(x1, 6) = 1\n"
    )
    table = build_restrictions(parse_system(text))
    assert table.entries == ((1,), (1,))


@pytest.mark.parametrize(
    "cong", GOLDEN_FILES, ids=[path.stem for path in GOLDEN_FILES]
)
def test_golden_diagnostics(cong):
    expected = cong.with_suffix(".expected").read_text(encoding="utf-8")
    with pytest.raises(ParseError) as info:
        parse_system(cong.read_text(encoding="utf-8"))
    assert info.value.diagnostic.render() + "\n" == expected


def test_diagnostic_positions_are_exact():
    with pytest.raises(ParseError) as info:
        parse_system("mod 12: x1 = 1\nmod 0: x2 = 1\n")
    diagnostic = info.value.diagnostic
    assert (diagnostic.line, diagnostic.column) == (2, 5)
    assert diagnostic.excerpt == "mod 0: x2 = 1"
    cases = {
        "mod 12: x1 = 1\x0bmod 0: x2 = 1\n": (2, 5, "modulus must be at least 2"),
        "mod 12: x1 = 1\x0cmod 0: x2 = 1\n": (2, 5, "modulus must be at least 2"),
        "mod 12: x\u0663 = 1\n": (1, 9, "expected a term like 3*x1 or x1"),
        "mod 12: x1 = \u00e9\n": (1, 14, "unexpected character '\u00e9'"),
        "mod 12: x1 +": (1, 13, "expected a term like 3*x1 or x1"),
    }
    for text, (line, column, message) in cases.items():
        with pytest.raises(ParseError) as info:
            parse_system(text)
        diagnostic = info.value.diagnostic
        assert (diagnostic.line, diagnostic.column, diagnostic.message) == (
            line,
            column,
            message,
        ), repr(text)


def test_first_error_wins():
    # Both lines are bad; only the first is reported.
    with pytest.raises(ParseError) as info:
        parse_system("mod 0: x1 = 1\nmod 0: y = 1\n")
    assert info.value.diagnostic.line == 1
    # The whole text is checked for lexical errors before parsing, so a bad
    # character anywhere wins over an earlier syntax error; and a term that
    # ends the input after "*" peeks at the end token, past which there is
    # nothing. Long digit runs count only as a number or an identifier's
    # last digits, and comments hold no errors. Integers take any decimal
    # digits, identifiers only ASCII ones. Lines end where str.splitlines
    # ends them, and the end of input sits past the last line's comment.
    many = "1" * 4301
    for text, message, line, column in (
        ("mod 0: x1 = 1\n@\n", "unexpected character '@'", 2, 1),
        ("field GF(3)\nmod t: 2*", "expected a variable like x1", 2, 10),
        (f"mod 7: x{many}y = 1\n", "expected a term like 3*x1 or x1", 1, 8),
        (f"mod 7: x{many} = 1\n", "a number of 4301 digits exceeds the limit 4300", 1, 9),
        (f"mod 7: x1 = 1 # @ {many}\nmod 0: x1 = 1\n", "modulus must be at least 2", 2, 5),
        ("mod \u0661\u0662: x1 = 3\nmod \u0660: x1 = 1\n", "modulus must be at least 2", 2, 5),
        ("mod \u0661\u0662: x\u0661 = 3\n", "expected a term like 3*x1 or x1", 1, 9),
        (
            "mod 7: x1 = 1\x0cmod 7: x1 = 1\x1c# c\u2028mod 7: x1 = 1 mod 7: x1 =\n",
            "expected an integer",
            4,
            26,
        ),
        ("mod 7: x1 = 1\x0c\x1c# c\u2028  x1 = 1 @\n", "unexpected character '@'", 4, 10),
        ("mod 7: x1 = 1\r# c\nmod 7: @\n", "unexpected character '@'", 3, 8),
        ("mod 7: x1 = # c", "expected an integer", 1, 16),
        ("mod 7: x1 =\n\n", "expected an integer", 2, 1),
    ):
        with pytest.raises(ParseError) as info:
            parse_system(text)
        diagnostic = info.value.diagnostic
        assert (diagnostic.message, diagnostic.line, diagnostic.column) == (message, line, column)


_LONG = "1" * 4300


@pytest.mark.parametrize(
    "text, expected",
    [
        # A diagnostic as (message, line, column); a document as its canonical text.
        ("mod 7: 3 x1 = 1\n", ("expected '*' between coefficient and variable", 1, 10)),
        ("mod 7: 3x1 = 1\n", ("expected '*' between coefficient and variable", 1, 9)),
        (
            "field GF(3)\nmod t: (t + 1) x1 = 1\n",
            ("expected '*' between coefficient and variable", 2, 16),
        ),
        (
            "field GF(3)\nmod t: 2*t x1 = 1\n",
            ("expected '*' between coefficient and variable", 2, 12),
        ),
        (
            "field GF(3)\nmod t: t^2^3*x1 = 1\n",
            ("expected '*' between coefficient and variable", 2, 11),
        ),
        ("mod 7: x1 - -x2 = 1\n", ("expected a term like 3*x1 or x1", 1, 13)),
        (
            "field GF(3)\nmod t: x1 - -x2 = 1\n",
            ("expected a term like 3*x1, (t + 1)*x1 or x1", 2, 13),
        ),
        (
            "field GF(3)\nmod t: x1 + y = 1\n",
            ("expected a term like 3*x1, (t + 1)*x1 or x1", 2, 13),
        ),
        ("mod 7: x1 + + x2 = 1\n", ("expected a term like 3*x1 or x1", 1, 13)),
        ("mod 7: (3)*x1 = 1\n", ("expected a term like 3*x1 or x1", 1, 8)),
        ("mod 7: *x1 = 1\n", ("expected a term like 3*x1 or x1", 1, 8)),
        ("mod 7: x1 +", ("expected a term like 3*x1 or x1", 1, 12)),
        ("mod 7: -", ("expected a term like 3*x1 or x1", 1, 9)),
        ("mod 7: 3*t = 1\n", ("polynomial syntax requires a field header", 1, 10)),
        ("mod 7: t*x1 = 1\n", ("polynomial syntax requires a field header", 1, 8)),
        ("mod 7: x1 + t = 1\n", ("polynomial syntax requires a field header", 1, 13)),
        ("mod 7: 3*4 = 1\n", ("expected a variable like x1", 1, 10)),
        ("mod 7: 3*", ("expected a variable like x1", 1, 10)),
        ("mod 7: x1 + x2 1\n", ("expected '=' after the linear combination", 1, 16)),
        ("mod 7: x1 x2 = 1\n", ("expected '=' after the linear combination", 1, 11)),
        ("mod 7: x1*3 = 1\n", ("expected '=' after the linear combination", 1, 10)),
        ("field GF(3)\nmod t: (t + 1*x1 = 1\n", ("expected ')' after the coefficient", 2, 14)),
        ("field GF(3)\nmod t: ()*x1 = 1\n", ("expected a polynomial term", 2, 9)),
        ("field GF(3)\nmod t: t^x*x1 = 1\n", ("expected an integer exponent", 2, 10)),
        (
            "field GF(2)\nmod t: (t^1000001 + 1)*x1 = 1\n",
            ("exponent exceeds the limit 1000000", 2, 11),
        ),
        (
            "field GF(2)\nmod t: (1 + t^1000000)*x1 = t^1000001\n",
            ("exponent exceeds the limit 1000000", 2, 31),
        ),
        (f"mod 7: {_LONG}*x1 - {_LONG}*x2 = {_LONG}\n", "mod 7: 5*x1 + 2*x2 = 5\n"),
        (f"mod 7: {_LONG}1*x1 = 1\n", ("a number of 4301 digits exceeds the limit 4300", 1, 8)),
        ("mod 9: x1 + x01 + 6*x1 = 1\n", "mod 9: 8*x1 = 1\n"),
        ("mod 9: x1 + x01 + 7*x1 - x2 + x3 + x002 = 1\n", "mod 9: 0*x1 + 0*x2 + x3 = 1\n"),
        ("field GF(3)\nmod t^2: (t + 2*t)*x1 + x2 = 1\n", "field GF(3)\nmod t^2: 0*x1 + x2 = 1\n"),
        (
            "field GF(3)\nmod t^2: (t^3 + 2*t - t^3 + t)*x1 - 2*x2 = 1\n",
            "field GF(3)\nmod t^2: 0*x1 + x2 = 1\n",
        ),
        (
            "field GF(5)\nmod t^2 + 1: -(t + 1)*x1 + 2*t^3*x2 - t*x1 + t^2*x3 + 3*x2 = -t\n",
            "field GF(5)\nmod t^2 + 1: (3*t + 4)*x1 + (3*t + 3)*x2 + 4*x3 = 4*t\n",
        ),
        (
            "field GF(5)\nmod t^3: x1 + t*x1 + 7*t^2*x1 - x1 = 0\n",
            "field GF(5)\nmod t^3: (2*t^2 + t)*x1 = 0\n",
        ),
    ],
)
def test_linear_rule(text, expected):
    """Each term's sign, coefficient, "*" and variable, with the diagnostic
    for each token the rule does not accept."""
    if isinstance(expected, str):
        assert format_document(parse_system(text)) == expected
        return
    message, line, column = expected
    with pytest.raises(ParseError) as info:
        parse_system(text)
    excerpt = text.splitlines()[line - 1]
    assert info.value.diagnostic.render() == (
        f"line {line}, column {column}: {message}\n  {excerpt}\n  {' ' * (column - 1)}^"
    )


def test_samples_build_without_errors():
    for path in SAMPLE_FILES:
        doc = parse_system(path.read_text(encoding="utf-8"))
        system = build_system(doc)
        table = build_restrictions(doc)
        if table is not None:
            table.validate_for(system)
