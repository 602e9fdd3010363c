"""Parser and pretty-printer for the congruence system text format.

Grammar (EBNF):

    document    := header? statement+
    header      := "field" "GF" "(" integer ")"
    statement   := congruence | restriction
    congruence  := "mod" expr ":" linear "=" expr
    linear      := ["-"] term (("+" | "-") term)*
    term        := (coefficient "*")? variable
    restriction := "gcd" "(" variable "," expr ")" "=" expr
    variable    := "x" digits

Without a header every expr is an integer literal; with "field GF(p)" every
expr is a polynomial in t (terms c, t, c*t^k, t^k joined by + and -, with an
optional leading -), and a coefficient may additionally be a parenthesized
polynomial. "#" starts a comment to end of line; whitespace is otherwise
insignificant. Parsing stops at the first error, reported with its position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dataclass_field
from typing import NoReturn

from .errors import CongruenceError, HypothesisError
from .ffsystems import PolyCongruenceSystem, PolyRestrictionTable, PolyRing
from .gfpoly import GFPolynomial, PrimeField
from .intarith import is_probable_prime
from .systems import INT, CongruenceSystem, IntRing, RestrictionTable

_VARIABLE_RE = re.compile(r"x\d+")
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|[()+\-*^:,=]")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "sym", "eof"
    text: str
    line: int
    column: int


@dataclass(frozen=True)
class Diagnostic:
    """A positioned parse error with the offending source line."""

    message: str
    line: int
    column: int
    excerpt: str

    def render(self) -> str:
        caret = " " * (self.column - 1) + "^"
        return f"line {self.line}, column {self.column}: {self.message}\n  {self.excerpt}\n  {caret}"


class ParseError(CongruenceError):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class CongruenceLine:
    """One parsed congruence; terms are (coefficient, variable) pairs, sorted
    by variable index, duplicates combined, everything reduced mod modulus."""

    modulus: object
    terms: tuple[tuple[object, str], ...]
    rhs: object
    span: tuple[int, int] = dataclass_field(compare=False)


@dataclass(frozen=True)
class RestrictionLine:
    variable: str
    modulus: object
    value: object
    span: tuple[int, int] = dataclass_field(compare=False)
    variable_span: tuple[int, int] = dataclass_field(compare=False)
    modulus_span: tuple[int, int] = dataclass_field(compare=False)


@dataclass(frozen=True)
class SystemDocument:
    """A parsed document: header, congruence rows, gcd restrictions.

    field_order is None in integer mode, the prime p in polynomial mode.
    variables are the distinct x<i> mentioned in congruence rows, ascending.
    """

    field_order: int | None
    congruences: tuple[CongruenceLine, ...]
    restrictions: tuple[RestrictionLine, ...]
    variables: tuple[str, ...]
    tokens: tuple[Token, ...] = dataclass_field(compare=False, repr=False, default=())

    @property
    def mode(self) -> str:
        return "integer" if self.field_order is None else "polynomial"

    @property
    def ring(self) -> IntRing | PolyRing:
        """The ring the document's values live in."""
        return INT if self.field_order is None else PolyRing(PrimeField(self.field_order))


def _tokenize(text: str) -> tuple[list[Token], list[str]]:
    lines = text.splitlines() or [""]
    tokens: list[Token] = []
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0]
        pos = 0
        while pos < len(body):
            ch = body[pos]
            if ch.isspace():
                pos += 1
                continue
            match = _TOKEN_RE.match(body, pos)
            if match is None:
                raise ParseError(
                    Diagnostic(f"unexpected character {ch!r}", lineno, pos + 1, line)
                )
            word = match.group()
            if word[0].isdigit():
                kind = "int"
            elif word[0].isalpha() or word[0] == "_":
                kind = "ident"
            else:
                kind = "sym"
            tokens.append(Token(kind, word, lineno, pos + 1))
            pos = match.end()
    tokens.append(Token("eof", "", len(lines), len(lines[-1]) + 1))
    return tokens, lines


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.lines = _tokenize(text)
        self.pos = 0
        self.field: PrimeField | None = None

    # token plumbing

    def _tok(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def _advance(self) -> Token:
        tok = self._tok()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def _fail(self, message: str, token: Token | None = None) -> NoReturn:
        tok = token if token is not None else self._tok()
        excerpt = self.lines[tok.line - 1] if 0 < tok.line <= len(self.lines) else ""
        raise ParseError(Diagnostic(message, tok.line, tok.column, excerpt))

    def _fail_at(self, message: str, span: tuple[int, int]) -> NoReturn:
        line, column = span
        excerpt = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        raise ParseError(Diagnostic(message, line, column, excerpt))

    def _at_sym(self, sym: str, offset: int = 0) -> bool:
        tok = self._tok(offset)
        return tok.kind == "sym" and tok.text == sym

    def _at_ident(self, name: str, offset: int = 0) -> bool:
        tok = self._tok(offset)
        return tok.kind == "ident" and tok.text == name

    def _expect_sym(self, sym: str, what: str | None = None) -> Token:
        if not self._at_sym(sym):
            self._fail(what or f"expected {sym!r}")
        return self._advance()

    # literals and expressions

    def _int_literal(self, what: str) -> int:
        tok = self._tok()
        if tok.kind != "int":
            self._fail(f"expected {what}")
        self._advance()
        return int(tok.text)

    def _signed_int(self, what: str) -> int:
        sign = 1
        if self._at_sym("-"):
            self._advance()
            sign = -1
        return sign * self._int_literal(what)

    def _poly_atom(self) -> GFPolynomial:
        assert self.field is not None
        tok = self._tok()
        coeff = 1
        power = 0
        if tok.kind == "int":
            coeff = int(tok.text)
            self._advance()
            if self._at_sym("*") and self._at_ident("t", 1):
                self._advance()
                self._advance()
                power = 1
        elif self._at_ident("t"):
            self._advance()
            power = 1
        else:
            self._fail("expected a polynomial term")
        if power == 1 and self._at_sym("^"):
            self._advance()
            power = self._int_literal("an integer exponent")
        coeffs = [0] * power + [coeff]
        return GFPolynomial.from_coeffs(self.field, coeffs)

    def _poly_sum(self) -> GFPolynomial:
        assert self.field is not None
        total = GFPolynomial.zero(self.field)
        negate = False
        if self._at_sym("-"):
            self._advance()
            negate = True
        while True:
            atom = self._poly_atom()
            total = total - atom if negate else total + atom
            if self._at_sym("+"):
                negate = False
            elif self._at_sym("-"):
                negate = True
            else:
                return total
            self._advance()

    def _expr(self, signed: bool, what: str) -> object:
        if self.field is None:
            if self._at_ident("t"):
                self._fail("polynomial syntax requires a field header")
            return self._signed_int(what) if signed else self._int_literal(what)
        return self._poly_sum()

    def _variable(self) -> tuple[str, Token]:
        tok = self._tok()
        if tok.kind == "ident" and self.field is None and tok.text == "t":
            self._fail("polynomial syntax requires a field header")
        if tok.kind != "ident" or not _VARIABLE_RE.fullmatch(tok.text):
            self._fail("expected a variable like x1")
        self._advance()
        canonical = f"x{int(tok.text[1:])}"
        return canonical, tok

    # statements

    def _header(self) -> int:
        self._advance()  # "field"
        if not self._at_ident("GF"):
            self._fail("expected 'GF' after 'field'")
        self._advance()
        self._expect_sym("(", "expected '(' after 'GF'")
        order_tok = self._tok()
        order = self._int_literal("a prime field order")
        if not is_probable_prime(order):
            self._fail(f"field order {order} is not prime", order_tok)
        self._expect_sym(")", "expected ')' after the field order")
        return order

    def _term(self) -> tuple[object, str]:
        tok = self._tok()
        if tok.kind == "ident" and _VARIABLE_RE.fullmatch(tok.text):
            name, _ = self._variable()
            one: object = 1 if self.field is None else GFPolynomial.one(self.field)
            return one, name
        if self.field is None:
            if tok.kind == "int":
                coeff = int(tok.text)
                self._advance()
                self._expect_sym("*", "expected '*' between coefficient and variable")
                name, _ = self._variable()
                return coeff, name
            if self._at_ident("t"):
                self._fail("polynomial syntax requires a field header")
            self._fail("expected a term like 3*x1 or x1")
        if self._at_sym("("):
            self._advance()
            coeff = self._poly_sum()
            self._expect_sym(")", "expected ')' after the coefficient")
            self._expect_sym("*", "expected '*' between coefficient and variable")
            name, _ = self._variable()
            return coeff, name
        if tok.kind == "int" or self._at_ident("t"):
            coeff = self._poly_atom()
            self._expect_sym("*", "expected '*' between coefficient and variable")
            name, _ = self._variable()
            return coeff, name
        self._fail("expected a term like 3*x1, (t + 1)*x1 or x1")

    def _congruence(self) -> CongruenceLine:
        start = self._advance()  # "mod"
        modulus_tok = self._tok()
        if self.field is None:
            if self._at_ident("t"):
                self._fail("polynomial syntax requires a field header")
            modulus: object = self._int_literal("a modulus")
            if modulus < 2:  # type: ignore[operator]
                self._fail("modulus must be at least 2", modulus_tok)
        else:
            modulus = self._poly_sum()
            if modulus.degree < 1:  # type: ignore[union-attr]
                self._fail("modulus must be non-constant", modulus_tok)
        self._expect_sym(":", "expected ':' after the modulus")

        combined: dict[str, object] = {}
        negate = False
        if self._at_sym("-"):
            self._advance()
            negate = True
        while True:
            coeff, name = self._term()
            if negate:
                coeff = -coeff  # type: ignore[operator]
            if name in combined:
                combined[name] = combined[name] + coeff  # type: ignore[operator]
            else:
                combined[name] = coeff
            if self._at_sym("+"):
                negate = False
            elif self._at_sym("-"):
                negate = True
            else:
                break
            self._advance()
        self._expect_sym("=", "expected '=' after the linear combination")
        rhs = self._expr(signed=True, what="an integer") % modulus  # type: ignore[operator]
        terms = tuple(
            (combined[name] % modulus, name)  # type: ignore[operator]
            for name in sorted(combined, key=lambda v: int(v[1:]))
        )
        return CongruenceLine(
            modulus=modulus, terms=terms, rhs=rhs, span=(start.line, start.column)
        )

    def _restriction(self) -> RestrictionLine:
        start = self._advance()  # "gcd"
        self._expect_sym("(", "expected '(' after 'gcd'")
        name, var_tok = self._variable()
        self._expect_sym(",", "expected ',' after the variable")
        modulus_tok = self._tok()
        modulus = self._expr(signed=False, what="a modulus")
        self._expect_sym(")", "expected ')' after the modulus")
        self._expect_sym("=", "expected '=' after 'gcd(...)'")
        value_tok = self._tok()
        value = self._expr(signed=True, what="a restriction value")
        if self.field is None:
            if value < 1:  # type: ignore[operator]
                self._fail("restriction value must be positive", value_tok)
        else:
            if value.is_zero:  # type: ignore[union-attr]
                self._fail("restriction value must be nonzero", value_tok)
            value = value.monic()  # type: ignore[union-attr]
        return RestrictionLine(
            variable=name,
            modulus=modulus,
            value=value,
            span=(start.line, start.column),
            variable_span=(var_tok.line, var_tok.column),
            modulus_span=(modulus_tok.line, modulus_tok.column),
        )

    def document(self) -> SystemDocument:
        field_order: int | None = None
        if self._at_ident("field"):
            field_order = self._header()
            self.field = PrimeField(field_order)
        congruences: list[CongruenceLine] = []
        restrictions: list[RestrictionLine] = []
        while self._tok().kind != "eof":
            if self._at_ident("mod"):
                congruences.append(self._congruence())
            elif self._at_ident("gcd"):
                restrictions.append(self._restriction())
            else:
                self._fail("expected 'mod' or 'gcd'")
        if not congruences:
            self._fail("at least one congruence required")

        variables = sorted(
            {name for line in congruences for _, name in line.terms},
            key=lambda v: int(v[1:]),
        )
        doc = SystemDocument(
            field_order=field_order,
            congruences=tuple(congruences),
            restrictions=tuple(restrictions),
            variables=tuple(variables),
            tokens=tuple(self.tokens),
        )
        ring = doc.ring
        moduli_keys = [ring.normalise(line.modulus) for line in congruences]
        seen: set[tuple[str, object]] = set()
        for r in restrictions:
            if r.variable not in variables:
                self._fail_at(
                    f"restriction references undeclared variable {r.variable}",
                    r.variable_span,
                )
            key = ring.normalise(r.modulus)
            if key not in moduli_keys:
                self._fail_at(
                    f"restriction modulus {ring.format(r.modulus)} does not"
                    " match any congruence modulus",
                    r.modulus_span,
                )
            if (r.variable, key) in seen:
                self._fail_at(
                    f"duplicate restriction for gcd({r.variable}, {ring.format(r.modulus)})",
                    r.span,
                )
            seen.add((r.variable, key))
        return doc


def parse_system(text: str) -> SystemDocument:
    """Parse a document; raises ParseError with a positioned Diagnostic."""
    return _Parser(text).document()


def build_system(doc: SystemDocument) -> CongruenceSystem | PolyCongruenceSystem:
    """Materialize the coefficient matrix (zero columns for unmentioned
    variables) as a library system object."""
    ring = doc.ring
    index = {name: j for j, name in enumerate(doc.variables)}
    rows = []
    for line in doc.congruences:
        row = [ring.zero] * len(doc.variables)
        for coeff, name in line.terms:
            row[index[name]] = coeff
        rows.append(tuple(row))
    return ring.system(
        tuple(rows),
        tuple(line.modulus for line in doc.congruences),
        tuple(line.rhs for line in doc.congruences),
    )


def build_restrictions(
    doc: SystemDocument,
) -> RestrictionTable | PolyRestrictionTable | None:
    """Assemble the full restriction table, or None when the document has no
    restrictions. A partially specified table is a hypothesis error: the
    restricted counting theorem needs every (row, variable) entry."""
    if not doc.restrictions:
        return None
    ring = doc.ring
    lookup: dict[tuple[str, object], object] = {}
    for r in doc.restrictions:
        lookup[(r.variable, ring.normalise(r.modulus))] = r.value
    entries = []
    for line in doc.congruences:
        row = []
        for name in doc.variables:
            value = lookup.get((name, ring.normalise(line.modulus)))
            if value is None:
                raise HypothesisError(
                    f"incomplete restriction table: missing gcd({name},"
                    f" {ring.format(line.modulus)})"
                )
            row.append(value)
        entries.append(tuple(row))
    return ring.restriction_table(tuple(entries))


def parse_poly(text: str, field: PrimeField) -> GFPolynomial:
    """Parse one polynomial in t over field, in the document syntax: terms
    c, t, c*t^k, t^k joined by + and -, optional leading -. Raises
    ValueError on anything else, including "#", which starts a comment
    only in a document."""
    if "#" in text:
        raise ValueError(f"bad polynomial {text!r}: unexpected character '#'")
    try:
        parser = _Parser(text)
        parser.field = field
        poly = parser._poly_sum()
        if parser._tok().kind != "eof":
            parser._fail("unexpected trailing input")
    except ParseError as exc:
        raise ValueError(f"bad polynomial {text!r}: {exc.diagnostic.message}") from None
    return poly


def _format_coefficient(ring, coeff: object, name: str) -> str:
    if coeff == ring.one:
        return name
    text = ring.format(coeff)
    return f"({text})*{name}" if " + " in text else f"{text}*{name}"


def format_document(doc: SystemDocument) -> str:
    """Canonical text for a document; reparsing it yields an equal document."""
    ring = doc.ring
    fmt = ring.format
    lines = []
    if doc.field_order is not None:
        lines.append(f"field GF({doc.field_order})")
    for line in doc.congruences:
        terms = " + ".join(_format_coefficient(ring, c, name) for c, name in line.terms)
        lines.append(f"mod {fmt(line.modulus)}: {terms} = {fmt(line.rhs)}")
    for r in doc.restrictions:
        lines.append(f"gcd({r.variable}, {fmt(r.modulus)}) = {fmt(r.value)}")
    return "\n".join(lines) + "\n"
