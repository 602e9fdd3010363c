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
expr is a polynomial in t (terms c, t, c*t^k, t^k with k at most 10^6, joined
by + and -, with an optional leading -), and a coefficient may additionally be
a parenthesized polynomial. "#" starts a comment to end of line; whitespace
is otherwise insignificant. Parsing stops at the first error, reported with
its position. The whole text is checked for lexical errors first, so an
unexpected character or an over-long number anywhere is reported before any
syntax error.

The parser reads the token texts of one regex pass over the text, each
comment blanked to a space; a token's kind follows from its text. A linear
form is one loop over token indices for both rings: sign, coefficient, "*"
and variable, each variable keyed by its integer index. A polynomial sum adds
its atoms into one coefficient list. Line and column are worked out only for
a diagnostic, by a second scan with the same token pattern: the lexical check
runs it only when a quick search of the whole text finds a character that
starts no token or a long run of digits, and a syntax error runs it up to the
offending token.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import islice
from typing import TYPE_CHECKING, Any, NoReturn

from .errors import CongruenceError, HypothesisError
from .systems import INT, CongruenceSystem, IntRing, RestrictionTable
from .value import Value

if TYPE_CHECKING:
    from .ffsystems import PolyCongruenceSystem, PolyRestrictionTable, PolyRing
    from .gfpoly import GFPolynomial, PrimeField

_VARIABLE_RE = re.compile(r"x\d+")
# Largest exponent of t in a polynomial term; a term allocates one list entry
# per power of t up to its exponent.
_MAX_EXPONENT = 10**6
# Longest run of digits in an integer literal or a variable name: Python's
# default limit on int/str conversion, which int() would otherwise raise on.
_MAX_DIGITS = 4300
# Identifiers, integers (any Unicode decimal digits, as int() reads them) and
# symbols; no two kinds share a text. \s, which separates tokens, is exactly
# str.isspace, and \d is exactly str.isdecimal.
_LETTERS = "A-Za-z_"
_SYMBOLS = r"()+\-*^:,="
_TOKEN = rf"[{_LETTERS}][{_LETTERS}0-9]*|\d+|[{_SYMBOLS}]"
_TOKEN_RE = re.compile(_TOKEN)
# The positioned scan: each token, or one character that starts none.
_SCAN_RE = re.compile(rf"({_TOKEN})|\S")
# Where the positioned scan may find a lexical error: a character that starts
# no token, or a run of more than _MAX_DIGITS digits. Two searches take a
# fifth of the time of one over both alternatives. The run is tried only from
# its first digit, so the search is linear in the length of the text.
_BAD_CHAR_RE = re.compile(rf"[^\s\d{_LETTERS}{_SYMBOLS}]")
_LONG_DIGITS_RE = re.compile(rf"(?<!\d)\d{{{_MAX_DIGITS + 1}}}")
# "#" to the end of its line, where str.splitlines ends lines.
_COMMENT_RE = re.compile("#[^\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029]*")
_NEEDS_HEADER = "polynomial syntax requires a field header"


class Diagnostic(Value):
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


class CongruenceLine(Value):
    """One parsed congruence; terms are (coefficient, variable) pairs, sorted
    by variable index, duplicates combined, everything reduced mod modulus."""

    modulus: object
    terms: tuple[tuple[object, str], ...]
    rhs: object


class RestrictionLine(Value):
    """One parsed restriction; the spans are the indices of its "gcd",
    variable and modulus tokens, for the diagnostics of `document`. Equality
    and the hash ignore the spans."""

    variable: str
    modulus: object
    value: object
    span: int
    variable_span: int
    modulus_span: int

    def _key(self) -> tuple:
        return self.variable, self.modulus, self.value


class SystemDocument(Value):
    """A parsed document: header, congruence rows, gcd restrictions.

    field_order is None in integer mode, the prime p in polynomial mode.
    variables are the distinct x<i> mentioned in congruence rows, ascending.
    """

    field_order: int | None
    congruences: tuple[CongruenceLine, ...]
    restrictions: tuple[RestrictionLine, ...]
    variables: tuple[str, ...]

    @cached_property
    def ring(self) -> IntRing | PolyRing:
        """The ring the document's values live in."""
        if self.field_order is None:
            return INT
        from .ffsystems import PolyRing
        from .gfpoly import PrimeField

        return PolyRing(PrimeField(self.field_order))


class _Parser:
    """Recursive descent over the token texts of the whole text, which end in
    one "" that no rule consumes. Ident, int and symbol tokens never share a
    text, so one text comparison tells what a token is, and an int token is
    the one that starts with a digit."""

    def __init__(self, text: str, field: PrimeField | None = None):
        self.text = text
        # A comment becomes one space, so that "\r#\n" stays two line breaks.
        self.code = _COMMENT_RE.sub(" ", text) if "#" in text else text
        if _BAD_CHAR_RE.search(self.code) or _LONG_DIGITS_RE.search(self.code):
            self._check_lexical()
        self.tokens = _TOKEN_RE.findall(self.code)
        self.tokens.append("")
        self.pos = 0
        self.field: PrimeField | None = None
        self.ring: IntRing | PolyRing = INT
        if field is not None:
            self._use_field(field)

    def _use_field(self, field: PrimeField) -> None:
        """Read every expr as a polynomial over field from here on. The
        F_p[t] modules are imported here, once per document, so an integer
        document never loads them."""
        from .ffsystems import PolyRing
        from .gfpoly import GFPolynomial

        self.field = field
        self.ring = PolyRing(field)
        self._from_coeffs = GFPolynomial.from_coeffs

    # token plumbing and positions

    def _check_lexical(self) -> None:
        """Raise at the first character that starts no token, or the first
        integer or trailing digits of an identifier longer than _MAX_DIGITS."""
        for match in _SCAN_RE.finditer(self.code):
            word = match.group()
            if match.lastindex is None:
                self._fail_at(f"unexpected character {word!r}", match.start())
            # A whole integer, or the trailing ASCII digits of an identifier.
            digits = len(word)
            if not word[0].isdecimal():
                digits -= len(word.rstrip("0123456789"))
            if digits > _MAX_DIGITS:
                message = f"a number of {digits} digits exceeds the limit {_MAX_DIGITS}"
                self._fail_at(message, match.end() - digits)

    def _fail_at(self, message: str, offset: int | None) -> NoReturn:
        """Raise at an offset into the text with its comments blanked, which
        keeps every token's line and column, or past the end if None."""
        lines = self.text.splitlines() or [""]
        if offset is None:
            line, column = len(lines), len(lines[-1]) + 1
        else:
            head = (self.code[:offset] + "^").splitlines()
            line, column = len(head), len(head[-1])
        raise ParseError(Diagnostic(message, line, column, lines[line - 1]))

    def _fail(self, message: str, at: int | None = None) -> NoReturn:
        """Raise at the token of index at, or at the current token."""
        at = self.pos if at is None else at
        offset = None
        if at < len(self.tokens) - 1:
            offset = next(islice(_SCAN_RE.finditer(self.code), at, None)).start()
        self._fail_at(message, offset)

    def _expect(self, text: str, message: str) -> None:
        if self.tokens[self.pos] != text:
            self._fail(message)
        self.pos += 1

    # literals and expressions

    def _int_literal(self, what: str) -> int:
        text = self.tokens[self.pos]
        if not text[:1].isdecimal():
            self._fail(f"expected {what}")
        self.pos += 1
        return int(text)

    def _poly_atom(self) -> tuple[int, int]:
        """(c, k) of one term c, t, c*t^k or t^k."""
        tokens = self.tokens
        at = self.pos
        coeff = 1
        if tokens[at][:1].isdecimal():
            coeff = int(tokens[at])
            if tokens[at + 1] != "*" or tokens[at + 2] != "t":
                self.pos = at + 1
                return coeff, 0
            at += 2
        elif tokens[at] != "t":
            self._fail("expected a polynomial term")
        self.pos = at + 1  # past "t"
        if tokens[at + 1] != "^":
            return coeff, 1
        self.pos += 1
        power = self._int_literal("an integer exponent")
        if power > _MAX_EXPONENT:
            self._fail(f"exponent exceeds the limit {_MAX_EXPONENT}", at + 2)
        return coeff, power

    def _poly_sum(self) -> GFPolynomial:
        """["-"] atom (("+" | "-") atom)*, summed into one coefficient list."""
        tokens = self.tokens
        coeffs = [0]
        negate = tokens[self.pos] == "-"
        self.pos += negate
        while True:
            coeff, power = self._poly_atom()
            coeffs += [0] * (power + 1 - len(coeffs))
            coeffs[power] += -coeff if negate else coeff
            sign = tokens[self.pos]
            if sign != "+" and sign != "-":
                return self._from_coeffs(self.field, coeffs)
            negate = sign == "-"
            self.pos += 1

    def _expr(self, what: str, signed: bool = True) -> object:
        """An integer literal, "-"-signed if signed; with a field header, a
        polynomial sum, always signable."""
        if self.field is not None:
            return self._poly_sum()
        text = self.tokens[self.pos]
        if text == "t":
            self._fail(_NEEDS_HEADER)
        negate = signed and text == "-"
        self.pos += negate
        value = self._int_literal(what)
        return -value if negate else value

    def _variable(self, at: int) -> int:
        """The index of the variable token of index at: 7 for x7 and x007."""
        text = self.tokens[at]
        if not _VARIABLE_RE.fullmatch(text):
            if text == "t" and self.field is None:
                self._fail(_NEEDS_HEADER, at)
            self._fail("expected a variable like x1", at)
        return int(text[1:])

    # statements

    def _header(self) -> PrimeField:
        from .gfpoly import PrimeField

        self.pos += 1  # "field"
        self._expect("GF", "expected 'GF' after 'field'")
        self._expect("(", "expected '(' after 'GF'")
        order_at = self.pos
        order = self._int_literal("a prime field order")
        try:
            field = PrimeField(order)
        except ValueError:
            self._fail(f"field order {order} is not prime", order_at)
        self._expect(")", "expected ')' after the field order")
        return field

    def _linear(self) -> dict[int, Any]:
        """The coefficient of each variable index, summed over the terms of
        ["-"] term (("+" | "-") term)*, in one loop over token indices."""
        tokens = self.tokens
        integers = self.field is None
        combined: dict[int, Any] = {}
        negate = tokens[self.pos] == "-"
        at = self.pos + negate
        while True:
            text = tokens[at]
            start = at
            if integers and text[:1].isdecimal():
                coeff = int(text)
                at += 1
            elif _VARIABLE_RE.fullmatch(text):
                coeff = self.ring.one
            elif not integers and text == "(":
                self.pos = at + 1
                coeff = self._poly_sum()
                self._expect(")", "expected ')' after the coefficient")
                at = self.pos
            elif not integers and (text[:1].isdecimal() or text == "t"):
                self.pos = at
                coeff, power = self._poly_atom()
                coeff = self._from_coeffs(self.field, [0] * power + [coeff])
                at = self.pos
            else:
                shapes = "3*x1 or x1" if integers else "3*x1, (t + 1)*x1 or x1"
                self._fail(_NEEDS_HEADER if text == "t" else f"expected a term like {shapes}", at)
            if at != start:
                if tokens[at] != "*":
                    self._fail("expected '*' between coefficient and variable", at)
                at += 1
            index = self._variable(at)
            if negate:
                coeff = -coeff  # type: ignore[operator]
            if index in combined:
                coeff = combined[index] + coeff  # type: ignore[operator]
            combined[index] = coeff
            at += 1
            if tokens[at] != "+" and tokens[at] != "-":
                self.pos = at
                return combined
            negate = tokens[at] == "-"
            at += 1

    def _congruence(self) -> CongruenceLine:
        self.pos += 1  # "mod"
        modulus_at = self.pos
        modulus = self._expr("a modulus", signed=False)
        if self.ring.norm(modulus) < 2:
            self._fail(f"modulus must be {self.ring.modulus_rule}", modulus_at)
        self._expect(":", "expected ':' after the modulus")
        combined = self._linear()
        self._expect("=", "expected '=' after the linear combination")
        rhs = self._expr("an integer") % modulus  # type: ignore[operator]
        terms = tuple((combined[i] % modulus, f"x{i}") for i in sorted(combined))
        return CongruenceLine(modulus=modulus, terms=terms, rhs=rhs)

    def _restriction(self) -> RestrictionLine:
        start = self.pos
        self.pos += 1  # "gcd"
        self._expect("(", "expected '(' after 'gcd'")
        variable_at = self.pos
        name = f"x{self._variable(variable_at)}"
        self.pos += 1
        self._expect(",", "expected ',' after the variable")
        modulus_at = self.pos
        modulus = self._expr("a modulus", signed=False)
        self._expect(")", "expected ')' after the modulus")
        self._expect("=", "expected '=' after 'gcd(...)'")
        value_at = self.pos
        value = self._expr("a restriction value")
        if self.ring.norm(value) < 1:  # type: ignore[arg-type]
            rule = "positive" if self.field is None else "nonzero"
            self._fail(f"restriction value must be {rule}", value_at)
        return RestrictionLine(
            variable=name,
            modulus=modulus,
            value=self.ring.normalise(value),  # type: ignore[arg-type]
            span=start,
            variable_span=variable_at,
            modulus_span=modulus_at,
        )

    def document(self) -> SystemDocument:
        if self.tokens[0] == "field":
            self._use_field(self._header())
        congruences: list[CongruenceLine] = []
        restrictions: list[RestrictionLine] = []
        while keyword := self.tokens[self.pos]:
            if keyword == "mod":
                congruences.append(self._congruence())
            elif keyword == "gcd":
                restrictions.append(self._restriction())
            else:
                self._fail("expected 'mod' or 'gcd'")
        if not congruences:
            self._fail("at least one congruence required")

        variables = sorted(
            {name for line in congruences for _, name in line.terms},
            key=lambda v: int(v[1:]),
        )
        ring = self.ring
        moduli_keys = [ring.normalise(line.modulus) for line in congruences]
        seen: set[tuple[str, object]] = set()
        for r in restrictions:
            if r.variable not in variables:
                self._fail(
                    f"restriction references undeclared variable {r.variable}", r.variable_span
                )
            key = ring.normalise(r.modulus)
            if key not in moduli_keys:
                self._fail(
                    f"restriction modulus {ring.format(r.modulus)} does not"
                    " match any congruence modulus",
                    r.modulus_span,
                )
            if (r.variable, key) in seen:
                self._fail(
                    f"duplicate restriction for gcd({r.variable}, {ring.format(r.modulus)})",
                    r.span,
                )
            seen.add((r.variable, key))
        return SystemDocument(
            field_order=None if self.field is None else self.field.p,
            congruences=tuple(congruences),
            restrictions=tuple(restrictions),
            variables=tuple(variables),
        )


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
        parser = _Parser(text, field)
        poly = parser._poly_sum()
        if parser.tokens[parser.pos]:
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
