"""Byte-for-byte pins of what the parser makes of damaged input.

tests/data/parser_corpus.json holds seeded 1-3 character mutations of every
sample and every tests/data/*.cong document, and of the polynomials they
contain. Each entry is [kind, input, result]: kind "doc" is parse_system,
with the canonical text of the document or its rendered diagnostic as the
result; kind "GF(p)" is parse_poly over that field, with the canonical
polynomial or the ValueError message. The test re-parses every stored input
and compares the whole file. After a deliberate change of parser output,
rewrite the corpus with

    PYTHONPATH=src python tests/test_parser_corpus.py
"""

import json
import random
import re
from pathlib import Path

from congruences import ParseError, PrimeField, format_document, parse_poly, parse_system
from congruences.gfpoly import format_poly

TESTS_DIR = Path(__file__).resolve().parent
CORPUS = TESTS_DIR / "data" / "parser_corpus.json"
SOURCES = sorted((TESTS_DIR.parent / "samples").glob("*.cong")) + sorted(
    (TESTS_DIR / "data").glob("*.cong")
)
# Characters the tokenizer treats specially: line breaks of str.splitlines,
# Unicode whitespace and digits, a non-ASCII letter, the comment sign and
# every symbol and keyword letter of the grammar.
EXTRA = "\n\r\t \xa0\x0b\x0c\x1c ٣é#()+-*^:,=0123456789txmodgcfieldGF"
MUTANTS_PER_SOURCE = 19
POLY_FIELDS = (2, 3, 5, 7)
# Polynomials in the document syntax besides the moduli of the sources.
POLYS = ["3*t + 1", "-2", "t^3 + 2*t", "-t^2 + t - 1", "2*t^10 + 4*t^3 + 6", "0", "t^1000000"]
POLY_MUTANTS = 80


def _mutate(rng: random.Random, text: str) -> str:
    alphabet = sorted(set(text)) + list(EXTRA)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 0 or not text:
            text = text[:pos] + rng.choice(alphabet) + text[pos:]
        elif op == 1:
            text = text[:pos] + text[pos + 1 :]
        else:
            text = text[:pos] + rng.choice(alphabet) + text[pos + 1 :]
    return text


def inputs() -> list[tuple[str, str]]:
    """(kind, text) pairs: each source, its mutants, then polynomial mutants."""
    rng = random.Random(20241)
    out = []
    polys = list(POLYS)
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        out.append(("doc", text))
        out.extend(("doc", _mutate(rng, text)) for _ in range(MUTANTS_PER_SOURCE))
        if "field GF" in text:
            polys.extend(re.findall(r"mod ([^:\n#]+):", text))
    for _ in range(POLY_MUTANTS):
        kind = f"GF({rng.choice(POLY_FIELDS)})"
        out.append((kind, _mutate(rng, rng.choice(polys))))
    return out


def result(kind: str, text: str) -> str:
    if kind == "doc":
        try:
            return format_document(parse_system(text))
        except ParseError as exc:
            return exc.diagnostic.render()
    try:
        return format_poly(parse_poly(text, PrimeField(int(kind[3:-1]))))
    except ValueError as exc:
        return str(exc)


def corpus_text(pairs: list[tuple[str, str]]) -> str:
    entries = [[kind, text, result(kind, text)] for kind, text in pairs]
    return json.dumps(entries, indent=1) + "\n"


def test_parser_corpus_matches():
    want = CORPUS.read_text(encoding="utf-8")
    stored = [(kind, text) for kind, text, _ in json.loads(want)]
    assert len(stored) > 400
    assert corpus_text(stored) == want


def test_parser_corpus_inputs_are_the_seeded_mutations():
    stored = [(kind, text) for kind, text, _ in json.loads(CORPUS.read_text(encoding="utf-8"))]
    assert stored == inputs()


if __name__ == "__main__":
    CORPUS.write_text(corpus_text(inputs()), encoding="utf-8")
