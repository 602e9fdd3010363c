"""Command line interface.

Subcommands read a system file in the text format of the dsl module and emit
one JSON document on stdout (schema "1", keys sorted, counts as decimal
strings). Exit codes: 0 success/agreement, 1 usage or parse error, 2 theorem
hypothesis violated or work cap exceeded, 3 verification mismatch.

Each `_cmd_*` handler returns only its payload. `_run` decides the exit code,
in one place: from the exception a handler raised, else from the payload's
"agreement". It adds the schema key and writes the document once.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from .dsl import (
    _MAX_DIGITS,
    ParseError,
    SystemDocument,
    build_restrictions,
    build_system,
    parse_poly,
    parse_system,
)
from .errors import CapExceededError, HypothesisError
from .ffsystems import eta
from .gfpoly import GFPolynomial, PrimeField, format_poly, phi_poly
from .intarith import euler_phi
from .ramanujan import ramanujan_c
from .report import CountReport
from .snf import butson_stewart_count
from .systems import (
    CongruenceSystem,
    DEFAULT_ENUMERATION_CAP,
    lehmer_count,
    restricted_system_count,
    system_count,
)

SCHEMA = "1"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the spec reserves 2 for
    # hypothesis violations, so route usage problems through exit code 1.
    def error(self, message: str):  # type: ignore[override]
        raise _UsageError(message)


def _integer(text: str) -> int:
    """An integer argument, held to the digit limit of the text format."""
    digits = sum(c.isdigit() for c in text)
    if digits > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(
            f"a number of {digits} digits exceeds the limit {_MAX_DIGITS}"
        )
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


_quote = json.encoder.encode_basestring_ascii


def _json_scalar(value: Any) -> str:
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, GFPolynomial):
        return _quote(format_poly(value))
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(value: Any, indent: str, out: list[str]) -> None:
    """Append value to out as json.dumps(value, sort_keys=True, indent=2)
    writes it at the nesting of indent, with GFPolynomial values as their
    canonical text. Plain ints, most of a divisor table, are written in
    place rather than by a recursive call."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            item = value[key]
            if type(item) is int:
                out.append(sep + _quote(key) + ": " + repr(item))
            else:
                out.append(sep + _quote(key) + ": ")
                _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            if type(item) is int:
                out.append(sep + repr(item))
            else:
                out.append(sep)
                _write_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        out.append(_json_scalar(value))


def _emit(payload: dict[str, Any]) -> None:
    out: list[str] = []
    _write_json(payload, "", out)
    out.append("\n")
    sys.stdout.write("".join(out))


def _load(path: str) -> SystemDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    return parse_system(text)


def _is_integer(system) -> bool:
    """Only Z systems have a one-row Lehmer count and a Smith form."""
    return isinstance(system, CongruenceSystem)


def _formula_report(system, table) -> CountReport:
    if table is not None:
        return restricted_system_count(system, table)
    if system.k == 1 and _is_integer(system):
        return lehmer_count(system.coefficients[0], system.rhs[0], system.moduli[0])
    return system_count(system)


def _cmd_count(args: argparse.Namespace) -> dict[str, Any]:
    doc = _load(args.file)
    report = _formula_report(build_system(doc), build_restrictions(doc))
    return {
        "count": str(report.count),
        "solvable": report.solvable,
        "theorem": report.theorem,
        "details": dict(report.details),
    }


def _cmd_enumerate(args: argparse.Namespace) -> dict[str, Any]:
    doc = _load(args.file)
    system = build_system(doc)
    ring = system.ring
    count, solutions = ring.oracle(system, build_restrictions(doc), args.cap)
    payload: dict[str, Any] = {
        "count": str(count),
        "modulus": ring.format(ring.lcm(system.moduli)),
    }
    if args.list:
        payload["solutions"] = solutions
    return payload


def _cmd_verify(args: argparse.Namespace) -> dict[str, Any]:
    doc = _load(args.file)
    system = build_system(doc)
    table = build_restrictions(doc)
    methods: dict[str, Any] = {}
    counts: list[int] = []

    try:
        report = _formula_report(system, table)
        methods["formula"] = {"count": str(report.count), "theorem": report.theorem}
        counts.append(report.count)
    except HypothesisError as exc:
        methods["formula"] = {"skipped": str(exc)}

    if _is_integer(system):
        if table is not None:
            methods["snf"] = {"skipped": "restrictions present"}
        else:
            snf_report = butson_stewart_count(system)
            methods["snf"] = {
                "count": str(snf_report.count),
                "invariant_factors": [
                    str(e) for e in snf_report.details["invariant_factors"]
                ],
            }
            counts.append(snf_report.count)

    try:
        count, _ = system.ring.oracle(system, table, args.cap)
        methods["oracle"] = {"count": str(count)}
        counts.append(count)
    except CapExceededError as exc:
        methods["oracle"] = {"skipped": str(exc)}

    return {"methods": methods, "agreement": len(set(counts)) <= 1}


def _cmd_snf(args: argparse.Namespace) -> dict[str, Any]:
    system = build_system(_load(args.file))
    if not _is_integer(system):
        raise _UsageError("snf applies to integer systems only")
    report = butson_stewart_count(system)
    return {
        "modulus": str(report.details["modulus"]),
        "invariant_factors": [str(e) for e in report.details["invariant_factors"]],
        "count": str(report.count),
        "solvable": report.solvable,
    }


def _cmd_crt(args: argparse.Namespace) -> dict[str, Any]:
    system = build_system(_load(args.file))
    ring = system.ring
    solved = ring.crt(system.rhs, system.moduli)
    if solved is None:
        return {"solvable": False}
    b, m = solved
    return {"solvable": True, "residue": ring.format(b), "modulus": ring.format(m)}


def _cmd_ramanujan(args: argparse.Namespace) -> dict[str, Any]:
    return {"value": str(ramanujan_c(args.m, args.a))}


def _cmd_eta(args: argparse.Namespace) -> dict[str, Any]:
    field = PrimeField(args.p)
    return {"value": str(eta(parse_poly(args.g, field), parse_poly(args.h, field)))}


def _cmd_phi(args: argparse.Namespace) -> dict[str, Any]:
    if len(args.values) == 1:
        n = _integer(args.values[0])
        if n < 1:
            raise _UsageError("phi expects a positive integer")
        return {"value": str(euler_phi(n))}
    if len(args.values) == 2:
        field = PrimeField(_integer(args.values[0]))
        return {"value": str(phi_poly(parse_poly(args.values[1], field)))}
    raise _UsageError("phi expects N or P H")


def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring without its last paragraph, which is internal.
    parser = _Parser(prog="congruences", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="system file in the congruence text format")

    p = sub.add_parser("count", help="exact solution count via the counting formulas")
    with_file(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="exhaustive enumeration (the oracle)")
    with_file(p)
    p.add_argument("--cap", type=_integer, default=DEFAULT_ENUMERATION_CAP,
                   help="largest tuple space to scan (default 10^8)")
    p.add_argument("--list", action="store_true",
                   help="include the solutions when there are at most 1000")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run all applicable methods and compare")
    with_file(p)
    p.add_argument("--cap", type=_integer, default=DEFAULT_ENUMERATION_CAP,
                   help="largest tuple space the oracle may scan")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("snf", help="invariant factors and the lifted-matrix count")
    with_file(p)
    p.set_defaults(func=_cmd_snf)

    p = sub.add_parser("crt", help="simultaneous residue of the right-hand sides")
    with_file(p)
    p.set_defaults(func=_cmd_crt)

    p = sub.add_parser("ramanujan", help="Ramanujan sum C_m(a)")
    p.add_argument("m", type=_integer)
    p.add_argument("a", type=_integer)
    p.set_defaults(func=_cmd_ramanujan)

    p = sub.add_parser("eta", help="polynomial Ramanujan sum eta(G, H) over F_p")
    p.add_argument("p", type=_integer)
    p.add_argument("g")
    p.add_argument("h")
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("phi", help="totient: phi N (integers) or phi P H (F_p[t])")
    p.add_argument("values", nargs="+")
    p.set_defaults(func=_cmd_phi)

    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    # Counts can have many thousands of digits, so Python's cap on int/str
    # conversion is lifted for the run. Text reaches int() only through the
    # tokenizer and _integer, which both stop at _MAX_DIGITS themselves.
    # Python 3.10 before 3.10.7 has no cap.
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def _run(argv: Sequence[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
        payload = args.func(args)
    except ParseError as exc:
        print(exc.diagnostic.render(), file=sys.stderr)
        return 1
    except (HypothesisError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, argparse.ArgumentTypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit({"schema": SCHEMA, **payload})
    return 3 if payload.get("agreement") is False else 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
