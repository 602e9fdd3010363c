"""Command line interface.

Subcommands read a system file in the text format of the dsl module and emit
one JSON document on stdout (schema "1", keys sorted, counts as decimal
strings). Exit codes: 0 success/agreement, 1 usage or parse error, 2 theorem
hypothesis violated or work cap exceeded, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from .dsl import (
    ParseError,
    SystemDocument,
    build_restrictions,
    build_system,
    parse_poly,
    parse_system,
)
from .errors import CapExceededError, HypothesisError, UnsupportedShapeError
from .ffsystems import eta
from .gfpoly import GFPolynomial, PrimeField, format_poly, phi_poly
from .intarith import euler_phi
from .ramanujan import ramanujan_c
from .report import CountReport
from .snf import butson_stewart_count, lift_to_common_modulus, smith_normal_form
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


_quote = json.encoder.encode_basestring_ascii
# Python 3.10 before 3.10.7 has no cap on int/str conversion, so nothing to lift.
_set_int_max_str_digits = getattr(sys, "set_int_max_str_digits", None)


def _without_digit_cap(convert: Callable[[Any], str], value: Any) -> str:
    """convert(value) with Python's cap on int/str conversion digits lifted.

    Counts can have many thousands of digits. The cap is lifted only for
    this conversion, so it still guards parsing.
    """
    if _set_int_max_str_digits is None:
        return convert(value)
    cap = sys.get_int_max_str_digits()
    _set_int_max_str_digits(0)
    try:
        return convert(value)
    finally:
        _set_int_max_str_digits(cap)


def _decimal(n: int) -> str:
    return _without_digit_cap(str, n)


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


def _dumps(payload: dict[str, Any]) -> str:
    out: list[str] = []
    _write_json(payload, "", out)
    out.append("\n")
    return "".join(out)


def _emit(payload: dict[str, Any]) -> None:
    sys.stdout.write(_without_digit_cap(_dumps, payload))


def _load(path: str) -> SystemDocument:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    return parse_system(text)


def _report_payload(report: CountReport) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "count": _decimal(report.count),
        "solvable": report.solvable,
        "theorem": report.theorem,
        "details": dict(report.details),
    }


def _is_integer(system) -> bool:
    """Only Z systems have a one-row Lehmer count and a Smith form."""
    return isinstance(system, CongruenceSystem)


def _formula_report(system, table) -> CountReport:
    if table is not None:
        return restricted_system_count(system, table)
    if system.k == 1 and _is_integer(system):
        return lehmer_count(system.coefficients[0], system.rhs[0], system.moduli[0])
    return system_count(system)


def _cmd_count(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    report = _formula_report(build_system(doc), build_restrictions(doc))
    _emit(_report_payload(report))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    system = build_system(doc)
    ring = system.ring
    count, solutions = ring.oracle(system, build_restrictions(doc), args.cap)
    payload: dict[str, Any] = {
        "schema": SCHEMA,
        "count": _decimal(count),
        "modulus": _without_digit_cap(ring.format, ring.lcm(system.moduli)),
    }
    if args.list:
        payload["solutions"] = solutions
    _emit(payload)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    system = build_system(doc)
    table = build_restrictions(doc)
    methods: dict[str, Any] = {}
    counts: list[int] = []

    try:
        report = _formula_report(system, table)
        methods["formula"] = {"count": _decimal(report.count), "theorem": report.theorem}
        counts.append(report.count)
    except (HypothesisError, UnsupportedShapeError) as exc:
        methods["formula"] = {"skipped": str(exc)}

    if _is_integer(system):
        if table is not None:
            methods["snf"] = {"skipped": "restrictions present"}
        else:
            try:
                snf_report = butson_stewart_count(system)
                methods["snf"] = {
                    "count": _decimal(snf_report.count),
                    "invariant_factors": [
                        _decimal(e) for e in snf_report.details["invariant_factors"]
                    ],
                }
                counts.append(snf_report.count)
            except UnsupportedShapeError as exc:
                methods["snf"] = {"skipped": str(exc)}

    try:
        count, _ = system.ring.oracle(system, table, args.cap)
        methods["oracle"] = {"count": _decimal(count)}
        counts.append(count)
    except CapExceededError as exc:
        methods["oracle"] = {"skipped": str(exc)}

    agreement = len(set(counts)) <= 1
    _emit({"schema": SCHEMA, "methods": methods, "agreement": agreement})
    return 0 if agreement else 3


def _cmd_snf(args: argparse.Namespace) -> int:
    doc = _load(args.file)
    system = build_system(doc)
    if not _is_integer(system):
        raise _UsageError("snf applies to integer systems only")
    matrix, _, modulus = lift_to_common_modulus(system)
    result = smith_normal_form(matrix)
    report = butson_stewart_count(system)
    _emit(
        {
            "schema": SCHEMA,
            "modulus": _decimal(modulus),
            "invariant_factors": [_decimal(e) for e in result.invariant_factors],
            "count": _decimal(report.count),
            "solvable": report.solvable,
        }
    )
    return 0


def _cmd_crt(args: argparse.Namespace) -> int:
    system = build_system(_load(args.file))
    ring = system.ring
    solved = ring.crt(system.rhs, system.moduli)
    if solved is None:
        _emit({"schema": SCHEMA, "solvable": False})
        return 0
    b, m = solved
    _emit(
        {
            "schema": SCHEMA,
            "solvable": True,
            "residue": _without_digit_cap(ring.format, b),
            "modulus": _without_digit_cap(ring.format, m),
        }
    )
    return 0


def _cmd_ramanujan(args: argparse.Namespace) -> int:
    _emit({"schema": SCHEMA, "value": _decimal(ramanujan_c(args.m, args.a))})
    return 0


def _cmd_eta(args: argparse.Namespace) -> int:
    field = PrimeField(args.p)
    g = parse_poly(args.g, field)
    h = parse_poly(args.h, field)
    _emit({"schema": SCHEMA, "value": _decimal(eta(g, h))})
    return 0


def _cmd_phi(args: argparse.Namespace) -> int:
    if len(args.values) == 1:
        n = int(args.values[0])
        if n < 1:
            raise _UsageError("phi expects a positive integer")
        _emit({"schema": SCHEMA, "value": _decimal(euler_phi(n))})
        return 0
    if len(args.values) == 2:
        field = PrimeField(int(args.values[0]))
        h = parse_poly(args.values[1], field)
        _emit({"schema": SCHEMA, "value": _decimal(phi_poly(h))})
        return 0
    raise _UsageError("phi expects N or P H")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="congruences", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_file(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", help="system file in the congruence text format")

    p = sub.add_parser("count", help="exact solution count via the counting formulas")
    with_file(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="exhaustive enumeration (the oracle)")
    with_file(p)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="largest tuple space to scan (default 10^8)")
    p.add_argument("--list", action="store_true",
                   help="include the solutions when there are at most 1000")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run all applicable methods and compare")
    with_file(p)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="largest tuple space the oracle may scan")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("snf", help="invariant factors and the lifted-matrix count")
    with_file(p)
    p.set_defaults(func=_cmd_snf)

    p = sub.add_parser("crt", help="simultaneous residue of the right-hand sides")
    with_file(p)
    p.set_defaults(func=_cmd_crt)

    p = sub.add_parser("ramanujan", help="Ramanujan sum C_m(a)")
    p.add_argument("m", type=int)
    p.add_argument("a", type=int)
    p.set_defaults(func=_cmd_ramanujan)

    p = sub.add_parser("eta", help="polynomial Ramanujan sum eta(G, H) over F_p")
    p.add_argument("p", type=int)
    p.add_argument("g")
    p.add_argument("h")
    p.set_defaults(func=_cmd_eta)

    p = sub.add_parser("phi", help="totient: phi N (integers) or phi P H (F_p[t])")
    p.add_argument("values", nargs="+")
    p.set_defaults(func=_cmd_phi)

    return parser


def run_cli(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ParseError as exc:
        print(exc.diagnostic.render(), file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (HypothesisError, UnsupportedShapeError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
