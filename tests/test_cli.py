"""End-to-end tests for the command line interface: output JSON, exit codes."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import congruences.cli as cli_module
import congruences.intarith as intarith_module
from congruences import (
    CongruenceSystem,
    CountReport,
    DivisorTable,
    GFPolynomial,
    PolyCongruenceSystem,
    PolyRestrictionTable,
    PrimeField,
    RestrictionTable,
    format_poly,
    restricted_system_count,
    restricted_system_count_ff,
)
from congruences.cli import run_cli
from congruences.dsl import _MAX_EXPONENT

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SAMPLES_DIR = Path(__file__).resolve().parent.parent / "samples"
DATA_DIR = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def sample(name: str) -> str:
    return str(SAMPLES_DIR / name)


def test_count_integer_system(capsys):
    payload = run_json(capsys, "count", sample("int_system_12_35.cong"))
    assert payload["schema"] == "1"
    assert payload["count"] == "840"
    assert payload["solvable"] is True
    assert payload["theorem"] == "coprime_system"
    assert payload["details"]["modulus"] == 420
    assert payload["details"]["row_gcds"] == [2, 1]


def test_count_single_congruence_uses_gcd_formula(capsys, tmp_path):
    path = tmp_path / "single.cong"
    path.write_text("mod 12: 2*x1 + 2*x2 = 2\n")
    payload = run_json(capsys, "count", str(path))
    assert payload["theorem"] == "lehmer"
    assert payload["count"] == "24"


def test_count_restricted_system(capsys):
    payload = run_json(capsys, "count", sample("int_restricted_15_14.cong"))
    assert payload["count"] == "1"
    assert payload["theorem"] == "restricted_system"
    assert payload["details"]["crt_residue"] == 37
    assert payload["details"]["modulus"] == 210
    table = payload["details"]["divisor_table"]
    assert len(table) == 16
    assert sum(row["product"] for row in table) == 210


def test_count_polynomial_system(capsys):
    payload = run_json(capsys, "count", sample("poly_t4_gf3.cong"))
    assert payload["count"] == "243"
    assert payload["theorem"] == "coprime_system_poly"
    assert payload["details"]["row_gcds"] == ["t"]


def test_count_restricted_polynomial_system(capsys):
    for name, want in (
        ("poly_restricted_gf3.cong", "2"),
        ("poly_restricted_gf5.cong", "12"),
        ("poly_restricted_gf7.cong", "30"),
    ):
        payload = run_json(capsys, "count", sample(name))
        assert payload["count"] == want
        assert payload["theorem"] == "restricted_system_poly"


def test_enumerate_with_solutions(capsys):
    payload = run_json(
        capsys, "enumerate", "--list", sample("int_restricted_15_14.cong")
    )
    assert payload["count"] == "1"
    assert payload["modulus"] == "210"
    assert payload["solutions"] == [[10, 21]]


def test_enumerate_polynomial(capsys):
    payload = run_json(capsys, "enumerate", "--list", sample("poly_t4_gf3.cong"))
    assert payload["count"] == "243"
    assert payload["modulus"] == "t^4"
    assert len(payload["solutions"]) == 243
    assert payload["solutions"][0] == ["2", "t"]


def test_enumerate_withholds_large_solution_lists(capsys, tmp_path):
    path = tmp_path / "wide.cong"
    terms = " + ".join(f"x{j}" for j in range(1, 12))
    path.write_text(f"mod 2: {terms} = 0\n")
    payload = run_json(capsys, "enumerate", "--list", str(path))
    assert payload["count"] == "1024"
    assert payload["solutions"] is None


def test_enumerate_cap_exceeded(capsys, tmp_path):
    code, _, err = run(
        capsys, "enumerate", "--cap", "10", sample("int_system_12_35.cong")
    )
    assert code == 2
    assert "exceeds cap" in err
    # A modulus past the int64 scan's limit is refused, not scanned.
    path = tmp_path / "wide_modulus.cong"
    path.write_text("mod 3000000019: x1 = 0\n")
    code, out, err = run(capsys, "enumerate", "--cap", "10000000000", str(path))
    assert code == 2
    assert out == ""
    assert "moduli below 3000000000" in err


def test_factoring_past_the_rho_budget_exit_code(capsys, monkeypatch):
    # The product of two primes past 10**19 exhausts Pollard rho's budget;
    # a smaller budget keeps this fast (test_intarith runs the real one).
    monkeypatch.setattr(intarith_module, "_RHO_STEPS", 2**12)
    m = (10**19 + 51) * (10**20 + 39)
    code, out, err = run(capsys, "ramanujan", str(m), "1")
    assert code == 2
    assert out == ""
    assert "factoring a 40-digit composite exceeds the budget" in err


def test_primality_past_its_bound_exit_code(capsys, tmp_path):
    # 4300 ones leave a cofactor of about 14000 bits after trial division;
    # testing it for primality would take minutes, so it is a cap error.
    start = time.perf_counter()
    code, out, err = run(capsys, "ramanujan", "1" * 4300, "3")
    assert time.perf_counter() - start < 10
    assert (code, out) == (2, "")
    assert "-bit number exceeds the limit of 2048 bits" in err
    # A field order goes through the same test, as an argument or a header.
    mersenne = str(2**2203 - 1)
    path = tmp_path / "huge_field.cong"
    path.write_text(f"field GF({mersenne})\nmod t: x1 = 1\n")
    for argv in (("eta", mersenne, "t", "t"), ("phi", mersenne, "t"), ("count", str(path))):
        assert run(capsys, *argv) == (
            2, "", "error: a primality test on a 2203-bit number exceeds the limit of 2048 bits\n"
        )


def test_snf_subcommand(capsys):
    payload = run_json(capsys, "snf", sample("int_system_12_35.cong"))
    assert payload["invariant_factors"] == ["2", "840"]
    assert payload["count"] == "840"
    assert payload["modulus"] == "420"
    assert payload["solvable"] is True


def test_snf_and_verify_on_every_shape(capsys, tmp_path):
    # More congruences than variables (coprime moduli, so the formula
    # applies too), and a rank-1 lifted matrix with non-coprime moduli.
    cases = [
        ("mod 4: x1 = 1\nmod 9: 2*x1 = 4\n", "36", ["1"], "1"),
        ("mod 6: x1 + x2 = 1\nmod 4: 2*x1 + 2*x2 = 2\n", "12", ["2"], "24"),
    ]
    for text, modulus, factors, count in cases:
        path = tmp_path / "shape.cong"
        path.write_text(text)
        snf = run_json(capsys, "snf", str(path))
        assert snf["modulus"] == modulus
        assert snf["invariant_factors"] == factors
        assert snf["count"] == count
        assert snf["solvable"] is True
        verify = run_json(capsys, "verify", str(path))
        assert verify["agreement"] is True
        assert verify["methods"]["snf"] == {"count": count, "invariant_factors": factors}
        assert verify["methods"]["oracle"] == {"count": count}


def test_snf_rejects_polynomial_input(capsys):
    code, _, err = run(capsys, "snf", sample("poly_t4_gf3.cong"))
    assert code == 1
    assert "integer systems only" in err


def test_crt_subcommand(capsys):
    payload = run_json(capsys, "crt", sample("int_restricted_15_14.cong"))
    assert payload == {
        "schema": "1",
        "solvable": True,
        "residue": "37",
        "modulus": "210",
    }


def test_crt_unsolvable(capsys, tmp_path):
    path = tmp_path / "inconsistent.cong"
    path.write_text("mod 4: x1 = 1\nmod 6: x1 = 2\n")
    payload = run_json(capsys, "crt", str(path))
    assert payload == {"schema": "1", "solvable": False}


def test_crt_polynomial(capsys):
    payload = run_json(capsys, "crt", sample("poly_restricted_gf5.cong"))
    assert payload["residue"] == "3*t + 1"
    assert payload["modulus"] == "t^3 + t^2"


def test_crt_polynomial_moduli_not_coprime(capsys, tmp_path):
    # t^2 and t share the factor t; crt answers as it does over Z.
    path = tmp_path / "shared_factor.cong"
    path.write_text("field GF(2)\nmod t^2: x1 = 1\nmod t: x1 = 1\n")
    payload = run_json(capsys, "crt", str(path))
    assert payload == {"schema": "1", "solvable": True, "residue": "1", "modulus": "t^2"}
    path.write_text("field GF(2)\nmod t^2: x1 = 1\nmod t: x1 = 0\n")
    assert run_json(capsys, "crt", str(path)) == {"schema": "1", "solvable": False}


def test_ramanujan_subcommand(capsys):
    assert run_json(capsys, "ramanujan", "21", "210")["value"] == "12"
    assert run_json(capsys, "ramanujan", "10", "105")["value"] == "-4"


def test_eta_subcommand(capsys):
    assert run_json(capsys, "eta", "3", "t", "t^2")["value"] == "-3"
    assert run_json(capsys, "eta", "3", "0", "t^2")["value"] == "6"


def test_eta_rejects_composite_field_order(capsys):
    code, _, err = run(capsys, "eta", "4", "t", "t^2")
    assert code == 1
    assert "prime" in err


def test_phi_subcommand(capsys):
    assert run_json(capsys, "phi", "9")["value"] == "6"
    assert run_json(capsys, "phi", "3", "t^2")["value"] == "6"
    for argv, message in (
        (("phi", "0"), "phi expects a positive integer"),
        (("phi", "abc"), "invalid int value: 'abc'"),
        (("phi", "1.5", "t"), "invalid int value: '1.5'"),
        (("ramanujan", "abc", "1"), "argument m: invalid int value: 'abc'"),
    ):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_scalar_subcommands_on_edge_inputs(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal

    def value(v: str) -> str:
        return '{\n  "schema": "1",\n  "value": "%s"\n}\n' % v

    eta_help = (
        "usage: congruences eta [-h] p g h\n\npositional arguments:\n  p\n  g\n  h\n\n"
        "options:\n  -h, --help  show this help message and exit\n"
    )
    for argv, code, out, err in (
        (("ramanujan", "0", "1"), 1, "", "error: modulus must be positive\n"),
        (("ramanujan", "6", "-3"), 0, value("-2"), ""),
        (("eta", "3", "1", "0"), 1, "", "error: modulus must be nonzero\n"),
        (("phi", "0"), 1, "", "error: phi expects a positive integer\n"),
        (("phi", "3", "0"), 1, "", "error: phi expects a nonzero polynomial\n"),
        # A polynomial starting with "-" is a value, not an unknown option.
        (("eta", "3", "-t", "t^2"), 0, value("-3"), ""),
        (("eta", "3", "t", "-t^2"), 0, value("-3"), ""),
        (("phi", "3", "-t"), 0, value("2"), ""),
        (("phi", "-5"), 1, "", "error: phi expects a positive integer\n"),
        (("eta", "-h"), 0, eta_help, ""),
        (("eta", "4", "t", "t^2"), 1, "", "error: field order must be a prime number\n"),
        (("phi", "4", "t"), 1, "", "error: field order must be a prime number\n"),
    ):
        try:
            got = run_cli(list(argv))
        except SystemExit as exc:  # --help exits from inside argparse
            got = exc.code
        captured = capsys.readouterr()
        assert (got, captured.out, captured.err) == (code, out, err), argv


def test_strong_pseudoprime_psi12_is_composite(capsys, tmp_path):
    # 399165290221 * 798330580441 passes Miller-Rabin to every base up to 37.
    psi12 = "318665857834031151167461"
    phi = "318665857832833655296800"
    assert run_json(capsys, "phi", psi12)["value"] == phi
    path = tmp_path / "psi12.cong"
    path.write_text(f"mod {psi12}: x1 + x2 = 0\ngcd(x1, {psi12}) = 1\ngcd(x2, {psi12}) = 1\n")
    assert run_json(capsys, "count", str(path))["count"] == phi
    path.write_text(f"field GF({psi12})\nmod t: x1 = 0\n")
    code, out, err = run(capsys, "count", str(path))
    assert (code, out) == (1, "")
    assert err == (
        f"line 1, column 10: field order {psi12} is not prime\n"
        f"  field GF({psi12})\n" + " " * 11 + "^\n"
    )


def test_polynomial_exponent_limit(capsys, tmp_path):
    path = tmp_path / "high_degree.cong"
    for exponent in (_MAX_EXPONENT + 1, 10**30):
        path.write_text(f"field GF(2)\nmod t^{exponent}: x1 = 1\n")
        code, out, err = run(capsys, "count", str(path))
        assert (code, out) == (1, "")
        assert err == (
            f"line 2, column 7: exponent exceeds the limit {_MAX_EXPONENT}\n"
            f"  mod t^{exponent}: x1 = 1\n" + " " * 8 + "^\n"
        )
        code, out, err = run(capsys, "phi", "2", f"t^{exponent}")
        assert (code, out) == (1, "")
        assert f"exponent exceeds the limit {_MAX_EXPONENT}" in err


def test_verify_integer_system(capsys):
    payload = run_json(capsys, "verify", sample("int_system_12_35.cong"))
    assert payload["agreement"] is True
    assert payload["methods"]["formula"]["count"] == "840"
    assert payload["methods"]["formula"]["theorem"] == "coprime_system"
    assert payload["methods"]["snf"]["count"] == "840"
    assert payload["methods"]["snf"]["invariant_factors"] == ["2", "840"]
    assert payload["methods"]["oracle"]["count"] == "840"


def test_verify_restricted_skips_snf(capsys):
    payload = run_json(capsys, "verify", sample("int_restricted_15_14.cong"))
    assert payload["agreement"] is True
    assert payload["methods"]["snf"] == {"skipped": "restrictions present"}
    assert payload["methods"]["formula"]["count"] == "1"
    assert payload["methods"]["oracle"]["count"] == "1"


def test_verify_polynomial_system(capsys):
    payload = run_json(capsys, "verify", sample("poly_restricted_gf3.cong"))
    assert payload["agreement"] is True
    assert "snf" not in payload["methods"]
    assert payload["methods"]["formula"]["count"] == "2"
    assert payload["methods"]["oracle"]["count"] == "2"


NOT_COPRIME = "mod 4: x1 + x2 = 1\nmod 6: x1 + x2 = 3\n"
NOT_COPRIME_RESTRICTED = NOT_COPRIME + (
    "gcd(x1, 4) = 1\ngcd(x1, 6) = 1\ngcd(x2, 4) = 2\ngcd(x2, 6) = 2\n"
)


@pytest.mark.parametrize("text, methods", [
    (NOT_COPRIME, {
        "formula": {"skipped": "moduli 4 and 6 are not coprime"},
        "snf": {"count": "12", "invariant_factors": ["1"]},
        "oracle": {"count": "12"},
    }),
    (NOT_COPRIME_RESTRICTED, {
        "formula": {"skipped": "moduli 4 and 6 are not coprime"},
        "snf": {"skipped": "restrictions present"},
        "oracle": {"count": "2"},
    }),
    ("field GF(3)\nmod t^2: x1 + x2 = 1\nmod t^2 + t: x1 + 2*x2 = 1\n", {
        "formula": {"skipped": "moduli t^2 and t^2 + t are not coprime"},
        "oracle": {"count": "9"},
    }),
], ids=["integer", "restricted", "polynomial"])
def test_verify_methods_on_moduli_not_coprime(capsys, tmp_path, text, methods):
    path = tmp_path / "system.cong"
    path.write_text(text)
    assert run_json(capsys, "verify", str(path)) == {
        "schema": "1", "agreement": True, "methods": methods,
    }


def test_verify_with_no_method_that_counts_is_a_hypothesis_error(capsys, tmp_path):
    # Nothing was compared, so there is no agreement to report.
    path = tmp_path / "system.cong"
    path.write_text(NOT_COPRIME_RESTRICTED)
    assert run(capsys, "verify", "--cap", "0", str(path)) == (
        2,
        "",
        "error: no method could count (formula: moduli 4 and 6 are not coprime;"
        " snf: restrictions present; oracle: scan of 144 tuples exceeds cap 0)\n",
    )


def test_verify_with_tiny_cap_skips_oracle(capsys):
    payload = run_json(
        capsys, "verify", "--cap", "10", sample("int_system_12_35.cong")
    )
    assert payload["agreement"] is True
    assert "skipped" in payload["methods"]["oracle"]


def test_negative_cap_is_a_usage_error(capsys):
    for command in ("enumerate", "verify"):
        for cap in ("-1", "-5"):
            assert run(capsys, command, "--cap", cap, sample("int_system_12_35.cong")) == (
                1,
                "",
                f"error: argument --cap: the cap must be at least 0, not {cap}\n",
            )
    # A cap of 0 is a cap: the oracle scans nothing.
    payload = run_json(capsys, "verify", "--cap", "0", sample("int_system_12_35.cong"))
    assert payload["methods"]["oracle"] == {"skipped": "scan of 176400 tuples exceeds cap 0"}


def test_verify_reports_disagreement(capsys, monkeypatch):
    import congruences.cli as cli_module

    def wrong_count(system):
        return CountReport(
            count=841, solvable=True, theorem="coprime_system", details={}
        )

    monkeypatch.setattr(cli_module, "system_count", wrong_count)
    code, out, _ = run(capsys, "verify", sample("int_system_12_35.cong"))
    assert code == 3
    payload = json.loads(out)
    assert payload["agreement"] is False
    assert payload["methods"]["formula"]["count"] == "841"
    assert payload["methods"]["snf"]["count"] == "840"


def test_parse_error_exit_code_and_diagnostic(capsys):
    code, out, err = run(capsys, "count", str(DATA_DIR / "bad_modulus.cong"))
    assert code == 1
    assert out == ""
    expected = (DATA_DIR / "bad_modulus.expected").read_text(encoding="utf-8")
    assert err == expected


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "count", "/nonexistent/nowhere.cong")
    assert code == 1
    assert "cannot read" in err


def test_hypothesis_violation_exit_code(capsys, tmp_path):
    path = tmp_path / "noncoprime.cong"
    path.write_text("mod 4: x1 + x2 = 1\nmod 6: x1 + x2 = 3\n")
    code, _, err = run(capsys, "count", str(path))
    assert code == 2
    assert "not coprime" in err


def test_incomplete_restrictions_exit_code(capsys, tmp_path):
    path = tmp_path / "partial.cong"
    path.write_text("mod 12: x1 + x2 = 1\ngcd(x1, 12) = 1\n")
    code, _, err = run(capsys, "count", str(path))
    assert code == 2
    assert "incomplete restriction table" in err


def test_usage_errors_exit_code(capsys):
    assert run(capsys, "count")[0] == 1
    assert run(capsys)[0] == 1
    assert run(capsys, "definitely-not-a-command")[0] == 1
    assert run(capsys, "ramanujan", "21")[0] == 1
    assert run(capsys, "ramanujan", "x", "y")[0] == 1
    assert run(capsys, "phi", "1", "2", "3")[0] == 1


def test_output_is_deterministic(capsys):
    first = run(capsys, "count", sample("int_restricted_15_14.cong"))
    second = run(capsys, "count", sample("int_restricted_15_14.cong"))
    assert first == second
    payload = first[1]
    assert payload == json.dumps(json.loads(payload), sort_keys=True, indent=2) + "\n"


def test_every_sample_verifies(capsys):
    for path in sorted(SAMPLES_DIR.glob("*.cong")):
        payload = run_json(capsys, "verify", str(path))
        assert payload["agreement"] is True, path.name


def _plain(value):
    """value with every polynomial replaced by its canonical text, and every
    divisor table by its rows, read through the sequence protocol."""
    if isinstance(value, GFPolynomial):
        return format_poly(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, DivisorTable)):
        return [_plain(v) for v in value]
    return value


def _dumps(payload):
    return json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n"


def test_emit_matches_json_dumps_on_samples(capsys, monkeypatch):
    payloads = []
    emit = cli_module._emit

    def recording_emit(payload):
        payloads.append(payload)
        emit(payload)

    monkeypatch.setattr(cli_module, "_emit", recording_emit)
    checked = 0
    for path in sorted(SAMPLES_DIR.glob("*.cong")):
        for command in (["count"], ["verify"], ["crt"], ["enumerate", "--list"], ["snf"]):
            code, out, err = run(capsys, *command, str(path))
            if code != 0:
                # snf on a polynomial sample; enumerate past its cap.
                assert out == "" and ("integer systems only" in err or "exceeds cap" in err)
                continue
            assert out == _dumps(payloads[-1]), (command, path.name)
            checked += 1
    assert checked == 34


def _real_divisor_tables():
    """Details of restricted counts: two Z systems modulo a product of eight
    primes near 10^6 (256 rows, n = 1 and n = 4) and one F_5[t] system
    (24 rows)."""
    primes = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121)
    m = math.prod(primes)
    tables = []
    for t in ((1,), (1, primes[0], 1, primes[1] * primes[2])):
        system = CongruenceSystem((tuple(range(1, len(t) + 1)),), (m,), (5,))
        tables.append(restricted_system_count(system, RestrictionTable((t,))).details)
    field = PrimeField(5)

    def poly(*coeffs):
        return GFPolynomial.from_coeffs(field, coeffs)

    one, t = poly(1), poly(0, 1)
    h1 = t * t * poly(1, 1)
    h2 = poly(2, 0, 1) * poly(1, 1, 0, 1)
    system = PolyCongruenceSystem(
        field, ((one, poly(2)), (one, one)), (h1, h2), (poly(3), t)
    )
    restrictions = PolyRestrictionTable(((one, t), (one, one)))
    tables.append(restricted_system_count_ff(system, restrictions).details)
    return tables


def test_emit_matches_json_dumps_on_synthetic_payloads(capsys):
    field = PrimeField(5)
    poly = GFPolynomial.from_coeffs(field, (1, 0, 3))
    real = _real_divisor_tables()
    assert [len(details["divisor_table"]) for details in real] == [256, 256, 24]
    z_rows = [*real[0]["divisor_table"], *real[1]["divisor_table"]]
    assert {len(row["variable_values"]) for row in z_rows} == {1, 4}
    assert min(row["rhs_value"] for row in z_rows) < 0
    assert max(row["product"] for row in z_rows) >= 10**40
    assert all(isinstance(row["divisor"], GFPolynomial) for row in real[2]["divisor_table"])
    # The tables are written from their columns, not through the generic path.
    assert all(type(details["divisor_table"]) is DivisorTable for details in real)
    row = {"divisor": 6, "product": -4, "rhs_value": 2, "variable_values": [-2, 1]}
    near_misses = [
        {**row, "rhs_value": True},
        {**row, "divisor": False},
        {**row, "variable_values": [-2, True]},
        {**row, "variable_values": (-2, 1)},
        {**row, "variable_values": []},
        {**row, "variable_values": [-2]},
        {**row, "extra": 0},
        {"divisor": 6, "product": -4, "rhs": 2, "variable_values": [-2, 1]},
        {**row, "divisor": "6"},
        [row],
    ]
    payloads = [
        {},
        {"empty_list": [], "empty_dict": {}, "nested": [[], [{}], {"a": [[[]]]}]},
        {"flags": [True, False, None], "true": True, "false": False, "none": None},
        {"text": 'h\u00e9llo \u2603 \U0001F600 "quoted" \\ \n\t\x00', "\u00fcnicode key": "x"},
        {"ints": [-1, 0, -(10**30), 10**40], "negative": -7, "zero": 0},
        {
            "poly": poly,
            "polys": [poly, GFPolynomial.zero(field), (poly, -3)],
            "table": [{"divisor": poly, "product": -4, "variable_values": [-2, 5]}],
        },
        {"tuple": (1, (2, 3), ()), "z": 1, "a": 2, "M": 3, "": "empty key"},
        *({"details": details} for details in real),
        {"one_row": [row], "polynomial_row": [{**row, "divisor": poly}], "empty_table": []},
        # Lists of rows that are not exactly a divisor table, each after a good row.
        *({"table": [row, near_miss]} for near_miss in near_misses),
        {"table": (row, row)},
    ]
    for payload in payloads:
        cli_module._emit(payload)
        assert capsys.readouterr().out == _dumps(payload)
    # A set of ints is no JSON value, in a table row or anywhere else.
    unserializable = {"table": [row, {**row, "variable_values": {-2, 1}}]}
    with pytest.raises(TypeError):
        json.dumps(unserializable)
    with pytest.raises(TypeError):
        cli_module._emit(unserializable)


QUOTED = [
    "",
    "plain text",
    '"',
    "\\",
    '\\"',
    "".join(map(chr, range(0x20))),  # control characters
    "\x7f",  # DEL
    "caf\u00e9 \u2603 \u0800 \uffff",  # non-ASCII BMP
    "\U0001F600 \U00010000 \U0010FFFF",  # astral
    "\ud800",  # lone surrogates
    "x\udfffy",
    "\ud83d\ude00",  # a surrogate pair, as two code points
    "".join(map(chr, range(0x110000))),  # every code point
]


def test_quote_matches_json_dumps():
    for text in QUOTED:
        assert cli_module._quote(text) == json.dumps(text)


def test_quote_falls_back_to_the_pure_python_encoder():
    # Without the C module, in a fresh process, against this process's json.
    expected = [(text, json.dumps(text)) for text in QUOTED[:-1]]
    code = (
        "import sys\n"
        "sys.modules['_json'] = None\n"
        "from congruences import cli\n"
        "import json.encoder\n"
        "assert cli._quote is json.encoder.py_encode_basestring_ascii\n"
        f"for text, want in {ascii(expected)}:\n"
        "    assert cli._quote(text) == want, text\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


def test_huge_counts_print_in_full(capsys, tmp_path):
    path = tmp_path / "huge.cong"
    terms = " + ".join(f"x{j}" for j in range(1, 202))
    path.write_text(f"mod {10**50}: {terms} = 1\n")
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    want = "1" + "0" * 10000  # (10^50)^200
    count = run_json(capsys, "count", str(path))
    assert count["theorem"] == "lehmer"
    assert count["count"] == want
    snf = run_json(capsys, "snf", str(path))
    assert snf["count"] == want
    assert snf["modulus"] == "1" + "0" * 50
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


def test_oracle_cap_with_huge_tuple_counts(capsys, tmp_path):
    # (10^50)^201 and (3^100)^100 tuples: the cap message must not write
    # either count in decimal, both being past Python's 4300-digit limit.
    int_terms = " + ".join(f"x{j}" for j in range(1, 202))
    poly_terms = " + ".join(f"x{j}" for j in range(1, 101))
    for text in (
        f"mod {10**50}: {int_terms} = 1\n",
        f"field GF(3)\nmod t^100: {poly_terms} = 1\n",
    ):
        path = tmp_path / "huge.cong"
        path.write_text(text)
        payload = run_json(capsys, "verify", str(path))
        assert payload["agreement"] is True
        assert "exceeds cap" in payload["methods"]["oracle"]["skipped"]
        code, out, err = run(capsys, "enumerate", str(path))
        assert code == 2
        assert out == ""
        assert "exceeds cap" in err


def test_polynomial_oracle_table_limit(capsys, tmp_path):
    # 2^19 and 2^26 tuples are within the tuple cap, but the residue and
    # coefficient tables would hold 2^20 and 2^27 entries.
    path = tmp_path / "wide_poly.cong"
    for degree in (19, 26):
        path.write_text(f"field GF(2)\nmod t^{degree}: x1 = 1\n")
        start = time.perf_counter()
        payload = run_json(capsys, "verify", str(path))
        assert time.perf_counter() - start < 10
        assert payload["agreement"] is True
        assert payload["methods"]["oracle"]["skipped"] == (
            f"oracle tables of {2 ** (degree + 1)} entries exceed the limit 1000000"
        )
        code, out, err = run(capsys, "enumerate", str(path))
        assert (code, out) == (2, "")
        assert "exceed the limit 1000000" in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit cap"
)
def test_digit_cap_still_guards_parsing(capsys, tmp_path):
    path = tmp_path / "long_literal.cong"
    digits = "1" + "0" * 5000
    message = "a number of 5001 digits exceeds the limit 4300"
    for text, line, column in (
        (f"mod {digits}: x1 = 1\n", 1, 5),
        (f"mod 7: x{digits} = 1\n", 1, 9),
        (f"field GF(3)\nmod t^2: {digits}*x1 = 1\n", 2, 10),
    ):
        path.write_text(text)
        code, out, err = run(capsys, "count", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"line {line}, column {column}: {message}\n"), err[:200]
        assert err.endswith("\n  " + " " * (column - 1) + "^\n")
    # 4300 digits still parse.
    path.write_text(f"mod 7: {'1' * 4300}*x1 = 1\n")
    assert run_json(capsys, "count", str(path))["count"] == "1"
    # So do integer arguments, with the same limit and wording.
    for argv, prefix in (
        (("phi", digits), ""),
        (("phi", digits, "t"), ""),
        (("ramanujan", digits, "1"), "argument m: "),
        (("ramanujan", "12", "-" + digits), "argument a: "),
        (("eta", digits, "t", "t"), "argument p: "),
        (("enumerate", "--cap", digits, str(path)), "argument --cap: "),
    ):
        assert run(capsys, *argv) == (1, "", f"error: {prefix}{message}\n")
    assert run_json(capsys, "ramanujan", "12", "1" * 4300)["value"] == "0"


def test_module_runs_as_script():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "congruences.cli", "count", sample("int_system_12_35.cong")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["count"] == "840"
