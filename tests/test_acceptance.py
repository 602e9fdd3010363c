"""Acceptance suite: one test per shipped criterion, one printed verdict each.

Every check is exact (integer equality, byte equality for text); the stated
runtime budgets are enforced with wall-clock timing. The verdict lines are
also echoed into the terminal summary by conftest.py.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import pytest

from congruences.cli import run_cli
from congruences.dsl import (
    ParseError,
    build_restrictions,
    build_system,
    format_document,
    parse_system,
)
from congruences.ffsystems import (
    enumerate_solutions_ff,
    eta,
    eta_closed_form,
    eta_direct_oracle,
    i_and_j_functions_ff,
    restricted_system_count_ff,
    system_count_ff,
)
from congruences.gfpoly import (
    GFPolynomial,
    PrimeField,
    format_poly,
    monic_divisors,
    poly_lcm_many,
    residues,
)
from congruences.intarith import divisors, euler_phi, mobius, nary_gcd, nary_lcm
from congruences.ramanujan import MultiIndex, e_function, j_function, ramanujan_c, ramanujan_c_sum
from congruences.snf import butson_stewart_count
from congruences.systems import (
    enumerate_solutions,
    restricted_system_count,
    system_count,
)

from oracle_utils import brute_count_int, brute_count_ff, random_int_instance, random_poly_instance

SAMPLES_DIR = Path(__file__).resolve().parent.parent / "samples"
DATA_DIR = Path(__file__).resolve().parent / "data"

RESULTS: list[str] = []

_C6_CLOCK = {"total": 0.0}
_C6_BUDGET_SECONDS = 60.0

# Reference divisor table of the restricted (15, 14) sample, keyed by the
# divisor d of 210: (C_d(37), C_21(210/d), C_10(210/d), row product). The
# products sum to 210, giving the single solution.
REFERENCE_DIVISOR_TABLE = {
    1: (1, 12, 4, 48),
    2: (-1, 12, -4, 48),
    3: (-1, -6, 4, 24),
    5: (-1, 12, -1, 12),
    6: (1, -6, -4, 24),
    7: (-1, -2, 4, 8),
    10: (1, 12, 1, 12),
    14: (1, -2, -4, 8),
    15: (1, -6, -1, 6),
    21: (1, 1, 4, 4),
    30: (-1, -6, 1, 6),
    35: (1, -2, -1, 2),
    42: (-1, 1, -4, 4),
    70: (-1, -2, 1, 2),
    105: (-1, 1, -1, 1),
    210: (1, 1, 1, 1),
}


@contextmanager
def criterion(tag: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _emit(tag, "FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        _emit(tag, "FAIL")
        raise AssertionError(f"{tag} took {elapsed:.2f}s, budget {budget:.0f}s")
    _emit(tag, "PASS")


def _emit(tag: str, verdict: str) -> None:
    line = f"[acceptance] {tag}: {verdict}"
    RESULTS.append(line)
    print(line, flush=True)


def sample(name: str) -> str:
    return str(SAMPLES_DIR / name)


def load(name: str):
    doc = parse_system((SAMPLES_DIR / name).read_text(encoding="utf-8"))
    return doc, build_system(doc), build_restrictions(doc)


def cli_json(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_criterion_1_coprime_pair(capsys):
    with criterion("1 coprime system mod 12 and 35", budget=1.0):
        _, system, table = load("int_system_12_35.cong")
        assert table is None
        report = system_count(system)
        assert report.count == 840
        assert report.solvable is True
        count, _ = enumerate_solutions(system, None)
        assert count == 840
        snf_report = butson_stewart_count(system)
        assert snf_report.count == 840
        assert list(snf_report.details["invariant_factors"]) == [2, 840]
        assert cli_json(capsys, "count", sample("int_system_12_35.cong"))["count"] == "840"
        assert cli_json(capsys, "enumerate", sample("int_system_12_35.cong"))["count"] == "840"
        payload = cli_json(capsys, "snf", sample("int_system_12_35.cong"))
        assert payload["invariant_factors"] == ["2", "840"]
        assert payload["count"] == "840"


def test_criterion_2_coprime_triple(capsys):
    with criterion("2 coprime system mod 9, 16 and 5", budget=1.0):
        _, system, table = load("int_system_9_16_5.cong")
        assert table is None
        report = system_count(system)
        assert report.count == 3110400
        snf_report = butson_stewart_count(system)
        assert snf_report.count == 3110400
        assert list(snf_report.details["invariant_factors"]) == [6, 720, 3600]
        assert cli_json(capsys, "count", sample("int_system_9_16_5.cong"))["count"] == "3110400"
        # The oracle scans 9^3 + 16^3 + 5^3 = 4950 tuples, one piece at a time.
        payload = cli_json(capsys, "verify", sample("int_system_9_16_5.cong"))
        assert payload["agreement"] is True
        assert payload["methods"]["oracle"]["count"] == "3110400"
        payload = cli_json(capsys, "verify", "--cap", "1000", sample("int_system_9_16_5.cong"))
        assert payload["agreement"] is True
        assert payload["methods"]["formula"]["count"] == "3110400"
        assert payload["methods"]["snf"]["count"] == "3110400"
        assert "skipped" in payload["methods"]["oracle"]


def test_criterion_3_restricted_pair(capsys):
    with criterion("3 restricted system mod 15 and 14", budget=1.0):
        _, system, table = load("int_restricted_15_14.cong")
        report = restricted_system_count(system, table)
        assert report.count == 1
        assert report.details["crt_residue"] == 37
        assert report.details["modulus"] == 210
        rows = report.details["divisor_table"]
        assert len(rows) == 16
        for row in rows:
            want = REFERENCE_DIVISOR_TABLE[row["divisor"]]
            assert (
                row["rhs_value"],
                row["variable_values"][0],
                row["variable_values"][1],
                row["product"],
            ) == want
        assert sum(row["product"] for row in rows) == 210
        assert enumerate_solutions(system, table) == (1, [(10, 21)])
        payload = cli_json(capsys, "crt", sample("int_restricted_15_14.cong"))
        assert payload["solvable"] is True
        assert payload["residue"] == "37"
        assert payload["modulus"] == "210"
        payload = cli_json(capsys, "enumerate", "--list", sample("int_restricted_15_14.cong"))
        assert payload["solutions"] == [[10, 21]]


def test_criterion_4_polynomial_coprime(capsys):
    with criterion("4 polynomial system mod t^4 over GF(3) and GF(5)", budget=1.0):
        for name, q in (("poly_t4_gf3.cong", 3), ("poly_t4_gf5.cong", 5)):
            _, system, table = load(name)
            assert table is None
            assert system.field.p == q
            report = system_count_ff(system)
            assert report.count == q**5
            assert cli_json(capsys, "count", sample(name))["count"] == str(q**5)
        _, system, _ = load("poly_t4_gf3.cong")
        count, _ = enumerate_solutions_ff(system, None)
        assert count == 3**5


def test_criterion_5_polynomial_restricted(capsys):
    with criterion("5 restricted polynomial systems over GF(3), GF(5), GF(7)", budget=5.0):
        for name, q in (
            ("poly_restricted_gf3.cong", 3),
            ("poly_restricted_gf5.cong", 5),
            ("poly_restricted_gf7.cong", 7),
        ):
            _, system, table = load(name)
            report = restricted_system_count_ff(system, table)
            assert report.count == (q - 1) * (q - 2)
            rows = report.details["divisor_table"]
            assert [format_poly(row["divisor"]) for row in rows] == [
                "1", "t", "t + 1", "t^2", "t^2 + t", "t^3 + t^2",
            ]
            assert [row["product"] for row in rows] == [
                q * (q - 1) ** 4,
                q * (q - 1) ** 3,
                -q * (q - 1) ** 2,
                0,
                -q * (q - 1),
                0,
            ]
            assert cli_json(capsys, "count", sample(name))["count"] == str((q - 1) * (q - 2))
            if q in (3, 5):
                count, _ = enumerate_solutions_ff(system, table)
                assert count == (q - 1) * (q - 2)


def test_criterion_6a_ramanujan_identities():
    with criterion("6a Ramanujan sum identities for all m <= 300"):
        start = time.perf_counter()
        for m in range(1, 301):
            assert ramanujan_c(m, 0) == euler_phi(m)
            assert ramanujan_c(m, 1) == mobius(m)
            for a in range(m):
                value = ramanujan_c(m, a)
                assert value == ramanujan_c_sum(m, a)
                assert value == ramanujan_c(m, math.gcd(a, m))
        _C6_CLOCK["total"] += time.perf_counter() - start


def test_criterion_6b_moebius_inversion_identities():
    with criterion("6b Moebius-inversion identities, 200 random instances each"):
        start = time.perf_counter()
        rng = random.Random(0x6B01)
        for _ in range(200):
            n = rng.choice([1, 2])
            moduli = tuple(rng.randrange(1, 13) for _ in range(n))
            ambient = nary_lcm(moduli) * rng.choice([1, 2, 3])
            b = rng.randrange(ambient)
            total = 0
            for combo in product(*[divisors(m_i) for m_i in moduli]):
                total += e_function(b, MultiIndex(combo, ambient))
            assert total == j_function(b, MultiIndex(moduli, ambient))
        for _ in range(200):
            p = rng.choice([2, 3])
            field = PrimeField(p)
            n = rng.choice([1, 2])
            moduli = tuple(_random_monic(rng, field, rng.randrange(1, 3)) for _ in range(n))
            ambient = poly_lcm_many(moduli)
            if rng.random() < 0.5:
                ambient = ambient * _random_monic(rng, field, 1)
            a = GFPolynomial.from_coeffs(
                field, [rng.randrange(p) for _ in range(ambient.degree)]
            )
            total = 0
            for combo in product(*[monic_divisors(h) for h in moduli]):
                total += i_and_j_functions_ff(a, combo, ambient)[0]
            assert total == i_and_j_functions_ff(a, moduli, ambient)[1]
        _C6_CLOCK["total"] += time.perf_counter() - start


def test_criterion_6c_gcd_lcm_lemmas():
    with criterion("6c gcd/lcm quotient lemmas on 500 random instances"):
        start = time.perf_counter()
        rng = random.Random(0x6C01)
        for _ in range(500):
            m1 = rng.randint(1, 10_000)
            m2 = rng.randint(1, 10_000)
            while math.gcd(m1, m2) != 1:
                m2 = rng.randint(1, 10_000)
            m = rng.randint(1, 10_000)
            assert math.gcd(m1 * m2, m) == math.gcd(m1, m) * math.gcd(m2, m)
            assert math.lcm(m1 * m2, m) * m == math.lcm(m1, m) * math.lcm(m2, m)

            mm = rng.randint(1, 10_000)
            n = rng.randint(1, 5)
            a = [rng.randint(1, 10_000) for _ in range(n)]
            cofactors = [mm // math.gcd(ai, mm) for ai in a]
            assert nary_lcm(cofactors) == mm // nary_gcd(a + [mm])

            k = rng.randint(1, 3)
            n2 = rng.randint(1, 4)
            moduli: list[int] = []
            while len(moduli) < k:
                cand = rng.randint(2, 200)
                if all(math.gcd(cand, q) == 1 for q in moduli):
                    moduli.append(cand)
            coeffs = [[rng.randint(0, 10_000) for _ in range(n2)] for _ in range(k)]
            big = math.prod(moduli)
            columns = [
                big // math.prod(math.gcd(coeffs[i][j], moduli[i]) for i in range(k))
                for j in range(n2)
            ]
            ells = [nary_gcd(coeffs[i] + [moduli[i]]) for i in range(k)]
            assert nary_lcm(columns) == big // math.prod(ells)
        _C6_CLOCK["total"] += time.perf_counter() - start


def test_criterion_6d_eta_triple_agreement():
    with criterion("6d eta triple agreement for all G mod H, deg H <= 4, over F_3"):
        start = time.perf_counter()
        field = PrimeField(3)
        for degree in range(1, 5):
            for h in _monic_polys(field, degree):
                for g in residues(field, degree):
                    value = eta(g, h)
                    assert value == eta_closed_form(g, h)
                    assert value == eta_direct_oracle(g, h)
        _C6_CLOCK["total"] += time.perf_counter() - start


def test_criterion_6e_differential_suites():
    with criterion("6e differential: 500 integer + 200 polynomial random systems"):
        start = time.perf_counter()
        rng = random.Random(0x6E01)
        disagreements = 0
        for _ in range(500):
            system, table = random_int_instance(rng)
            expected, _ = brute_count_int(system, table)
            if table is None:
                got = system_count(system).count
            else:
                got = restricted_system_count(system, table).count
            if got != expected:
                disagreements += 1
        for _ in range(200):
            p = rng.choice([3, 5])
            system, table = random_poly_instance(rng, p)
            expected, _ = brute_count_ff(system, table)
            if table is None:
                got = system_count_ff(system).count
            else:
                got = restricted_system_count_ff(system, table).count
            if got != expected:
                disagreements += 1
        assert disagreements == 0
        _C6_CLOCK["total"] += time.perf_counter() - start
        assert _C6_CLOCK["total"] < _C6_BUDGET_SECONDS


def test_criterion_7_parser_corpus(capsys):
    with criterion("7 sample corpus round-trips and golden diagnostics"):
        sample_paths = sorted(SAMPLES_DIR.glob("*.cong"))
        assert len(sample_paths) == 8
        for path in sample_paths:
            doc = parse_system(path.read_text(encoding="utf-8"))
            canonical = format_document(doc)
            assert format_document(parse_system(canonical)) == canonical
            payload = cli_json(capsys, "verify", str(path))
            assert payload["agreement"] is True, path.name
        golden = sorted(DATA_DIR.glob("bad_*.cong"))
        assert len(golden) == 13
        for path in golden:
            expected = path.with_suffix(".expected").read_text(encoding="utf-8")
            with pytest.raises(ParseError) as excinfo:
                parse_system(path.read_text(encoding="utf-8"))
            assert excinfo.value.diagnostic.render() + "\n" == expected


def _monic_polys(field: PrimeField, degree: int) -> list[GFPolynomial]:
    out = []
    for low in residues(field, degree):
        coeffs = list(low.coefficients) + [0] * (degree - len(low.coefficients)) + [1]
        out.append(GFPolynomial.from_coeffs(field, coeffs))
    return out


def _random_monic(rng: random.Random, field: PrimeField, degree: int) -> GFPolynomial:
    coeffs = [rng.randrange(field.p) for _ in range(degree)] + [1]
    return GFPolynomial.from_coeffs(field, coeffs)
