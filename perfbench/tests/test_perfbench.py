"""Tests of the benchmark itself: generator, reference and span arithmetic.

Run from the repository root with `python -m pytest perfbench/tests`.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from pathlib import Path

import pytest

import reference
import run
import worker
import workloads
from tracer import Tracer, layer_totals, self_times

ROOT = Path(__file__).resolve().parents[2]
SAMPLES = ROOT / "samples"


def _first(name: str, seed: int, count: int) -> list[str]:
    return list(itertools.islice(workloads.queries(name, seed, SAMPLES), count))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_distinct(name):
    first = _first(name, 3, 40)
    assert first == _first(name, 3, 40)
    assert len(set(first)) == len(first)
    assert first != _first(name, 4, 40)


def test_a_repeat_is_drawn_again_with_the_same_shape(monkeypatch):
    calls = []

    def make(rng, i):
        calls.append(i)
        return f"{i % 2} {rng.randrange(4)}"

    monkeypatch.setitem(workloads.WORKLOADS, "int-count", workloads.Workload("count", "", make, 2))
    texts = list(itertools.islice(workloads.queries("int-count", 1), 6))
    assert len(set(texts)) == 6
    assert [t.split()[0] for t in texts] == ["0", "1"] * 3
    assert len(calls) > 6


def test_verify_oracle_starts_with_the_samples():
    texts = [p.read_text(encoding="utf-8") for p in sorted(SAMPLES.glob("*.cong"))]
    assert _first("verify-oracle", 0, len(texts)) == texts


@pytest.mark.parametrize(
    "sample, count",
    [
        ("int_system_12_35", 840),
        ("int_system_9_16_5", 3110400),
        ("int_restricted_15_14", 1),
        ("poly_t4_gf3", 3**5),
        ("poly_t4_gf5", 5**5),
        ("poly_restricted_gf3", (3 - 1) * (3 - 2)),
        ("poly_restricted_gf5", (5 - 1) * (5 - 2)),
        ("poly_restricted_gf7", (7 - 1) * (7 - 2)),
    ],
)
def test_reference_matches_known_sample_counts(sample, count):
    text = (SAMPLES / f"{sample}.cong").read_text(encoding="utf-8")
    assert reference.expected("count", text).count == count


def test_snf_reference_matches_sample_counts():
    for sample, count in (("int_system_12_35", 840), ("int_system_9_16_5", 3110400)):
        text = (SAMPLES / f"{sample}.cong").read_text(encoding="utf-8")
        assert reference.expected("snf", text).count == count


# Exhaustive scans, sharing nothing with the valuation-class counting.


def _scan_int(doc: reference.Document) -> int:
    names = doc.variables
    m = math.prod(doc.moduli)
    count = 0
    for xs in itertools.product(range(m), repeat=len(names)):
        x = dict(zip(names, xs))
        if any(sum(a * x[v] for v, a in row.items()) % m_i != b % m_i
               for row, m_i, b in zip(doc.rows, doc.moduli, doc.rhs)):
            continue
        if all(math.gcd(x[v], doc.moduli[i]) == t for (v, i), t in doc.restrictions.items()):
            count += 1
    return count


def _scan_poly(doc: reference.Document) -> int:
    p, names = doc.field, doc.variables
    degree = sum(len(h) - 1 for h in doc.moduli)
    pool = [reference.ptrim(c, p) for c in itertools.product(range(p), repeat=degree)]
    count = 0
    for xs in itertools.product(pool, repeat=len(names)):
        x = dict(zip(names, xs))
        ok = True
        for row, h, b in zip(doc.rows, doc.moduli, doc.rhs):
            acc = reference.ptrim([-c for c in b], p)
            for v, a in row.items():
                acc = reference.padd(acc, reference.pmul(a, x[v], p), p)
            ok = ok and not reference.pdivmod(acc, h, p)[1]
        for (v, i), t in doc.restrictions.items():
            ok = ok and reference.pgcd(x[v], doc.moduli[i], p) == reference.pmonic(t, p)
        count += ok
    return count


def _small_int_text(rng: random.Random) -> str:
    n, k = rng.choice([1, 2, 3]), rng.choice([1, 2])
    while True:
        moduli = [rng.randrange(2, 50) for _ in range(k)]
        m = math.prod(moduli)
        coprime = k == 1 or math.gcd(*moduli) == 1
        if coprime and m**n <= 20000:
            break
    lines = [
        f"mod {m_i}: " + " + ".join(f"{rng.randrange(m_i)}*x{j + 1}" for j in range(n))
        + f" = {rng.randrange(m_i)}"
        for m_i in moduli
    ]
    if rng.random() < 0.7:
        lines += [
            f"gcd(x{j + 1}, {m_i}) = {rng.choice([d for d in range(1, m_i + 1) if m_i % d == 0])}"
            for m_i in moduli
            for j in range(n)
        ]
    return "\n".join(lines) + "\n"


def test_local_counts_match_exhaustive_scan_over_z():
    rng = random.Random(11)
    for _ in range(150):
        text = _small_int_text(rng)
        doc = reference.parse(text)
        assert reference.local_product_count(doc) == _scan_int(doc), text


@pytest.mark.parametrize("p", [2, 3, 5])
def test_local_counts_match_exhaustive_scan_over_fp_t(p):
    rng = random.Random(p)
    irreducibles = reference.irreducibles(p, 2)
    for _ in range(25):
        # H_1 = P^e (possibly times Q), H_2 = another irreducible, |H|^n small.
        first, second, third = rng.sample(irreducibles, 3)
        groups = [[(first, rng.randint(1, 2))], [(second, 1)]]
        if p == 2 and rng.random() < 0.5:
            groups[0].append((third, 1))
        n = 2 if p < 5 else 1
        text = workloads._poly_system(rng, p, groups[: rng.choice([1, 2])], n, rng.random() < 0.7)
        doc = reference.parse(text)
        if p ** (sum(len(h) - 1 for h in doc.moduli) * n) > 3000:
            continue
        assert reference.local_product_count(doc) == _scan_poly(doc), text


def test_snf_reference_matches_sympy_smith_form():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(5)
    for _ in range(60):
        k = rng.randint(1, 4)
        n = rng.randint(1, 5)
        moduli = [rng.choice([2, 3, 4, 6, 8, 9, 12, 18, 20, 25, 36]) for _ in range(k)]
        rows = [[rng.randrange(m) for _ in range(n)] for m in moduli]
        rhs = [rng.randrange(m) for m in moduli]
        text = "".join(
            f"mod {m}: " + " + ".join(f"{a}*x{j + 1}" for j, a in enumerate(row)) + f" = {b}\n"
            for m, row, b in zip(moduli, rows, rhs)
        )
        m = math.lcm(*moduli)
        lifted = [[a * (m // m_i) for a in row] for row, m_i in zip(rows, moduli)]
        lifted_rhs = [b * (m // m_i) for b, m_i in zip(rhs, moduli)]
        eye = [[m if i == j else 0 for j in range(k)] for i in range(k)]
        base = sympy.Matrix([row + e for row, e in zip(lifted, eye)])
        augmented = base.row_join(sympy.Matrix(lifted_rhs))
        factors = [int(d) for d in invariant_factors(base, domain=sympy.ZZ)]
        solvable = factors == [int(d) for d in invariant_factors(augmented, domain=sympy.ZZ)]
        # [A | mI] has full row rank k; the image of A mod m has m^k / prod(d_i) elements.
        image = m**k // math.prod(factors)
        want = m**n // image if solvable else 0
        assert reference.snf_count(reference.parse(text)) == want, text


def test_check_reports_the_cause():
    want = reference.Expected(840, True)
    assert reference.check("count", {"count": "840"}, want) is None
    assert "reference 840" in reference.check("count", {"count": "841"}, want)
    ok = {"agreement": True, "counts": {"formula": "840", "oracle": "840", "snf": "840"}}
    assert reference.check("verify", ok, want) is None
    skipped = {"agreement": True, "counts": {"formula": "840"}}
    assert reference.check("verify", skipped, want) == "oracle skipped"
    assert reference.check("verify", skipped, reference.Expected(840, False)) is None


def test_failures_names_each_wrong_answer():
    texts = _first("int-count", 5, 3)
    right = [{"error": None, "answer": {"count": str(reference.expected("count", t).count)}}
             for t in texts]
    wrong = [right[0], {"error": None, "answer": {"count": "-1"}}, right[2]]
    assert run.failures(ROOT, "int-count", 5, right) == []
    causes = run.failures(ROOT, "int-count", 5, wrong)
    assert len(causes) == 1 and causes[0].startswith("query 1:")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_is_whole_cycles_within_the_untraced_pass(name):
    lead = workloads.lead(name, SAMPLES)
    count = run.trace_queries(name, SAMPLES) - lead
    assert count % workloads.WORKLOADS[name].cycle == 0
    assert run.TRACE_MIN_QUERIES <= count <= worker.MIN_QUERIES - lead


def test_scaled_seconds_cancels_a_change_of_machine_speed():
    # The same query times at a steady speed, then with the machine twice as
    # slow from the 40th query on: scaling by the nearby calibration times
    # gives the same figures, away from the switch.
    ref = run.CALIBRATION_REFERENCE_S
    steady = [{"seconds": 0.01 * (1 + i % 3), "calibration": ref} for i in range(80)]
    slowed = [dict(r, seconds=r["seconds"] * 2, calibration=ref * 2) if i >= 40 else r
              for i, r in enumerate(steady)]
    w = run.CALIBRATION_WINDOW
    far = [i for i in range(80) if abs(i - 40) > w]
    a, b = run.scaled_seconds(steady), run.scaled_seconds(slowed)
    assert a == [r["seconds"] for r in steady]
    assert [b[i] for i in far] == pytest.approx([a[i] for i in far])


def test_calibrate_times_fixed_work():
    assert 0 < worker.calibrate() < 1


def test_current_cpu_is_one_this_process_may_use():
    assert run.current_cpu() in os.sched_getaffinity(0)


# Span arithmetic.


def test_self_times_on_a_synthetic_nested_trace():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parent, start, end) == [3.0, 2.0, 1.0, 4.0]


def test_layer_totals_add_up_to_the_root_span():
    tracer = Tracer()
    tracer.names = ["cli.run_cli", "systems.count", "intarith.factorize", "systems.count"]
    tracer.name_id.extend([0, 1, 2, 3, 2])
    tracer.parent.extend([-1, 0, 1, 0, 3])
    tracer.start.extend([0.0, 1.0, 1.5, 6.0, 6.5])
    tracer.end.extend([10.0, 5.0, 2.5, 9.0, 8.5])
    totals = layer_totals(tracer)
    assert totals["self_s"]["cli"] == pytest.approx(3.0)
    assert totals["self_s"]["systems"] == pytest.approx(3.0 + 1.0)
    assert totals["self_s"]["intarith"] == pytest.approx(1.0 + 2.0)
    assert sum(totals["self_s"].values()) == pytest.approx(10.0)
    assert totals["calls"]["intarith"] == 2
    assert totals["per_name"]["intarith.factorize"] == 2


def test_wrapped_calls_record_their_parents():
    tracer = Tracer()
    inner = tracer.wrap("gfpoly.inner", lambda x: x + 1)
    outer = tracer.wrap("cli.outer", lambda x: inner(x) * inner(x))
    tracer.query_id = 7
    assert outer(1) == 4
    assert list(tracer.parent) == [-1, 0, 0]
    assert list(tracer.query) == [7, 7, 7]
    assert [tracer.names[i] for i in tracer.name_id] == ["cli.outer", "gfpoly.inner", "gfpoly.inner"]
    assert all(s <= e for s, e in zip(tracer.start, tracer.end))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["workloads"] == [{"name": n, "why": w.why} for n, w in workloads.WORKLOADS.items()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
