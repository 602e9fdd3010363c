"""Hostile sizes through the command line: each case runs `python -m
congruences.cli` in its own process and must answer within its time budget,
with no traceback."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BUDGET_S = 5.0


def wide_text(rng, k, n, low, high):
    """k congruences in n variables, each modulo a random multiple of 6 in
    [6 low, 6 high), with coefficients and rhs below the modulus."""
    lines = []
    for _ in range(k):
        m = 6 * rng.randrange(low, high)
        terms = " + ".join(f"{rng.randrange(m)}*x{j + 1}" for j in range(n))
        lines.append(f"mod {m}: {terms} = {rng.randrange(m)}")
    return "\n".join(lines) + "\n"


CASES = {
    # 64 x 66, moduli below 10^7.
    "wide": lambda rng: wide_text(rng, 64, 66, 10**5, 10**7 // 6),
    # 8 x 10, moduli of about 4000 digits, within the 4300-digit literal limit.
    "long": lambda rng: wide_text(rng, 8, 10, 10**3998, 10**3999),
}


@pytest.mark.parametrize("subcommand", ["snf", "verify"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_hostile_sizes_answer_within_budget(tmp_path, case, subcommand):
    path = tmp_path / f"{case}.cong"
    path.write_text(CASES[case](random.Random(f"hostile/{case}")), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "congruences.cli", subcommand, str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert "Traceback" not in result.stderr
    assert result.returncode == 0, result.stderr
    assert elapsed < BUDGET_S, f"{case} {subcommand}: {elapsed:.2f} s"
