"""Byte-for-byte pins of the CLI's default output on every sample.

For each sample and each of count, verify, crt, snf and enumerate --list,
tests/data/golden/<sample>.<command>.txt holds the exit code, stderr and
stdout of one run. After a deliberate change of output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import importlib
import io
from pathlib import Path

import pytest

from congruences.cli import run_cli

SAMPLES_DIR = Path(__file__).resolve().parent.parent / "samples"
GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
COMMANDS = {
    "count": ["count"],
    "verify": ["verify"],
    "crt": ["crt"],
    "snf": ["snf"],
    "enumerate": ["enumerate", "--list"],
}
SAMPLES = sorted(path.stem for path in SAMPLES_DIR.glob("*.cong"))
# The modules that perfbench/tracer.py wraps, by name.
TRACED_LAYERS = ("cli", "dsl", "systems", "snf", "ramanujan", "intarith", "ffsystems", "gfpoly")


def transcript(sample: str, command: str) -> str:
    """Exit code, stderr and stdout of one CLI run, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli([*COMMANDS[command], str(SAMPLES_DIR / f"{sample}.cong")])
    return f"exit {code}\n--- stderr\n{err.getvalue()}--- stdout\n{out.getvalue()}"


def golden_path(sample: str, command: str) -> Path:
    return GOLDEN_DIR / f"{sample}.{command}.txt"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("sample", SAMPLES)
def test_cli_output_matches_golden(sample, command):
    want = golden_path(sample, command).read_text(encoding="utf-8")
    assert transcript(sample, command) == want


def test_golden_files_cover_every_run():
    assert len(SAMPLES) == 8
    assert sorted(GOLDEN_DIR.iterdir()) == sorted(
        golden_path(sample, command) for sample in SAMPLES for command in COMMANDS
    )


def test_traced_layers_import():
    modules = {name: importlib.import_module(f"congruences.{name}") for name in TRACED_LAYERS}
    assert hasattr(modules["gfpoly"], "GFPolynomial")
    assert hasattr(modules["intarith"].factorize, "cache_info")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for sample in SAMPLES:
        for command in COMMANDS:
            golden_path(sample, command).write_text(transcript(sample, command), encoding="utf-8")
