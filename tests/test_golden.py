"""Byte-for-byte pins of the CLI's default output.

For each sample and each of count, verify, crt, snf and enumerate --list,
tests/data/golden/<sample>.<command>.txt holds the exit code, stderr and
stdout of one run. tests/data/golden/cli.<name>.txt does the same for each
run in RUNS: the scalar subcommands and one run of each error class. The
usage errors' wording is argparse's, so those files follow the Python
version. After a deliberate change of output, rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import importlib
import io
from pathlib import Path

import pytest

from congruences.cli import run_cli

SAMPLES_DIR = Path(__file__).resolve().parent.parent / "samples"
DATA_DIR = Path(__file__).resolve().parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"
COMMANDS = {
    "count": ["count"],
    "verify": ["verify"],
    "crt": ["crt"],
    "snf": ["snf"],
    "enumerate": ["enumerate", "--list"],
}
SAMPLES = sorted(path.stem for path in SAMPLES_DIR.glob("*.cong"))
RUNS = {
    "ramanujan": ["ramanujan", "21", "210"],
    "eta": ["eta", "3", "t", "t^2"],
    "phi_n": ["phi", "360"],
    "phi_p_h": ["phi", "3", "t^3 + 2*t"],
    "no_subcommand": [],
    "unknown_subcommand": ["definitely-not-a-command"],
    "bad_integer": ["ramanujan", "x", "1"],
    "too_many_digits": ["ramanujan", "1" + "0" * 5000, "1"],
    "missing_file": ["count", "no/such/file.cong"],
    "parse_error": ["count", str(DATA_DIR / "bad_term.cong")],
    "hypothesis_error": ["count", str(DATA_DIR / "cli" / "noncoprime.cong")],
    "cap_error": ["enumerate", "--cap", "10", str(SAMPLES_DIR / "int_system_12_35.cong")],
}
# The modules that perfbench/tracer.py wraps, by name.
TRACED_LAYERS = ("cli", "dsl", "systems", "snf", "ramanujan", "intarith", "ffsystems", "gfpoly")


def transcript(argv: list[str]) -> str:
    """Exit code, stderr and stdout of one CLI run, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return f"exit {code}\n--- stderr\n{err.getvalue()}--- stdout\n{out.getvalue()}"


def sample_argv(sample: str, command: str) -> list[str]:
    return [*COMMANDS[command], str(SAMPLES_DIR / f"{sample}.cong")]


def golden_path(sample: str, command: str) -> Path:
    return GOLDEN_DIR / f"{sample}.{command}.txt"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("sample", SAMPLES)
def test_cli_output_matches_golden(sample, command):
    want = golden_path(sample, command).read_text(encoding="utf-8")
    assert transcript(sample_argv(sample, command)) == want


@pytest.mark.parametrize("name", RUNS)
def test_cli_run_matches_golden(name):
    want = golden_path("cli", name).read_text(encoding="utf-8")
    assert transcript(RUNS[name]) == want


def test_golden_files_cover_every_run():
    assert len(SAMPLES) == 8
    assert sorted(GOLDEN_DIR.iterdir()) == sorted(
        [golden_path(sample, command) for sample in SAMPLES for command in COMMANDS]
        + [golden_path("cli", name) for name in RUNS]
    )


def test_traced_layers_import():
    modules = {name: importlib.import_module(f"congruences.{name}") for name in TRACED_LAYERS}
    assert hasattr(modules["gfpoly"], "GFPolynomial")
    assert hasattr(modules["intarith"].factorize, "cache_info")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for sample in SAMPLES:
        for command in COMMANDS:
            golden_path(sample, command).write_text(
                transcript(sample_argv(sample, command)), encoding="utf-8"
            )
    for name, argv in RUNS.items():
        golden_path("cli", name).write_text(transcript(argv), encoding="utf-8")
