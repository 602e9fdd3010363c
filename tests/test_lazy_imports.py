"""What a fresh process loads, and the package's lazily resolved names.

In one test process every module is loaded by the time most tests run, so a
handler that lost an import it needs would still pass there. The command line
checks here therefore each run in a fresh interpreter.

The package's value types are plain classes and the command line quotes
strings with the C encoder that json uses, so no run loads `dataclasses` or
`json`. `inspect` comes only with numpy, which the enumeration oracle of
`verify` imports and which imports `inspect` itself.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import congruences

ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = ROOT / "src"
INT_SAMPLE = "samples/int_restricted_15_14.cong"
POLY_SAMPLE = "samples/poly_restricted_gf3.cong"
# Modules that only the Smith-form route, Ramanujan sums and F_p[t] use.
NOT_FOR_Z_COUNT = (
    "congruences.gfpoly",
    "congruences.ffsystems",
    "congruences.snf",
    "congruences.ramanujan",
)
# Standard modules the package does not need: dataclasses alone pulls in
# inspect, ast, dis and tokenize.
STDLIB_NOT_LOADED = ("dataclasses", "inspect", "json")


def fresh(*args: str) -> subprocess.CompletedProcess:
    """Run python with args from the root of the repository, src first on
    the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, env=env, timeout=60
    )


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code, read from
    sys.modules before anything else is imported to print them."""
    result = fresh("-c", code + "\nimport sys\nprint(*sorted(sys.modules), sep='\\n')")
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines())


def run_cli_code(argv: list[str], exit_code: int) -> str:
    """Code that runs the command line in this process, output discarded."""
    return (
        "import contextlib, io\n"
        "from congruences.cli import run_cli\n"
        "sink = io.StringIO()\n"
        "with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        f"    assert run_cli({argv!r}) == {exit_code}"
    )


def package_modules(loaded: set[str]) -> set[str]:
    return {m for m in loaded if m.startswith("congruences")}


def test_package_import_loads_no_module():
    assert package_modules(loaded_after("import congruences")) == {"congruences"}


def test_cli_and_a_z_count_load_no_snf_or_polynomial_module():
    for code in ("import congruences.cli", run_cli_code(["count", INT_SAMPLE], 0)):
        loaded = package_modules(loaded_after(code))
        assert "congruences.cli" in loaded
        assert not set(NOT_FOR_Z_COUNT) & loaded, loaded


# Each subcommand on a Z and an F_p[t] input, and its exit code.
SUBCOMMANDS = [
    (["count", INT_SAMPLE], 0),
    (["count", POLY_SAMPLE], 0),
    (["verify", "samples/int_system_12_35.cong"], 0),
    (["verify", POLY_SAMPLE], 0),
    (["snf", "samples/int_system_12_35.cong"], 0),
    (["snf", POLY_SAMPLE], 1),
    (["crt", INT_SAMPLE], 0),
    (["crt", POLY_SAMPLE], 0),
    (["enumerate", "--list", INT_SAMPLE], 0),
    (["enumerate", "--list", POLY_SAMPLE], 0),
    (["ramanujan", "12", "8"], 0),
    (["eta", "3", "t + 1", "t^2 + 1"], 0),
    (["phi", "12"], 0),
    (["phi", "3", "t^2 + 1"], 0),
]


@pytest.mark.parametrize(
    "argv, code", SUBCOMMANDS, ids=[" ".join(argv) for argv, _ in SUBCOMMANDS]
)
def test_subcommand_in_a_fresh_process(argv, code):
    result = fresh("-m", "congruences.cli", *argv)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    if code == 0:
        assert json.loads(result.stdout)["schema"] == "1"


# The subcommands that parse a document and count, on both rings.
COUNTING = [(argv, code) for argv, code in SUBCOMMANDS if argv[0] in ("count", "verify", "snf")]


@pytest.mark.parametrize("code", ["import congruences", "import congruences.cli"])
def test_import_loads_no_dataclasses_inspect_or_json(code):
    loaded = loaded_after(code)
    assert not set(STDLIB_NOT_LOADED) & loaded, sorted(set(STDLIB_NOT_LOADED) & loaded)


@pytest.mark.parametrize(
    "argv, code", COUNTING, ids=[" ".join(argv) for argv, _ in COUNTING]
)
def test_subcommand_loads_no_dataclasses_inspect_or_json(argv, code):
    loaded = loaded_after(run_cli_code(argv, code))
    if "numpy" in loaded:
        loaded.discard("inspect")
    assert not set(STDLIB_NOT_LOADED) & loaded, sorted(set(STDLIB_NOT_LOADED) & loaded)


def test_every_public_name_is_its_submodule_object():
    assert len(set(congruences.__all__)) == len(congruences.__all__)
    for name in congruences.__all__:
        module = importlib.import_module(f"congruences.{congruences._SUBMODULE[name]}")
        assert name in vars(module), name
        assert getattr(congruences, name) is vars(module)[name]
    assert set(congruences.__all__) <= set(dir(congruences))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from congruences import *", namespace)
    for name in congruences.__all__:
        assert namespace[name] is getattr(congruences, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        congruences.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from congruences import no_such_name", {})
