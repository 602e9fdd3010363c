"""Exact counting and enumeration for linear congruence systems with gcd
restrictions, over Z and over F_p[t].

Importing the package loads none of its modules. Each public name below is
imported from its submodule on first access (PEP 562), so `import
congruences.cli` loads only what the command line needs at start-up, and
`from congruences import smith_normal_form` loads the Smith-form module and
what it imports.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_SUBMODULE_NAMES = {
    "errors": ("CapExceededError", "CongruenceError", "ExactnessError", "HypothesisError"),
    "ffsystems": (
        "PolyCongruenceSystem", "PolyRestrictionTable", "enumerate_solutions_ff", "eta",
        "eta_closed_form", "eta_direct_oracle", "i_and_j_functions_ff",
        "restricted_system_count_ff", "single_restricted_count_ff", "system_count_ff", "tau",
    ),
    "gfpoly": (
        "FactoredPolynomial", "GFPolynomial", "PrimeField", "factorize_poly", "format_poly",
        "mobius_poly", "monic_divisors", "phi_poly", "poly_ext_gcd", "poly_gcd", "poly_lcm",
        "poly_lcm_many", "pow_mod", "residues",
    ),
    "intarith": (
        "FactoredInteger", "divisors", "euler_phi", "factorize", "is_probable_prime", "mobius",
        "nary_gcd", "nary_lcm",
    ),
    "ramanujan": ("MultiIndex", "e_function", "j_function", "ramanujan_c", "ramanujan_c_sum"),
    "report": ("CountReport",),
    "dsl": (
        "Diagnostic", "ParseError", "SystemDocument", "build_restrictions", "build_system",
        "format_document", "parse_poly", "parse_system",
    ),
    "snf": ("SnfResult", "butson_stewart_count", "lift_to_common_modulus", "smith_normal_form"),
    "systems": (
        "CongruenceSystem", "DivisorTable", "RestrictionTable", "enumerate_solutions",
        "lehmer_count", "restricted_system_count", "single_restricted_count", "system_count",
    ),
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    """Import a public name from its submodule and keep it here."""
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
