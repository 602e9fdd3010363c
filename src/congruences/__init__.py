"""Exact counting and enumeration for linear congruence systems with gcd
restrictions, over Z and over F_p[t]."""

from .errors import (
    CapExceededError,
    CongruenceError,
    ExactnessError,
    HypothesisError,
    UnsupportedShapeError,
)
from .ffsystems import (
    CharacterExponent,
    PolyCongruenceSystem,
    PolyRestrictionTable,
    char_exponent,
    crt_poly,
    enumerate_solutions_ff,
    eta,
    eta_closed_form,
    eta_direct_oracle,
    i_and_j_functions_ff,
    restricted_count_unit_coeffs_ff,
    restricted_system_count_ff,
    single_restricted_count_ff,
    system_count_ff,
    tau,
)
from .gfpoly import (
    FactoredPolynomial,
    GFPolynomial,
    PrimeField,
    factorize_poly,
    format_poly,
    mobius_poly,
    monic_divisors,
    phi_poly,
    poly_ext_gcd,
    poly_gcd,
    poly_lcm,
    poly_lcm_many,
    pow_mod,
    residues,
)
from .intarith import (
    FactoredInteger,
    divisors,
    euler_phi,
    factorize,
    is_probable_prime,
    mobius,
    nary_gcd,
    nary_lcm,
)
from .ramanujan import (
    EvenFunctionTable,
    MultiIndex,
    e_function,
    even_dft,
    j_function,
    ramanujan_c,
    ramanujan_c_sum,
)
from .report import CountReport
from .dsl import (
    Diagnostic,
    ParseError,
    SystemDocument,
    build_restrictions,
    build_system,
    format_document,
    parse_poly,
    parse_system,
)
from .snf import SnfResult, butson_stewart_count, lift_to_common_modulus, smith_normal_form
from .systems import (
    CongruenceSystem,
    RestrictionTable,
    crt_solve,
    enumerate_solutions,
    lehmer_count,
    restricted_count_unit_coeffs,
    restricted_system_count,
    single_restricted_count,
    system_count,
)

__version__ = "0.1.0"
