"""The package's immutable value types: equality and hashing by field,
immutability, positional and keyword construction with each field given
exactly once, validation, repr, copy and pickle."""

import copy
import pickle

import pytest

from congruences import (
    CongruenceSystem,
    CountReport,
    Diagnostic,
    DivisorTable,
    FactoredInteger,
    FactoredPolynomial,
    GFPolynomial,
    MultiIndex,
    PolyCongruenceSystem,
    PolyRestrictionTable,
    PrimeField,
    RestrictionTable,
    SnfResult,
    SystemDocument,
)
from congruences.dsl import CongruenceLine, RestrictionLine
from congruences.gfpoly import _trusted

F3 = PrimeField(3)
F5 = PrimeField(5)
T_PLUS_1 = GFPolynomial(F5, (1, 1))
T_PLUS_2 = GFPolynomial(F5, (2, 1))
LINE = CongruenceLine(modulus=5, terms=((1, "x1"),), rhs=3)
IDENTITY = ((1, 0), (0, 1))

# Each class, keyword arguments of one valid instance, and those of another
# valid instance that differs from it in one field.
CASES = [
    (
        FactoredInteger,
        dict(value=12, factors=((2, 2), (3, 1))),
        dict(value=6, factors=((2, 1), (3, 1))),
    ),
    (CountReport, dict(count=3, solvable=True, theorem="a", details={"g": 1}), dict(theorem="b")),
    (CongruenceSystem, dict(coefficients=((1, 2),), moduli=(5,), rhs=(3,)), dict(rhs=(4,))),
    (RestrictionTable, dict(entries=((1, 5),)), dict(entries=((5, 1),))),
    (
        DivisorTable,
        dict(divisors=(1, 2), rhs_values=(1, -1), columns=((1, -1),), products=(1, 1)),
        dict(products=(1, 2)),
    ),
    (Diagnostic, dict(message="m", line=1, column=2, excerpt="x"), dict(column=3)),
    (CongruenceLine, dict(modulus=5, terms=((1, "x1"),), rhs=3), dict(rhs=4)),
    (
        RestrictionLine,
        dict(variable="x1", modulus=5, value=1, span=0, variable_span=2, modulus_span=4),
        dict(value=5),
    ),
    (
        SystemDocument,
        dict(field_order=None, congruences=(LINE,), restrictions=(), variables=("x1",)),
        dict(variables=("x2",)),
    ),
    (PrimeField, dict(p=5), dict(p=7)),
    (GFPolynomial, dict(field=F5, coefficients=(1, 2)), dict(coefficients=(1, 3))),
    (
        FactoredPolynomial,
        dict(value=T_PLUS_1, unit=1, factors=((T_PLUS_1, 1),)),
        dict(value=T_PLUS_2, factors=((T_PLUS_2, 1),)),
    ),
    (
        PolyCongruenceSystem,
        dict(field=F5, coefficients=((T_PLUS_1,),), moduli=(T_PLUS_2,), rhs=(T_PLUS_1,)),
        dict(rhs=(T_PLUS_2,)),
    ),
    (PolyRestrictionTable, dict(entries=((T_PLUS_1,),)), dict(entries=((T_PLUS_2,),))),
    (MultiIndex, dict(moduli=(2, 3), ambient=6), dict(ambient=12)),
    (
        SnfResult,
        dict(invariant_factors=(1, 2), rank=2, transforms=(IDENTITY, IDENTITY)),
        dict(invariant_factors=(2,), rank=1),
    ),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
# A details dict is unhashable, and a divisor table equals any sequence of
# equal rows, lists included, so neither has a hash.
UNHASHABLE = (CountReport, DivisorTable)


@pytest.mark.parametrize("cls, kwargs, change", CASES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, kwargs, change):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and not a != b
    assert a is not b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls, kwargs, change", CASES, ids=IDS)
def test_a_changed_field_gives_an_unequal_value(cls, kwargs, change):
    a, b = cls(**kwargs), cls(**{**kwargs, **change})
    assert a != b and not a == b


@pytest.mark.parametrize("cls, kwargs, change", CASES, ids=IDS)
def test_positional_construction_equals_keyword_construction(cls, kwargs, change):
    value = cls(**kwargs)
    assert cls(*kwargs.values()) == value
    for name, field in kwargs.items():
        assert getattr(value, name) is field


@pytest.mark.parametrize("cls, kwargs, change", CASES, ids=IDS)
def test_each_field_must_be_given_exactly_once(cls, kwargs, change):
    (first, value), *rest = kwargs.items()
    values = list(kwargs.values())
    for args, extra in [
        ((), dict(rest)),  # a missing field
        ((), {**kwargs, "extra": None}),  # an unknown keyword
        ((*values, None), {}),  # one positional too many
        (values, {first: value}),  # a field by position and by keyword
    ]:
        with pytest.raises(TypeError):
            cls(*args, **extra)


def test_values_of_different_classes_are_never_equal():
    values = [cls(**kwargs) for cls, kwargs, _ in CASES]
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            assert a != b and b != a
    # Same field values, different classes.
    assert RestrictionTable(entries=()) != PolyRestrictionTable(entries=())

    class Sub(CongruenceSystem):
        pass

    fields = dict(coefficients=((1, 2),), moduli=(5,), rhs=(3,))
    assert Sub(**fields) != CongruenceSystem(**fields)
    assert CongruenceSystem(**fields) != tuple(fields.values())


@pytest.mark.parametrize("cls, kwargs, change", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, kwargs, change):
    value = cls(**kwargs)
    for name in (*kwargs, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in kwargs:
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is kwargs[name]


@pytest.mark.parametrize("cls, kwargs, change", CASES, ids=IDS)
def test_repr_names_every_field(cls, kwargs, change):
    fields = ", ".join(f"{name}={field!r}" for name, field in kwargs.items())
    assert repr(cls(**kwargs)) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls, kwargs, change", CASES, ids=IDS)
def test_copy_and_pickle_rebuild_an_equal_value(cls, kwargs, change):
    value = cls(**kwargs)
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls
        assert clone == value


def test_restriction_lines_differing_only_in_spans_are_equal():
    a = RestrictionLine("x1", 5, 1, span=0, variable_span=2, modulus_span=4)
    b = RestrictionLine("x1", 5, 1, span=7, variable_span=9, modulus_span=11)
    assert a == b and hash(a) == hash(b)
    assert (a.span, b.span) == (0, 7)
    assert a != RestrictionLine("x2", 5, 1, span=0, variable_span=2, modulus_span=4)


def test_divisor_table_equals_any_sequence_of_equal_rows():
    table = DivisorTable(divisors=(1, 2), rhs_values=(1, -1), columns=((1, -1),), products=(1, 1))
    rows = [
        {"divisor": 1, "rhs_value": 1, "variable_values": [1], "product": 1},
        {"divisor": 2, "rhs_value": -1, "variable_values": [-1], "product": 1},
    ]
    assert table == rows and rows == table
    assert table != rows[:1]
    assert table[-1] == rows[-1]
    for cut in (slice(None, 1), slice(-1, None), slice(None, None, -1), slice(5, 9)):
        assert table[cut] == rows[cut] and type(table[cut]) is list


def test_system_document_ring_is_cached():
    doc = SystemDocument(None, (LINE,), (), ("x1",))
    assert doc.ring is doc.ring
    assert doc == SystemDocument(None, (LINE,), (), ("x1",))


def test_polynomial_system_builds_its_ring_once():
    system = PolyCongruenceSystem(F5, ((T_PLUS_1,),), (T_PLUS_2,), (T_PLUS_1,))
    assert system.ring is system.ring
    assert system.ring.field is F5
    clone = pickle.loads(pickle.dumps(system))
    assert clone == system and clone.ring.field == F5


def test_count_report_details_default_to_a_new_dict():
    a, b = CountReport(0, False, "t"), CountReport(count=0, solvable=False, theorem="t")
    assert a.details == {} and a.details is not b.details
    assert a == b


def test_polynomials_stay_slotted_and_trusted_construction_equals_public():
    poly = GFPolynomial(F5, (1, 2))
    assert not hasattr(poly, "__dict__")
    assert _trusted(F5, (1, 2)) == poly and hash(_trusted(F5, (1, 2))) == hash(poly)
    assert GFPolynomial(PrimeField(5), (1, 2)) == poly  # an equal field, not the same one
    assert GFPolynomial(F3, (1, 2)) != poly
    assert GFPolynomial(F5, ()) != GFPolynomial(F3, ())
    assert PrimeField(5) == F5 and hash(PrimeField(5)) == hash(F5)
    assert {poly: 1}[GFPolynomial(F5, (1, 2))] == 1


# The validation each constructor makes, by keyword.
F3_T_PLUS_1 = GFPolynomial(F3, (1, 1))
F5_ONE = GFPolynomial(F5, (1,))
TRANSFORMS = (IDENTITY, IDENTITY)
INVALID = [
    (FactoredInteger, dict(value=0, factors=()), "value must be a positive integer"),
    (FactoredInteger, dict(value=12, factors=((3, 1), (2, 2))), "strictly increasing"),
    (FactoredInteger, dict(value=12, factors=((2, 1), (3, 1))), "does not multiply back"),
    (CountReport, dict(count=-1, solvable=False, theorem="t"), "count must be nonnegative"),
    (CountReport, dict(count=1, solvable=False, theorem="t"), "solvable flag"),
    (CongruenceSystem, dict(coefficients=(), moduli=(), rhs=()), "at least one congruence"),
    (CongruenceSystem, dict(coefficients=((1,),), moduli=(5, 7), rhs=(1,)), "equal length"),
    (CongruenceSystem, dict(coefficients=((),), moduli=(5,), rhs=(1,)), "at least one variable"),
    (
        CongruenceSystem,
        dict(coefficients=((1,), (1, 2)), moduli=(5, 7), rhs=(1, 1)),
        "same number",
    ),
    (CongruenceSystem, dict(coefficients=((1,),), moduli=(1,), rhs=(0,)), "at least 2"),
    (RestrictionTable, dict(entries=((1,), (1, 2))), "equal length"),
    (RestrictionTable, dict(entries=((0,),)), "must be positive"),
    (PrimeField, dict(p=4), "must be a prime number"),
    (PrimeField, dict(p=1), "must be a prime number"),
    (GFPolynomial, dict(field=F5, coefficients=(5,)), r"reduced into \[0, p\)"),
    (GFPolynomial, dict(field=F5, coefficients=(1, 0)), "no trailing zero"),
    (
        FactoredPolynomial,
        dict(value=T_PLUS_1, unit=0, factors=((T_PLUS_1, 1),)),
        "nonzero field element",
    ),
    (FactoredPolynomial, dict(value=T_PLUS_1, unit=1, factors=((T_PLUS_2, 1),)), "multiply back"),
    (
        PolyCongruenceSystem,
        dict(field=F5, coefficients=((T_PLUS_1,),), moduli=(F3_T_PLUS_1,), rhs=(T_PLUS_1,)),
        "over the system's field",
    ),
    (
        PolyCongruenceSystem,
        dict(field=F5, coefficients=((T_PLUS_1,),), moduli=(F5_ONE,), rhs=(T_PLUS_1,)),
        "non-constant",
    ),
    (PolyRestrictionTable, dict(entries=((GFPolynomial(F5, (1, 2)),),)), "must be monic"),
    (MultiIndex, dict(moduli=(), ambient=1), "at least one modulus"),
    (MultiIndex, dict(moduli=(2, 0), ambient=6), "moduli must be positive"),
    (MultiIndex, dict(moduli=(2, 3), ambient=9), "common multiple"),
    (SnfResult, dict(invariant_factors=(2, 3), rank=2, transforms=TRANSFORMS), "chain"),
    (SnfResult, dict(invariant_factors=(1, 2), rank=1, transforms=TRANSFORMS), "rank must equal"),
]


@pytest.mark.parametrize(
    "cls, kwargs, message", INVALID, ids=[f"{cls.__name__}-{m}" for cls, _, m in INVALID]
)
def test_validation_errors_are_raised(cls, kwargs, message):
    with pytest.raises(ValueError, match=message):
        cls(**kwargs)
