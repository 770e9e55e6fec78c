"""The package's records behave as the frozen dataclasses and typing.NamedTuples they
replaced: the same fields in the same order, construction, defaults, equality,
read-only attributes, repr and hash."""

import dataclasses
from fractions import Fraction

import pytest

from qsteenrod.cells import FiniteComplex, RelationPrimitive
from qsteenrod.oracles import ExpectedResult, RationalSeries
from qsteenrod.ring import BasisElement, Divisor
from qsteenrod.series import Monomial, SeriesElement
from qsteenrod.solver import QstResult, ResidualReport, SolveReport

# class, its fields in order, and one value per field that the class keeps as given
RECORDS = [
    (SolveReport,
     ("taint", "taint_text", "seed_checks", "seeds_resolving_taint", "residual_checked",
      "residual_failures"),
     (((0, 1, 2),), ("x",), 3, 1, 40, {"h": []})),
    (QstResult, ("element", "taint", "endo", "report"), ("e", ((1, 2),), "S", "r")),
    (ResidualReport, ("checked", "failures", "pi_checked", "pi_failures"), (5, (), 2, ("f",))),
    (RationalSeries, ("trunc", "terms"), (2, {(1, -2): Fraction(1, 4)})),
    (ExpectedResult,
     ("manifold", "prime", "op", "input_class", "expected", "expected_taint", "source"),
     ("s2", 3, "qst", "h", "E", (), "closed form")),
    (SeriesElement, ("prime", "trunc", "terms"), (5, 2, {Monomial(1, 0, 1): 3})),
    (RelationPrimitive, ("which", "primitive", "boundary", "complex"),
     ("even", {(2, "L", 0): 1}, {(2, "Q", 0): 1}, "product")),
    (FiniteComplex, ("orbits", "diff"), ((("x", 0, False),), {"x": (("x", 0, 1),)})),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _dataclass_twin(cls, fields):
    """The frozen dataclass the record stands in for."""
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_fields_and_construction(cls, fields, values):
    assert cls._fields == fields
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert [getattr(by_position, f) for f in fields] == list(values)
    assert by_position == by_keyword and vars(by_position) == dict(zip(fields, values))
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1], **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, **{"not_a_field": 1})


def test_defaults():
    assert vars(ResidualReport(5, ("f",))) == dict(
        checked=5, failures=("f",), pi_checked=0, pi_failures=())
    assert ResidualReport(5, ()).ok and not ResidualReport(5, (), 1, ("f",)).ok
    assert repr(ResidualReport(5, ())) == (
        "ResidualReport(checked=5, failures=(), pi_checked=0, pi_failures=())")
    with pytest.raises(TypeError):
        ResidualReport(5)
    with pytest.raises(TypeError):
        SolveReport()
    for empty in (SeriesElement(5, 2), SeriesElement(5, 2), RationalSeries(2), RationalSeries(2)):
        assert empty.terms == {} and empty.is_zero()
    assert SeriesElement(5, 2).terms is not SeriesElement(5, 2).terms  # a fresh {} each
    assert RationalSeries(2).terms is not RationalSeries(2).terms


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_equality_only_within_a_class(cls, fields, values):
    twin = type("Twin", (cls,), {})  # the same fields, another class
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    assert record != twin(*values) and twin(*values) != record
    assert record != tuple(values) and record != _dataclass_twin(cls, fields)(*values)


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_read_only(cls, fields, values):
    record = cls(*values)
    for name in fields + ("new_attribute",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert vars(record) == dict(zip(fields, values))


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_repr_matches_the_dataclass(cls, fields, values):
    assert repr(cls(*values)) == repr(_dataclass_twin(cls, fields)(*values))


def test_hash_is_the_hash_of_the_fields():
    report = ResidualReport(5, (("h", 1),), 2, ())
    assert hash(report) == hash((5, (("h", 1),), 2, ()))
    assert len({report, ResidualReport(5, (("h", 1),), 2, ())}) == 1
    with pytest.raises(TypeError):  # residual_failures is a dict
        hash(SolveReport((), (), 0, 0, 0, {}))


@pytest.mark.parametrize("cls, fields", [
    (Monomial, ("q", "t", "theta")),
    (BasisElement, ("name", "degree")),
    (Divisor, ("index", "pairing", "primary")),
])
def test_namedtuples(cls, fields):
    values = tuple(range(len(fields)))
    item = cls(*values)
    assert cls._fields == fields and isinstance(item, tuple)
    assert item == values == cls(**dict(zip(fields, values)))
    assert [getattr(item, f) for f in fields] == list(values)
    assert repr(item) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%d" % pair for pair in zip(fields, values)))
    with pytest.raises(AttributeError):
        item.q = 1


def test_series_element_normalises_its_terms_mod_p():
    x = SeriesElement(5, 2, {(0, 0, 0): 7, (1, -1, 1): 10, (3, 0, 0): 1, Monomial(2, 4, 0): -1})
    assert x.terms == {(0, 0, 0): 2, (2, 4, 0): 4}
    assert all(type(m) is Monomial for m in x.terms)
    with pytest.raises(ValueError):
        SeriesElement(5, 2, {(0, 0, 2): 1})
    with pytest.raises(ValueError):
        SeriesElement(5, 2, {(-1, 0, 0): 1})
    with pytest.raises(ValueError):
        SeriesElement(5, -1)


def test_rational_series_normalises_its_terms_to_fractions():
    x = RationalSeries(2, {(0, 0): 1, (1, -2): Fraction(1, 2), (2, 0): 0, (3, 0): 1, (-1, 0): 1})
    assert x.terms == {(0, 0): 1, (1, -2): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in x.terms.values())
    assert x.coefficient(2, 0) == 0 and type(x.coefficient(2, 0)) is Fraction
    assert (x - x).is_zero() and (x * x).coefficient(2, -4) == Fraction(1, 4)
