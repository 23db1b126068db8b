"""The record types: ``Element`` and the frozen result records built on ``core._Record``.

Each behaves as the frozen dataclass it replaced: fields compare, hash and
print in order, no field can be assigned or deleted, and pickle and copy
rebuild an equal object through the checked constructor.
"""

import copy
import dataclasses
import math
import pickle

import pytest

import planeint
from planeint import (
    Classification,
    DivResult,
    Element,
    Factorization,
    FGIdeal,
    IdealDecomposition,
    IrreducibleForm,
    KindMismatchError,
    OracleVerdict,
    PolarForm,
    QuadraticPoly,
    RealElement,
    RingKind,
    Verdict,
    classify,
    decompose,
    div_rem,
    elliptic,
    factor,
    hyperbolic,
    oracle_prime,
    parabolic,
    polar_decompose,
    prime_integer_behavior,
)

E, H, K = RingKind

# one instance per record type and shape (mostly real results), with its repr
# as the frozen dataclasses printed it
GOLDEN = {
    "Element": (
        lambda: Element(E, 3, -4),
        "Element(ELLIPTIC, 3, -4)",
    ),
    "DivResult": (
        lambda: div_rem(elliptic(27, 5), elliptic(4, 1)),
        "DivResult(quotient=Element(ELLIPTIC, 7, 0), remainder=Element(ELLIPTIC, -1, -2))",
    ),
    "FGIdeal": (
        lambda: FGIdeal(H, [hyperbolic(6, 4), hyperbolic(10, 2)]),
        "FGIdeal(kind=<RingKind.HYPERBOLIC: 'j'>, generators=(Element(HYPERBOLIC, 6, 4), "
        "Element(HYPERBOLIC, 10, 2)))",
    ),
    "IdealDecomposition": (
        lambda: decompose(FGIdeal.of(hyperbolic(6, 4), hyperbolic(10, 2))),
        "IdealDecomposition(kind=<RingKind.HYPERBOLIC: 'j'>, alpha=Element(HYPERBOLIC, 2, 0), "
        "dplus_gen=2, dminus_gen=2, d0_gen=0)",
    ),
    "IdealDecomposition, no alpha": (
        lambda: decompose(FGIdeal.of(parabolic(0, 4), parabolic(0, 6))),
        "IdealDecomposition(kind=<RingKind.PARABOLIC: 'k'>, alpha=None, dplus_gen=0, dminus_gen=0, d0_gen=2)",
    ),
    "Factorization": (
        lambda: factor(elliptic(30, 8)),
        "Factorization(unit=Element(ELLIPTIC, 0, -1), factors=(Element(ELLIPTIC, 1, 1), "
        "Element(ELLIPTIC, 1, 1), Element(ELLIPTIC, 15, 4)), axis_extension=False)",
    ),
    "Factorization, axis": (
        lambda: factor(parabolic(0, 6)),
        "Factorization(unit=Element(PARABOLIC, 1, 0), factors=(Element(PARABOLIC, 0, 1), "
        "Element(PARABOLIC, 2, 0), Element(PARABOLIC, 3, 0)), axis_extension=True)",
    ),
    "OracleVerdict": (
        lambda: oracle_prime(hyperbolic(5, 2), 3),
        "OracleVerdict(verdict=<Verdict.REFUTED: 'refuted'>, witness=(Element(HYPERBOLIC, 1, 1), "
        "Element(HYPERBOLIC, 1, -1)))",
    ),
    "OracleVerdict, no witness": (
        lambda: OracleVerdict(Verdict.NO_COUNTEREXAMPLE_FOUND),
        "OracleVerdict(verdict=<Verdict.NO_COUNTEREXAMPLE_FOUND: 'no_counterexample_found'>, witness=None)",
    ),
    "IrreducibleForm": (
        lambda: IrreducibleForm(3, -1),
        "IrreducibleForm(gamma=3, sign_y=-1)",
    ),
    "PrimeIntegerReport": (
        lambda: prime_integer_behavior(13, E),
        "PrimeIntegerReport(is_prime_elt=False, is_irreducible_elt=False, "
        "witness=(Element(ELLIPTIC, 3, 2), Element(ELLIPTIC, 3, -2)))",
    ),
    "PrimeIntegerReport, no witness": (
        lambda: prime_integer_behavior(7, E),
        "PrimeIntegerReport(is_prime_elt=True, is_irreducible_elt=True, witness=None)",
    ),
    "GeneralParams": (
        lambda: QuadraticPoly(2, -3, 1).params(),
        "GeneralParams(alpha=Fraction(-1, 2), beta=Fraction(3, 2))",
    ),
    "QuadraticPoly": (
        lambda: QuadraticPoly("1/2", 0, -3),
        "QuadraticPoly(a=Fraction(1, 2), b=Fraction(0, 1), c=Fraction(-3, 1))",
    ),
    "RealElement": (
        lambda: RealElement(H, 1.5, -0.25),
        "RealElement(kind=<RingKind.HYPERBOLIC: 'j'>, x=1.5, y=-0.25)",
    ),
    "PolarForm": (
        lambda: polar_decompose(RealElement(H, 5.0, 3.0)),
        f"PolarForm(r=4.0, alpha={math.atanh(0.6)!r})",
    ),
}
CASES = pytest.mark.parametrize("case", sorted(GOLDEN))


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__slots__)


def test_every_record_type_is_covered():
    types = {type(make()) for make, _ in GOLDEN.values()}
    assert len(types) == 12
    assert {t.__name__ for t in types} == {name.split(",")[0] for name in GOLDEN}


@CASES
def test_repr(case):
    make, golden = GOLDEN[case]
    assert repr(make()) == golden


@CASES
def test_equality_and_hash_go_by_fields(case):
    record = GOLDEN[case][0]()
    cls, values = type(record), fields(record)
    twin = cls(*values)
    assert twin is not record and twin == record and not twin != record
    assert hash(twin) == hash(record) == hash(values)
    assert record != object() and record != values


def test_element_hash_is_the_tuple_hash():
    for kind in RingKind:
        for x, y in ((0, 0), (3, -4), (-(10**40), 7)):
            assert hash(Element(kind, x, y)) == hash((kind, x, y))
    assert Element(E, 3, 4) != Element(E, 3, 5) and Element(E, 3, 4) != Element(H, 3, 4)


def test_records_of_different_types_with_equal_fields_differ():
    a, b = elliptic(1, 2), elliptic(3, 4)
    assert DivResult(a, b) != PolarForm(a, b) and PolarForm(a, b) != DivResult(a, b)
    assert Element(H, 1, 2) != RealElement(H, 1, 2) and RealElement(H, 1, 2) != Element(H, 1, 2)
    assert {DivResult(a, b), PolarForm(a, b)} == {PolarForm(a, b), DivResult(a, b)}


@CASES
def test_fields_are_frozen(case):
    record = GOLDEN[case][0]()
    before = repr(record)
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == before


@CASES
def test_keyword_construction_and_match_args(case):
    record = GOLDEN[case][0]()
    cls = type(record)
    assert cls.__match_args__ == cls.__slots__
    assert cls(**dict(zip(cls.__slots__, fields(record)))) == record


def test_defaults():
    unit, factors = elliptic(1), (elliptic(1, 1),)
    assert Factorization(unit, factors) == Factorization(unit, factors, False)
    assert Factorization(unit=unit, factors=factors).axis_extension is False
    assert OracleVerdict(Verdict.CONFIRMED).witness is None


@CASES
def test_pickle_and_copy_round_trip(case):
    record = GOLDEN[case][0]()
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record and repr(clone) == repr(record)


def test_element_pattern_matching():
    match elliptic(3, -4):
        case Element(kind, x, y):
            assert (kind, x, y) == (E, 3, -4)
        case _:
            pytest.fail("no match")


class TestChecks:
    def test_ideal_generators(self):
        with pytest.raises(ValueError, match="at least one generator"):
            FGIdeal(H, ())
        with pytest.raises(KindMismatchError, match="ideal's ring"):
            FGIdeal(H, (hyperbolic(1), elliptic(1)))
        with pytest.raises(KindMismatchError):
            FGIdeal(E, [hyperbolic(1)])
        assert FGIdeal(H, [hyperbolic(2)]).generators == (hyperbolic(2),)

    def test_irreducible_form(self):
        with pytest.raises(ValueError, match="gamma must be nonnegative"):
            IrreducibleForm(-1, 1)
        with pytest.raises(ValueError, match="sign_y must be ±1"):
            IrreducibleForm(2, 0)

    @pytest.mark.parametrize("coords", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0)])
    def test_real_element_is_finite(self, coords):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            RealElement(E, *coords)

    def test_quadratic_poly_degree(self):
        with pytest.raises(ValueError, match="leading coefficient is zero"):
            QuadraticPoly(0, 1, 1)

    def test_element_coordinates_and_kind(self):
        for x, y in ((True, 0), (0, False), (1.0, 0), (0, "1")):
            with pytest.raises(TypeError, match="coordinates must be exact ints"):
                Element(E, x, y)
        with pytest.raises(TypeError, match="kind must be a RingKind"):
            Element("i", 1, 0)


class TestClassification:
    """``Classification`` stays a dataclass, defined in ``planeint.classification``."""

    def test_is_the_one_dataclass(self):
        c = classify(elliptic(3, 2))
        assert type(c) is Classification is planeint.classification.Classification
        assert not hasattr(planeint.core, "Classification")
        assert dataclasses.replace(c, is_prime=False) == Classification(False, False, False, False, True, False)
        for make, _ in GOLDEN.values():
            assert not dataclasses.is_dataclass(make())
