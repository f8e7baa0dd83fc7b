"""Behaviour of the library's value classes: keyword construction and
defaults, equality and hash from the field tuple, the Name(field=value, ...)
repr, frozen instances that copy and pickle, and every validation message.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from nefkit.chern import (
    BettiTable,
    CIType,
    NegativeBetti,
    WeightedHypersurface,
)
from nefkit.cones import (
    CycleClass,
    CycleDataset,
    InvalidPartition,
    RationalCone,
    SchemaError,
    builtin_dataset,
)
from nefkit.diagonal import (
    DelPezzoRow,
    FibrationObstruction,
    Reason,
    ScanReport,
    Verdict,
    cp_fibration_obstruction,
)

CLASSES = (CycleClass("a", (1, 0), 1), CycleClass("b", (1, 1), 2),
           CycleClass("p", (0, 0), 0))

# class -> (its field names in order, a factory of one instance built by keyword)
VALUES = {
    CIType: (("degrees", "dimension"), lambda: CIType(degrees=(1, 3, 2), dimension=2)),
    BettiTable: (("betti",), lambda: BettiTable(betti=(1, 0, 7, 0, 1))),
    WeightedHypersurface: (("weights", "degree"),
                           lambda: WeightedHypersurface(weights=[2, 1, 1, 1, 1], degree=4)),
    CycleClass: (("label", "partition", "codim"),
                 lambda: CycleClass(label="s", partition=[2, -1], codim=1)),
    CycleDataset: (("variety", "dimension", "classes", "pairings"),
                   lambda: CycleDataset(variety="X", dimension=2, classes=CLASSES,
                                        pairings={("a", "a"): 1, ("b", "p"): 1})),
    RationalCone: (("ambient_dimension", "generators", "basis_labels"),
                   lambda: RationalCone(ambient_dimension=2, generators=((0, 1), (1, 0)),
                                        basis_labels=("x", "y"))),
    Verdict: (("status", "reason", "detail", "witness"),
              lambda: Verdict(reason=Reason.NEGATIVE_SELF_INTERSECTION, detail="chi < 0",
                              witness={"chi": -1})),
    DelPezzoRow: (("degree", "description", "cover", "ci_degrees", "steps",
                   "variant_dimensions"),
                  lambda: DelPezzoRow(degree=3, description="a cubic", ci_degrees=(3,))),
    FibrationObstruction: (("n", "total_dimension", "p_total", "p_fiber", "remainder"),
                           lambda: FibrationObstruction(n=1, total_dimension=3,
                                                        p_total=(1, 0, 1, -4, 1, 0, 1),
                                                        p_fiber=(4,), remainder=(0, 16))),
    ScanReport: (("max_dimension", "max_degree", "max_codimension", "quadrics_max_codimension",
                  "cases", "law_checks", "verdict_counts"),
                 lambda: ScanReport(max_dimension=1, max_degree=2, max_codimension=1,
                                    quadrics_max_codimension=1, cases=2,
                                    law_checks={"verdict_classified": 2},
                                    verdict_counts={"Nef": 2})),
}
# a field that holds a dict makes the field tuple, and so the instance, unhashable
UNHASHABLE = {CycleDataset, Verdict, DelPezzoRow, ScanReport}


def field_tuple(value: object) -> tuple:
    return tuple(getattr(value, name) for name in VALUES[type(value)][0])


def test_defaults() -> None:
    assert Verdict(Reason.HOMOGENEOUS, "homogeneous").witness == {}
    assert RationalCone(1, ((1,),)).basis_labels is None
    assert CycleDataset("X", 0, (CLASSES[2],)).pairings == {}
    row = DelPezzoRow(degree=7, description="d")
    assert (row.cover, row.ci_degrees, row.steps, row.variant_dimensions) == (None, (), {}, {})


def test_default_mappings_are_not_shared() -> None:
    first = Verdict(Reason.HOMOGENEOUS, "homogeneous")
    second = Verdict(Reason.HOMOGENEOUS, "homogeneous")
    assert first.witness is not second.witness
    assert CycleDataset("X", 0, (CLASSES[2],)).pairings is not \
        CycleDataset("X", 0, (CLASSES[2],)).pairings


def test_keyword_construction_canonicalizes() -> None:
    assert VALUES[CIType][1]().degrees == (2, 3)
    assert VALUES[WeightedHypersurface][1]().weights == (2, 1, 1, 1, 1)
    assert VALUES[CycleClass][1]().partition == (2, -1)
    assert VALUES[FibrationObstruction][1]() == cp_fibration_obstruction(1)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_equal_instances_are_equal_and_hash_alike(cls) -> None:
    make = VALUES[cls][1]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(first)
    else:
        assert hash(first) == hash(second) == hash(field_tuple(first))


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_never_equal_to_a_tuple_of_its_fields(cls) -> None:
    value = VALUES[cls][1]()
    assert value != field_tuple(value)
    assert field_tuple(value) != value
    assert value.__eq__(field_tuple(value)) is NotImplemented


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_repr_names_every_field(cls) -> None:
    value = VALUES[cls][1]()
    fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in VALUES[cls][0])
    assert repr(value) == f"{cls.__name__}({fields})"


def test_repr_examples() -> None:
    assert repr(CIType((1, 3, 2), 2)) == "CIType(degrees=(2, 3), dimension=2)"
    assert repr(BettiTable((1, 0, 1))) == "BettiTable(betti=(1, 0, 1))"
    assert repr(CycleClass("h", None, 1)) == "CycleClass(label='h', partition=None, codim=1)"
    assert repr(RationalCone(1, ((1,),))) == \
        "RationalCone(ambient_dimension=1, generators=((1,),), basis_labels=None)"


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_instances_are_frozen(cls) -> None:
    names, make = VALUES[cls]
    value = make()
    before = field_tuple(value)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert field_tuple(value) == before


def test_store_needs_one_value_per_field() -> None:
    value = object.__new__(CIType)
    for values in (((2,),), ((2,), 1, 0)):
        with pytest.raises(ValueError, match="^zip"):
            value._store(*values)


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_copies_and_pickles_are_equal(cls) -> None:
    value = VALUES[cls][1]()
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is cls and other == value


def test_canonical_types_are_equal_keys() -> None:
    assert CIType((1, 3, 2), 2) == CIType((2, 3), 2)
    assert hash(CIType((1, 3, 2), 2)) == hash(CIType((2, 3), 2))
    assert len({CIType((1, 3, 2), 2), CIType((2, 3), 2), CIType([3, 2, 1, 1], 2)}) == 1
    assert CIType((2, 3), 2) != CIType((2, 3), 3)
    assert CIType((), 2) != RationalCone(1, ((1,),))


def test_cone_caches_survive_freezing() -> None:
    cone = RationalCone(2, ((0, 1), (1, 1)))
    assert cone.is_full_dimensional
    assert cone.contains((1, 2)) and not cone.contains((1, 0))
    assert "is_full_dimensional" in vars(cone) and "_facet_normals" in vars(cone)
    assert cone == RationalCone(2, ((0, 1), (1, 1)))
    assert hash(cone) == hash(RationalCone(2, ((0, 1), (1, 1))))


def test_shipped_dataset_compares_by_value() -> None:
    assert builtin_dataset("gw2c5") == builtin_dataset("gw2c5")
    assert builtin_dataset("gw2c5") != builtin_dataset("g2c5")


ONE = (CycleClass("p", (0, 0), 0),)
SURFACE = (CycleClass("p", (0, 0), 0), CycleClass("l", (1, 0), 1),
           CycleClass("q", (2, 0), 2))


@pytest.mark.parametrize(("make", "error", "message"), [
    (lambda: CIType((2.0,), 1), ValueError, "degree must be an integer"),
    (lambda: CIType((True,), 1), ValueError, "degree must be an integer"),
    (lambda: CIType((0,), -1), ValueError, "degrees must be >= 1"),
    (lambda: CIType((2,), 1.0), ValueError, "dimension must be an integer"),
    (lambda: CIType((2,), -1), ValueError, "dimension must be >= 0"),
    (lambda: BettiTable((1, 1)), ValueError, "need an odd number of entries b_0..b_(2n)"),
    (lambda: BettiTable((1, -1, 1)), NegativeBetti, "Betti numbers must be non-negative"),
    (lambda: BettiTable((1, 0, 2)), ValueError, "Betti table must satisfy Poincare duality"),
    (lambda: WeightedHypersurface((1, 1, 1, 1, 1.5), 2), ValueError,
     "weight must be an integer"),
    (lambda: WeightedHypersurface((1, 1, 1, 1), 0), ValueError, "need at least five weights"),
    (lambda: WeightedHypersurface((0, 1, 1, 1, 1), 0), ValueError, "weights must be >= 1"),
    (lambda: WeightedHypersurface((1,) * 5, 2.0), ValueError, "degree must be an integer"),
    (lambda: WeightedHypersurface((1,) * 5, 0), ValueError, "degree must be >= 1"),
    (lambda: CycleClass("", (1, 0), 1), InvalidPartition,
     "classes need a non-empty string label"),
    (lambda: CycleClass(5, (1, 0), 1), InvalidPartition,
     "classes need a non-empty string label"),
    (lambda: CycleClass("x", (0, -1), -1), InvalidPartition,
     "x: negative tail needs first part >= 1"),
    (lambda: CycleClass("x", (1, 2), 3), InvalidPartition,
     "x: partition must be weakly decreasing, >= 0"),
    (lambda: CycleClass("x", (1, 0), 2), InvalidPartition, "x: codim 2 != |partition| 1"),
    (lambda: CycleDataset("X", -1, ()), SchemaError, "dimension must be >= 0"),
    (lambda: CycleDataset("X", 2, ()), SchemaError, "a dataset needs at least one class"),
    (lambda: CycleDataset("X", 2, ONE + ONE), SchemaError, "class labels must be unique"),
    (lambda: CycleDataset("X", 1, SURFACE), SchemaError, "q: codim 2 exceeds dimension"),
    (lambda: CycleDataset("X", 2, SURFACE, {("p", "z"): 1}), SchemaError,
     "pairing refers to unknown class (p, z)"),
    (lambda: CycleDataset("X", 2, SURFACE, {("q", "p"): 1}), SchemaError,
     "pairing keys must be sorted label pairs"),
    (lambda: CycleDataset("X", 2, SURFACE, {("l", "p"): 1}), SchemaError,
     "pairing (l, p) is not of complementary codimension"),
    (lambda: CycleDataset("X", 2, SURFACE, {("p", "q"): "1"}), SchemaError,
     "pairing (p, q) must be an integer"),
    (lambda: RationalCone(0, ()), ValueError, "ambient dimension must be >= 1"),
    (lambda: RationalCone(2, ((1,),)), ValueError,
     "generator length must match the ambient dimension"),
    (lambda: RationalCone(2, ((0, 0),)), ValueError, "generators must be nonzero"),
    (lambda: RationalCone(2, ((1, 0),), ("x",)), ValueError,
     "need one basis label per coordinate"),
    (lambda: Verdict("Homogeneous", "d"), ValueError, "unknown reason 'Homogeneous'"),
    (lambda: Verdict(Reason.NEGATIVE_SELF_INTERSECTION, "d", {"chi": 0}),
     ValueError, "NegativeSelfIntersection needs witness chi < 0"),
    (lambda: Verdict(Reason.PROJECTION_BOUND, "d", {"chi": 5}), ValueError,
     "ProjectionBound needs integer chi and bound"),
    (lambda: Verdict(Reason.PROJECTION_BOUND, "d", {"chi": 5, "bound": 5}),
     ValueError, "ProjectionBound witness must have chi > bound"),
    (lambda: Verdict(Reason.NEGATIVE_EFFECTIVE_PAIR, "d",
                     {"classes": ["a"], "value": -1}),
     ValueError, "NegativeEffectivePair needs a pair of class names"),
    (lambda: Verdict(Reason.NEGATIVE_EFFECTIVE_PAIR, "d",
                     {"classes": ["a", "b"], "value": 0}),
     ValueError, "NegativeEffectivePair needs witness value < 0"),
    # explicit ids: a repeated message would renumber the ids of the cases sharing it
    pytest.param(lambda: Verdict(Reason.PROJECTION_BOUND, "d", {"chi": True, "bound": False}),
                 ValueError, "ProjectionBound needs integer chi and bound", id="bool-chi-bound"),
    pytest.param(lambda: Verdict(Reason.NEGATIVE_EFFECTIVE_PAIR, "d",
                                 {"classes": [1, 2], "value": -1}),
                 ValueError, "NegativeEffectivePair needs a pair of class names",
                 id="non-string-classes"),
    (lambda: Verdict(Reason.K3_SURFACE, "d"), ValueError,
     "K3Surface verdicts must name their table entry"),
    (lambda: Verdict(Reason.BIRATIONAL_CONTRACTION, "d"), ValueError,
     "BirationalContraction must name the contraction"),
    (lambda: Verdict(Reason.OPEN_QUESTION, "d", {"reference": ""}), ValueError,
     "Open verdicts must carry a reference id"),
    (lambda: RationalCone(True, ((1,),)), ValueError, "ambient dimension must be an integer"),
    (lambda: RationalCone(2, ((0.5, 1.0), (1, 0))), ValueError,
     "generator entry must be an integer"),
    (lambda: RationalCone(2, ((0, True),)), ValueError, "generator entry must be an integer"),
    (lambda: CycleClass("a", (1.0, 0), 1), InvalidPartition,
     "a: partition part must be an integer"),
    (lambda: CycleClass("a", (1, 0), True), InvalidPartition, "a: codim must be an integer"),
    (lambda: CycleClass("a", (1, 0, 0), 1), InvalidPartition,
     "a: partition must be a list of two integers"),
    (lambda: CycleClass("a", 5, 1), InvalidPartition,
     "a: partition must be a list of two integers"),
    (lambda: CycleClass("a", None, -1), InvalidPartition, "a: codim must be >= 0"),
    (lambda: CycleDataset("X", "3", SURFACE), SchemaError, "dimension must be an integer"),
    (lambda: CycleDataset("X", 2, list(SURFACE)), SchemaError,
     "classes must be a tuple of CycleClass"),
    (lambda: RationalCone(2, [(0, 1), (1, 0)]), ValueError,
     "generators must be a tuple of tuples"),
    (lambda: RationalCone(2, ((0, 1), [1, 0])), ValueError,
     "generators must be a tuple of tuples"),
    (lambda: CycleDataset(None, 0, ONE), SchemaError, "variety must be a non-empty string"),
    (lambda: CycleDataset("", 0, ONE), SchemaError, "variety must be a non-empty string"),
    (lambda: CycleDataset("X", 0, ONE, [("p", "p")]), SchemaError,
     "pairings must be a mapping"),
    (lambda: RationalCone(1, ((1,),), ["x"]), ValueError,
     "basis labels must be a tuple of strings"),
    (lambda: RationalCone(1, ((1,),), (3,)), ValueError,
     "basis labels must be a tuple of strings"),
])
def test_validation_messages(make, error, message) -> None:
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error
    assert str(caught.value) == message
