"""Value semantics of catent's eleven immutable classes: no assignment or
deletion, equality and hash over the compared fields, keyword
construction, and the repr, pinned string for string."""

import math
from fractions import Fraction

import pytest

from catent.entropy import LawClause, LawReport
from catent.ingest import CsvSpec
from catent.metric import AxiomCheck, AxiomReport, DistanceMatrix
from catent.model import (
    CategoricalVariable,
    ContingencyTable,
    Dataset,
    Partition,
    induced_partition,
)
from catent.randgen import GenConfig

HALF_QUARTERS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))


def _dataset():
    return Dataset.from_columns({"x": ("a", "b", "a")}, HALF_QUARTERS)


def _check(name="symmetry", slack=-0.25):
    return AxiomCheck(name, 3, 2, 1, slack, ("x", "y"), 0.5, 0.25)


# one fresh object per call, of each class, with the fields given positionally
MAKERS = {
    CategoricalVariable: lambda: CategoricalVariable("x", ("a", "b", "a")),
    Dataset: _dataset,
    Partition: lambda: induced_partition(_dataset()["x"], _dataset()),
    ContingencyTable: lambda: ContingencyTable(
        ("a",), ("b", "c"), ((Fraction(1, 3), Fraction(2, 3)),)),
    DistanceMatrix: lambda: DistanceMatrix(("x", "y"), ((0, 0.5), (0.5, 0))),
    AxiomCheck: _check,
    AxiomReport: lambda: AxiomReport(
        (_check(), AxiomCheck("identity", 1, 1, 0, math.inf, None, None, None))),
    LawClause: lambda: LawClause("chain_rule", True, False, 0.0),
    LawReport: lambda: LawReport((LawClause("chain_rule", True, False, 0.0),)),
    GenConfig: lambda: GenConfig(seed=7, rows=(3, 5)),
    CsvSpec: lambda: CsvSpec(";", drop_na=True),
}

# the same objects by keyword, every field named (a Partition has no constructor)
BY_KEYWORD = {
    CategoricalVariable: lambda: CategoricalVariable(name="x", labels=("a", "b", "a")),
    Dataset: lambda: Dataset(
        columns={"x": CategoricalVariable("x", ("a", "b", "a"))}, row_weights=HALF_QUARTERS),
    ContingencyTable: lambda: ContingencyTable(
        row_alphabet=("a",), col_alphabet=("b", "c"),
        counts=((Fraction(1, 3), Fraction(2, 3)),)),
    DistanceMatrix: lambda: DistanceMatrix(names=("x", "y"), values=((0, 0.5), (0.5, 0))),
    AxiomCheck: lambda: AxiomCheck(
        name="symmetry", instances=3, nonvacuous=2, violations=1, worst_slack=-0.25,
        witness=("x", "y"), lhs=0.5, rhs=0.25),
    AxiomReport: lambda: AxiomReport(checks=(
        _check(), AxiomCheck("identity", 1, 1, 0, math.inf, None, None, None))),
    LawClause: lambda: LawClause(name="chain_rule", passed=True, vacuous=False, gap=0.0),
    LawReport: lambda: LawReport(clauses=(LawClause("chain_rule", True, False, 0.0),)),
    GenConfig: lambda: GenConfig(
        seed=7, rows=(3, 5), alphabet_size=(1, 4), correlation_mode="arbitrary"),
    CsvSpec: lambda: CsvSpec(delimiter=";", drop_na=True),
}

# the reprs of MAKERS' objects, as the dataclass-generated reprs wrote them
REPRS = {
    CategoricalVariable: "CategoricalVariable(name='x', labels=('a', 'b', 'a'))",
    Dataset: "Dataset(columns=mappingproxy({'x': CategoricalVariable(name='x', "
             "labels=('a', 'b', 'a'))}), row_weights=(Fraction(1, 2), Fraction(1, 4), "
             "Fraction(1, 4)))",
    Partition: "Partition(codes=(0, 1, 0), counts=(3, 1), scale=4)",
    ContingencyTable: "ContingencyTable(row_alphabet=('a',), col_alphabet=('b', 'c'), "
                      "counts=((Fraction(1, 3), Fraction(2, 3)),))",
    DistanceMatrix: "DistanceMatrix(names=('x', 'y'), values=((0.0, 0.5), (0.5, 0.0)))",
    AxiomCheck: "AxiomCheck(name='symmetry', instances=3, nonvacuous=2, violations=1, "
                "worst_slack=-0.25, witness=('x', 'y'), lhs=0.5, rhs=0.25)",
    AxiomReport: "AxiomReport(checks=(AxiomCheck(name='symmetry', instances=3, nonvacuous=2, "
                 "violations=1, worst_slack=-0.25, witness=('x', 'y'), lhs=0.5, rhs=0.25), "
                 "AxiomCheck(name='identity', instances=1, nonvacuous=1, violations=0, "
                 "worst_slack=inf, witness=None, lhs=None, rhs=None)))",
    LawClause: "LawClause(name='chain_rule', passed=True, vacuous=False, gap=0.0)",
    LawReport: "LawReport(clauses=(LawClause(name='chain_rule', passed=True, vacuous=False, "
               "gap=0.0),))",
    GenConfig: "GenConfig(seed=7, rows=(3, 5), alphabet_size=(1, 4), "
               "correlation_mode='arbitrary')",
    CsvSpec: "CsvSpec(delimiter=';', drop_na=True)",
}

CLASSES = list(MAKERS)


def ids(cls) -> str:
    return cls.__name__


def test_every_class_is_covered():
    assert len(CLASSES) == 11 and set(REPRS) == set(CLASSES)
    assert set(BY_KEYWORD) == set(CLASSES) - {Partition}


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_repr_is_pinned(cls):
    assert repr(MAKERS[cls]()) == REPRS[cls]


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    obj = MAKERS[cls]()
    for name in (*cls._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == REPRS[cls]


@pytest.mark.parametrize("cls", sorted(set(CLASSES) - {Dataset, DistanceMatrix}, key=ids),
                         ids=ids)
def test_equal_fields_mean_equal_objects_and_hashes(cls):
    a, b = MAKERS[cls](), MAKERS[cls]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_another_class_is_unequal(cls):
    obj = MAKERS[cls]()
    assert obj != tuple(getattr(obj, name) for name in cls._fields)
    assert obj != object()


def test_reports_of_the_same_fields_but_another_class_are_unequal():
    assert LawReport(()) != AxiomReport(())
    assert AxiomReport(()) == AxiomReport(())


def test_a_differing_field_makes_objects_unequal():
    assert _check(slack=-0.25) != _check(slack=-0.5)
    assert CsvSpec(";") != CsvSpec(";", drop_na=True)
    assert GenConfig(seed=1) != GenConfig(seed=2)


def test_a_dataset_is_equal_by_value_but_unhashable():
    assert _dataset() == _dataset()
    with pytest.raises(TypeError):
        hash(_dataset())


def test_a_distance_matrix_is_equal_only_to_itself():
    a, b = MAKERS[DistanceMatrix](), MAKERS[DistanceMatrix]()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_a_nan_worst_slack_still_equals_itself():
    check = _check(slack=math.nan)
    assert check == check
    assert AxiomReport((check,)) == AxiomReport((check,))


@pytest.mark.parametrize("cls", sorted(BY_KEYWORD, key=ids), ids=ids)
def test_every_field_can_be_passed_by_keyword(cls):
    obj = BY_KEYWORD[cls]()
    assert repr(obj) == REPRS[cls]
    if cls is not DistanceMatrix:
        assert obj == MAKERS[cls]()


def test_gen_config_defaults_are_read_off_the_class():
    assert GenConfig.rows == (2, 12) and GenConfig.alphabet_size == (1, 4)
    assert GenConfig.seed == 0 and GenConfig.correlation_mode == "arbitrary"
    assert GenConfig() == GenConfig(0, (2, 12), (1, 4), "arbitrary")

