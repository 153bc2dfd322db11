"""Every value record behaves like the frozen dataclass it replaced."""

import dataclasses
import pickle
from fractions import Fraction

import pytest

from contextuality_kit import closed_form, event_space, feasibility, measures, numerics, quantum
from contextuality_kit import set_functions, simplex
from contextuality_kit._record import Record

F = Fraction
SPACE = event_space.EventSpace(("A", "B"))
MASK = event_space.EventMask(SPACE, 0b0101)
OTHER_MASK = event_space.EventMask(SPACE, 0b0111)
MEASURE = measures.AtomMeasure(SPACE, (F(1, 4),) * 4)
SET_FUNCTION = set_functions.PartialSetFunction(
    SPACE, set_functions.UPPER, {MASK: F(1, 2)}, {MASK: "x"}
)
INTERVAL = numerics.ScalarInterval(F(1, 3), F(1, 2))
VIOLATION = measures.Violation("normalization", "atom values sum to 2")
CONJUGACY = set_functions.ConjugacyViolation(MASK, F(1), F(0))
CONSTRAINT = feasibility.MomentConstraint(("A",), "eq", INTERVAL)
MISMATCH = feasibility.GridMismatch(F(0), F(1), True, False)
CHECK = closed_form.CheckRecord("total upper mass >= 1", True, "total = 2")

SAMPLES = {
    event_space.EventSpace: lambda: event_space.EventSpace(("A", "B")),
    event_space.EventMask: lambda: event_space.EventMask(SPACE, 0b0101),
    numerics.ScalarInterval: lambda: numerics.ScalarInterval(F(1, 3), F(1, 2)),
    numerics.Literal: lambda: numerics.Literal(F(1, 2)),
    numerics.Negate: lambda: numerics.Negate(numerics.Literal(F(1))),
    numerics.BinaryOp: lambda: numerics.BinaryOp(
        "+", numerics.Literal(F(1)), numerics.Literal(F(2))
    ),
    numerics.Sqrt: lambda: numerics.Sqrt(numerics.Literal(F(2))),
    measures.AtomMeasure: lambda: measures.AtomMeasure(SPACE, (F(1, 4),) * 4),
    set_functions.PartialSetFunction: lambda: set_functions.PartialSetFunction(
        SPACE, set_functions.UPPER, {MASK: F(1, 2)}, {MASK: "x"}
    ),
    measures.ConditionalMomentValue: lambda: measures.ConditionalMomentValue(
        ("A", "B"), "C", 1, F(1, 2)
    ),
    measures.Violation: lambda: measures.Violation("normalization", "atom values sum to 2"),
    measures.ValidationReport: lambda: measures.ValidationReport(False, (VIOLATION,)),
    set_functions.MonotonicityViolation: lambda: set_functions.MonotonicityViolation(
        MASK, OTHER_MASK, F(1), F(0)
    ),
    set_functions.ConjugacyViolation: lambda: set_functions.ConjugacyViolation(MASK, F(1), F(0)),
    set_functions.ConjugacyReport: lambda: set_functions.ConjugacyReport(1, False, (CONJUGACY,)),
    simplex.LpResult: lambda: simplex.LpResult(simplex.OPTIMAL, [F(1)], F(0), pivots=3),
    simplex._ReadOut: lambda: simplex._ReadOut([2], [3], 1, [0], [-1], 2, (([2, 2], 3, None),)),
    feasibility.MomentConstraint: lambda: feasibility.MomentConstraint(("A",), "eq", INTERVAL),
    feasibility.Scenario: lambda: feasibility.Scenario(SPACE, (CONSTRAINT,), title="one"),
    feasibility.FeasibilityOutcome: lambda: feasibility.FeasibilityOutcome(
        feasibility.FEASIBLE, MEASURE, margin=F(0)
    ),
    feasibility.GridMismatch: lambda: feasibility.GridMismatch(F(0), F(1), True, False),
    feasibility.GridAgreementReport: lambda: feasibility.GridAgreementReport(3, (MISMATCH,)),
    closed_form.GhzMoments: lambda: closed_form.GhzMoments.of(1, 1, 1, -1),
    closed_form.InequalityCheck: lambda: closed_form.InequalityCheck(False, 1, F(4)),
    closed_form.SymmetricParams: lambda: closed_form.SymmetricParams.of(F(1, 2), F(1, 3)),
    closed_form.SymmetricWitness: lambda: closed_form.SymmetricWitness(
        F(1, 12), F(1, 12), F(1, 4), F(1, 4)
    ),
    closed_form.NoiseThresholdResult: lambda: closed_form.NoiseThresholdResult(
        F(1, 4), F(3), False
    ),
    closed_form.AssignmentEnumeration: lambda: closed_form.AssignmentEnumeration(64, 0, 64),
    closed_form.BellMoments: lambda: closed_form.BellMoments.of(F(-1, 2), F(-1, 2), F(-1, 2)),
    closed_form.BellConditionalOutcome: lambda: closed_form.BellConditionalOutcome(
        closed_form.NO_SOLUTION, closed_form.STAGE_AVERAGING, detail="E(XY) != E(YZ)"
    ),
    closed_form.CheckRecord: lambda: closed_form.CheckRecord(
        "total upper mass >= 1", True, "total = 2"
    ),
    closed_form.UpperBellSolution: lambda: closed_form.UpperBellSolution((), MEASURE, (CHECK,)),
    closed_form.GhzWitness: lambda: closed_form.GhzWitness(MEASURE, SET_FUNCTION, (CHECK,)),
    quantum.SpinOperator: lambda: quantum.SpinOperator(("x", "y")),
    quantum.StateVector: lambda: quantum.StateVector((1, 0)),
}

_CLASSES = list(SAMPLES)


def _dataclass_twin(record):
    """The same values in a dataclass of the same name and fields."""
    cls = type(record)
    twin_cls = dataclasses.make_dataclass(
        cls.__qualname__, [(name, object) for name in cls.__slots__], frozen=True
    )
    return twin_cls(*(getattr(record, name) for name in cls.__slots__))


def test_every_record_class_has_a_sample():
    assert set(Record.__subclasses__()) == set(SAMPLES)
    assert len(SAMPLES) == 35


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__qualname__)
def test_record_behaves_like_a_frozen_dataclass(cls):
    record, twin = SAMPLES[cls](), SAMPLES[cls]()
    other = SAMPLES[_CLASSES[_CLASSES.index(cls) - 1]]()
    reference = _dataclass_twin(record)

    assert record == twin and not record != twin
    assert record != other and record.__eq__(other) is NotImplemented
    assert repr(record) == repr(reference)
    try:
        want = hash(reference)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == want
    assert pickle.loads(pickle.dumps(record)) == record

    name = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(twin, name))
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown_field = 1
    assert record == twin


#: The records that only store their arguments, through the base constructor.
BASE_CONSTRUCTED = {
    closed_form.SymmetricWitness, closed_form.NoiseThresholdResult,
    closed_form.AssignmentEnumeration, closed_form.UpperBellSolution, closed_form.GhzWitness,
    event_space.EventSpace, feasibility.GridMismatch, feasibility.GridAgreementReport,
    measures.Violation, measures.ValidationReport, numerics.Literal, numerics.Negate,
    numerics.BinaryOp, numerics.Sqrt, quantum.SpinOperator,
    set_functions.MonotonicityViolation, set_functions.ConjugacyViolation,
    set_functions.ConjugacyReport, simplex._ReadOut,
}


def test_only_the_records_that_store_their_arguments_use_the_base_constructor():
    assert {cls for cls in SAMPLES if "__init__" not in vars(cls)} == BASE_CONSTRUCTED


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__qualname__)
def test_record_built_by_keyword_equals_the_positional_one(cls):
    record = SAMPLES[cls]()
    values = record._values()
    named = dict(zip(cls.__slots__, values))
    assert cls(**named) == record
    assert cls(*values[:1], **dict(list(named.items())[1:])) == record
    assert cls(**dict(reversed(named.items()))) == record


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__qualname__)
def test_extra_missing_repeated_and_unknown_fields_raise_type_error(cls):
    values = SAMPLES[cls]()._values()
    first = cls.__slots__[0]
    with pytest.raises(TypeError):
        cls(*values, values[0])
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError):
        cls(*values, unknown_field=1)
    if cls in BASE_CONSTRUCTED:
        with pytest.raises(TypeError, match="missing the field"):
            cls(*values[:-1])
        with pytest.raises(TypeError, match=f"missing the field '{first}'"):
            cls(**dict(zip(cls.__slots__[1:], values[1:])))
