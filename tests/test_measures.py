from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from contextuality_kit.errors import MeasureError, UndefinedConditionalError
from contextuality_kit.event_space import EventMask, build_space, moment_coefficients, sign_event
from contextuality_kit.measures import (
    LOWER_ATOMS,
    STANDARD,
    UPPER_ATOMS,
    AtomMeasure,
    conditional_expectation,
    expectation,
    signed_atom_sum,
    signed_atom_sums,
    validate,
)
from contextuality_kit.set_functions import (
    LOWER,
    UPPER,
    PartialSetFunction,
    check_conjugacy,
    check_monotonicity,
    conjugate_pair_from_measure,
)


@pytest.fixture
def abc():
    return build_space(["A", "B", "C"])


class TestValidateAtomMeasure:
    def test_point_mass_passes(self, abc):
        m = AtomMeasure.from_dict(abc, {"+++": 1})
        assert validate(m).passed

    def test_lower_third_witness_passes(self, abc):
        m = AtomMeasure.from_dict(
            abc,
            {"-++": Fraction(1, 3), "+-+": Fraction(1, 3), "++-": Fraction(1, 3)},
            kind=LOWER_ATOMS,
        )
        assert validate(m).passed  # sum is 1 <= 1

    def test_negative_value_reported(self, abc):
        m = AtomMeasure.from_dict(abc, {"+++": 2, "---": -1})
        report = validate(m)
        assert not report.passed
        axioms = {v.axiom for v in report.violations}
        assert "nonnegativity" in axioms

    def test_standard_must_normalize(self, abc):
        m = AtomMeasure.from_dict(abc, {"+++": Fraction(1, 2)})
        report = validate(m)
        assert not report.passed
        assert report.violations[0].axiom == "normalization"


class TestValidateSetFunction:
    def test_subadditivity_violation_reported(self, abc):
        m1 = EventMask.from_atoms(abc, [0])
        m2 = EventMask.from_atoms(abc, [1])
        union = m1.union(m2)
        sf = PartialSetFunction(
            abc,
            UPPER,
            {m1: Fraction(1, 10), m2: Fraction(1, 10), union: Fraction(1, 2)},
        )
        report = validate(sf)
        assert not report.passed
        assert report.violations[0].axiom == "subadditivity"

    def test_superadditive_lower_passes(self, abc):
        m1 = EventMask.from_atoms(abc, [0])
        m2 = EventMask.from_atoms(abc, [1])
        union = m1.union(m2)
        sf = PartialSetFunction(
            abc,
            LOWER,
            {m1: Fraction(1, 10), m2: Fraction(1, 10), union: Fraction(1, 2)},
        )
        assert validate(sf).passed

    def test_range_and_boundary_axioms(self, abc):
        sf = PartialSetFunction(
            abc,
            UPPER,
            {
                EventMask.empty(abc): Fraction(1, 4),
                EventMask.full(abc): Fraction(3, 4),
                EventMask.from_atoms(abc, [2]): Fraction(2),
            },
        )
        axioms = {v.axiom for v in validate(sf).violations}
        assert axioms == {"empty-set", "full-space", "range"}


class TestExpectations:
    def test_uniform_triple_zero(self, abc):
        uniform = AtomMeasure(abc, tuple([Fraction(1, 8)] * 8))
        assert expectation(uniform, ["A", "B", "C"]) == 0

    def test_point_mass_single(self, abc):
        m = AtomMeasure.from_dict(abc, {"+++": 1})
        assert expectation(m, ["A"]) == 1

    def test_nonstandard_kind_rejected(self, abc):
        m = AtomMeasure.from_dict(abc, {"+++": 1}, kind=LOWER_ATOMS)
        with pytest.raises(MeasureError):
            expectation(m, ["A"])
        # but the signed atom sum is defined
        assert signed_atom_sum(m, ["A"]) == 1

    def test_signed_atom_sum_lower_witness(self, abc):
        m = AtomMeasure.from_dict(
            abc,
            {"-++": Fraction(1, 3), "+-+": Fraction(1, 3), "++-": Fraction(1, 3)},
            kind=LOWER_ATOMS,
        )
        assert signed_atom_sum(m, ["A", "B", "C"]) == -1

    def test_all_zero_lower(self, abc):
        m = AtomMeasure(abc, tuple([Fraction(0)] * 8), kind=LOWER_ATOMS)
        assert signed_atom_sum(m, ["A", "B"]) == 0


class TestConditionalExpectation:
    def test_independent_uniform(self, abc):
        uniform = AtomMeasure(abc, tuple([Fraction(1, 8)] * 8))
        assert conditional_expectation(uniform, ["A", "B"], "C", 1) == 0

    def test_correlated_pair(self, abc):
        m = AtomMeasure.from_dict(abc, {"+++": Fraction(1, 2), "---": Fraction(1, 2)})
        assert conditional_expectation(m, ["A", "B"], "C", 1) == 1

    def test_zero_probability_condition(self, abc):
        m = AtomMeasure.from_dict(abc, {"++-": 1})
        with pytest.raises(UndefinedConditionalError):
            conditional_expectation(m, ["A", "B"], "C", 1)


class TestMonotonicity:
    def test_additive_measure_is_monotone(self, abc):
        m = AtomMeasure.from_dict(abc, {"+++": Fraction(1, 2), "--+": Fraction(1, 2)})
        events = [EventMask.from_atoms(abc, [0]), sign_event(abc, "A", 1),
                  sign_event(abc, "C", 1), EventMask.full(abc)]
        upper, _ = conjugate_pair_from_measure(m, events)
        assert check_monotonicity(upper) == []

    def test_constructed_violation_found(self, abc):
        small = EventMask.from_atoms(abc, [0])
        large = EventMask.from_atoms(abc, [0, 1])
        sf = PartialSetFunction(
            abc, UPPER, {small: Fraction(9, 10), large: Fraction(1, 2)}
        )
        found = check_monotonicity(sf)
        assert len(found) == 1
        assert found[0].smaller == small and found[0].larger == large


class TestConjugacy:
    def test_conjugate_pair_from_additive_measure(self, abc):
        m = AtomMeasure.from_dict(abc, {"+++": Fraction(1, 3), "---": Fraction(2, 3)})
        events = [sign_event(abc, v, s) for v in "ABC" for s in (1, -1)]
        events += [EventMask.empty(abc), EventMask.full(abc)]
        upper, lower = conjugate_pair_from_measure(m, events)
        report = check_conjugacy(upper, lower)
        assert report.checked > 0
        assert not report.vacuous
        assert report.violations == ()

    def test_disjoint_domains_vacuous(self, abc):
        upper = PartialSetFunction(abc, UPPER, {EventMask.from_atoms(abc, [0]): Fraction(1, 2)})
        lower = PartialSetFunction(abc, LOWER, {EventMask.from_atoms(abc, [0]): Fraction(1, 2)})
        report = check_conjugacy(upper, lower)
        assert report.vacuous
        assert report.checked == 0
        assert report.violations == ()

    def test_order_enforced(self, abc):
        upper = PartialSetFunction(abc, UPPER, {})
        lower = PartialSetFunction(abc, LOWER, {})
        with pytest.raises(MeasureError):
            check_conjugacy(lower, upper)  # type: ignore[arg-type]


# --- property tests ---------------------------------------------------------

_weights = st.lists(
    st.integers(min_value=0, max_value=12), min_size=8, max_size=8
).filter(lambda ws: sum(ws) > 0)


def _measure_from_weights(space, weights):
    total = sum(weights)
    return AtomMeasure(space, tuple(Fraction(w, total) for w in weights))


@given(_weights, st.sampled_from(["A", "B", "C"]), st.sampled_from([["A"], ["A", "B"], ["A", "B", "C"], ["B", "C"]]))
def test_law_of_total_expectation(weights, given_var, subset):
    space = build_space(["A", "B", "C"])
    m = _measure_from_weights(space, weights)
    plus = m.event_probability(sign_event(space, given_var, 1))
    minus = m.event_probability(sign_event(space, given_var, -1))
    if plus == 0 or minus == 0:
        return  # a conditional is undefined; identity not applicable
    combined = (
        conditional_expectation(m, subset, given_var, 1) * plus
        + conditional_expectation(m, subset, given_var, -1) * minus
    )
    assert combined == expectation(m, subset)


@given(_weights)
def test_standard_reinterprets_as_lower_and_monotone(weights):
    space = build_space(["A", "B", "C"])
    m = _measure_from_weights(space, weights)
    assert validate(m).passed
    as_lower = AtomMeasure(space, m.values, kind=LOWER_ATOMS)
    assert validate(as_lower).passed
    events = [sign_event(space, v, s) for v in "ABC" for s in (1, -1)]
    events += [EventMask.empty(space), EventMask.full(space)]
    events += [EventMask.from_atoms(space, [a]) for a in space.atoms()]
    upper, lower = conjugate_pair_from_measure(m, events)
    assert validate(upper).passed
    assert validate(lower).passed
    assert check_monotonicity(upper) == []


@given(_weights, st.sampled_from([["A"], ["B", "C"], ["A", "B", "C"]]))
def test_signed_atom_sum_equals_expectation_on_standard(weights, subset):
    space = build_space(["A", "B", "C"])
    m = _measure_from_weights(space, weights)
    assert signed_atom_sum(m, subset) == expectation(m, subset)
    assert abs(expectation(m, subset)) <= 1


def _dense_signed_atom_sum(measure, subset):
    """The signed sum over every atom, zero or not, one ±1 coefficient each."""
    coeffs = moment_coefficients(measure.space, subset)
    return sum((c * v for c, v in zip(coeffs, measure.values)), Fraction(0))


@st.composite
def _measures_and_subsets(draw):
    space = build_space([f"V{i}" for i in range(draw(st.integers(1, 4)))])
    value = st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=-2, max_value=2, max_denominator=12)
    )
    values = draw(st.lists(value, min_size=space.atom_count, max_size=space.atom_count))
    kind = draw(st.sampled_from([STANDARD, LOWER_ATOMS, UPPER_ATOMS]))
    subset = st.lists(st.sampled_from(space.variables), min_size=1, unique=True)
    return AtomMeasure(space, tuple(values), kind), draw(st.lists(subset, max_size=6))


_ZERO_MEASURE = AtomMeasure(build_space(["A", "B"]), (Fraction(0),) * 4, LOWER_ATOMS)


@given(_measures_and_subsets())
@example((_ZERO_MEASURE, [["A"], ["B", "A"]]))
def test_signed_atom_sums_equal_the_dense_signed_sum(case):
    measure, subsets = case
    want = [_dense_signed_atom_sum(measure, subset) for subset in subsets]
    assert signed_atom_sums(measure, subsets) == want
    assert [signed_atom_sum(measure, subset) for subset in subsets] == want
