from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from contextuality_kit.closed_form import (
    NO_SOLUTION,
    SOLUTION,
    STAGE_AVERAGING,
    STAGE_REALIZABILITY,
    BellMoments,
    GhzMoments,
    InequalityCheck,
    SymmetricParams,
    _ghz_check,
    check_ghz_inequalities,
    check_noise_threshold,
    construct_symmetric_joint,
    ghz_sum,
    mermin_assignment_check,
    solve_bell_conditionals,
    solve_lower_ghz_witness,
    solve_upper_bell_conditionals,
    solve_upper_ghz_witness,
)
from contextuality_kit.errors import NoWitnessError
from contextuality_kit.event_space import build_space, moment_coefficients, sign_event
from contextuality_kit.feasibility import FEASIBLE, make_scenario, solve
from contextuality_kit.measures import LOWER_ATOMS, AtomMeasure, signed_atom_sum, validate
from contextuality_kit.set_functions import check_conjugacy, check_monotonicity
from contextuality_kit.numerics import parse_and_evaluate
from dense_simplex import feasible_at


def _lp_feasible(moments: GhzMoments) -> bool:
    scenario = make_scenario(
        ["A", "B", "C"],
        [
            (["A"], "eq", moments.eA),
            (["B"], "eq", moments.eB),
            (["C"], "eq", moments.eC),
            (["A", "B", "C"], "eq", moments.eABC),
        ],
    )
    return solve(scenario).verdict == FEASIBLE


class TestGhzSum:
    def test_perfect_correlations(self):
        assert ghz_sum(GhzMoments.of(1, 1, 1, -1)) == 4

    def test_zeros(self):
        assert ghz_sum(GhzMoments.of(0, 0, 0, 0)) == 0

    def test_quarter_noise(self):
        e = Fraction(3, 4)
        assert ghz_sum(GhzMoments.of(e, e, e, -e)) == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GhzMoments.of(2, 0, 0, 0)


class TestInequalities:
    def test_perfect_correlations_violate_first(self):
        result = check_ghz_inequalities(GhzMoments.of(1, 1, 1, -1))
        assert not result.passed
        assert result.violated_index == 1
        assert result.value == 4

    def test_point_mass_passes(self):
        assert check_ghz_inequalities(GhzMoments.of(1, 1, 1, 1)).passed

    def test_interior_violation(self):
        result = check_ghz_inequalities(
            GhzMoments.of(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-9, 10))
        )
        assert not result.passed
        assert result.violated_index == 1
        assert result.value == Fraction(12, 5)
        # the LP oracle agrees
        assert not _lp_feasible(
            GhzMoments.of(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-9, 10))
        )

    def test_other_sign_patterns_can_bind(self):
        result = check_ghz_inequalities(GhzMoments.of(-1, 1, 1, 1))
        assert not result.passed
        assert result.violated_index == 2


class TestSymmetricConstruction:
    def test_boundary_three_p_equals_q(self):
        witness, measure = construct_symmetric_joint(
            SymmetricParams.of(Fraction(1, 3), 1)
        )
        assert (witness.x, witness.y, witness.z, witness.w) == (
            0,
            Fraction(1, 3),
            0,
            0,
        )
        assert validate(measure).passed

    def test_boundary_three_p_equals_q_plus_two(self):
        witness, measure = construct_symmetric_joint(SymmetricParams.of(1, 1))
        assert (witness.x, witness.y, witness.z, witness.w) == (0, 0, 1, 0)
        assert measure.value("+++") == 1

    def test_generic_boundary_formulas(self):
        # along 3p = q the construction matches x=0, y=q/3, z=0, w=1-q
        for q in (Fraction(1, 4), Fraction(2, 3), Fraction(9, 10)):
            witness, _ = construct_symmetric_joint(SymmetricParams.of(q / 3, q))
            assert (witness.x, witness.y, witness.z, witness.w) == (
                0, q / 3, 0, 1 - q,
            )
        # along 3p = q + 2: x=(1-q)/3, y=0, z=q, w=0
        for q in (Fraction(1, 4), Fraction(2, 3)):
            witness, _ = construct_symmetric_joint(
                SymmetricParams.of((q + 2) / 3, q)
            )
            assert (witness.x, witness.y, witness.z, witness.w) == (
                (1 - q) / 3, 0, q, 0,
            )

    def test_midpoint_values(self):
        witness, measure = construct_symmetric_joint(
            SymmetricParams.of(Fraction(1, 2), Fraction(1, 2))
        )
        assert (witness.x, witness.y, witness.z, witness.w) == (
            Fraction(1, 12),
            Fraction(1, 12),
            Fraction(1, 4),
            Fraction(1, 4),
        )
        # P(A=+1) recomputed by direct event probability
        space = measure.space
        assert measure.event_probability(sign_event(space, "A", 1)) == Fraction(1, 2)
        assert signed_atom_sum(measure, ["A", "B", "C"]) == 0

    def test_outside_region_rejected(self):
        with pytest.raises(NoWitnessError):
            construct_symmetric_joint(SymmetricParams.of(1, 0))

    def test_lp_agrees_with_witness_on_random_points(self):
        # every constructed witness is an LP-feasible certificate already;
        # spot-check the region boundary against the LP verdict
        for p, q in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))):
            gap = 3 * p - q
            lp = _lp_feasible(GhzMoments.of(2 * p - 1, 2 * p - 1, 2 * p - 1, 2 * q - 1))
            assert lp == (0 <= gap <= 2)


class TestNoiseThreshold:
    @pytest.mark.parametrize(
        "eps,expected_feasible,expected_sum",
        [
            (Fraction(0), False, 4),
            (Fraction(1, 4), False, 3),
            (Fraction(2, 5), False, Fraction(12, 5)),
            (Fraction(1, 2), True, 2),
            (Fraction(3, 4), True, 1),
            (Fraction(1), True, 0),
        ],
    )
    def test_threshold(self, eps, expected_feasible, expected_sum):
        result = check_noise_threshold(eps)
        assert result.feasible == expected_feasible
        assert result.statistic == expected_sum

    def test_lp_agrees(self):
        for eps in (Fraction(2, 5), Fraction(1, 2)):
            degraded = GhzMoments.of(1 - eps, 1 - eps, 1 - eps, -1 + eps)
            assert _lp_feasible(degraded) == check_noise_threshold(eps).feasible

    def test_outside_unit_interval(self):
        with pytest.raises(ValueError):
            check_noise_threshold(Fraction(-1, 10))
        with pytest.raises(ValueError):
            check_noise_threshold(Fraction(11, 10))


class TestMerminEnumeration:
    def test_exhaustive_counts(self):
        result = mermin_assignment_check()
        assert result.total == 64
        assert result.satisfying == 0
        assert result.product_identity_holds == 64

    def test_all_plus_assignment(self):
        s = {k: 1 for k in ("s1x", "s1y", "s2x", "s2y", "s3x", "s3y")}
        a = s["s1x"] * s["s2y"] * s["s3y"]
        d = s["s1x"] * s["s2x"] * s["s3x"]
        assert a == d == 1

    def test_single_flip_propagates(self):
        s1x = -1
        a = s1x * 1 * 1
        d = s1x * 1 * 1
        assert a == -1 and d == -1 and a * 1 * 1 == d


class TestBellConditionals:
    def test_singlet_angles_no_solution(self):
        root3 = parse_and_evaluate("-sqrt(3)/2")
        moments = BellMoments.of(root3, root3, Fraction(-1, 2))
        outcome = solve_bell_conditionals(moments)
        assert outcome.status == NO_SOLUTION
        assert outcome.failed_stage == STAGE_AVERAGING

    def test_perfect_anticorrelation_no_solution(self):
        outcome = solve_bell_conditionals(BellMoments.of(-1, -1, -1))
        assert outcome.status == NO_SOLUTION
        assert outcome.failed_stage == STAGE_REALIZABILITY

    def test_zeros_solve_with_zero_conditionals(self):
        outcome = solve_bell_conditionals(BellMoments.of(0, 0, 0))
        assert outcome.status == SOLUTION
        assert [c.value for c in outcome.conditionals] == [0] * 6

    def test_disagreeing_endpoints_are_indeterminate(self):
        from contextuality_kit.feasibility import INDETERMINATE
        from contextuality_kit.numerics import ScalarInterval

        # at the lo endpoints E(XY) = E(YZ) = 0 (consistent, solvable);
        # at the hi endpoints E(XY) = 1/2 != 0 = E(YZ) (inconsistent).
        # The brackets overlap without being identical: undecided.
        moments = BellMoments.of(
            ScalarInterval(Fraction(0), Fraction(1, 2)), Fraction(0), Fraction(0)
        )
        outcome = solve_bell_conditionals(moments)
        assert outcome.status == INDETERMINATE
        assert (outcome.failed_stage, outcome.conditionals) == (None, ())

    def test_disjoint_averaging_brackets_have_no_solution(self):
        from contextuality_kit.numerics import ScalarInterval

        moments = BellMoments.of(
            ScalarInterval(Fraction(0), Fraction(1, 8)), Fraction(0), Fraction(1, 4)
        )
        outcome = solve_bell_conditionals(moments)
        assert (outcome.status, outcome.failed_stage) == (NO_SOLUTION, STAGE_AVERAGING)

    def test_realizability_is_decided_over_the_whole_box(self):
        from contextuality_kit.feasibility import INDETERMINATE
        from contextuality_kit.numerics import ScalarInterval

        def bracket(lo, hi):
            return ScalarInterval(Fraction(lo), Fraction(hi))

        # 1 + E(XY) + E(XZ) + E(YZ) with E(XY) = E(YZ) in [-1/2, -1/4]:
        # its least value over the box is 1 - 1 + E(XZ).
        same = bracket(Fraction(-1, 2), Fraction(-1, 4))
        cases = [
            (bracket(0, Fraction(1, 8)), SOLUTION),
            (bracket(Fraction(-1, 8), Fraction(1, 8)), INDETERMINATE),
        ]
        for exz, status in cases:
            outcome = solve_bell_conditionals(BellMoments(same, exz, same))
            assert outcome.status == status
        # E(XY) = E(YZ) = -1 and E(XZ) in [-1, -7/8]: 1 - E(XY) - E(XZ) + E(YZ)
        # is fine, but 1 + E(XY) + E(XZ) + E(YZ) <= -15/8 everywhere.
        outcome = solve_bell_conditionals(
            BellMoments(bracket(-1, -1), bracket(-1, Fraction(-7, 8)), bracket(-1, -1))
        )
        assert (outcome.status, outcome.failed_stage) == (NO_SOLUTION, STAGE_REALIZABILITY)

    def test_agreement_with_lp_on_examples(self):
        """Both stages agree with the phase-1 LP on the fair-marginal scenario.

        Three named cases, then every E(XY) = E(YZ), E(XZ) on the k/8
        grid, where the Suppes–Zanotti stage alone decides.
        """
        root3 = parse_and_evaluate("-sqrt(3)/2")
        grid = [Fraction(k, 8) for k in range(-8, 9)]
        cases = [
            (BellMoments.of(root3, root3, Fraction(-1, 2)), False),
            (BellMoments.of(-1, -1, -1), False),
            (BellMoments.of(0, 0, 0), True),
        ] + [(BellMoments.of(e, f, e), None) for e in grid for f in grid]
        outcomes = set()
        for moments, expect_joint in cases:
            outcome = solve_bell_conditionals(moments)
            scenario = make_scenario(
                ["X", "Y", "Z"],
                [
                    (["X"], "eq", 0),
                    (["Y"], "eq", 0),
                    (["Z"], "eq", 0),
                    (["X", "Y"], "eq", moments.exy.lo),
                    (["X", "Z"], "eq", moments.exz.lo),
                    (["Y", "Z"], "eq", moments.eyz.lo),
                ],
            )
            lp = feasible_at(scenario)
            assert (outcome.status == SOLUTION) == lp
            assert expect_joint is None or lp == expect_joint
            outcomes.add((outcome.status, outcome.failed_stage))
        # the grid reaches both verdicts of the realizability stage
        assert {(SOLUTION, None), (NO_SOLUTION, STAGE_REALIZABILITY)} <= outcomes


class TestUpperBell:
    def test_singlet_angles_have_solution(self):
        root3 = parse_and_evaluate("-sqrt(3)/2")
        solution = solve_upper_bell_conditionals(
            BellMoments.of(root3, root3, Fraction(-1, 2))
        )
        values = [c.value for c in solution.conditionals]
        exy = root3.lo
        # substitution into every averaging inequality, exactly
        assert 2 * exy >= values[0] + values[1]
        assert 2 * exy >= values[2] + values[3]
        assert 2 * Fraction(-1, 2) >= values[4] + values[5]
        # symmetry equalities
        assert values[0] == values[4] and values[1] == values[5]
        assert all(r.satisfied for r in solution.trace)

    def test_zeros_minimal(self):
        solution = solve_upper_bell_conditionals(BellMoments.of(0, 0, 0))
        assert [c.value for c in solution.conditionals] == [0] * 6

    def test_perfect_anticorrelation(self):
        solution = solve_upper_bell_conditionals(BellMoments.of(-1, -1, -1))
        values = [c.value for c in solution.conditionals]
        assert values == [-1] * 6
        assert 2 * Fraction(-1) >= values[0] + values[1]
        assert solution.atom_uppers.total() >= 1

    @settings(deadline=None, max_examples=40)
    @given(
        st.fractions(min_value=-1, max_value=1, max_denominator=8),
        st.fractions(min_value=-1, max_value=1, max_denominator=8),
        st.fractions(min_value=-1, max_value=1, max_denominator=8),
    )
    def test_always_solvable_with_verified_mass(self, exy, exz, eyz):
        solution = solve_upper_bell_conditionals(BellMoments.of(exy, exz, eyz))
        assert all(r.satisfied for r in solution.trace)
        assert solution.atom_uppers.total() >= 1

    def test_atom_uppers_closed_form(self):
        # v_xy = v_xz = -1/2: k = 1/2, and the atoms with xy = xz = yz = +1
        # (all signs equal) are empty
        solution = solve_upper_bell_conditionals(BellMoments.of(*[Fraction(-1, 2)] * 3))
        atoms = solution.atom_uppers
        assert [atoms.value(s) for s in ("+++", "---")] == [0, 0]
        assert all(
            atoms.value(s) == Fraction(1, 4)
            for s in ("++-", "+-+", "+--", "-++", "-+-", "--+")
        )

    @settings(deadline=None, max_examples=40)
    @given(
        st.fractions(min_value=-1, max_value=1, max_denominator=8),
        st.fractions(min_value=-1, max_value=1, max_denominator=8),
        st.fractions(min_value=-1, max_value=1, max_denominator=8),
    )
    def test_atom_uppers_use_the_least_level(self, exy, exz, eyz):
        """k is least: the total is exactly 1, or lowering k empties an atom."""
        atoms = solve_upper_bell_conditionals(BellMoments.of(exy, exz, eyz)).atom_uppers
        assert min(atoms.values) >= 0
        assert atoms.total() == 1 or min(atoms.values) == 0


class TestLowerGhzWitness:
    def test_canonical_solution_values(self):
        witness = solve_lower_ghz_witness()
        atoms = witness.atom_measure
        space = atoms.space
        assert atoms.value("-++") == Fraction(1, 3)
        assert atoms.value("+-+") == Fraction(1, 3)
        assert atoms.value("++-") == Fraction(1, 3)
        assert atoms.value("---") == 0
        assert atoms.total() == 1

    def test_printed_solution_passes_validator_independently(self):
        space = build_space(["A", "B", "C"])
        printed = AtomMeasure.from_dict(
            space,
            {"-++": Fraction(1, 3), "+-+": Fraction(1, 3), "++-": Fraction(1, 3)},
            kind=LOWER_ATOMS,
        )
        assert validate(printed).passed

    def test_constraint_system_recheck(self):
        witness = solve_lower_ghz_witness()
        space = witness.atom_measure.space
        values = witness.atom_measure.values
        coeffs = moment_coefficients(space, ["A", "B", "C"])
        # atom-level product expectation
        assert sum(c * v for c, v in zip(coeffs, values)) == -1
        # per-event sums at most one; plus-product atoms all zero
        for v in space.variables:
            ev = sign_event(space, v, 1)
            assert sum(values[a] for a in ev.atoms()) <= 1
        assert all(values[a] == 0 for a in space.atoms() if coeffs[a] == 1)
        assert sum(values) <= 1
        # reduced equality: minus-product atoms sum to exactly one
        assert sum(values[a] for a in space.atoms() if coeffs[a] == -1) == 1

    def test_event_level_expectations(self):
        witness = solve_lower_ghz_witness()
        for v in ("A", "B", "C"):
            assert witness.set_function.event_level_single_expectation(v) == 1
        assert signed_atom_sum(witness.atom_measure, ["A", "B", "C"]) == -1

    def test_set_function_validates_and_is_nonmonotone(self):
        witness = solve_lower_ghz_witness()
        assert validate(witness.set_function).passed
        assert check_monotonicity(witness.set_function)  # nonempty


class TestUpperGhzWitness:
    def test_canonical_optimum(self):
        witness = solve_upper_ghz_witness()
        atoms = witness.atom_measure
        # minimal-total-mass optimum, symmetrized: 1/5 on the all-plus
        # atom, 2/5 on each one-minus atom, zero elsewhere; total 7/5
        assert atoms.value("+++") == Fraction(1, 5)
        for sig in ("-++", "+-+", "++-"):
            assert atoms.value(sig) == Fraction(2, 5)
        for sig in ("--+", "-+-", "+--", "---"):
            assert atoms.value(sig) == 0
        assert atoms.total() == Fraction(7, 5)

    def test_constraint_system_recheck(self):
        witness = solve_upper_ghz_witness()
        space = witness.atom_measure.space
        values = witness.atom_measure.values
        coeffs = moment_coefficients(space, ["A", "B", "C"])
        assert sum(c * v for c, v in zip(coeffs, values)) == -1
        for v in space.variables:
            ev = sign_event(space, v, 1)
            assert sum(values[a] for a in ev.atoms()) >= 1
        assert sum(values) >= 1

    def test_witness_reproduces_required_expectations(self):
        witness = solve_upper_ghz_witness()
        assert validate(witness.set_function).passed
        assert validate(witness.atom_measure).passed
        for v in ("A", "B", "C"):
            assert witness.set_function.event_level_single_expectation(v) == 1
        assert signed_atom_sum(witness.atom_measure, ["A", "B", "C"]) == -1

    def test_conjugacy_with_lower_fails_somewhere(self):
        upper = solve_upper_ghz_witness()
        lower = solve_lower_ghz_witness()
        report = check_conjugacy(upper.set_function, lower.set_function)
        assert not report.vacuous
        assert report.violations  # the defining relation breaks

    def test_monotonicity_violations_recorded(self):
        witness = solve_upper_ghz_witness()
        found = check_monotonicity(witness.set_function)
        assert found  # an atom inside a zero-valued sign event


_moment = st.fractions(min_value=-1, max_value=1, max_denominator=20)


@settings(deadline=None, max_examples=150)
@given(_moment, _moment, _moment, _moment)
def test_inequalities_equal_lp_verdict(ea, eb, ec, eabc):
    moments = GhzMoments.of(ea, eb, ec, eabc)
    assert check_ghz_inequalities(moments).passed == _lp_feasible(moments)


def _fraction_inequality_check(m: GhzMoments) -> InequalityCheck:
    """The former check_ghz_inequalities: each signed sum in Fractions."""
    values = (m.eA, m.eB, m.eC, m.eABC)
    signs_of = ((1, 1, 1, -1), (-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1))
    for index, signs in enumerate(signs_of, start=1):
        total = sum((s * v for s, v in zip(signs, values)), Fraction(0))
        if not -2 <= total <= 2:
            return InequalityCheck(False, index, total)
    return InequalityCheck(True)


_any_moment = st.one_of(
    st.fractions(min_value=-1, max_value=1, max_denominator=1000),
    st.integers(min_value=-1, max_value=1),
)


@settings(deadline=None, max_examples=300)
@given(_any_moment, _any_moment, _any_moment, _any_moment)
@example(1, 1, 1, -1)  # the first sum is 4
@example(Fraction(1, 2), Fraction(1, 2), 1, 0)  # the first sum is exactly 2
@example(Fraction(-1, 3), 1, Fraction(2, 3), Fraction(5, 7))  # the second binds
def test_integer_inequality_check_equals_fraction_formula(ea, eb, ec, eabc):
    moments = GhzMoments(ea, eb, ec, eabc)
    got = check_ghz_inequalities(moments)
    assert got == _fraction_inequality_check(moments)
    assert got.value is None or type(got.value) is Fraction


@st.composite
def _integer_moments(draw):
    """Ints (a, b, c, t, common) with common > 0 and each |·| <= common."""
    common = draw(st.integers(min_value=1, max_value=60))
    entry = st.integers(min_value=-common, max_value=common)
    return (*(draw(entry) for _ in range(4)), common)


@settings(deadline=None, max_examples=300)
@given(_integer_moments(), st.integers(min_value=1, max_value=10**6))
@example((4, 4, 4, -4, 4), 3)  # the first sum is 4
@example((3, 3, 6, 0, 6), 1)  # the first sum is exactly 2
@example((-7, 21, 14, 15, 21), 5)  # the second binds
def test_integer_core_equals_the_moment_check(moments, k):
    a, b, c, t, common = moments
    fractions = GhzMoments(*(Fraction(v, common) for v in (a, b, c, t)))
    want = check_ghz_inequalities(fractions)
    assert want == _fraction_inequality_check(fractions)
    for scale in (1, k):
        got = _ghz_check(*(scale * v for v in moments))
        if want.passed:
            assert got is None
        else:
            # The first violated index, and its sum times scale·common.
            index, total = got
            assert type(index) is int and type(total) is int
            assert (index, Fraction(total, scale * common)) == (want.violated_index, want.value)


@settings(deadline=None, max_examples=150)
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=24),
    st.fractions(min_value=0, max_value=1, max_denominator=24),
)
def test_symmetric_construction_reproduces_moments(p, q):
    if not 0 <= 3 * p - q <= 2:
        with pytest.raises(NoWitnessError):
            construct_symmetric_joint(SymmetricParams.of(p, q))
        return
    witness, measure = construct_symmetric_joint(SymmetricParams.of(p, q))
    assert validate(measure).passed
    assert 3 * witness.x + 3 * witness.y + witness.z + witness.w == 1
    for subset in (["A"], ["B"], ["C"]):
        assert signed_atom_sum(measure, subset) == 2 * p - 1
    assert signed_atom_sum(measure, ["A", "B", "C"]) == 2 * q - 1
