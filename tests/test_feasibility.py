import random
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_simplex
from contextuality_kit import closed_form, event_space, feasibility, measures, simplex, sweep
from contextuality_kit.errors import CertificateError, ScenarioError
from contextuality_kit.event_space import _on_atoms, moment_coefficients
from contextuality_kit.feasibility import (
    EQ,
    FEASIBLE,
    GE,
    INDETERMINATE,
    INFEASIBLE,
    LE,
    GridMismatch,
    _grid_verdicts,
    _standard_rows,
    ghz_symmetric_scenario,
    make_scenario,
    margin,
    oracle_grid_agreement,
    solve,
    solve_robust,
    uniform_grid,
    verify_certificate,
    violated_constraints,
)
from contextuality_kit.measures import AtomMeasure, signed_atom_sum, validate
from contextuality_kit.numerics import ScalarInterval, over_common_denominator, parse_and_evaluate
from dense_simplex import feasible_at, integer_rows

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference  # noqa: E402


def ghz_scenario():
    return make_scenario(
        ["A", "B", "C"],
        [
            (["A"], "eq", 1),
            (["B"], "eq", 1),
            (["C"], "eq", 1),
            (["A", "B", "C"], "eq", -1),
        ],
    )


def bell_scenario():
    root3_half = parse_and_evaluate("-sqrt(3)/2")
    return make_scenario(
        ["X", "Y", "Z"],
        [
            (["X"], "eq", 0),
            (["Y"], "eq", 0),
            (["Z"], "eq", 0),
            (["X", "Y"], "eq", root3_half),
            (["X", "Z"], "eq", root3_half),
            (["Y", "Z"], "eq", Fraction(-1, 2)),
        ],
    )


def corner(scenario, endpoint):
    """The scenario with every target at its bracket's ``lo`` or ``hi``."""
    return make_scenario(
        scenario.space.variables,
        [(c.subset, c.relation, getattr(c.target, endpoint)) for c in scenario.constraints],
        scenario.kind,
    )


def reproducer_1():
    """E(A) = √2/3, E(B) = -√2/3, E(AB) = -1: realizable, but only on a face.

    P(+-) = 1/2 + √2/6 and P(-+) = 1/2 - √2/6 reproduce the real targets,
    and the bracket box is not inside the face E(A) = -E(B).
    """
    return make_scenario(
        ["A", "B"],
        [
            (["A"], EQ, parse_and_evaluate("sqrt(2)/3")),
            (["B"], EQ, parse_and_evaluate("-sqrt(2)/3")),
            (["A", "B"], EQ, -1),
        ],
    )


def sqrt3_bracket(tolerance: Fraction) -> tuple[Fraction, Fraction]:
    """Test-local bisection bracket of sqrt(3), independent of the library."""
    lo, hi = Fraction(1), Fraction(2)
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if mid * mid <= 3:
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestSolve:
    def test_ghz_infeasible_with_certificate(self):
        outcome = solve(ghz_scenario())
        assert outcome.verdict == INFEASIBLE
        assert outcome.witness is None
        assert verify_certificate(ghz_scenario(), outcome.certificate)

    def test_all_plus_feasible_point_mass(self):
        scenario = make_scenario(
            ["A", "B", "C"],
            [
                (["A"], "eq", 1),
                (["B"], "eq", 1),
                (["C"], "eq", 1),
                (["A", "B", "C"], "eq", 1),
            ],
        )
        outcome = solve(scenario)
        assert outcome.verdict == FEASIBLE
        assert outcome.margin == 0
        space = scenario.space
        assert outcome.witness.value("+++") == 1
        assert sum(outcome.witness.values) == 1

    def test_bell_infeasible_both_endpoints(self):
        scenario = bell_scenario()
        for endpoint in ("lo", "hi"):
            assert solve(corner(scenario, endpoint)).verdict == INFEASIBLE
        assert solve_robust(scenario).verdict == INFEASIBLE

    def test_witness_reproduces_moments(self):
        scenario = ghz_symmetric_scenario(Fraction(2, 3), Fraction(3, 4))
        outcome = solve(scenario)
        assert outcome.verdict == FEASIBLE
        assert validate(outcome.witness).passed
        for constraint in scenario.constraints:
            got = signed_atom_sum(outcome.witness, constraint.subset)
            assert got == constraint.target.lo

    def test_target_outside_moment_range_auto_infeasible(self):
        scenario = make_scenario(["A"], [(["A"], "eq", Fraction(3, 2))])
        outcome = solve(scenario)
        assert outcome.verdict == INFEASIBLE
        assert verify_certificate(scenario, outcome.certificate)

    def test_nonstandard_kind_rejected(self):
        scenario = make_scenario(["A"], [(["A"], "eq", 1)], kind="lower")
        with pytest.raises(ScenarioError):
            solve(scenario)

    def test_duplicate_moment_rejected(self):
        with pytest.raises(ScenarioError):
            make_scenario("AB", [(["A"], "eq", 0), (["A"], "le", 1)])


class TestMargin:
    def test_ghz_margin_exactly_half(self):
        assert margin(ghz_scenario()) == Fraction(1, 2)

    def test_feasible_margin_zero(self):
        scenario = ghz_symmetric_scenario(Fraction(1, 2), Fraction(1, 2))
        assert margin(scenario) == 0

    def test_bell_margin_matches_closed_value(self):
        # reference (sqrt(3) - 1/2) / 3 via the test-local bisection bracket
        lo3, hi3 = sqrt3_bracket(Fraction(1, 10**15))
        ref_lo = (lo3 - Fraction(1, 2)) / 3
        ref_hi = (hi3 - Fraction(1, 2)) / 3
        scenario = bell_scenario()
        for point in (scenario, corner(scenario, "lo"), corner(scenario, "hi")):
            value = margin(point)
            assert ref_lo - Fraction(1, 10**9) <= value <= ref_hi + Fraction(1, 10**9)

    def test_bell_margin_against_float_lp(self):
        # fully independent float LP oracle
        scipy_opt = pytest.importorskip("scipy.optimize")
        import numpy as np

        from contextuality_kit.event_space import moment_coefficients

        scenario = bell_scenario()
        n = scenario.space.atom_count
        c = np.zeros(n + 1)
        c[n] = 1.0
        a_eq = np.ones((1, n + 1))
        a_eq[0, n] = 0.0
        a_ub, b_ub = [], []
        for constraint in scenario.constraints:
            row = moment_coefficients(scenario.space, constraint.subset)
            target = float(constraint.target.lo)
            a_ub.append(list(row) + [-1.0])
            b_ub.append(target)
            a_ub.append([-v for v in row] + [-1.0])
            b_ub.append(-target)
        result = scipy_opt.linprog(
            c, A_ub=np.array(a_ub), b_ub=np.array(b_ub), A_eq=a_eq, b_eq=[1.0],
            bounds=[(0, None)] * (n + 1), method="highs",
        )
        assert result.success
        assert abs(result.fun - float(margin(scenario))) < 1e-6


class TestRobust:
    def test_all_rational_never_indeterminate(self):
        outcome = solve_robust(ghz_scenario())
        assert outcome.verdict == INFEASIBLE
        assert outcome.margin == Fraction(1, 2)

    def test_straddling_boundary_is_indeterminate(self):
        # singles at 1/2 put the existence boundary at triple = -1/2;
        # an interval strictly around it flips the verdict across endpoints
        half = Fraction(1, 2)
        delta = Fraction(1, 10**9)
        scenario = make_scenario(
            ["A", "B", "C"],
            [
                (["A"], "eq", half),
                (["B"], "eq", half),
                (["C"], "eq", half),
                (
                    ["A", "B", "C"],
                    "eq",
                    ScalarInterval(-half - delta, -half + delta),
                ),
            ],
        )
        outcome = solve_robust(scenario)
        assert outcome.verdict == INDETERMINATE
        assert (outcome.witness, outcome.certificate, outcome.margin) == (None, None, 0)
        assert solve(corner(scenario, "lo")).verdict == INFEASIBLE
        assert solve(corner(scenario, "hi")).verdict == FEASIBLE

    def test_bracketed_bell_is_not_indeterminate(self):
        assert solve_robust(bell_scenario()).verdict == INFEASIBLE

    def test_feasible_box_keeps_a_witness_inside_the_bracket(self):
        scenario = make_scenario(
            ["A", "B"],
            [
                (["A"], "eq", 0),
                (["A", "B"], "eq", ScalarInterval(Fraction(0), Fraction(1, 8))),
            ],
        )
        outcome = solve_robust(scenario)
        assert outcome.verdict == FEASIBLE
        assert outcome.margin == 0
        # the box LP's t = 0 point meets every constraint inside its bracket
        assert validate(outcome.witness).passed
        assert signed_atom_sum(outcome.witness, ["A"]) == 0
        assert 0 <= signed_atom_sum(outcome.witness, ["A", "B"]) <= Fraction(1, 8)

    def test_infeasible_corners_with_a_feasible_true_point_are_indeterminate(self):
        # Both corners are infeasible, but the real targets are realizable.
        scenario = reproducer_1()
        for endpoint in ("lo", "hi"):
            assert solve(corner(scenario, endpoint)).verdict == INFEASIBLE
        outcome = solve_robust(scenario)
        assert (outcome.verdict, outcome.margin) == (INDETERMINATE, 0)

    def test_feasible_corners_with_an_infeasible_box_point_are_indeterminate(self):
        # E(A), E(B) in [0, 3/4], E(AB) = 1/2: both corners are feasible,
        # but (3/4, 0) breaks |E(A) - E(B)| <= 1 - E(AB).
        box = ScalarInterval(Fraction(0), Fraction(3, 4))
        scenario = make_scenario(
            ["A", "B"], [(["A"], EQ, box), (["B"], EQ, box), (["A", "B"], EQ, Fraction(1, 2))]
        )
        for endpoint in ("lo", "hi"):
            assert solve(corner(scenario, endpoint)).verdict == FEASIBLE
        off_corner = make_scenario(
            ["A", "B"],
            [(["A"], EQ, Fraction(3, 4)), (["B"], EQ, 0), (["A", "B"], EQ, Fraction(1, 2))],
        )
        assert solve(off_corner).verdict == INFEASIBLE
        assert solve_robust(scenario).verdict == INDETERMINATE

    def test_loosest_inequality_ends_decide_an_infeasible_box(self):
        # E(AB) = 1 forces A = B, so E(A) >= 1/2 > -1/2 >= E(B) is impossible
        # at every target in the brackets; the certificate covers them all.
        scenario = make_scenario(
            ["A", "B"],
            [
                (["A"], GE, ScalarInterval(Fraction(1, 2), Fraction(3, 4))),
                (["B"], LE, ScalarInterval(Fraction(-3, 4), Fraction(-1, 2))),
                (["A", "B"], EQ, 1),
            ],
        )
        outcome = solve_robust(scenario)
        assert outcome.verdict == INFEASIBLE
        # E(A) - E(B) <= 1 - E(AB) <= t against E(A) - E(B) >= 1 - 2t
        assert outcome.margin == Fraction(1, 3)
        assert verify_certificate(scenario, outcome.certificate)

    def test_restrictive_inequality_ends_decide_a_feasible_box(self):
        # Feasible at the loosest ends but not at the most restrictive ones.
        scenario = make_scenario(
            ["A"], [(["A"], GE, ScalarInterval(Fraction(1, 2), Fraction(3, 2)))]
        )
        assert margin(scenario) == 0
        assert solve_robust(scenario).verdict == INDETERMINATE
        scenario = make_scenario(
            ["A"], [(["A"], LE, ScalarInterval(Fraction(1, 2), Fraction(3, 2)))]
        )
        outcome = solve_robust(scenario)
        assert outcome.verdict == FEASIBLE
        assert signed_atom_sum(outcome.witness, ["A"]) <= Fraction(3, 2)


class TestVerifyCertificate:
    def test_zero_vector_rejected(self):
        scenario = ghz_scenario()
        assert not verify_certificate(scenario, [0, 0, 0, 0, 0])

    def test_classic_ghz_certificate(self):
        # E(A)+E(B)+E(C)-E(ABC) <= 2·(sum of probabilities): multipliers
        # (-2, 1, 1, 1, -1) combine to an impossible row
        assert verify_certificate(ghz_scenario(), [-2, 1, 1, 1, -1])

    def test_perturbed_certificate_rejected(self):
        scenario = ghz_scenario()
        produced = solve(scenario).certificate
        mutated = list(produced)
        mutated[0] = 0  # drop the normalization multiplier
        assert not verify_certificate(scenario, mutated)

    def test_dimension_mismatch(self):
        with pytest.raises(CertificateError):
            verify_certificate(ghz_scenario(), [1, 2])

    def test_sign_condition_enforced(self):
        # E(AB) = 1 forces A = B pointwise, so E(A) >= 1/2 > E(B) is impossible
        scenario = make_scenario(
            ["A", "B"],
            [
                (["A"], "ge", Fraction(1, 2)),
                (["B"], "le", Fraction(-1, 2)),
                (["A", "B"], "eq", 1),
            ],
        )
        outcome = solve(scenario)
        assert outcome.verdict == INFEASIBLE
        assert verify_certificate(scenario, outcome.certificate)
        # flipping a ge-multiplier below zero breaks the sign condition
        y = list(outcome.certificate)
        y[1] = -abs(y[1]) - 1
        assert not verify_certificate(scenario, y)


class TestGridOracle:
    def test_small_grid_agrees(self):
        report = oracle_grid_agreement(uniform_grid(21))
        assert report.total == 441
        assert report.agree

    def test_corner_points(self):
        report = oracle_grid_agreement([(Fraction(1), Fraction(0))])
        assert report.agree  # both sides say infeasible
        report = oracle_grid_agreement([(Fraction(1), Fraction(1))])
        assert report.agree  # both sides say feasible


@pytest.fixture(scope="module")
def cold_grid_61():
    """Cold phase-1 verdict at every point of uniform_grid(61)."""
    return {
        point: feasible_at(ghz_symmetric_scenario(*point))
        for point in uniform_grid(61)
    }


def _grid_in_order(order):
    grid = uniform_grid(61)
    if order == "reversed":
        return grid[::-1]
    if order == "shuffled":
        random.Random(61).shuffle(grid)
    elif order == "duplicated":
        grid = [point for point in grid for _ in range(2)] + grid[::-3]
    return grid


@pytest.mark.parametrize("order", ["row-major", "reversed", "shuffled", "duplicated"])
def test_warm_grid_verdicts_equal_cold_verdicts(monkeypatch, cold_grid_61, order):
    points = _grid_in_order(order)

    def cold(*args):
        raise AssertionError("the grid sweep ran a cold solve")

    # The cold side is the fixture's; the sweep itself runs none.
    monkeypatch.setattr(sweep, "solve_lp", cold)
    verdicts = _grid_verdicts(points)
    assert [lp_ok for lp_ok, _ in verdicts] == [cold_grid_61[pt] for pt in points]


def test_grid_verdicts_equal_the_decision_engine_verdicts():
    # The sweep's dual-simplex tableau and feasibility.solve's margin LP
    # share no LP.
    points = uniform_grid(21)
    verdicts = _grid_verdicts(points)
    assert [lp_ok for lp_ok, _ in verdicts] == [
        solve(ghz_symmetric_scenario(p, q)).verdict == FEASIBLE for p, q in points
    ]


def _fraction_grid_verdicts(points):
    """The former _grid_verdicts: Fraction moments and right-hand sides."""
    rows, _, _ = _standard_rows(ghz_symmetric_scenario(0, 0))
    moments = [(2 * Fraction(p) - 1, 2 * Fraction(q) - 1) for p, q in points]
    statuses = sweep.solve_many(rows, [(1, e, e, e, t) for e, t in moments])
    check = closed_form.check_ghz_inequalities
    return [
        (status == simplex.OPTIMAL, check(closed_form.GhzMoments(e, e, e, t)).passed)
        for status, (e, t) in zip(statuses, moments)
    ]


def _with_pivot_count(sweep_of, *args):
    """``sweep_of(*args)`` and the number of pivots, crash and dual, it took.

    The dual pivots read only signs of x_B and the tableau, which does
    not depend on the right-hand side, so a positive scale of a
    right-hand side changes no pivot.  The crash memo is cleared first,
    so the crash's pivots are counted.
    """
    sweep._crash.cache_clear()
    calls = [0]
    original = sweep._pivot

    def counted(*pivot_args):
        calls[0] += 1
        return original(*pivot_args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "_pivot", counted)
        result = sweep_of(*args)
    return result, calls[0]


_grid_coordinate = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=30),
    st.sampled_from([0, 1, "2/3", 0.25]),  # ints and what Fraction() reads
)


@settings(deadline=None, max_examples=150)
@given(st.lists(st.tuples(_grid_coordinate, _grid_coordinate), min_size=1, max_size=12))
@example([(Fraction(1, 6), Fraction(3, 4)), (0, 1), (1, 0), (Fraction(1, 2), Fraction(1, 5))])
def test_integer_grid_verdicts_equal_the_fraction_formulation(points):
    points = points + points[::2]  # repeated points settle on kept evidence
    want = _with_pivot_count(_fraction_grid_verdicts, points)
    assert _with_pivot_count(_grid_verdicts, points) == want


@pytest.mark.parametrize("point", [(Fraction(3, 2), 0), (0, -1), ("-1/3", "1/2")])
def test_grid_point_outside_the_unit_square_raises_the_closed_form_error(point):
    with pytest.raises(ValueError) as want:
        _fraction_grid_verdicts([point])
    with pytest.raises(ValueError) as got:
        _grid_verdicts([point])
    assert str(got.value) == str(want.value)


def test_grid_verdicts_build_no_ghz_moments_in_the_unit_square(monkeypatch):
    def refused(*args):
        raise AssertionError("the grid sweep built a GhzMoments")

    points = _grid_in_order("duplicated") + [(0, 1), ("2/3", 0.25), (1, Fraction(1, 7))]
    want = _grid_verdicts(points)
    monkeypatch.setattr(closed_form.GhzMoments, "__init__", refused)
    assert _grid_verdicts(points) == want
    with pytest.raises(AssertionError, match="built a GhzMoments"):
        _grid_verdicts([(Fraction(3, 2), 0)])


def test_grid_verdicts_build_no_inequality_record_or_fraction(monkeypatch):
    # About a third of a grid's points break an inequality; the sweep
    # reads only whether each passes, so a violating point builds
    # neither the closed form's record nor its Fraction value.
    points = uniform_grid(21)
    want = _grid_verdicts(points)
    assert 0 < sum(not cf_ok for _, cf_ok in want) < len(points)
    violated = closed_form.GhzMoments.of(1, 1, 1, -1)

    def refused(*args):
        raise AssertionError("the grid sweep built an InequalityCheck or a Fraction")

    monkeypatch.setattr(closed_form.InequalityCheck, "__init__", refused)
    monkeypatch.setattr(closed_form, "Fraction", refused)
    assert _grid_verdicts(points) == want
    with pytest.raises(AssertionError, match="built an InequalityCheck or a Fraction"):
        closed_form.check_ghz_inequalities(violated)


_sweep_entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.tuples(
            st.lists(st.lists(_sweep_entry, min_size=3, max_size=3), min_size=m, max_size=m),
            st.lists(st.lists(_sweep_entry, min_size=m, max_size=m), min_size=1, max_size=8),
        )
    ),
    st.lists(st.integers(min_value=1, max_value=12), min_size=8, max_size=8),
)
def test_solve_many_takes_each_right_hand_side_at_any_positive_scale(problem, factors):
    # The sweep's checks are exact and scale-invariant, so ints over each
    # rhs's own denominator, times any k > 0, and Fractions over k give
    # the same verdicts from the same pivots.
    rows, rhs_list = integer_rows(*problem)
    want = _with_pivot_count(sweep.solve_many, rows, rhs_list)
    scaled = list(zip(rhs_list, factors))
    as_ints = [[k * v for v in over_common_denominator(rhs)[0]] for rhs, k in scaled]
    as_fractions = [[Fraction(v) / k for v in rhs] for rhs, k in scaled]
    assert _with_pivot_count(sweep.solve_many, rows, as_ints) == want
    assert _with_pivot_count(sweep.solve_many, rows, as_fractions) == want


def test_oracle_lists_a_disagreeing_point(monkeypatch):
    points = uniform_grid(21)
    p, q = points[300]
    original = closed_form._ghz_check

    def flipped(a, b, c, t, common):
        result = original(a, b, c, t, common)
        if (Fraction(a, common), Fraction(t, common)) == (2 * p - 1, 2 * q - 1):
            # None is a pass; any (index, total) is a violation.
            return (1, 4 * common) if result is None else None
        return result

    # The oracle calls the closed form's integer core on its sweep ints.
    monkeypatch.setattr(closed_form, "_ghz_check", flipped)
    lp_feasible = feasible_at(ghz_symmetric_scenario(p, q))
    report = oracle_grid_agreement(points)
    assert report.total == len(points)
    assert report.mismatches == (GridMismatch(p, q, lp_feasible, not lp_feasible),)


class TestDeterminism:
    def test_identical_scenarios_identical_outcomes(self):
        a = solve(bell_scenario())
        b = solve(bell_scenario())
        assert a.certificate == b.certificate
        assert a.margin == b.margin


_moment = st.fractions(min_value=-1, max_value=1, max_denominator=16)


@settings(deadline=None, max_examples=60)
@given(_moment, _moment, _moment, _moment)
def test_soundness_of_evidence(ea, eb, ec, eabc):
    scenario = make_scenario(
        ["A", "B", "C"],
        [
            (["A"], "eq", ea),
            (["B"], "eq", eb),
            (["C"], "eq", ec),
            (["A", "B", "C"], "eq", eabc),
        ],
    )
    outcome = solve(scenario)
    if outcome.verdict == FEASIBLE:
        assert validate(outcome.witness).passed
        for constraint in scenario.constraints:
            assert signed_atom_sum(outcome.witness, constraint.subset) == constraint.target.lo
        assert outcome.margin == 0
    else:
        assert verify_certificate(scenario, outcome.certificate)
        assert outcome.margin > 0


@settings(deadline=None, max_examples=40)
@given(_moment, st.fractions(min_value=0, max_value=1, max_denominator=8))
def test_enlarging_interval_never_turns_feasible_into_infeasible(center, widen):
    base = make_scenario(
        ["A", "B"],
        [(["A"], "eq", center), (["A", "B"], "eq", Fraction(0))],
    )
    verdict = solve_robust(base).verdict
    lo = max(Fraction(-1), center - widen)
    hi = min(Fraction(1), center + widen)
    widened = make_scenario(
        ["A", "B"],
        [(["A"], "eq", ScalarInterval(lo, hi)), (["A", "B"], "eq", Fraction(0))],
    )
    new_verdict = solve_robust(widened).verdict
    if verdict == FEASIBLE:
        assert new_verdict in (FEASIBLE, INDETERMINATE)


# --- the crash-started margin LP against the two-phase margin LP -------------


def two_phase_margin(scenario):
    """The relaxed margin LP over the target box, solved by the Fraction two-phase simplex."""
    return _two_phase_margin(
        scenario.space.atom_count,
        [
            (moment_coefficients(scenario.space, c.subset), c.relation, c.target)
            for c in scenario.constraints
        ],
    )


def orbit_margin(scenario):
    """:func:`two_phase_margin` of a symmetric singles-plus-pairs scenario, on n + 1 columns.

    Every single has one relation and target, and so has every pair.
    An atom with k entries -1 gives each single the moment (n - 2k)/n
    and, on average, each pair ((n - 2k)² - n)/(n(n - 1)).  Averaging an
    optimum over the permutations of the variables keeps its t, so the
    margin is the same LP's over the masses of the n + 1 classes of
    atoms with equal k, with one row per constraint as there.
    """
    n = scenario.space.n
    sums = [n - 2 * k for k in range(n + 1)]
    means = {
        1: [Fraction(v, n) for v in sums],
        2: [Fraction(v * v - n, n * (n - 1)) for v in sums],
    }
    return _two_phase_margin(
        n + 1, [(means[len(c.subset)], c.relation, c.target) for c in scenario.constraints]
    )


def _two_phase_margin(n, constraints):
    """The margin LP of (coefficients, relation, target) rows over n columns of mass.

    Columns: the masses, t, then one slack per one-sided row.  An
    equality target gives the rows moment - t <= hi and moment + t >= lo;
    an inequality target gives its own side.
    """
    sides = []
    for coefficients, relation, target in constraints:
        if relation in (EQ, LE):
            sides.append((coefficients, -1, 1, target.hi))
        if relation in (EQ, GE):
            sides.append((coefficients, 1, -1, target.lo))
    width = n + 1 + len(sides)
    rows = [[1] * n + [0] * (width - n)]
    rhs = [Fraction(1)]
    for k, (coefficients, t_coefficient, slack, target) in enumerate(sides):
        row = list(coefficients) + [t_coefficient] + [0] * len(sides)
        row[n + 1 + k] = slack
        rows.append(row)
        rhs.append(target)
    costs = [0] * width
    costs[n] = 1
    result = fraction_simplex.solve_lp(costs, rows, rhs)
    assert result.status == simplex.OPTIMAL
    return result.objective


_VARIABLES = ["A", "B", "C"]
_SUBSETS = [list(s) for k in (1, 2, 3) for s in combinations(_VARIABLES, k)]
_margin_target = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.sampled_from(
        ["sqrt(2)/2", "-sqrt(3)/2", "sqrt(2)-1", "1/3-sqrt(5)/7", "-sqrt(2)"]
    ).map(parse_and_evaluate),
)


@st.composite
def relaxed_scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    subsets = [s for s in _SUBSETS if set(s) <= set(_VARIABLES[:n])]
    chosen = draw(st.lists(st.sampled_from(subsets), unique_by=tuple, max_size=5))
    return make_scenario(
        _VARIABLES[:n],
        [
            (s, draw(st.sampled_from([EQ, LE, GE])), draw(_margin_target))
            for s in chosen
        ],
    )


#: Crash-basis shapes named in `_crash_basis`, each with the atom j
#: the crash start puts its mass on and whether t starts basic.
_CRASH_CASES = {
    "no-constraints": (make_scenario(["A", "B"], []), 0, False),
    # Atom 3 (A = B = -1) has the least worst violation, -sqrt(2) - 1.
    "strictly-slack-inequalities": (
        make_scenario(
            ["A", "B"],
            [
                (["A"], LE, Fraction(3, 2)),
                (["A", "B"], GE, parse_and_evaluate("-sqrt(2)")),
            ],
        ),
        3,
        False,
    ),
    # Every atom violates some row by 1: atoms tie (j = 0), and at atom 0
    # the rows E(A) <= 0 and E(B) <= 0 tie (t takes the first).
    "tied-worst-violation": (
        make_scenario(["A", "B"], [(["A"], EQ, 0), (["B"], EQ, 0)]),
        0,
        True,
    ),
    # At atom 0 both sides of E(A) = 1 are tight: t is basic at 0.
    "t-basic-at-zero": (make_scenario(["A"], [(["A"], EQ, 1)]), 0, True),
    "infeasible-ghz": (ghz_scenario(), 0, True),
}


@settings(deadline=None, max_examples=200)
@given(relaxed_scenarios(), st.sampled_from(["lo", "hi"]))
@example(_CRASH_CASES["no-constraints"][0], "lo")
@example(_CRASH_CASES["strictly-slack-inequalities"][0], "hi")
@example(_CRASH_CASES["tied-worst-violation"][0], "lo")
@example(_CRASH_CASES["t-basic-at-zero"][0], "lo")
def test_margin_matches_two_phase_margin(scenario, endpoint):
    assert margin(scenario) == two_phase_margin(scenario)
    point = corner(scenario, endpoint)
    assert margin(point) == two_phase_margin(point)


@pytest.mark.parametrize("name", sorted(_CRASH_CASES))
def test_margin_crash_basis_shape(monkeypatch, name):
    scenario, atom, t_basic = _CRASH_CASES[name]
    n = scenario.space.atom_count
    starts = []
    solve_from_basis = simplex.solve_from_basis

    def spy(costs, columns, rhs, basis, characters=None):
        starts.append(list(basis))
        return solve_from_basis(costs, columns, rhs, basis, characters)

    monkeypatch.setattr(simplex, "solve_from_basis", spy)
    assert margin(scenario) == two_phase_margin(scenario)
    (basis,) = starts
    assert basis[0] == atom
    assert (n in basis) == t_basic
    if name == "tied-worst-violation":
        assert basis[1] == n  # the first of the tied rows


@pytest.mark.parametrize("subset", [["A"], ["C"], ["A", "B"], ["B", "C", "D"], ["A", "B", "C", "D"]])
def test_crash_violations_follow_the_moment_characters(subset):
    space = make_scenario(["A", "B", "C", "D"], []).space
    mask = feasibility.moment_mask(space, subset)
    want = ["plus" if c == 1 else "minus" for c in moment_coefficients(space, subset)]
    assert _on_atoms(space.n, mask, "plus", "minus") == want


def per_row_crash_basis(atoms, relaxed_rhs, t_sign):
    """``_crash_basis`` as it was: one atom row per relaxed row, equal masks too."""
    bits, masks = atoms.bits, atoms.masks
    n = 1 << bits
    relaxed = range(1, len(masks))
    basis = [0] + [n + r for r in relaxed]
    if not relaxed:
        return basis
    targets, common = over_common_denominator(relaxed_rhs[1:])
    violations = [(s * (b - common), s * (b + common)) for s, b in zip(t_sign[1:], targets)]
    worst = None
    for mask, (plus, minus) in zip(masks[1:], violations):
        row = _on_atoms(bits, mask, plus, minus)
        worst = row if worst is None else list(map(max, worst, row))
    least = min(worst)
    j = worst.index(least)
    basis[0] = j
    if least >= 0:
        first = next(
            k
            for k, (mask, pair) in enumerate(zip(masks[1:], violations))
            if pair[(j & mask).bit_count() & 1] == least
        )
        basis[first + 1] = n
    return basis


@settings(deadline=None, max_examples=200)
@given(relaxed_scenarios(), st.sampled_from(["lo", "hi"]))
@example(_CRASH_CASES["tied-worst-violation"][0], "lo")
@example(_CRASH_CASES["t-basic-at-zero"][0], "lo")
@example(_CRASH_CASES["infeasible-ghz"][0], "lo")
def test_crash_basis_equals_the_per_row_pass(scenario, endpoint):
    starts = []
    crash_basis = feasibility._crash_basis

    def both(*args):
        starts.append(crash_basis(*args))
        assert starts[-1] == per_row_crash_basis(*args)
        return starts[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feasibility, "_crash_basis", both)
        for point in (scenario, corner(scenario, endpoint)):
            margin(point)
    assert len(starts) == 2


# --- one LP per decision: the margin LP's point or duals are the evidence ------


@settings(deadline=None, max_examples=200)
@given(relaxed_scenarios(), st.sampled_from(["lo", "hi"]))
@example(_CRASH_CASES["no-constraints"][0], "lo")
@example(_CRASH_CASES["strictly-slack-inequalities"][0], "hi")
@example(_CRASH_CASES["infeasible-ghz"][0], "lo")
def test_one_lp_decision_matches_phase_1_and_two_phase_margin(scenario, endpoint):
    scenario = corner(scenario, endpoint)
    outcome = solve(scenario)
    feasible = feasible_at(scenario)
    assert outcome.verdict == (FEASIBLE if feasible else INFEASIBLE)
    assert outcome.margin == two_phase_margin(scenario)
    if feasible:
        assert validate(outcome.witness).passed
        for c in scenario.constraints:
            assert c.holds(signed_atom_sum(outcome.witness, c.subset))
    else:
        assert outcome.margin > 0
        assert verify_certificate(scenario, outcome.certificate)


# --- degenerate scenarios: symmetric and repeated targets ---------------------

_ninths = st.integers(min_value=-9, max_value=9).map(lambda k: Fraction(k, 9))
_relations = st.sampled_from([EQ, LE, GE])


def _singles_and_pairs(n):
    names = [f"V{i}" for i in range(n)]
    return names, [[v] for v in names] + [list(pair) for pair in combinations(names, 2)]


@st.composite
def symmetric_scenarios(draw):
    """Every single under one relation and target, every pair under another."""
    names, subsets = _singles_and_pairs(draw(st.integers(min_value=2, max_value=8)))
    sides = {1: draw(st.tuples(_relations, _ninths)), 2: draw(st.tuples(_relations, _ninths))}
    return make_scenario(names, [(s, *sides[len(s)]) for s in subsets])


@st.composite
def repeated_target_scenarios(draw):
    """Every single and pair, each under its own relation, sharing one or two targets."""
    names, subsets = _singles_and_pairs(draw(st.integers(min_value=2, max_value=5)))
    targets = st.sampled_from(draw(st.lists(_ninths, min_size=1, max_size=2)))
    return make_scenario(names, [(s, draw(_relations), draw(targets)) for s in subsets])


def symmetric_document(n, single, pair):
    """Every E(Vi) = ``single`` and every E(ViVj) = ``pair`` over n variables."""
    names, subsets = _singles_and_pairs(n)
    return make_scenario(names, [(s, EQ, single if len(s) == 1 else pair) for s in subsets])


def assert_decided_with_evidence(scenario, want_margin):
    """``solve`` gives the reference margin, its verdict, and evidence that verifies."""
    outcome = solve(scenario)
    assert outcome.margin == want_margin
    if want_margin:
        assert outcome.verdict == INFEASIBLE
        assert verify_certificate(scenario, outcome.certificate)
    else:
        assert outcome.verdict == FEASIBLE
        assert validate(outcome.witness).passed
        for c in scenario.constraints:
            assert c.holds(signed_atom_sum(outcome.witness, c.subset))
    return outcome


@settings(deadline=None, max_examples=60)
@given(symmetric_scenarios())
@example(symmetric_document(8, Fraction(1, 3), Fraction(-1, 9)))
@example(symmetric_document(8, Fraction(-7, 9), Fraction(7, 9)))
@example(symmetric_document(8, Fraction(5, 9), Fraction(-1, 3)))
def test_symmetric_scenarios_match_the_orbit_margin(scenario):
    """Symmetric targets make many basic values 0 at once: degenerate margin LPs."""
    assert_decided_with_evidence(scenario, orbit_margin(scenario))


@settings(deadline=None, max_examples=40)
@given(repeated_target_scenarios())
def test_repeated_target_scenarios_match_two_phase_margin(scenario):
    assert_decided_with_evidence(scenario, two_phase_margin(scenario))


def test_symmetric_n10_document_decides_in_at_most_200_pivots(monkeypatch):
    """Every E(Vi) = -7/9 and every E(ViVj) = 7/9 over 10 variables.

    A Bland's-rule fallback on degenerate steps ran this margin LP for
    over 60 s; the lexicographic ratio test takes 115 pivots.
    """
    solve_from_basis, pivots = simplex.solve_from_basis, []

    def counted(*args):
        result = solve_from_basis(*args)
        pivots.append(result.pivots)
        return result

    monkeypatch.setattr(simplex, "solve_from_basis", counted)
    scenario = symmetric_document(10, Fraction(-7, 9), Fraction(7, 9))
    assert_decided_with_evidence(scenario, orbit_margin(scenario))
    assert len(pivots) == 1 and pivots[0] <= 200


# --- check points settled from the box optimum's basis ------------------------


@settings(deadline=None, max_examples=200)
@given(relaxed_scenarios().filter(lambda scenario: scenario.has_interval_targets))
@example(reproducer_1())
@example(bell_scenario())
def test_settled_check_points_equal_cold_solves(scenario):
    lp = feasibility._MomentLp(scenario)
    box = feasibility._margin_lp(lp, feasibility._box(scenario))
    margins = []
    for point in feasibility._check_points(scenario):
        settled = feasibility._margin_lp(lp, point, box)
        cold = feasibility._margin_lp(lp, point)
        assert settled.objective == cold.objective
        margins.append(cold.objective)
    verdict = solve_robust(scenario).verdict
    if box.objective:
        assert verdict == INFEASIBLE
    else:
        assert verdict == (INDETERMINATE if any(margins) else FEASIBLE)


def _counting_lps(monkeypatch):
    """Count solve_from_basis runs and settle hits; returns [solves, settled, missed]."""
    counts = [0, 0, 0]
    solve_from_basis, settle = simplex.solve_from_basis, simplex.settle

    def counted_solve(*args):
        counts[0] += 1
        return solve_from_basis(*args)

    def counted_settle(*args):
        result = settle(*args)
        counts[1 if result is not None else 2] += 1
        return result

    monkeypatch.setattr(simplex, "solve_from_basis", counted_solve)
    monkeypatch.setattr(simplex, "settle", counted_settle)
    return counts


def test_planted_wide_document_decides_with_one_lp(monkeypatch):
    from contextuality_kit.cli import scenario_from_document

    scenario = scenario_from_document(reference.wide_document(1, 5, True))
    counts = _counting_lps(monkeypatch)
    outcome = solve_robust(scenario)
    assert outcome.verdict == INFEASIBLE
    assert counts == [1, 0, 0]
    assert outcome.margin == two_phase_margin(scenario)


_read_out = feasibility._certificate_from_duals


def _negate_one(certificate, pick):
    """Negate one nonzero multiplier, the ``pick``-th modulo their count."""
    nonzero = [k for k, v in enumerate(certificate) if v]
    k = nonzero[pick % len(nonzero)]
    return certificate[:k] + (-certificate[k],) + certificate[k + 1:]


def _zero_normalization(certificate, pick):
    return (Fraction(0),) + certificate[1:]


_TAMPERS = {"negate-one": _negate_one, "zero-z0": _zero_normalization}


def _solve_with_tampered_read_out(scenario, tamper, pick=0):
    """``solve`` with the dual read-out tampered: (outcome or None, tampered z)."""
    tampered = []

    def read_out(*args):
        tampered.append(_TAMPERS[tamper](_read_out(*args), pick))
        return tampered[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(feasibility, "_certificate_from_duals", read_out)
        try:
            outcome = solve(scenario)
        except AssertionError as error:
            assert "certificate" in str(error)
            outcome = None
    return outcome, tampered


@pytest.mark.parametrize("tamper", sorted(_TAMPERS))
@pytest.mark.parametrize("scenario", [ghz_scenario, bell_scenario], ids=["ghz", "bell"])
def test_tampered_dual_read_out_makes_solve_raise(scenario, tamper):
    outcome, tampered = _solve_with_tampered_read_out(scenario(), tamper)
    assert outcome is None  # solve raised
    assert len(tampered) == 1


@settings(deadline=None, max_examples=150)
@given(
    relaxed_scenarios(),
    st.sampled_from(["box", "lo", "hi"]),
    st.sampled_from(sorted(_TAMPERS)),
    st.integers(min_value=0, max_value=5),
)
@example(_CRASH_CASES["infeasible-ghz"][0], "lo", "negate-one", 4)
def test_tampered_dual_read_out_never_leaves_solve_unverified(scenario, endpoint, tamper, pick):
    if endpoint != "box":
        scenario = corner(scenario, endpoint)
    outcome, tampered = _solve_with_tampered_read_out(scenario, tamper, pick)
    if not tampered:  # t = 0: the read-out never ran
        assert outcome.verdict in (FEASIBLE, INDETERMINATE)
        return
    (certificate,) = tampered
    # Released only when it verifies and its bound is the margin itself.
    if verify_certificate(scenario, certificate) and certificate_bound(
        scenario, certificate
    ) == margin(scenario):
        assert outcome.certificate == certificate
    else:
        assert outcome is None


# --- every verdict holds over the whole target box -----------------------------


@st.composite
def bracketed_scenarios(draw):
    """Equality targets bracketed around rational centres, on 1 to 3 variables."""
    n = draw(st.integers(min_value=1, max_value=3))
    subsets = [s for s in _SUBSETS if set(s) <= set(_VARIABLES[:n])]
    chosen = draw(st.lists(st.sampled_from(subsets), unique_by=tuple, min_size=1, max_size=5))
    constraints = []
    for s in chosen:
        centre = draw(st.fractions(min_value=-1, max_value=1, max_denominator=8))
        half = draw(st.sampled_from([0, Fraction(1, 16), Fraction(1, 8), Fraction(1, 4)]))
        constraints.append((s, EQ, ScalarInterval(centre - half, centre + half)))
    return make_scenario(_VARIABLES[:n], constraints)


def _document_at(scenario, values):
    """The scenario as a document, each target at the given rational value."""
    return {
        "variables": list(scenario.space.variables),
        "constraints": [
            {"moment": list(c.subset), "relation": EQ, "value": str(value)}
            for c, value in zip(scenario.constraints, values)
        ],
    }


@settings(deadline=None, max_examples=200)
@given(
    bracketed_scenarios(),
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12), min_size=5, max_size=5),
)
@example(reproducer_1(), [Fraction(0)] * 5)
def test_verdicts_hold_over_the_whole_box(scenario, positions):
    """Certificates are checked by the benchmark's own arithmetic, corners by phase 1."""
    outcome = solve_robust(scenario)
    targets = [c.target for c in scenario.constraints]
    if outcome.verdict == INFEASIBLE:
        inside = [t.lo + u * t.width for t, u in zip(targets, positions)]
        for values in ([t.lo for t in targets], [t.hi for t in targets], inside):
            document = _document_at(scenario, values)
            assert reference.certificate_holds(document, list(outcome.certificate))
    elif outcome.verdict == FEASIBLE:
        for ends in product(("lo", "hi"), repeat=len(targets)):
            values = [getattr(t, end) for t, end in zip(targets, ends)]
            point = make_scenario(
                scenario.space.variables,
                [(c.subset, EQ, v) for c, v in zip(scenario.constraints, values)],
            )
            assert feasible_at(point)


def test_check_points_settle_from_the_box_basis_or_solve_cold(monkeypatch):
    # E(AB) = √2/2: the box optimum's basis stays feasible at both check points.
    counts = _counting_lps(monkeypatch)
    scenario = make_scenario(["A", "B"], [(["A", "B"], EQ, parse_and_evaluate("sqrt(2)/2"))])
    assert solve_robust(scenario).verdict == FEASIBLE
    assert counts == [1, 2, 0]
    # E(A) = √2/3, E(B) = -√2/3: it is infeasible at all four, each solved cold.
    counts[:] = [0, 0, 0]
    scenario = make_scenario(
        ["A", "B"],
        [
            (["A"], EQ, parse_and_evaluate("sqrt(2)/3")),
            (["B"], EQ, parse_and_evaluate("-sqrt(2)/3")),
        ],
    )
    assert solve_robust(scenario).verdict == FEASIBLE
    assert counts == [5, 0, 4]


def test_check_points_settle_from_the_last_check_point_optimum(monkeypatch):
    # A feasible n = 5 document with every target bracketed: each check
    # point starts from the previous one's optimum, so most settle.
    from contextuality_kit.cli import scenario_from_document

    document = reference.wide_document(2, 5, False)
    for constraint in document["constraints"]:
        constraint["value"] = f"({constraint['value']})*99/100 + sqrt(2)/1000 - 1414/1000000"
    scenario = scenario_from_document(document)
    counts = _counting_lps(monkeypatch)
    outcome = solve_robust(scenario)
    assert outcome.verdict == FEASIBLE
    assert len(feasibility._check_points(scenario)) == 30
    assert counts[0] <= 3
    assert counts[0] + counts[1] == 31


#: Atom values as ``validate`` may read them from a file: zero, negative
#: and not summing to 1 included.
_atom_values = st.one_of(
    st.just(Fraction(0)), st.fractions(min_value=-2, max_value=2, max_denominator=12)
)


@settings(deadline=None, max_examples=200)
@given(relaxed_scenarios(), st.data())
def test_violated_constraints_reads_each_moment_as_its_signed_atom_sum(scenario, data):
    n = scenario.space.atom_count
    values = data.draw(st.lists(_atom_values, min_size=n, max_size=n))
    witness = AtomMeasure(scenario.space, tuple(values))
    moments = [(c, signed_atom_sum(witness, c.subset)) for c in scenario.constraints]
    violated = violated_constraints(scenario, witness)
    assert violated == [(c, got) for c, got in moments if not c.holds(got)]
    assert all(type(got) is Fraction for _, got in violated)


def test_violated_constraints_lists_each_missed_relation_with_its_moment():
    scenario = make_scenario(
        ["A", "B"],
        [(["A"], "eq", Fraction(1, 2)), (["B"], "ge", Fraction(1, 2)), (["A", "B"], "ge", 1)],
    )
    # E(A) = 1/2, E(B) = 0, E(AB) = 1/2.
    witness = AtomMeasure(
        scenario.space, (Fraction(1, 2), Fraction(1, 4), Fraction(0), Fraction(1, 4))
    )
    violated = violated_constraints(scenario, witness)
    assert [(c.subset, got) for c, got in violated] == [(("B",), 0), (("A", "B"), Fraction(1, 2))]
    masses, d = over_common_denominator(witness.values)
    with pytest.raises(AssertionError, match=r"witness violates E\(B\) >= 1/2: got 0"):
        feasibility._check_witness(feasibility._MomentLp(scenario), (list(enumerate(masses)), d))


@pytest.mark.parametrize(
    "point, axiom",
    [
        # E(A) = 0 and Σ = 1, but atom 1 holds -1/2.
        (([(0, 4), (1, -2), (2, 1), (3, 1)], 4), "nonnegativity"),
        # E(A) = 0, but the masses sum to 2.
        (([(0, 1), (2, 1)], 1), "normalization"),
    ],
    ids=["negative", "unnormalized"],
)
def test_check_witness_refuses_a_point_that_meets_every_bracket_but_is_no_distribution(point, axiom):
    """The witness check's own nonnegativity and normalization, which no moment sees here."""
    lp = feasibility._MomentLp(make_scenario(["A", "B"], [(["A"], EQ, 0)]))
    assert not feasibility._largest_miss(lp, point)
    with pytest.raises(AssertionError, match=f"witness fails validation: .*'{axiom}'"):
        feasibility._check_witness(lp, point)


# --- a released margin is proved from both sides ------------------------------


def certificate_bound(scenario, certificate):
    """The least z·b over the box, divided by Σ_{k≥1}|z_k|: the miss z proves."""
    targets = [ScalarInterval.point(1)] + [c.target for c in scenario.constraints]
    least = sum(z * (t.lo if z > 0 else t.hi) for z, t in zip(certificate, targets))
    return least / sum(abs(z) for z in certificate[1:])


def largest_miss(scenario, point):
    """How far the moments of a point of atom masses fall outside their brackets, at most."""
    rows, _, _ = _standard_rows(scenario)
    misses = [0]
    for c, row in zip(scenario.constraints, rows[1:]):
        moment = sum(a * p for a, p in zip(row, point))
        if c.relation != LE:
            misses.append(c.target.lo - moment)
        if c.relation != GE:
            misses.append(moment - c.target.hi)
    return max(misses)


@settings(deadline=None, max_examples=150)
@given(st.one_of(relaxed_scenarios(), bracketed_scenarios()), st.sampled_from(["box", "lo", "hi"]))
@example(ghz_scenario(), "box")
@example(bell_scenario(), "box")
def test_a_released_margin_is_both_of_its_bounds(scenario, endpoint):
    """The certificate's bound and the relaxed optimal point's largest miss are t."""
    if endpoint != "box":
        scenario = corner(scenario, endpoint)
    results, solve_from_basis = [], simplex.solve_from_basis

    def kept(*args):
        results.append(solve_from_basis(*args))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "solve_from_basis", kept)
        outcome = solve(scenario)
    if outcome.verdict != INFEASIBLE:
        return
    t = outcome.margin
    point = [Fraction(0)] * scenario.space.atom_count
    for col, value in zip(results[0].basis, results[0].x):
        if col < len(point):
            point[col] = value
    assert certificate_bound(scenario, outcome.certificate) == t == largest_miss(scenario, point)


@pytest.mark.parametrize("factor", [Fraction(1, 2), Fraction(2)])
@pytest.mark.parametrize("scenario", [ghz_scenario, bell_scenario], ids=["ghz", "bell"])
def test_a_tampered_margin_makes_solve_raise(monkeypatch, scenario, factor):
    """The certificate and the point are the LP's; only the objective t is changed."""
    solve_from_basis = simplex.solve_from_basis

    def tampered(*args):
        result = solve_from_basis(*args)
        return simplex.LpResult(
            result.status, result.x, result.objective * factor, result.duals,
            result.pivots, result.basis, result.inverse,
        )

    monkeypatch.setattr(simplex, "solve_from_basis", tampered)
    with pytest.raises(AssertionError, match="is not proved"):
        solve(scenario())


def _counted_masks(monkeypatch):
    """Count ``moment_mask`` calls per subset, wherever the kit looks it up."""
    counts, moment_mask = {}, event_space.moment_mask

    def counted(space, subset):
        counts[tuple(subset)] = counts.get(tuple(subset), 0) + 1
        return moment_mask(space, subset)

    for module in (event_space, feasibility, measures):
        monkeypatch.setattr(module, "moment_mask", counted)
    return counts


@pytest.mark.parametrize("n", [3, 4])
def test_each_mask_is_computed_once_per_decision(monkeypatch, n):
    """A bracketed feasible decision runs its 2k check points; a planted one its certificate.

    Each starts with no shape kept (``_shape``); a second decision of a
    kept shape computes no mask.
    """
    from contextuality_kit.cli import scenario_from_document

    names, subsets = _singles_and_pairs(n)
    bracketed = make_scenario(
        names, [(s, EQ, 0 if len(s) == 1 else parse_and_evaluate("sqrt(2)/4")) for s in subsets]
    )
    planted = scenario_from_document(reference.wide_document(1, n + 2, True))
    lps = _counting_lps(monkeypatch)
    counts = _counted_masks(monkeypatch)
    feasibility._shape.cache_clear()
    assert solve(bracketed).verdict == FEASIBLE
    assert lps[0] + lps[1] == 1 + 2 * (len(subsets) - n)  # the box and every check point
    assert counts and max(counts.values()) == 1
    counts.clear()
    assert solve(bracketed).verdict == FEASIBLE
    assert not counts
    feasibility._shape.cache_clear()
    assert solve(planted).verdict == INFEASIBLE
    assert counts and max(counts.values()) == 1
