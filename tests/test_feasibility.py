from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from contextuality_kit import simplex
from contextuality_kit.errors import CertificateError, ScenarioError
from contextuality_kit.event_space import moment_coefficients
from contextuality_kit.feasibility import (
    EQ,
    FEASIBLE,
    GE,
    INDETERMINATE,
    INFEASIBLE,
    LE,
    decide_endpoints,
    ghz_symmetric_scenario,
    make_scenario,
    margin,
    oracle_grid_agreement,
    solve,
    solve_robust,
    uniform_grid,
    verify_certificate,
)
from contextuality_kit.measures import signed_atom_sum, validate
from contextuality_kit.numerics import ScalarInterval, parse_and_evaluate


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
            assert solve(scenario, endpoint).verdict == INFEASIBLE
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
        for endpoint in ("lo", "hi"):
            value = margin(scenario, endpoint)
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
        assert outcome.endpoint_outcomes == {}

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
        assert outcome.endpoint_outcomes["lo"].verdict == INFEASIBLE
        assert outcome.endpoint_outcomes["hi"].verdict == FEASIBLE

    def test_bracketed_bell_is_not_indeterminate(self):
        assert solve_robust(bell_scenario()).verdict == INFEASIBLE

    def test_feasible_at_both_endpoints_keeps_lo_witness(self):
        scenario = make_scenario(
            ["A", "B"],
            [
                (["A"], "eq", 0),
                (["A", "B"], "eq", ScalarInterval(Fraction(0), Fraction(1, 8))),
            ],
        )
        outcome = solve_robust(scenario)
        assert outcome.verdict == FEASIBLE
        assert outcome.witness is not None
        assert outcome.margin == 0
        assert set(outcome.endpoint_outcomes) == {"lo", "hi"}
        # the carried witness satisfies the lo endpoint exactly
        assert signed_atom_sum(outcome.witness, ["A", "B"]) == 0


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

    def test_workers_do_not_change_result(self):
        points = uniform_grid(9)
        serial = oracle_grid_agreement(points, workers=1)
        parallel = oracle_grid_agreement(points * 8, workers=2)
        assert serial.agree and parallel.agree

    def test_worker_cap_env_var(self, monkeypatch):
        from contextuality_kit.feasibility import WORKERS_ENV_VAR, _worker_count

        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        assert _worker_count(None) == 3
        monkeypatch.setenv(WORKERS_ENV_VAR, "not-a-number")
        assert _worker_count(None) == 1
        monkeypatch.delenv(WORKERS_ENV_VAR)
        assert _worker_count(None) == 1
        assert _worker_count(4) == 4


class TestDeterminism:
    def test_identical_scenarios_identical_outcomes(self):
        a = solve(bell_scenario(), "lo")
        b = solve(bell_scenario(), "lo")
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


def test_decide_endpoints_runs_hi_only_for_interval_targets():
    calls = []

    def decide(endpoint):
        calls.append(endpoint)
        return {"lo": 3, "hi": -3}[endpoint]

    assert decide_endpoints(decide, False, abs) == (3, None, True)
    assert calls == ["lo"]
    assert decide_endpoints(decide, True, abs) == (3, -3, True)
    assert decide_endpoints(decide, True, lambda v: v > 0) == (3, -3, False)
    assert calls == ["lo", "lo", "hi", "lo", "hi"]


# --- the crash-started margin LP against the two-phase margin LP -------------


def two_phase_margin(scenario, endpoint):
    """The relaxed margin LP, built here and solved by two-phase simplex.

    Columns: the atoms, t, then one slack per one-sided row.  An
    equality target gives the rows moment - t <= target and
    moment + t >= target; an inequality target gives its own side.
    """
    n = scenario.space.atom_count
    sides = []
    for c in scenario.constraints:
        coefficients = moment_coefficients(scenario.space, c.subset)
        target = c.target.endpoint(endpoint)
        if c.relation in (EQ, LE):
            sides.append((coefficients, -1, 1, target))
        if c.relation in (EQ, GE):
            sides.append((coefficients, 1, -1, target))
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
    result = simplex.solve_lp(costs, rows, rhs)
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
    assert margin(scenario, endpoint) == two_phase_margin(scenario, endpoint)


@pytest.mark.parametrize("name", sorted(_CRASH_CASES))
def test_margin_crash_basis_shape(monkeypatch, name):
    scenario, atom, t_basic = _CRASH_CASES[name]
    n = scenario.space.atom_count
    starts = []
    solve_from_basis = simplex.solve_from_basis

    def spy(costs, rows, rhs, basis):
        starts.append(list(basis))
        return solve_from_basis(costs, rows, rhs, basis)

    monkeypatch.setattr(simplex, "solve_from_basis", spy)
    assert margin(scenario) == two_phase_margin(scenario, "lo")
    (basis,) = starts
    assert basis[0] == atom
    assert (n in basis) == t_basic
    if name == "tied-worst-violation":
        assert basis[1] == n  # the first of the tied rows

