"""The integer-tableau simplex against the Fraction-tableau reference.

``fraction_simplex`` is the kit's former solver, one Fraction per
tableau cell.  Both follow Bland's rule on the same rational tableau, so
every LP must come back with the same status, point, objective, Farkas
multipliers and pivot counts.  Equal pivot counts are the direct
evidence that the pivot sequence did not change.
"""

import io
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_simplex
from contextuality_kit import feasibility, simplex
from contextuality_kit.cli import (
    EXIT_INDETERMINATE,
    EXIT_PASS,
    EXIT_VIOLATION,
    run,
    scenario_dir,
)
from contextuality_kit.event_space import build_space, moment_coefficients
from contextuality_kit.feasibility import EQ, FEASIBLE, INFEASIBLE, make_scenario
from contextuality_kit.measures import AtomMeasure, expectation
from contextuality_kit.numerics import parse_and_evaluate


#: CLI exit codes of a finished decision (not an input or internal error).
DECIDED = (EXIT_PASS, EXIT_VIOLATION, EXIT_INDETERMINATE)


def fields(result):
    return (result.status, result.x, result.objective, result.farkas, result.pivots)


#: The kit's solvers, taken before any test patches the module attributes.
_solve_lp = simplex.solve_lp
_solve_from_basis = simplex.solve_from_basis


def assert_same(costs, rows, rhs, n_vars=None):
    got = _solve_lp(costs, rows, rhs, n_vars)
    want = fraction_simplex.solve_lp(costs, rows, rhs, n_vars)
    assert fields(got) == fields(want)
    return got


def assert_same_optimum(costs, rows, rhs, basis):
    """A one-phase solve returns an optimal point of the reference's value.

    Its pivot path differs from Bland's, so only the point's
    feasibility, its objective and the optimal value are compared.
    """
    got = _solve_from_basis(costs, rows, rhs, basis)
    want = fraction_simplex.solve_lp(costs, rows, rhs)
    assert got.status == want.status == simplex.OPTIMAL
    assert all(v >= 0 for v in got.x)
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, got.x)) == b
    assert sum(c * v for c, v in zip(costs, got.x)) == got.objective
    assert got.objective == want.objective
    return got


@pytest.fixture
def compared(monkeypatch):
    """Route every kit LP through both solvers; yields the LP counter."""
    count = [0]

    def checked(costs, rows, rhs, n_vars=None):
        count[0] += 1
        return assert_same(costs, rows, rhs, n_vars)

    def checked_from_basis(costs, rows, rhs, basis):
        count[0] += 1
        return assert_same_optimum(costs, rows, rhs, basis)

    monkeypatch.setattr(simplex, "solve_lp", checked)
    monkeypatch.setattr(simplex, "solve_from_basis", checked_from_basis)
    yield count


# --- small systems ----------------------------------------------------------

_entry = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def small_systems(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(_entry, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(_entry, min_size=m, max_size=m))
    if draw(st.booleans()):
        # A redundant row: a multiple of an existing one.
        k = draw(st.integers(min_value=0, max_value=m - 1))
        factor = draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
        rows.append([factor * v for v in rows[k]])
        rhs.append(factor * rhs[k])
    costs = draw(st.one_of(st.none(), st.lists(_entry, min_size=n, max_size=n)))
    return costs, rows, rhs


@settings(deadline=None, max_examples=300)
@given(small_systems())
@example((None, [[1, 0], [1, 0], [1, 1]], [1, 1, 1]))  # redundant, degenerate
@example(([0, 1], [[1, 1], [1, -1]], [0, 0]))  # all right-hand sides zero
@example((None, [[-1, 2]], [-3]))  # negative right-hand side
@example(([-1, 0], [[0, 1]], [1]))  # unbounded
@example((None, [[1, 1], [1, 1]], [1, 2]))  # infeasible
@example(([1], [[3]], [Fraction(1, 3)]))  # rational optimum
def test_small_systems_match_reference(system):
    costs, rows, rhs = system
    assert_same(costs, rows, rhs)


def test_unbounded_and_degenerate_cases_are_reached():
    assert assert_same([-1, 0], [[0, 1]], [1]).status == simplex.UNBOUNDED
    degenerate = assert_same([0, 1], [[1, 0], [1, 0], [1, 1]], [1, 1, 1])
    assert degenerate.status == simplex.OPTIMAL
    assert degenerate.pivots[0] >= 2


# --- singles-plus-pairs systems ----------------------------------------------


def singles_plus_pairs(n: int, seed: int, planted: bool):
    """Scenario on n variables with every single and pair moment targeted.

    Targets are the moments of a random rational distribution on all
    2^n atoms.  When ``planted``, the pairs of a 4-cycle a-b, a-d, c-b,
    c-d get ±sqrt(2)/2 with one sign negated, so the CHSH sum over the
    cycle is 2√2 > 2 and no joint distribution exists.
    """
    rng = random.Random(f"singles-plus-pairs-{n}-{seed}-{planted}")
    names = [f"V{i}" for i in range(n)]
    space = build_space(names)
    weights = [rng.randint(1, 9) for _ in range(space.atom_count)]
    measure = AtomMeasure(space, tuple(Fraction(w, sum(weights)) for w in weights))
    subsets = [(v,) for v in names] + [
        (names[i], names[j]) for i in range(n) for j in range(i + 1, n)
    ]
    targets = {s: expectation(measure, s) for s in subsets}
    if planted:
        a, b, c, d = rng.sample(names, 4)
        negated = rng.randrange(4)
        half_root = parse_and_evaluate("sqrt(2)/2")
        for k, pair in enumerate(((a, b), (a, d), (c, b), (c, d))):
            key = tuple(sorted(pair, key=names.index))
            targets[key] = -half_root if k == negated else half_root
    return make_scenario(names, [(s, EQ, targets[s]) for s in subsets])


@pytest.mark.parametrize(
    "n, seed, planted",
    [(n, seed, False) for n in (3, 4, 5, 6) for seed in (1, 2)]
    + [(4, 1, True), (4, 2, True), (5, 1, True), (5, 2, True), (6, 1, True)],
)
def test_singles_plus_pairs_match_reference(compared, n, seed, planted):
    outcome = feasibility.solve_robust(singles_plus_pairs(n, seed, planted))
    assert outcome.verdict == (INFEASIBLE if planted else FEASIBLE)
    # Planted systems run phase 1 and the margin LP at both endpoints.
    assert compared[0] == (4 if planted else 1)


# --- bundled scenarios and closed-form LPs ------------------------------------


@pytest.mark.parametrize("name", sorted(p.name for p in scenario_dir().glob("*.json")))
@pytest.mark.parametrize("command", ["check", "margin"])
def test_bundled_scenarios_match_reference(compared, command, name):
    argv = [command, "--scenario", str(scenario_dir() / name), "--format", "json"]
    assert run(argv, stream=io.StringIO()) in DECIDED
    assert compared[0] >= 1


@pytest.mark.parametrize(
    "argv",
    [
        ["upper-ghz"],
        ["bell-system", "--exy=-1/2", "--exz=-1/2", "--eyz=-1/2"],
        ["ghz-epsilon", "--epsilon", "1/4", "--oracle"],
    ],
)
def test_closed_form_lps_match_reference(compared, argv):
    assert run(argv + ["--format", "json"], stream=io.StringIO()) in DECIDED
    assert compared[0] >= 1


def test_standard_form_appends_slack_and_surplus_columns():
    rows, width = simplex.to_standard_form(
        [[1, 1], [1, -1], [1, 0]], [simplex.EQ, simplex.LE, simplex.GE]
    )
    assert width == 4
    assert rows == [[1, 1, 0, 0], [1, -1, 1, 0], [1, 0, 0, -1]]


# --- evidence is re-checked before release ------------------------------------


@pytest.mark.parametrize("moved", [False, True], ids=["nudged", "moved"])
def test_tampered_witness_makes_solve_raise(monkeypatch, moved):
    """A witness off by 10⁻³⁰ in one atom never leaves ``solve``.

    ``nudged`` adds 10⁻³⁰ to one atom (normalization breaks); ``moved``
    also takes it from an atom of opposite sign in E(AB), so the total
    stays 1 and only the moment check can see it.
    """
    delta = Fraction(1, 10**30)
    scenario = make_scenario(
        ["A", "B"],
        [(["A"], EQ, 0), (["B"], EQ, 0), (["A", "B"], EQ, 0)],
    )
    honest = feasibility.solve(scenario)
    assert honest.verdict == FEASIBLE
    # E(AB) = 0 puts mass on atoms of both signs of AB.
    signs = moment_coefficients(scenario.space, ["A", "B"])
    plus = next(a for a, v in enumerate(honest.witness.values) if v and signs[a] == 1)
    minus = next(a for a, v in enumerate(honest.witness.values) if v and signs[a] == -1)

    def tampered(costs, rows, rhs, n_vars=None):
        result = _solve_lp(costs, rows, rhs, n_vars)
        x = list(result.x)
        x[plus] += delta
        if moved:
            x[minus] -= delta
        result.x = x
        return result

    monkeypatch.setattr(simplex, "solve_lp", tampered)
    with pytest.raises(AssertionError, match="witness"):
        feasibility.solve(scenario)
