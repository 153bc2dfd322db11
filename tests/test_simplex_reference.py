"""The kit's simplex solvers against their former implementations.

``fraction_simplex`` is the kit's former two-phase solver, one Fraction
per tableau cell.  Its phase 1 and the tests' integer phase 1,
``dense_simplex.solve_lp``, which runs on the kit's ``_pivot``, follow
Bland's rule on the same rational tableau, so every system must come
back with the same status, basic point, Farkas multipliers and phase-1
pivot count.  Equal pivot counts are the direct evidence that the
integer pivot takes the Fraction tableau's path.

``dense_simplex`` is the former one-phase solver on the dense integer
tableau, with Dantzig's rule and the kit's lexicographic ratio test,
whose ties it breaks on B⁻¹B₀ read off the dense tableau's start-basis
columns.  The revised, Walsh-priced ``simplex.solve_from_basis``, which
computes those entries from B⁻¹ instead, must take the same pivots from
the same start basis, so every margin LP must come back with the same
status, pivots, point, objective and row duals, and the reduced costs
its duals give must be the dense objective row's.  On the dense tableau
every row of [x_B | B⁻¹B₀] stays lexicographically positive.

``BruteForceAtoms`` answers the atom oracle's questions by a direct sum
per atom: ``simplex.WalshAtoms`` must answer as it does, and every
decision must come back the same with it in place.
"""

import io
import itertools
import math
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import dense_simplex
import fraction_simplex
from contextuality_kit import feasibility, simplex, sweep
from contextuality_kit.closed_form import solve_upper_ghz_witness
from contextuality_kit.cli import (
    EXIT_INDETERMINATE,
    EXIT_PASS,
    EXIT_VIOLATION,
    run,
    scenario_dir,
    scenario_from_document,
)
from contextuality_kit.event_space import build_space, moment_coefficients, sign_event
from contextuality_kit.feasibility import EQ, FEASIBLE, INFEASIBLE, make_scenario
from contextuality_kit.measures import AtomMeasure, expectation
from contextuality_kit.numerics import parse_and_evaluate
from test_feasibility import (
    bell_scenario,
    corner,
    ghz_scenario,
    relaxed_scenarios,
    symmetric_document,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference  # noqa: E402


#: CLI exit codes of a finished decision (not an input or internal error).
DECIDED = (EXIT_PASS, EXIT_VIOLATION, EXIT_INDETERMINATE)




def path_fields(result, width):
    """The fields a pivot path fixes, the point lifted to all ``width`` columns."""
    point = dense_simplex.full_point(result, width)
    return (result.status, result.pivots, point, result.objective, result.duals)


#: The kit's solvers, taken before any test patches the module attributes.
_solve_lp = sweep.solve_lp
_solve_from_basis = simplex.solve_from_basis
_settle = simplex.settle


def assert_same(rows, rhs):
    """The tests' integer phase 1 gives the Fraction reference's phase-1 outcome.

    That phase 1 (``dense_simplex.solve_lp``) runs the kit's integer
    pivot with Bland's entering rule and ratio test.
    """
    got = dense_simplex.solve_lp(rows, rhs)
    want = fraction_simplex.solve_lp(None, rows, rhs)
    assert (got.status, got.duals, got.pivots) == (want.status, want.farkas, want.pivots[0])
    if got.status == simplex.OPTIMAL:
        assert dense_simplex.phase_one_point(got, rhs, len(rows[0])) == want.x
    return got


def assert_optimum(costs, rows, rhs, got):
    """``got`` is an optimal point of the Fraction reference's value.

    The one-phase path differs from Bland's, so only the point's
    feasibility, its objective and the optimal value are compared.
    """
    want = fraction_simplex.solve_lp(costs, rows, rhs)
    assert got.status == want.status == simplex.OPTIMAL
    x = dense_simplex.full_point(got, len(costs))
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) == b
    assert sum(c * v for c, v in zip(costs, x)) == got.objective
    assert got.objective == want.objective


def assert_same_path(costs, columns, rhs, basis, characters=None):
    """The revised solve takes the dense reference's path.

    Its duals are the ones the reference solves for from its final
    basis, and they price every column as the dense objective row does.
    """
    got = _solve_from_basis(costs, columns, rhs, basis, characters)
    dense_costs, rows = dense_simplex.dense_lp(costs, columns, rhs, characters)
    want, reduced = dense_simplex.solve_from_basis(dense_costs, rows, rhs, basis)
    width = len(dense_costs)
    assert path_fields(got, width) == path_fields(want, width)
    if got.status == simplex.OPTIMAL:
        assert dense_simplex.reduced_costs(dense_costs, rows, got.duals) == reduced
    return got


@contextmanager
def routed():
    """Route every margin LP through the kit and a reference; yields the LP counter.

    No kit path solves a feasibility system cold, so ``sweep.solve_lp``
    is not routed.  A margin LP settled from another optimum's basis
    counts as its own LP: it is checked for the reference's optimal
    value and for nonnegative reduced costs under its duals, the proof
    that its basis is optimal.
    """
    count = [0]
    solved = {}

    def checked_from_basis(costs, columns, rhs, basis, characters=None):
        count[0] += 1
        result = assert_same_path(costs, columns, rhs, basis, characters)
        assert_optimum(*dense_simplex.dense_lp(costs, columns, rhs, characters), rhs, result)
        solved[id(result)] = (result, costs, columns, characters)
        return result

    def checked_settle(result, rhs):
        got = _settle(result, rhs)
        if got is not None:
            count[0] += 1
            _, costs, columns, characters = solved[id(result)]
            dense_costs, rows = dense_simplex.dense_lp(costs, columns, rhs, characters)
            assert_optimum(dense_costs, rows, rhs, got)
            assert all(v >= 0 for v in dense_simplex.reduced_costs(dense_costs, rows, got.duals))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "solve_from_basis", checked_from_basis)
        patch.setattr(simplex, "settle", checked_settle)
        yield count


@pytest.fixture
def compared():
    with routed() as count:
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
    rows, (rhs,) = dense_simplex.integer_rows(rows, [rhs])
    return rows, rhs


@settings(deadline=None, max_examples=300)
@given(small_systems())
@example(([[1, 0], [1, 0], [1, 1]], [1, 1, 1]))  # redundant, degenerate
@example(([[1, 1], [1, -1]], [0, 0]))  # all right-hand sides zero
@example(([[-1, 2]], [-3]))  # negative right-hand side
@example(([[1, 1], [1, 1]], [1, 2]))  # infeasible
@example(([[3]], [Fraction(1, 3)]))  # rational point
def test_small_systems_match_reference(system):
    assert_same(*system)


def test_unbounded_and_degenerate_cases_are_reached():
    # Phase 1 is bounded below, so the unbounded case is the one-phase solve's.
    unbounded = assert_same_path([-1, 0], [{}, {0: 1}], [1], [1])
    assert unbounded.status == simplex.UNBOUNDED
    degenerate = assert_same([[1, 0], [1, 0], [1, 1]], [1, 1, 1])
    assert degenerate.status == simplex.OPTIMAL
    assert degenerate.pivots >= 2


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
    # One margin LP over the target box decides both: planted systems
    # are infeasible over their whole brackets, feasible ones rational.
    assert compared[0] == 1


# --- the revised margin LP against the dense tableau ---------------------------


@settings(deadline=None, max_examples=150)
@given(relaxed_scenarios(), st.sampled_from(["lo", "hi"]))
def test_margin_lp_path_matches_dense_reference(scenario, endpoint):
    for point in (scenario, corner(scenario, endpoint)):
        with routed() as count:
            feasibility.margin(point)
        assert count[0] == 1


@pytest.mark.parametrize("planted", [False, True], ids=["feasible", "planted"])
@pytest.mark.parametrize("n", [5, 6, 7])
@pytest.mark.parametrize("endpoint", ["lo", "hi"])
def test_wide_document_path_matches_dense_reference(monkeypatch, n, planted, endpoint):
    """The same pivots as the dense tableau; the outcome re-checks the optimum.

    The Fraction reference's two-phase solve is too slow at n = 7, so
    the optimum is vouched for by the released evidence instead: a
    witness re-checked exactly, or a verified certificate with t > 0.
    """
    solved = []

    def checked(*args):
        solved.append(assert_same_path(*args))
        return solved[-1]

    monkeypatch.setattr(simplex, "solve_from_basis", checked)
    scenario = corner(scenario_from_document(reference.wide_document(3, n, planted)), endpoint)
    outcome = feasibility.solve(scenario)
    assert outcome.verdict == (INFEASIBLE if planted else FEASIBLE)
    assert len(solved) == 1


# --- the optimal duals of every margin LP ---------------------------------------


def assert_optimal_duals(result, costs, columns, rhs, characters):
    """``result.duals`` are optimal row duals y of the LP and its basis.

    ``result.x`` holds one value per basic column.  Under y every
    column's reduced cost c_j − yᵀA_j, the atoms' built from their
    characters, is ≥ 0; each basic column's is 0; and yᵀb is the
    objective.
    """
    assert len(result.x) == len(result.basis)
    reduced = dense_simplex.reduced_costs(
        *dense_simplex.dense_lp(costs, columns, rhs, characters), result.duals
    )
    assert all(v >= 0 for v in reduced)
    assert all(reduced[j] == 0 for j in result.basis)
    assert sum(y * b for y, b in zip(result.duals, rhs)) == result.objective


_wide_scenarios = st.builds(
    lambda seed, n, planted: scenario_from_document(reference.wide_document(seed, n, planted)),
    st.integers(min_value=0, max_value=39),
    st.integers(min_value=4, max_value=7),
    st.booleans(),
)


@settings(deadline=None, max_examples=150)
@given(st.one_of(relaxed_scenarios(), _wide_scenarios))
@example(scenario_from_document(reference.wide_document(11, 4, False)))
@example(scenario_from_document(reference.wide_document(11, 4, True)))
@example(scenario_from_document(reference.wide_document(11, 7, False)))
@example(scenario_from_document(reference.wide_document(11, 7, True)))
def test_every_margin_lp_returns_optimal_duals(scenario):
    """Every optimal margin LP of a decision, settled ones included."""
    solved, checked = {}, [0]

    def from_basis(costs, columns, rhs, basis, characters=None):
        result = _solve_from_basis(costs, columns, rhs, basis, characters)
        assert_optimal_duals(result, costs, columns, rhs, characters)
        solved[id(result)] = (costs, columns, characters)
        checked[0] += 1
        return result

    def settle(result, rhs):
        got = _settle(result, rhs)
        if got is not None:
            costs, columns, characters = solved[id(result)]
            assert_optimal_duals(got, costs, columns, rhs, characters)
            solved[id(got)] = (costs, columns, characters)
            checked[0] += 1
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "solve_from_basis", from_basis)
        patch.setattr(simplex, "settle", settle)
        feasibility.solve(scenario)
    assert checked[0] >= 1


# --- the lexicographic ratio test on the dense tableau ---------------------------


@pytest.mark.parametrize(
    "scenario",
    [
        symmetric_document(6, Fraction(1, 3), Fraction(-1, 9)),
        symmetric_document(6, Fraction(-7, 9), Fraction(7, 9)),
        symmetric_document(5, Fraction(5, 9), Fraction(-1, 3)),
        symmetric_document(5, Fraction(0), Fraction(-1, 9)),
        scenario_from_document(reference.wide_document(3, 5, True)),
    ],
    ids=["sym-6-infeasible", "sym-6-feasible", "sym-5-infeasible", "sym-5-feasible", "wide-5"],
)
def test_dense_rows_stay_lexicographically_positive(monkeypatch, scenario):
    """After each dense reference pivot, every row of [x_B | B⁻¹B₀] is lexicographically > 0.

    B⁻¹B₀ is read off the dense tableau at the start basis's columns,
    in the order of the rows they start on.  The documents have
    degenerate pivots, whose ties the lexicographic rule breaks.
    """
    run = dense_simplex._run_dantzig
    pivot = dense_simplex._pivot
    degenerate, pivots = [0], [0]

    def watched(tableau, scales, basis):
        start = list(basis)

        def checked(tableau, scales, basis, row, col):
            degenerate[0] += not tableau[row][-1]
            pivot(tableau, scales, basis, row, col)
            pivots[0] += 1
            for line in tableau[:-1]:
                assert next(v for v in [line[-1], *(line[c] for c in start)] if v) > 0

        monkeypatch.setattr(dense_simplex, "_pivot", checked)
        try:
            return run(tableau, scales, basis)
        finally:
            monkeypatch.setattr(dense_simplex, "_pivot", pivot)

    monkeypatch.setattr(dense_simplex, "_run_dantzig", watched)
    monkeypatch.setattr(simplex, "solve_from_basis", assert_same_path)
    feasibility.solve(scenario)
    assert pivots[0] > 10 and degenerate[0] > 0


# --- the start basis: slacks placed without pivots -----------------------------


def pivot_every_column_in(lp, basis):
    """``_RevisedLp.start`` as it was: every column entered and pivoted in.

    Each column in turn goes on the first row not yet taken where it is
    nonzero, with the kit's pivot, unit slack columns included.  The
    slot follows the live columns, so it is read after :meth:`enter`:
    each slack's pivot makes its row's column live and then drops it.
    The placed columns, in position order, are B₀ of the ratio test.
    """
    for col in basis:
        lp.enter(col)
        slot = len(lp.live)
        row = next((i for i, c in enumerate(lp.basis) if c < 0 and lp.tableau[i][slot]), -1)
        if row < 0:
            raise ValueError(f"start basis is singular at column {col}")
        lp.pivot(row, col)
    lp.start_basis = tuple(lp.basis)


def assert_same_start(scenario):
    """The margin LP ends as it does when its whole start basis is pivoted in."""
    bounds = feasibility._box(scenario)
    got = feasibility._margin_lp(feasibility._MomentLp(scenario), bounds)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex._RevisedLp, "start", pivot_every_column_in)
        want = feasibility._margin_lp(feasibility._MomentLp(scenario), bounds)
    # Every field: x, basis, inverse, duals and pivots among them.
    assert got == want


@settings(deadline=None, max_examples=200)
@given(relaxed_scenarios(), st.sampled_from(["lo", "hi"]))
# One relaxed row: t is a unit column of cost 1, basic in the crash start.
@example(make_scenario(["A"], [(["A"], "ge", 2)]), "lo")
def test_start_places_slacks_where_their_pivots_would(scenario, endpoint):
    for point in (scenario, corner(scenario, endpoint)):
        assert_same_start(point)


@pytest.mark.parametrize("n, planted", [(5, True), (6, False)])
def test_wide_document_start_places_slacks_where_their_pivots_would(n, planted):
    assert_same_start(scenario_from_document(reference.wide_document(11, n, planted)))


# --- B⁻¹ over its live columns against the full-width rows ---------------------


def same_as_full_width(costs, columns, rhs, basis, characters=None):
    """The narrow solve's outcome, which must be the full-width one's.

    An outcome is the ``LpResult``, whose equality compares every field
    (x, objective, pivots, basis, inverse and duals among them),
    or the message of the ValueError that a singular or primal-infeasible
    start raises.
    """
    outcomes = []
    for solve in (_solve_from_basis, dense_simplex.solve_full_width):
        try:
            outcomes.append(solve(costs, columns, rhs, basis, characters))
        except ValueError as err:
            outcomes.append(str(err))
    got, want = outcomes
    assert got == want
    return got


@contextmanager
def full_width_compared():
    """Route every ``solve_from_basis`` through :func:`same_as_full_width`; yields the count."""
    count = [0]

    def compared(*args):
        count[0] += 1
        result = same_as_full_width(*args)
        if isinstance(result, str):
            raise ValueError(result)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "solve_from_basis", compared)
        yield count


@st.composite
def explicit_lps(draw):
    """A small LP of explicit columns, optionally after a character block.

    Its columns mix units of entry ±1 and ±2 and dense integer columns;
    a dense column has a positive entry on row 0, which bounds it.  One
    unit per row, signed so its basic value is |b_i|, makes a
    feasible start, whose units have cost 0 (slacks) or not.  Sometimes
    one start column is swapped for another column, so the start may
    be singular or infeasible, a second unit on a taken row among them.
    """
    m = draw(st.integers(min_value=1, max_value=5))
    characters = None
    if draw(st.booleans()):
        bits = draw(st.integers(min_value=0, max_value=3))
        masks = draw(
            st.lists(st.integers(min_value=0, max_value=(1 << bits) - 1), min_size=m, max_size=m)
        )
        characters = simplex.WalshAtoms(bits, masks)
    atoms = characters.atoms if characters else 0
    rhs = draw(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=m, max_size=m)
    )
    unit = st.builds(
        lambda i, v: {i: v},
        st.integers(min_value=0, max_value=m - 1),
        st.sampled_from([1, -1, 2, -2]),
    )
    # Row 0 bounds the dense columns: each has a positive entry there.
    dense = st.tuples(
        st.integers(min_value=1, max_value=2),
        st.lists(st.integers(min_value=-2, max_value=2), min_size=m - 1, max_size=m - 1),
    ).map(lambda entries: {i: v for i, v in enumerate([entries[0], *entries[1]]) if v})
    columns = draw(st.lists(st.one_of(unit, dense), max_size=8))
    basis = []
    for i, b in enumerate(rhs):
        basis.append(atoms + len(columns))
        columns.append({i: -1 if b < 0 else 1})
    width = atoms + len(columns)
    # One cost per explicit column; an atom costs 0.
    cost = st.integers(min_value=-3, max_value=3)
    costs = draw(st.lists(cost, min_size=len(columns), max_size=len(columns)))
    for col in basis:
        costs[col - atoms] = draw(st.sampled_from([0, 0, 1]))
    basis = draw(st.permutations(basis))
    if draw(st.booleans()):
        basis[draw(st.integers(0, m - 1))] = draw(st.integers(0, width - 1))
    return costs, columns, rhs, basis, characters


def _beale(slack_entry):
    """Beale's cycling LP (rows and costs times 4), its slacks of the given entry.

    With entry 4 the slacks are units that are not ±1; with entry 1 the
    first two columns stand for 4·x1 and 4·x2, and the slacks are ±1.
    """
    rows = [
        [slack_entry, 0, 0, 1, -32, -4, 36],
        [0, slack_entry, 0, 2, -48, -2, 12],
        [0, 0, 1, 0, 0, 1, 0],
    ]
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(7)]
    return [0, 0, 0, -3, 80, -2, 24], columns, [0, 0, 1], [0, 1, 2], None


@settings(deadline=None, max_examples=300)
@given(explicit_lps())
@example(_beale(4))
@example(_beale(1))
# Non-unit dense columns pivot in over a +1 and a -1 slack.
@example(([0, 0, -1, -2], [{0: 1}, {1: -1}, {0: 2, 1: 3}, {0: 1, 1: -1}], [4, -2], [0, 1], None))
# A cost-1 unit column, basic at the start: the margin LP's t when it
# has one relaxed row (an le side here), which an atom then replaces.
@example(([1, 0], [{1: -1}, {1: 1}], [1, Fraction(1, 2)], [0, 2], simplex.WalshAtoms(1, [0, 1])))
# A second unit column on a row that a slack already takes: in the
# start basis (singular), and entering at a negative cost.
@example(([0, 0, 0], [{0: 1}, {0: -1}, {1: 1}], [1, 1], [0, 1], None))
@example(([0, 0, -1, 0], [{0: 1}, {1: 1}, {0: 1}, {0: 1, 1: 1}], [2, 1], [0, 1], None))
# Optimal at the start basis: the derived row of the pair (rows 0 and 1,
# one mask, apart on the cost-1 column) is formed before any column enters.
@example(([1, 0, 0, 0, 0], [{0: 1}, {0: 1}, {1: 1}, {2: 1}, {3: 1}], [0] * 4, [3, 4, 5, 6], simplex.WalshAtoms(1, [0, 0, 1, 1])))
def test_explicit_lps_match_full_width_rows(lp):
    same_as_full_width(*lp)


@settings(deadline=None, max_examples=150)
@given(relaxed_scenarios(), st.sampled_from(["lo", "hi"]))
def test_margin_lps_match_full_width_rows(scenario, endpoint):
    for point in (scenario, corner(scenario, endpoint)):
        with full_width_compared() as count:
            feasibility.solve(point)
        assert count[0] >= 1


@pytest.mark.parametrize("planted", [False, True], ids=["feasible", "planted"])
@pytest.mark.parametrize("n", range(4, 9))
@settings(deadline=None, max_examples=3)
@given(st.integers(min_value=0, max_value=2**16))
def test_wide_documents_match_full_width_rows(n, planted, seed):
    scenario = scenario_from_document(reference.wide_document(seed, n, planted))
    with full_width_compared() as count:
        outcome = feasibility.solve(scenario)
    assert outcome.verdict == (INFEASIBLE if planted else FEASIBLE)
    assert count[0] >= 1


def test_rows_hold_only_live_columns_at_every_pivot(monkeypatch):
    """Each row, stored or formed, is one entry per row with no basic slack, plus two.

    A row counts as taken when its slack (a unit column of cost 0 and
    entry ±1) is basic, or while the start has not placed its position,
    whose column is still the identity's.  The slot and x_B are the two.
    A derived position stores the shared zero row, and the row formed
    for it (``_RevisedLp._row``) has the stored rows' width.  A row kept
    at full width would fail this, and so would a slack's column kept
    live after the slack comes back in, which happens once on the
    planted document.
    """
    pivot = simplex._RevisedLp.pivot
    widths, slacks_in = [], []

    def checked(lp, row, j):
        pivot(lp, row, j)
        slacks_in.append(j in lp.slacks)
        taken = {i for i, col in enumerate(lp.basis) if col < 0}
        for col in lp.basis:
            if col in lp.slacks:
                taken.add(lp.slacks[col][0])
        width = lp.m - len(taken) + 2
        rows = [lp._row(i)[0] if i in lp.derived else lp.tableau[i] for i in range(lp.m + 1)]
        assert {len(line) for line in rows} == {width}
        assert all(lp.tableau[i] is lp.zero for i in lp.derived)
        widths.append(width)

    monkeypatch.setattr(simplex._RevisedLp, "pivot", checked)
    for planted in (False, True):
        feasibility.solve(scenario_from_document(reference.wide_document(3, 6, planted)))
    m = 1 + 2 * (6 + 15)
    assert len(widths) > 20 and max(widths) < m + 2
    assert sum(slacks_in) == 1


@contextmanager
def pricing_compared():
    """Check every pricing against the dense rows; yields the count of slacks entered.

    At every basis the simplex prices, the explicit columns' reduced
    costs it reads off the live columns must be the dense reference's,
    c_j − yᵀA_j for the row duals y of that basis (solved in Fractions
    from the basic columns, independent of the kit's rows), times the
    objective row's scale, and the entering choice must be the least of
    all the dense reduced costs, atoms included, at its lowest index.  A
    slack entering after the start makes its row's column held again,
    which the pricing that follows must see.
    """
    lps, entered = [], [0]
    entering, pivot = simplex._RevisedLp.entering, simplex._RevisedLp.pivot

    def from_basis(costs, columns, rhs, basis, characters=None):
        lps.append(dense_simplex.dense_lp(costs, columns, rhs, characters))
        return _solve_from_basis(costs, columns, rhs, basis, characters)

    def priced(lp):
        got = entering(lp)
        dense_costs, rows = lps[-1]
        y = dense_simplex._duals(dense_costs, rows, lp.basis)
        scale = lp.scales[lp.m]
        want = [v * scale for v in dense_simplex.reduced_costs(dense_costs, rows, y)]
        assert lp.reduced_costs() == want[lp.atoms:]
        assert got == (min(want), want.index(min(want)))
        return got

    def counted(lp, row, j):
        entered[0] += hasattr(lp, "start_basis") and j in lp.slacks
        pivot(lp, row, j)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "solve_from_basis", from_basis)
        patch.setattr(simplex._RevisedLp, "entering", priced)
        patch.setattr(simplex._RevisedLp, "pivot", counted)
        yield entered


@settings(deadline=None, max_examples=60)
@given(st.one_of(relaxed_scenarios(), _wide_scenarios.filter(lambda s: s.space.n <= 5)))
@example(scenario_from_document(reference.wide_document(11, 5, True)))
def test_live_column_pricing_is_the_dense_pricing_at_every_pivot(scenario):
    with pricing_compared():
        feasibility.solve(scenario)


@settings(deadline=None, max_examples=200)
@given(explicit_lps())
def test_explicit_lp_pricing_is_the_dense_pricing_at_every_pivot(lp):
    """Units of entry ±2, units with a cost and two slacks on one row among them."""
    with pricing_compared():
        try:
            simplex.solve_from_basis(*lp)
        except ValueError:
            pass  # a singular or primal-infeasible start


def test_live_column_pricing_after_a_slack_reenters():
    """The planted n = 6 document's path brings one slack back in; every pricing still matches."""
    with pricing_compared() as entered:
        feasibility.solve(scenario_from_document(reference.wide_document(3, 6, True)))
    assert entered[0] == 1


@contextmanager
def inverse_compared():
    """Check each ``result().inverse`` row against its row widened to m columns; yields the count.

    A stored row, widened, has the live entries on their columns and the
    held column's ±scale, 0 elsewhere, as ``dense_simplex.FullWidthLp``
    holds it; the read-out must be :func:`simplex._reduced` of it.  A
    derived row's is c·(e_r1 − e_r2) + ct·R_q + cp·R_p over the widened
    rows R of T and of the partner slack, in Fractions.
    """
    read_out, checked = simplex._RevisedLp.result, [0]

    def widened(lp, i):
        full = [0] * lp.m
        for c, v in zip(lp.live, lp.tableau[i]):
            full[c] = v
        if i in lp.held:
            c, sign = lp.held[i]
            full[c] = sign * lp.scales[i]
        return full, lp.scales[i]

    def derived_row(lp, i):
        _, c, r1, r2, ct, partner, cp, _, _ = lp.derived[i]
        row = [Fraction(0)] * lp.m
        row[r1], row[r2] = Fraction(c), Fraction(-c)
        for col, coef in ((lp.t, ct), (partner, cp)):
            if col in lp.where:
                full, scale = widened(lp, lp.where[col])
                row = [v + Fraction(coef * w, scale) for v, w in zip(row, full)]
        scale = math.lcm(*(v.denominator for v in row))
        return simplex._reduced([int(v * scale) for v in row], scale)

    def compared(lp, pivots):
        want = [
            derived_row(lp, i) if i in lp.derived else simplex._reduced(*widened(lp, i))
            for i in range(lp.m)
        ]
        got = read_out(lp, pivots)
        assert got.inverse == tuple(want)
        checked[0] += 1
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex._RevisedLp, "result", compared)
        yield checked


@settings(deadline=None, max_examples=100)
@given(st.one_of(relaxed_scenarios(), _wide_scenarios))
def test_margin_lp_inverse_is_the_widened_rows_in_lowest_terms(scenario):
    with inverse_compared() as checked:
        feasibility.solve(scenario)
    assert checked[0] >= 1


@settings(deadline=None, max_examples=200)
@given(explicit_lps())
def test_explicit_lp_inverse_is_the_widened_rows_in_lowest_terms(lp):
    with inverse_compared():
        try:
            _solve_from_basis(*lp)
        except ValueError:
            pass  # a singular or primal-infeasible start: no read-out


# --- read-outs in lowest terms -------------------------------------------------


def exchangeable_document(n):
    """Singles 0 and every pair √2/4 over n variables: bracketed and feasible.

    Its check points are settled from the box optimum's basis.
    """
    names = [f"V{i}" for i in range(n)]
    pairs = [[a, b] for i, a in enumerate(names) for b in names[i + 1:]]
    return {
        "variables": names,
        "constraints": [{"moment": [v], "relation": "eq", "value": "0"} for v in names]
        + [{"moment": pair, "relation": "eq", "value": "sqrt(2)/4"} for pair in pairs],
    }


@pytest.mark.parametrize("n", [5, 6])
def test_every_inverse_row_is_in_lowest_terms(monkeypatch, n):
    """Each optimal ``LpResult.inverse`` row is in lowest terms.

    Only the pivot row, the objective row and rows past the bound are
    reduced at a pivot, so this holds because every read-out reduces.
    Covers ``solve_from_basis`` and ``settle`` (the margin LPs of wide
    and bracketed documents) and ``sweep.solve_lp`` (phase 1 on a wide
    document's rows).
    """
    results = {"solve_from_basis": [], "settle": [], "solve_lp": []}

    def kept(module, name):
        solve = getattr(module, name)

        def wrapped(*args):
            result = solve(*args)
            if result is not None and result.status == simplex.OPTIMAL:
                results[name].append(result)
            return result

        monkeypatch.setattr(module, name, wrapped)

    kept(simplex, "solve_from_basis")
    kept(simplex, "settle")
    kept(sweep, "solve_lp")
    for planted in (False, True):
        feasibility.solve(scenario_from_document(reference.wide_document(7, n, planted)))
    feasibility.solve(scenario_from_document(exchangeable_document(n)))
    wide = scenario_from_document(reference.wide_document(7, n, False))
    rows, targets, relations = feasibility._standard_rows(wide)
    sweep.solve_lp(dense_simplex.to_standard_form(rows, relations)[0], [t.lo for t in targets])
    for name, kept_results in results.items():
        assert kept_results, name
        for result in kept_results:
            for line, scale in result.inverse:
                assert math.gcd(scale, *line) == 1, name


# --- the derived rows of equality pairs against the full-width rows ----------


def is_clone(lp, i):
    """Derived position i's partner slack is nonbasic: B⁻¹[i] = c·dᵀ + ct·B⁻¹[q]."""
    return i in lp.derived and lp.derived[i][5] not in lp.where


def full_value(lp, i, entry):
    """Full row i's entry (an index) or its product with a column (a list), over its scale."""
    line, scale = lp.full.tableau[i], lp.full.scales[i]
    if isinstance(entry, int):
        return Fraction(line[entry], scale)
    return Fraction(sum(map(lambda u, v: u * v, line[: lp.m], entry)), scale)


def lex_row(lp, i):
    """Full row i of B⁻¹B₀ over its entry α on the entering column, in Fractions."""
    alpha = full_value(lp, i, lp.m)
    return [full_value(lp, i, column) / alpha for column in lp.start_columns]


def assert_clone_keys(lp, counts):
    """At an atom's pivot with α_q > 0, κ orders T's row and its clones as the dense rows do.

    For each clone i of pair k, (B⁻¹B₀[i]/α_i − B⁻¹B₀[q]/α_q)·α_q must
    be ``_kappa(k)`` over ``kappa_scale``, entry by entry, and sorting T's
    row (κ = 0) and the point clones with α > 0 by κ must give their
    order by B⁻¹B₀/α.  Other pivots are counted by kind: a slack's or
    T's column entering, α_q <= 0 with T basic, and T nonbasic.
    """
    q = lp.where.get(lp.t)
    if q is None:
        counts["t_out"] += 1
        return
    alpha_q = full_value(lp, q, lp.m)
    if not lp.atom_entered:
        counts["column_in"] += 1
        return
    if alpha_q <= 0:
        counts["alpha_q_nonpositive"] += 1
        return
    counts["keyed"] += 1
    zero = (0,) * lp.m
    keys, rows = {q: zero}, {q: lex_row(lp, q)}
    for i in filter(lambda i: is_clone(lp, i), lp.derived):
        k, ct, cb = lp.derived[i][0], lp.derived[i][4], lp.derived[i][7]
        key, row = lp._kappa(k), lex_row(lp, i)
        assert [(u - v) * alpha_q for u, v in zip(row, rows[q])] == [
            Fraction(v, lp.kappa_scale) for v in key
        ]
        if ct > 0 and not cb:
            keys[i], rows[i] = key, row
    assert sorted(keys, key=keys.get) == sorted(rows, key=rows.get)
    counts["clones_keyed"] += len(keys) - 1


@contextmanager
def derived_compared(pairs):
    """Check every derived row and ratio test against ``dense_simplex.FullWidthLp``; yields counts.

    A ``FullWidthLp`` runs beside each revised LP, started, entered and
    pivoted as it is, so its rows are the full B⁻¹ rows of the same
    basis.  At every ratio test:

    * each listed candidate's α and x_B, over the denominator of its row
      (a derived row's is its terms' sq·sp), are the full row's;
    * each full-width candidate left unlisted is a clone
      (:func:`is_clone`) at an atom's pivot with α_q > 0: a point clone
      at T's ratio, or a bracketed one (cb > 0) above it;
    * a drawn stand-in is offered exactly those point clones, is the one
      whose row of B⁻¹B₀ over α is lexicographically least, and is said
      to be below T's row exactly when its row is;
    * no tie-break reads a tie made only of T's row and clones;
    * the row that leaves is the full-width ratio test's;
    * :func:`assert_clone_keys` holds.

    Every derived row formed by ``_row`` must be the full row on the
    live columns, slot and x_B.  At every tie-break each tied row's
    B⁻¹B₀ entry must be the full row's times B₀'s column, and every
    column the tie-break passes over must be zero on the tied rows.
    While t > 0 the LP has ``pairs`` pairs and stores m + 1 − ``pairs``
    rows (a margin LP's; ``pairs`` None skips the count).
    """
    counts = dict.fromkeys(
        (
            "derived", "lex", "derived_left", "t_left", "slack_in", "t_positive", "point",
            "bracketed", "stand_in", "stand_in_unbroken", "keyed", "clones_keyed",
            "column_in", "alpha_q_nonpositive", "t_out",
        ),
        0,
    )
    lp_class, kit_least, listed, drawn, lexed = simplex._RevisedLp, simplex._least, [None], [], [0]
    init, start, enter, pivot, leaving, lex, stand_in = (
        getattr(lp_class, name)
        for name in ("__init__", "start", "enter", "pivot", "leaving", "_lex", "_stand_in")
    )

    def denominator(lp, i):
        terms = lp.terms.get(i)
        return lp.scales[i] if terms is None else terms[7] * terms[8]

    def with_full(lp, costs, columns, rhs, oracle):
        init(lp, costs, columns, rhs, oracle)
        lp.full = dense_simplex.FullWidthLp(costs, columns, rhs, oracle)

    def started(lp, basis):
        start(lp, basis)
        lp.full.start(basis)
        lp.start_columns = [lp.full._column(j) for j in lp.start_basis]

    def entered(lp, j):
        enter(lp, j)
        if hasattr(lp, "start_basis"):
            lp.full.enter(j)

    def pivoted(lp, row, j):
        if hasattr(lp, "start_basis"):
            counts["derived_left"] += row in lp.derived
            counts["t_left"] += lp.basis[row] == lp.t
            counts["slack_in"] += j in lp.slacks
            lp.full.pivot(row, j)
        pivot(lp, row, j)

    def first_listed(candidates):
        # The first call of a ratio test gets its listed candidates.
        if listed[0] is None:
            listed[0] = list(candidates)
        return kit_least(candidates)

    def drawn_stand_in(lp, points):
        got = stand_in(lp, points)
        drawn.append((*got, list(points)))
        return got

    def checked_leaving(lp):
        listed[0], drawn[:], lexed_before = None, [], lexed[0]
        got = leaving(lp)
        m, full = lp.m, lp.full
        found = {i: (a, v) for i, a, v in listed[0]}
        q = lp.where.get(lp.t)
        alpha_q = 0 if q is None else full_value(lp, q, m)
        clones = lp.atom_entered and alpha_q > 0
        points = []
        for i in range(m):
            full_line, full_scale = full.tableau[i], full.scales[i]
            alpha, x = Fraction(full_line[m], full_scale), Fraction(full_line[-1], full_scale)
            if i in lp.derived:
                counts["derived"] += 1
                # The row formed when it leaves or is read out: live entries, slot, x_B.
                line, scale = lp._row(i)
                want = [Fraction(full_line[c], full_scale) for c in lp.live] + [alpha, x]
                assert [Fraction(v, scale) for v in line] == want
            if i in found:
                a, v = found[i]
                d = denominator(lp, i)
                assert (Fraction(a, d), Fraction(v, d)) == (alpha, x)
            elif alpha > 0:
                assert clones and is_clone(lp, i)
                ratio, ratio_q = x / alpha, full_value(lp, q, -1) / alpha_q
                if lp.derived[i][7]:
                    counts["bracketed"] += 1
                    assert lp.derived[i][7] > 0 and ratio > ratio_q
                else:
                    counts["point"] += 1
                    assert ratio == ratio_q
                    points.append(i)
        if drawn:
            (i, below, offered), = drawn
            assert sorted(offered) == points
            rows = {n: lex_row(lp, n) for n in [q, *points]}
            assert min(points, key=rows.get) == i
            assert below == (rows[i] < rows[q])
            counts["stand_in"] += 1
            counts["stand_in_unbroken"] += lexed[0] == lexed_before
        assert got == full.leaving()
        assert_clone_keys(lp, counts)
        if q is not None and full.tableau[q][-1] > 0 and pairs is not None:
            counts["t_positive"] += 1
            assert len(lp.pairs) == pairs
            assert len(lp.stored) == m + 1 - pairs == len(lp.lines)
        return got

    def checked_lex(lp, rows, k):
        k_out, values = lex(lp, rows, k)
        columns = [lp.full._column(lp.start_basis[n]) for n in range(k, k_out + 1)]
        for column in columns[:-1]:
            assert not any(full_value(lp, i, column) for i in rows)
        want = [full_value(lp, i, columns[-1]) for i in rows]
        assert [Fraction(v, denominator(lp, i)) for i, v in zip(rows, values)] == want
        q = lp.where.get(lp.t)
        if not k and lp.atom_entered and q in rows and full_value(lp, q, lp.m) > 0:
            # A first tie-break: the rows tied at the least ratio.
            assert not all(i == q or is_clone(lp, i) for i in rows)
        counts["lex"] += any(i in lp.derived for i in rows)
        lexed[0] += 1
        return k_out, values

    with pytest.MonkeyPatch.context() as patch:
        for name, method in (
            ("__init__", with_full), ("start", started), ("enter", entered),
            ("pivot", pivoted), ("leaving", checked_leaving), ("_lex", checked_lex),
            ("_stand_in", drawn_stand_in),
        ):
            patch.setattr(lp_class, name, method)
        patch.setattr(simplex, "_least", first_listed)
        yield counts


def eq_count(scenario):
    return sum(c.relation == EQ for c in scenario.constraints)


@settings(deadline=None, max_examples=150)
@given(relaxed_scenarios(), st.sampled_from(["lo", "hi"]))
@example(scenario_from_document(exchangeable_document(4)), "lo")
def test_derived_rows_are_the_full_rows_at_every_pivot(scenario, endpoint):
    """Mixed ``eq``/``le``/``ge`` targets, bracketed and at a bracket's end."""
    for point in (scenario, corner(scenario, endpoint)):
        with derived_compared(eq_count(point)):
            feasibility.solve(point)


@pytest.mark.parametrize(
    "document, slack_in, t_left",
    [
        (reference.wide_document(3, 6, True), 1, 0),
        (reference.wide_document(11, 5, False), 0, 1),
        (exchangeable_document(5), 0, 0),
    ],
    ids=["planted-6-slack-reenters", "feasible-5-t-leaves", "exchangeable-5"],
)
def test_derived_rows_of_wide_documents_are_the_full_rows(document, slack_in, t_left):
    """A slack re-enters, t leaves, derived rows leave and break ties; each check holds throughout."""
    scenario = scenario_from_document(document)
    with derived_compared(eq_count(scenario)) as counts:
        feasibility.solve(scenario)
    assert (counts["slack_in"], counts["t_left"]) == (slack_in, t_left)
    assert counts["derived"] > 100 and counts["derived_left"] > 0 and counts["t_positive"] > 10
    # Point clones are passed over at every keyed pivot; bracketed ones
    # only where a target is bracketed.
    assert counts["point"] > 0 and counts["keyed"] > 10
    assert (counts["bracketed"] > 0) == any("sqrt" in c["value"] for c in document["constraints"])
    # T's row ties at the least ratio on the paths without a slack coming
    # in; each such tie is settled by κ alone.
    assert counts["stand_in"] == counts["stand_in_unbroken"]
    assert (counts["stand_in"] > 0) == (not slack_in)


@st.composite
def mixed_wide_scenarios(draw):
    """A wide document at n = 4 or 5 whose targets are drawn loosened, bracketed or kept.

    A loosened target moves 1/10 out into a ``le`` or ``ge``; a
    bracketed one moves by √2/1000, an irrational offset whose bracket
    has width; a kept one stays an ``eq`` point.
    """
    seed = draw(st.integers(min_value=0, max_value=99))
    n = draw(st.integers(min_value=4, max_value=5))
    document = reference.wide_document(seed, n, draw(st.booleans()))
    for constraint in document["constraints"]:
        edit = draw(st.sampled_from(["keep", "keep", "le", "ge", "bracket"]))
        value = constraint["value"]
        if edit == "le":
            constraint["relation"], constraint["value"] = "le", f"({value}) + 1/10"
        elif edit == "ge":
            constraint["relation"], constraint["value"] = "ge", f"({value}) - 1/10"
        elif edit == "bracket":
            constraint["value"] = f"({value}) + sqrt(2)/1000"
    return scenario_from_document(document)


#: Explicit LPs with a pair (rows of one mask apart on one dense column)
#: whose clones meet an atom's pivot with α_q < 0, and a slack's pivot.
_ALPHA_Q_NEGATIVE = (
    [3, -3, 0, 0, 0],
    [{0: 2, 1: -1, 2: 2}, {0: -2}, {0: -1}, {1: -1}, {2: -1}],
    [Fraction(-7, 3), Fraction(-5, 3), Fraction(-5, 4)],
    [3, 4, 5],
    simplex.WalshAtoms(0, [0, 0, 0]),
)
_SLACK_ENTERS = (
    [-3, -1, -3, 0, 0, 0, 0],
    [{0: 2, 1: 1, 2: 1, 3: 2}, {0: 2}, {0: 1, 1: -1, 2: 1, 3: -2}, {0: 1}, {1: 1}, {2: 1}, {3: 1}],
    [2, Fraction(3, 2), 1, Fraction(1, 3)],
    [5, 8, 7, 6],
    simplex.WalshAtoms(1, [1, 0, 0, 0]),
)
#: A clone with cb < 0 (its ratio below T's) leaves at an atom's pivot.
_CLONE_BELOW_T = (
    [2, 0, 0],
    [{0: 1, 1: -1}, {0: -1}, {1: 1}],
    [Fraction(1, 2), Fraction(-1, 3)],
    [4, 6],
    simplex.WalshAtoms(2, [0, 0]),
)


def decided_with_clones_keyed(case):
    """Decide a scenario, or solve an explicit LP, under :func:`derived_compared`; returns its counts."""
    if isinstance(case, tuple):
        with derived_compared(None) as counts:
            try:
                _solve_from_basis(*case)
            except ValueError:
                pass  # a singular or primal-infeasible start
        return counts
    with derived_compared(eq_count(case)) as counts:
        feasibility.solve(case)
    return counts


@settings(deadline=None, max_examples=60)
@given(st.one_of(mixed_wide_scenarios(), relaxed_scenarios(), explicit_lps()))
@example(scenario_from_document(reference.wide_document(3, 6, True)))
@example(scenario_from_document(exchangeable_document(4)))
@example(_ALPHA_Q_NEGATIVE)
@example(_SLACK_ENTERS)
@example(_CLONE_BELOW_T)
def test_kappa_orders_t_and_its_clones_as_the_dense_rows(case):
    """:func:`assert_clone_keys` at every pivot, beside every check of :func:`derived_compared`.

    Mixed ``eq``/``le``/``ge`` and bracketed targets, and explicit LPs.
    """
    decided_with_clones_keyed(case)


def test_kappa_keys_meet_every_kind_of_pivot():
    """The κ check is reached, and so is each pivot it leaves to the per-row formula.

    In the margin LP an atom's reduced cost is −α_q while T is basic, so
    every atom that enters then has α_q > 0; α_q < 0 takes an LP with
    other costs.  The planted n = 6 path and one explicit LP bring a
    slack in with clones standing.
    """
    mixed = reference.wide_document(7, 5, False)
    for k, constraint in enumerate(mixed["constraints"]):
        if k % 3 == 1:
            constraint["relation"], constraint["value"] = "le", f"({constraint['value']}) + 1/10"
        elif k % 3 == 2:
            constraint["value"] = f"({constraint['value']}) + sqrt(2)/1000"
    documents = [reference.wide_document(3, 6, True), exchangeable_document(5), mixed]
    cases = [*map(scenario_from_document, documents), _ALPHA_Q_NEGATIVE, _SLACK_ENTERS]
    counts = [decided_with_clones_keyed(case) for case in cases]
    assert all(got["keyed"] > 10 for got in counts[:3])
    assert sum(got["clones_keyed"] for got in counts) > 300
    assert counts[0]["column_in"] > 0 and counts[4]["column_in"] > 0
    assert counts[3]["alpha_q_nonpositive"] > 0


def test_no_tie_of_t_and_its_clones_reaches_the_tie_break():
    """On any round, ``_lex`` never sees only T's row and clones.

    At an atom's pivot with α_q > 0 the point clones are one stand-in,
    settled against T's row by κ on whichever round the tie comes down
    to the two.  On the 64 wide-moments documents of seed 4242 the
    tie-break runs at most 218 times over at most 446 tied rows (1,079
    times over 10,722 rows when every derived row was read).  On E(A) =
    E(B) = 0 a first round drops a stored row and leaves T's row and the
    stand-in for the second.
    """
    lex, calls, rows_read = simplex._RevisedLp._lex, [0], [0]

    def counted(lp, rows, k):
        q = lp.where.get(lp.t)
        slot = len(lp.live)
        if lp.atom_entered and q in rows and lp.tableau[q][slot] > 0:
            assert not all(i == q or is_clone(lp, i) for i in rows)
        calls[0] += 1
        rows_read[0] += len(rows)
        return lex(lp, rows, k)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex._RevisedLp, "_lex", counted)
        for k in range(32):
            for n, planted in ((5, True), (6, False)):
                document = reference.wide_document(4242, n, planted, k)
                feasibility.solve_robust(scenario_from_document(document))
        assert 0 < calls[0] <= 218 and rows_read[0] <= 446
        assert feasibility.solve(make_scenario(["A", "B"], [(["A"], EQ, 0), (["B"], EQ, 0)])).verdict == FEASIBLE


# --- bundled scenarios and closed-form LPs ------------------------------------


@pytest.mark.parametrize("name", sorted(p.name for p in scenario_dir().glob("*.json")))
@pytest.mark.parametrize("command", ["check", "margin"])
def test_bundled_scenarios_match_reference(compared, command, name):
    argv = [command, "--scenario", str(scenario_dir() / name), "--format", "json"]
    assert run(argv, stream=io.StringIO()) in DECIDED
    assert compared[0] >= 1


# The id keeps the name this case had when the upper-ghz and bell-system
# cases (LPs that closed forms replaced) stood before it as argv0 and argv1.
@pytest.mark.parametrize(
    "argv", [["ghz-epsilon", "--epsilon", "1/4", "--oracle"]], ids=["argv2"]
)
def test_closed_form_lps_match_reference(compared, argv):
    assert run(argv + ["--format", "json"], stream=io.StringIO()) in DECIDED
    assert compared[0] >= 1


def _permutation_average(space, values):
    """Average atom values over all permutations of the variables."""
    perms = list(itertools.permutations(range(space.n)))
    averaged = []
    for atom in space.atoms():
        signature = space.signature(atom)
        images = (
            space.atom_index("".join(signature[j] for j in perm)) for perm in perms
        )
        averaged.append(sum((values[i] for i in images), Fraction(0)) / len(perms))
    return tuple(averaged)


def _integer_two_phase(costs, rows, rhs, width):
    """The kit's cold feasibility solve for a start basis, then its one-phase simplex.

    Returns the result and its point over every column.
    """
    start = _solve_lp(rows, rhs)
    assert len(start.basis) == len(rows)
    columns = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(width)]
    result = _solve_from_basis(costs, columns, rhs, list(start.basis))
    return result, dense_simplex.full_point(result, width)


def _fraction_two_phase(costs, rows, rhs, width):
    """The Fraction reference's two-phase solve; returns the result and its point."""
    result = fraction_simplex.solve_lp(costs, rows, rhs)
    return result, result.x


@pytest.mark.parametrize(
    "solver", [_integer_two_phase, _fraction_two_phase], ids=["integer", "fraction"]
)
def test_upper_ghz_witness_is_the_symmetrized_min_mass_optimum(solver):
    """The hard-coded ``upper-ghz`` witness is the LP's symmetrized optimum.

    Minimize the total atom mass subject to each +1 sign event summing to
    at least 1, the atom-level product expectation -1 and total mass at
    least 1, then average the optimum over variable permutations.  The
    ``integer`` case runs the kit's two solvers in turn: phase 1 finds a
    feasible basis, and the revised simplex optimizes from it.
    """
    space = build_space(["A", "B", "C"])
    rows = [
        [1 if a in sign_event(space, v, 1) else 0 for a in space.atoms()]
        for v in space.variables
    ]
    rows += [moment_coefficients(space, space.variables), [1] * space.atom_count]
    relations = [simplex.GE] * 3 + [simplex.EQ, simplex.GE]
    std_rows, width = dense_simplex.to_standard_form(rows, relations)
    costs = [1] * space.atom_count + [0] * (width - space.atom_count)
    result, x = solver(costs, std_rows, [1, 1, 1, -1, 1], width)
    assert result.status == simplex.OPTIMAL
    assert result.objective == Fraction(7, 5)
    witness = solve_upper_ghz_witness()
    optimum = _permutation_average(space, x[: space.atom_count])
    assert witness.atom_measure.values == optimum


def test_standard_form_appends_slack_and_surplus_columns():
    rows, width = dense_simplex.to_standard_form(
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
    stays 1 and only the moment check can see it.  Each edit is to the
    atom's basic entry of x_B; an atom of the witness is basic, as it
    holds mass.
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

    def tampered(costs, columns, rhs, basis, characters=None):
        result = _solve_from_basis(costs, columns, rhs, basis, characters)
        n = len(honest.witness.values)
        # Untampered, x_B lifts to the honest witness.
        assert dense_simplex.full_point(result, n + len(columns))[:n] == list(honest.witness.values)
        x = list(result.x)
        x[result.basis.index(plus)] += delta
        if moved:
            x[result.basis.index(minus)] -= delta
        return simplex.LpResult(
            result.status,
            x,
            result.objective,
            pivots=result.pivots,
            basis=result.basis,
            inverse=result.inverse,
            duals=result.duals,
        )

    monkeypatch.setattr(simplex, "solve_from_basis", tampered)
    with pytest.raises(AssertionError, match="witness"):
        feasibility.solve(scenario)


# --- the certificate check against the dense rows -------------------------------

_multiplier = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(deadline=None, max_examples=300)
@given(
    relaxed_scenarios(),
    st.sampled_from(["box", "lo", "hi"]),
    st.sampled_from(["produced", "perturbed", "sign-flipped"]),
    st.integers(min_value=0, max_value=7),
    _multiplier.filter(bool),
    st.lists(_multiplier, min_size=8, max_size=8),
)
@example(ghz_scenario(), "box", "produced", 0, 1, [0] * 8)
@example(ghz_scenario(), "box", "perturbed", 0, Fraction(1, 4), [0] * 8)
@example(bell_scenario(), "box", "sign-flipped", 1, 1, [0] * 8)
def test_certificate_check_matches_the_dense_rows(scenario, endpoint, edit, pick, delta, drawn):
    """``verify_certificate``'s one transform decides as the dense rows do.

    The certificate is the one ``solve`` produced, or ``drawn`` when the
    verdict has none; ``perturbed`` adds ``delta`` to one multiplier and
    ``sign-flipped`` negates one.  The dense rule
    (``dense_simplex.verify_certificate_by_rows``) must give the same
    answer on each, and a produced certificate passes both.
    """
    if endpoint != "box":
        scenario = corner(scenario, endpoint)
    rows = 1 + len(scenario.constraints)
    produced = feasibility.solve(scenario).certificate
    y = list(produced or drawn[:rows])
    if edit == "perturbed":
        y[pick % rows] += delta
    elif edit == "sign-flipped":
        y[pick % rows] = -y[pick % rows]
    got = feasibility.verify_certificate(scenario, y)
    assert got == dense_simplex.verify_certificate_by_rows(scenario, y)
    if produced and edit == "produced":
        assert got


# --- the atom oracle against a direct sum per atom -----------------------------


class BruteForceAtoms:
    """The atom oracle's questions answered by a direct sum per atom, for n ≤ 8.

    Each atom's character on each row is its own parity, and each answer
    is read off one list over the atoms, so nothing is shared with
    ``simplex.WalshAtoms`` but the interface.
    """

    def __init__(self, bits, masks):
        self.bits, self.masks, self.atoms = bits, masks, 1 << bits

    def column(self, atom):
        return [(-1) ** bin(atom & mask).count("1") for mask in self.masks]

    def _least(self, values):
        least = min(values)
        return least, values.index(least)

    def least(self, weights):
        weights = list(weights)
        columns = [self.column(a) for a in range(self.atoms)]
        return self._least([sum(w * column[r] for r, w in weights) for column in columns])

    def least_worst(self, rows):
        rows = list(rows)
        columns = [self.column(a) for a in range(self.atoms)]
        return self._least(
            [max(plus if column[r] == 1 else minus for r, plus, minus in rows) for column in columns]
        )

    def moments(self, masses):
        masses = list(masses)
        return [sum(v * self.column(a)[r] for a, v in masses) for r in range(len(self.masks))]


@st.composite
def oracle_questions(draw):
    """An oracle's rows and one question of each kind, in small integers so atoms tie."""
    bits = draw(st.integers(min_value=0, max_value=6))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << bits) - 1), min_size=1, max_size=6))
    row = st.integers(min_value=0, max_value=len(masks) - 1)
    small = st.integers(min_value=-3, max_value=3)
    weights = draw(st.lists(st.tuples(row, small), max_size=8))
    worst = draw(st.lists(st.tuples(row, small, small), min_size=1, max_size=8))
    atom = st.integers(min_value=0, max_value=(1 << bits) - 1)
    masses = draw(st.lists(st.tuples(atom, small), max_size=8))
    return bits, masks, weights, worst, masses


@settings(deadline=None, max_examples=400)
@given(oracle_questions())
@example((2, [0, 3, 3], [(1, 1), (2, -1)], [(0, 0, 0)], []))  # every atom ties
@example((3, [5, 5], [(0, 2), (1, -2)], [(0, 1, -1), (1, -1, 1)], [(5, 2), (5, -1), (2, 3)]))
# Atoms 1 and 3 tie at the least worst, cleared by both masks' offers: atom 1 wins.
@example((2, [1, 2], [], [(0, 2, 0), (1, 0, 0)], []))
@example((0, [0, 0], [(0, 1), (1, -1)], [(0, 2, -1), (1, -3, 5)], [(0, 3)]))  # one atom
def test_walsh_oracle_answers_as_the_direct_sum(question):
    bits, masks, weights, worst, masses = question
    walsh, brute = simplex.WalshAtoms(bits, masks), BruteForceAtoms(bits, masks)
    assert walsh.least(iter(weights)) == brute.least(weights)
    assert walsh.least_worst(iter(worst)) == brute.least_worst(worst)
    assert walsh.moments(iter(masses)) == brute.moments(masses)
    for atom in range(walsh.atoms):
        assert walsh.column(atom) == brute.column(atom)


@settings(deadline=None, max_examples=100)
@given(st.one_of(relaxed_scenarios(), _wide_scenarios.filter(lambda s: s.space.n <= 6)))
@example(scenario_from_document(reference.wide_document(3, 6, True)))
@example(scenario_from_document(exchangeable_document(5)))
def test_decisions_on_the_brute_force_oracle_are_identical(scenario):
    """Every LpResult and the outcome, with the brute-force oracle in every place atoms are enumerated.

    With it in place the Walsh transform and the crash's bitset builder
    must not run at all: nothing else on the decision path enumerates
    the atoms.  The kept shapes are dropped on the way in and out, so
    the decision builds its shape on the brute-force oracle and no later
    one keeps it.
    """
    results = []

    def kept(*args):
        results.append(_solve_from_basis(*args))
        return results[-1]

    def refused(*args):
        raise AssertionError("the atoms are enumerated outside the oracle")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "solve_from_basis", kept)
        want = feasibility.solve(scenario)
        walsh, results[:] = list(results), []
        patch.setattr(simplex, "WalshAtoms", BruteForceAtoms)
        patch.setattr(simplex, "_walsh", refused)
        patch.setattr(simplex, "_plus_atoms", refused)
        feasibility._shape.cache_clear()
        try:
            got = feasibility.solve(scenario)
        finally:
            feasibility._shape.cache_clear()
    assert got == want
    assert results == walsh and results
