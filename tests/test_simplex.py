import math
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dense_simplex
import fraction_simplex
from contextuality_kit import feasibility, simplex, sweep
from contextuality_kit.numerics import parse_and_evaluate
from dense_simplex import full_point, integer_rows, phase_one_point


def test_degenerate_equalities():
    # x = 1 stated twice plus x + y = 1: consistent, y forced to 0
    rows, rhs = [[1, 0], [1, 0], [1, 1]], [1, 1, 1]
    result = sweep.solve_lp(rows, rhs)
    assert result.status == simplex.OPTIMAL
    assert len(result.basis) == 2  # the repeated row is dropped
    assert phase_one_point(result, rhs, 2) == [Fraction(1), Fraction(0)]


def test_infeasible_with_farkas():
    # x + y = 1 and x + y = 2 cannot both hold
    result = sweep.solve_lp([[1, 1], [1, 1]], [1, 2])
    assert result.status == simplex.INFEASIBLE
    y = result.duals
    # direct re-verification: combined coefficients <= 0, combined rhs > 0
    combined = [y[0] + y[1], y[0] + y[1]]
    assert all(c <= 0 for c in combined)
    assert y[0] * 1 + y[1] * 2 > 0


def test_negative_rhs_flip():
    # -x = -3 is x = 3
    result = sweep.solve_lp([[-1]], [-3])
    assert result.status == simplex.OPTIMAL
    assert phase_one_point(result, [-3], 1) == [Fraction(3)]


def test_feasibility_only_returns_bfs():
    result = sweep.solve_lp([[1, 1, 1]], [1])
    assert result.status == simplex.OPTIMAL
    x = phase_one_point(result, [1], 3)
    assert sum(x) == 1
    assert all(v >= 0 for v in x)


def test_exact_fractions_survive():
    # 3z = 1  -> z = 1/3 exactly
    result = sweep.solve_lp([[3]], [1])
    assert phase_one_point(result, [1], 1) == [Fraction(1, 3)]


_small = st.integers(min_value=-3, max_value=3)


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.lists(_small, min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(_small, min_size=1, max_size=4),
)
def test_farkas_certificates_always_verify(rows, rhs):
    m = min(len(rows), len(rhs))
    rows, rhs = rows[:m], rhs[:m]
    result = sweep.solve_lp(rows, rhs)
    if result.status == simplex.OPTIMAL:
        # solution satisfies every row exactly
        x = phase_one_point(result, rhs, 3)
        for row, b in zip(rows, rhs):
            assert sum(Fraction(c) * v for c, v in zip(row, x)) == b
        assert all(v >= 0 for v in x)
    else:
        assert result.status == simplex.INFEASIBLE
        y = result.duals
        combined = [
            sum(yi * row[j] for yi, row in zip(y, rows)) for j in range(3)
        ]
        assert all(c <= 0 for c in combined)
        assert sum(yi * b for yi, b in zip(y, rhs)) > 0


def _columns(rows):
    """The columns of ``rows``, each as a dict from row to entry."""
    return [dict(enumerate(column)) for column in zip(*rows)]


def test_solve_from_basis_rejects_bad_starts():
    columns = _columns([[1, 1, 0], [1, -1, 1]])
    rhs = [1, Fraction(1, 2)]
    costs = [0, 1, 0]
    # Columns 0 and 2: x0 = 1, x2 = -1/2, not primal-feasible.
    with pytest.raises(ValueError, match="feasible"):
        simplex.solve_from_basis(costs, columns, rhs, [0, 2])
    # Column 0 twice: linearly dependent.
    with pytest.raises(ValueError, match="singular"):
        simplex.solve_from_basis(costs, columns, rhs, [0, 0])
    # Columns 1 and 2 are a feasible start: x1 = 1, x2 = 3/2.  The
    # optimum has x2 = 2·x1 - 1/2 = 0.
    result = simplex.solve_from_basis(costs, columns, rhs, [1, 2])
    assert result.status == simplex.OPTIMAL
    assert result.objective == Fraction(1, 4)
    assert full_point(result, 3) == [Fraction(3, 4), Fraction(1, 4), 0]
    # No positive entry under an improving column.
    assert simplex.solve_from_basis([-1, 0], [{}, {0: 1}], [1], [1]).status == (
        simplex.UNBOUNDED
    )


def test_solve_from_basis_terminates_on_beale_cycling_example():
    """Beale's LP cycles under Dantzig's rule alone from this basis.

    Its first two rows and its costs are Beale's times 4, so they are
    integers; scaling a row or every cost changes no pivot choice.  The
    first two rows have right-hand side 0, so Dantzig's first steps are
    degenerate and their ratio tests tie; the lexicographic tie-break
    on the rows of B⁻¹B₀ keeps the solve from cycling, and it reaches
    the optimum, Beale's -5/4 times 4.
    """
    rows = [
        [4, 0, 0, 1, -32, -4, 36],
        [0, 4, 0, 2, -48, -2, 12],
        [0, 0, 1, 0, 0, 1, 0],
    ]
    rhs = [0, 0, 1]
    costs = [0, 0, 0, -3, 80, -2, 24]
    result = simplex.solve_from_basis(costs, _columns(rows), rhs, [0, 1, 2])
    assert result.status == simplex.OPTIMAL
    assert result.objective == -5
    assert result.objective == fraction_simplex.solve_lp(costs, rows, rhs).objective


@pytest.mark.parametrize("where", ["column", "cost", "length"])
def test_solve_from_basis_takes_only_integer_columns_and_costs(where):
    columns = _columns([[1, 1], [0, 1]])
    costs = [0, 1]
    error, match = TypeError, "integer"
    if where == "column":
        columns[1][0] = Fraction(1, 2)
    elif where == "cost":
        costs[1] = Fraction(1, 2)
    else:
        # One cost per explicit column: a list of another length is refused.
        costs.append(0)
        error, match = ValueError, "3 costs for 2 explicit columns"
    with pytest.raises(error, match=match):
        simplex.solve_from_basis(costs, columns, [1, 0], [0, 1])


@pytest.mark.parametrize(
    "solve",
    [simplex.solve_from_basis, dense_simplex.solve_full_width],
    ids=["narrow", "full-width"],
)
@pytest.mark.parametrize("row", [-1, 1])
def test_solve_from_basis_refuses_a_column_entry_off_the_rows(solve, row):
    """A row key of -1 would alias the last row, and one of m is past it; both are refused."""
    with pytest.raises(ValueError, match="off the rows 0..0"):
        solve([0], [{0: 1, row: 3}], [1], [0])


@pytest.mark.parametrize("bits", [0, 1, 2, 3, 5])
def test_walsh_transform_sums_characters(bits):
    values = [(7 * k) % 5 - 2 for k in range(1 << bits)]
    want = [
        sum(v * (-1) ** (a & k).bit_count() for k, v in enumerate(values))
        for a in range(1 << bits)
    ]
    assert simplex._walsh(values, bits) == want


def test_character_columns_equal_their_explicit_form():
    # The margin LP of E(A) >= 1/2 and E(A) <= -1/2 over two variables:
    # rows normalization (mask 0) and both sides of E(A) (mask 2), min t
    # over the atoms, t and the two slacks.  Atoms cost 0; as characters
    # they are not written out, and written out they are four columns.
    masks = [0, 2, 2]
    t, slacks = {1: 1, 2: -1}, [{1: -1}, {2: 1}]
    atoms = _columns([[1, 1, 1, 1], [1, 1, -1, -1], [1, 1, -1, -1]])
    rhs = [1, Fraction(1, 2), Fraction(-1, 2)]
    start = [0, 5, 4]  # atom 0, the ge side's slack, t = 3/2
    implicit = simplex.solve_from_basis([1, 0, 0], [t, *slacks], rhs, start, simplex.WalshAtoms(2, masks))
    explicit = simplex.solve_from_basis([0] * 4 + [1, 0, 0], atoms + [t, *slacks], rhs, start)
    assert implicit == explicit
    assert implicit.objective == Fraction(1, 2)
    half = Fraction(1, 2)
    assert full_point(implicit, 7) == [half, 0, half, 0, half, 0, 0]


def test_settle_reuses_an_optimal_basis_or_declines():
    # min x1 + x2  s.t.  x0 + x1 = 1,  x0 - x2 = b1.
    columns = _columns([[1, 1, 0], [1, 0, -1]])
    costs = [0, 1, 1]
    result = simplex.solve_from_basis(costs, columns, [1, Fraction(1, 2)], [0, 2])
    assert result.objective == Fraction(1, 2)
    moved = simplex.settle(result, [1, Fraction(1, 3)])
    cold = simplex.solve_from_basis(costs, columns, [1, Fraction(1, 3)], [0, 2])
    assert (full_point(moved, 3), moved.objective) == (full_point(cold, 3), cold.objective)
    assert len(moved.x) == len(moved.basis)
    assert moved.duals == cold.duals == result.duals
    # At b1 = 2, x2 = 1 - 2 < 0: the basis does not settle it.
    assert simplex.settle(result, [1, 2]) is None


#: Mostly zeros, as in the kit's B⁻¹ rows; pivots of either sign and
#: with or without a factor in common with the other rows' entries.
_sparse_entries = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, -3, 4, 6, -9])


@st.composite
def _pivot_problems(draw):
    m = draw(st.integers(min_value=2, max_value=5))
    width = draw(st.integers(min_value=2, max_value=7))
    tableau = [draw(st.lists(_sparse_entries, min_size=width, max_size=width)) for _ in range(m)]
    scales = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=m, max_size=m))
    row = draw(st.integers(min_value=0, max_value=m - 1))
    col = draw(st.integers(min_value=0, max_value=width - 1))
    assume(tableau[row][col])
    return tableau, scales, row, col


@settings(deadline=None, max_examples=300)
@given(_pivot_problems())
# A negative pivot, -2 over 1; row 1's f = 3 shares no factor with it (q = 2).
@example(([[-2, 1, 0], [3, 0, 1]], [1, 2], 0, 0))
# A pivot of 2 whose f = 4 and f = -6 it divides (q = 1), one row untouched.
@example(([[2, 1, 0, 3], [4, 0, 1, 0], [-6, 5, 0, 1], [0, 2, 2, 0]], [3, 5, 2, 7], 0, 0))
# Row 1's scale passes the bound and is reduced by 3; row 2 keeps its factor 3.
@example(([[2, 1], [6, 3 << 61], [6, 9], [4, 2]], [1, 3 << 61, 3, 2], 0, 0))
def test_pivot_equals_a_fraction_pivot(problem):
    tableau, scales, row, col = problem
    values = [[Fraction(v, s) for v in line] for line, s in zip(tableau, scales)]
    prow = [v / values[row][col] for v in values[row]]
    expected = [
        prow if i == row else [a - line[col] * b for a, b in zip(line, prow)]
        for i, line in enumerate(values)
    ]
    ints, pivoted_scales, basis = [list(line) for line in tableau], list(scales), [-1] * len(scales)
    simplex._pivot(ints, pivoted_scales, basis, row, col)
    assert [[Fraction(v, s) for v in line] for line, s in zip(ints, pivoted_scales)] == expected
    assert basis[row] == col
    # In lowest terms: the pivot row, and each updated row that is the
    # objective row or whose scale passed the bound.
    objective = len(ints) - 1
    for i, (line, scale, before) in enumerate(zip(ints, pivoted_scales, tableau)):
        if i == row or (
            before[col] and (i == objective or scale.bit_length() > simplex._REDUCE_BITS)
        ):
            assert math.gcd(scale, *line) == 1


def test_bracket_denominators_stay_out_of_the_inverse():
    # Singles-plus-pairs over five variables with a CHSH cycle A-C, A-D,
    # B-C, B-D at sqrt(2)/2 (one negated): the √2 brackets' denominators
    # (40 bits and more) belong to x_B alone.
    names = "ABCDE"
    cycle = {"AC": "sqrt(2)/2", "AD": "sqrt(2)/2", "BC": "sqrt(2)/2", "BD": "-sqrt(2)/2"}
    pairs = [a + b for i, a in enumerate(names) for b in names[i + 1:]]
    scenario = feasibility.make_scenario(
        names,
        [((v,), "eq", 0) for v in names]
        + [(tuple(pair), "eq", parse_and_evaluate(cycle.get(pair, "0"))) for pair in pairs],
    )
    result = feasibility._margin_lp(feasibility._MomentLp(scenario), feasibility._box(scenario))
    assert result.objective > 0
    for line, scale in result.inverse:
        assert max(abs(v) for v in line).bit_length() <= 16
        assert scale.bit_length() <= 16


# --- solve_many: warm sweeps over right-hand sides ---------------------------


def _cold_statuses(rows, rhs_list):
    """Each right-hand side's status from the tests' Bland phase 1, not the sweep's dual simplex."""
    return [dense_simplex.solve_lp(rows, rhs).status for rhs in rhs_list]


def _counting_pivots(monkeypatch):
    """Count the pivots ``solve_many`` takes, crash and dual; returns the counter.

    The crash memo is cleared first, so the crash's pivots are counted.
    """
    sweep._crash.cache_clear()
    calls = [0]
    original = sweep._pivot

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(sweep, "_pivot", counted)
    return calls


def _no_cold_solve(*args):
    raise AssertionError("solve_many ran a cold solve")


def test_phase_one_takes_only_integer_rows():
    rows = [[1, Fraction(1, 2)]]
    with pytest.raises(TypeError, match="integer"):
        sweep.solve_lp(rows, [1])
    with pytest.raises(TypeError, match="integer"):
        sweep.solve_many(rows, [[1], [2]])


def test_solve_many_rechecks_dropped_rows():
    # Row 1 repeats row 0, so the first cold solve drops it as redundant.
    # The kept basis still gives x >= 0 on row 0 at (1, 2), but row 1
    # then fails: the sweep must not call that point feasible.
    rows = [[1, 1], [1, 1]]
    rhs_list = [[1, 1], [1, 2], [2, 2]]
    first = sweep.solve_lp(rows, rhs_list[0])
    assert len(first.basis) == 1
    assert sweep.solve_many(rows, rhs_list) == [
        simplex.OPTIMAL,
        simplex.INFEASIBLE,
        simplex.OPTIMAL,
    ]


@pytest.mark.parametrize(
    "rows, row_scales, pivots",
    [
        # Unimodular: the crash basis (2 pivots) is feasible at every
        # feasible point, and its row for x1 = b1 < 0 has no negative
        # entry, so the first infeasible point's Farkas vector settles
        # the rest with no dual pivot.
        pytest.param([[1, 1, 0], [0, 1, 1]], (1, 1), 2, id="rows0-2"),
        # x0/2 + x1 = b0 and 2·x1/3 + 3·x2 = b1 times 2 and 3, a basis of
        # determinant 2: the crash basis holds while x0 = 2 - 3·b1 >= 0,
        # then one dual pivot brings x2 in, and one more reaches the
        # Farkas row at the first infeasible point.
        pytest.param([[1, 2, 0], [0, 2, 9]], (2, 3), 4, id="rows1-3"),
    ],
)
def test_solve_many_reuses_evidence(monkeypatch, rows, row_scales, pivots):
    monkeypatch.setattr(sweep, "solve_lp", _no_cold_solve)
    calls = _counting_pivots(monkeypatch)
    feasible = [[1, Fraction(k, 4)] for k in range(5)]
    infeasible = [[1, -Fraction(k + 1, 4)] for k in range(5)]
    rhs_list = [list(map(mul, row_scales, rhs)) for rhs in feasible + infeasible]
    statuses = sweep.solve_many(rows, rhs_list)
    assert statuses == [simplex.OPTIMAL] * 5 + [simplex.INFEASIBLE] * 5
    assert calls[0] == pivots


def test_solve_many_scales_fraction_rows():
    # x0/2 + x1/3 = k/6 and 2·x1/3 - x2/5 = (j - 2)/5, times 6 and 15.
    rows = [[3, 2, 0], [0, 10, -3]]
    rhs_list = [[k, 3 * (j - 2)] for k in range(4) for j in range(5)]
    assert sweep.solve_many(rows, rhs_list) == _cold_statuses(rows, rhs_list)


_entry = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(deadline=None, max_examples=150)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.tuples(
            st.lists(st.lists(_entry, min_size=3, max_size=3), min_size=m, max_size=m),
            st.lists(st.lists(_entry, min_size=m, max_size=m), min_size=1, max_size=8),
        )
    )
)
def test_solve_many_statuses_equal_cold_statuses(problem):
    rows, rhs_list = integer_rows(*problem)
    assert sweep.solve_many(rows, rhs_list) == _cold_statuses(rows, rhs_list)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda m: st.tuples(
            st.lists(st.lists(_entry, min_size=4, max_size=4), min_size=m, max_size=m),
            st.lists(st.fractions(min_value=0, max_value=2, max_denominator=4), min_size=4, max_size=4),
            st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), min_size=m, max_size=m),
        )
    )
)
@example(([[1, 1, 0, 0], [1, 1, 0, 0]], [1, 0, 0, 0], [0, 0]))  # redundant row
@example(([[-1, 0, 1, 0], [0, -2, 0, 1]], [1, 1, 0, 0], [0, 0]))  # both rows flipped
def test_phase_one_inverse_reproduces_the_basic_values(problem):
    # rhs = rows·x0 makes the system feasible.  The appended last row,
    # a combination of the others, is redundant; a row whose rhs is
    # negative is flipped inside solve_lp.
    rows, x0, combination = problem
    rows = rows + [[sum(c * row[j] for c, row in zip(combination, rows)) for j in range(4)]]
    rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
    rows, (rhs,) = integer_rows(rows, [rhs])
    result = sweep.solve_lp(rows, rhs)
    assert result.status == simplex.OPTIMAL
    assert len(result.inverse) == len(result.basis)
    assert all(len(line) == len(rows) for line, _ in result.inverse)
    # Row r of the inverse times the basic columns is scale_r·e_r, and
    # B⁻¹b, padded with zeros, satisfies every row, the redundant one too.
    for r, (line, scale) in enumerate(result.inverse):
        assert [
            sum(v * row[col] for v, row in zip(line, rows)) for col in result.basis
        ] == [scale if k == r else 0 for k in range(len(result.basis))]
    x = phase_one_point(result, rhs, 4)
    assert all(v >= 0 for v in x)
    for row, value in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) == value


def _ghz_rows_and_rhs():
    from contextuality_kit.event_space import build_space, moment_coefficients

    space = build_space(["A", "B", "C"])
    rows = [[1] * 8] + [
        moment_coefficients(space, s) for s in (["A"], ["B"], ["C"], ["A", "B", "C"])
    ]
    axis = [Fraction(i, 12) for i in range(-12, 13, 2)]
    rhs_list = [[1, e, e, e, t] for e in axis for t in axis]
    return rows, rhs_list


def test_solve_many_rejects_a_wrong_inverse(monkeypatch):
    # A kept basis is checked at the point its dual pivots end on, so a
    # wrong inverse raises there instead of deciding any verdict.  The
    # inverse is tampered before the basis's residual is formed from it.
    rows, rhs_list = _ghz_rows_and_rhs()
    original = sweep._inverse

    def tampered(*args):
        inverse = original(*args)
        inverse[0][0][0] += 1
        return inverse

    monkeypatch.setattr(sweep, "_inverse", tampered)
    with pytest.raises(AssertionError, match="feasible basis fails its exact check"):
        sweep.solve_many(rows, rhs_list)


@pytest.mark.parametrize("tamper", ["negated", "bumped", "zero"])
def test_solve_many_rejects_a_wrong_certificate(monkeypatch, tamper):
    # A Farkas vector decides a point only when zᵀA <= 0 and zᵀb > 0
    # hold exactly: the negated and the zero one fail zᵀb > 0, and the
    # bumped one (plus the all-ones row) fails zᵀA <= 0, so each raises
    # instead of deciding a verdict.
    rows, rhs_list = _ghz_rows_and_rhs()
    original = sweep._dual_simplex

    def tampered(*args):
        z = original(*args)
        if z is None:
            return z
        if tamper == "negated":
            return [-v for v in z]
        if tamper == "bumped":
            return [z[0] + 1] + z[1:]
        return [0] * len(z)

    monkeypatch.setattr(sweep, "_dual_simplex", tampered)
    with pytest.raises(AssertionError, match="Farkas vector fails its exact check"):
        sweep.solve_many(rows, rhs_list)


def test_solve_many_reuses_a_certificate_across_row_scales(monkeypatch):
    # (x0 + x1)/2 = 1 and (x0 + x1)/3 = k/12, times 2 and 3: infeasible
    # for every k < 8, and one certificate proves it.  Row 1 is
    # redundant after the one crash pivot, and its y proves the first
    # point; no dual pivot runs.
    rows = [[1, 1], [1, 1]]
    rhs_list = [[2, Fraction(k, 4)] for k in range(8)]
    monkeypatch.setattr(sweep, "solve_lp", _no_cold_solve)
    calls = _counting_pivots(monkeypatch)
    assert sweep.solve_many(rows, rhs_list) == [simplex.INFEASIBLE] * 8
    assert calls[0] == 1


def test_solve_many_terminates_on_a_dual_degenerate_system(monkeypatch):
    # Every reduced cost is 0, so every dual step ties all the negative
    # entries of its row, and x_B here has zero entries.  The crash
    # basis {x0, x1, x2} gives x_B = (0, -1, -1); dual Bland's rule then
    # takes x3 for x1 (a three-way tie), x4 for x0, x5 for x2 and x1 for
    # x4, and stops at x_B = (1, 1, 1)/3 with no basis visited twice.
    rows = [[1, 0, 0, 1, 0, -1], [0, 1, 0, -1, -1, -1], [0, 0, 1, -1, 1, 0]]
    rhs = [0, -1, -1]
    assert sweep.solve_lp(rows, rhs).status == simplex.OPTIMAL
    bases = []
    original = sweep._pivot

    def recorded(tableau, scales, basis, row, col):
        original(tableau, scales, basis, row, col)
        bases.append(frozenset(basis))

    monkeypatch.setattr(sweep, "_pivot", recorded)
    monkeypatch.setattr(sweep, "solve_lp", _no_cold_solve)
    # The solve_lp above left this crash in the memo; clear it, so the
    # three crash pivots are recorded too.
    sweep._crash.cache_clear()
    assert sweep.solve_many(rows, [rhs]) == [simplex.OPTIMAL]
    assert bases[3:] == [{0, 2, 3}, {2, 3, 4}, {3, 4, 5}, {1, 3, 5}]


_small = st.integers(min_value=-3, max_value=3)


@st.composite
def _sweep_problems(draw):
    """Integer rows (m <= 5, n <= 8) and up to 30 right-hand sides.

    Rows past the drawn ones are integer combinations of them
    (redundant); the columns past the drawn ones repeat a drawn column
    or are zero, and all are shuffled.  Each right-hand side is rows·x
    for a drawn x >= 0 (feasible) or drawn outright, and the list
    repeats them in random order.
    """
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.lists(_small, min_size=n, max_size=n), min_size=m, max_size=m))
    for combination in draw(st.lists(st.lists(_small, min_size=m, max_size=m), max_size=5 - m)):
        rows.append([sum(map(mul, combination, column)) for column in zip(*rows[:m])])
    columns = list(zip(*rows))
    extra = draw(st.lists(st.one_of(st.none(), st.integers(0, n - 1)), max_size=8 - n))
    columns += [(0,) * len(rows) if k is None else columns[k] for k in extra]
    columns = draw(st.permutations(columns))
    rows = [list(row) for row in zip(*columns)]
    points = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=2), min_size=len(columns), max_size=len(columns)),
            max_size=4,
        )
    )
    distinct = [[sum(map(mul, row, x)) for row in rows] for x in points]
    distinct += draw(st.lists(st.lists(_small, min_size=len(rows), max_size=len(rows)), min_size=1, max_size=4))
    return rows, draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=30))


@settings(deadline=None, max_examples=300)
@given(_sweep_problems())
@example(([[1, 1], [1, 1], [0, 0]], [[1, 1, 0], [1, 2, 0], [1, 1, 1], [2, 2, 0]]))
def test_solve_many_equals_cold_solves_on_redundant_and_repeated_columns(problem):
    rows, rhs_list = problem
    want = _cold_statuses(rows, rhs_list)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "solve_lp", _no_cold_solve)
        assert sweep.solve_many(rows, rhs_list) == want


def _rows_hold(kept, basis, rows, b):
    """The kept basis's check at b, row by row: x_B >= 0 and A·x = scale·b on every row."""
    inverse, _ = kept
    x_basic = [sum(map(mul, line, b)) for line, _ in inverse]
    # Every kept row of B⁻¹ is over one scale; with no kept row, x = 0.
    scale = inverse[0][1] if inverse else 1
    return all(v >= 0 for v in x_basic) and all(
        sum(row[c] * v for c, v in zip(basis, x_basic)) == scale * value
        for row, value in zip(rows, b)
    )


@settings(deadline=None, max_examples=300)
@given(_sweep_problems())
@example(([[0, 0, 0]], [[0], [1]]))  # no kept row: the residual is −scale·I
@example(([[1, 1], [1, 1], [0, 0]], [[1, 1, 0], [1, 2, 0], [1, 1, 1], [2, 2, 0]]))
def test_residual_check_equals_the_row_by_row_check(problem):
    # Every basis a sweep keeps is checked through its residual R; at
    # every right-hand side of the draw that must be the check of x_B
    # and of each row, the redundant and zero rows included.
    rows, rhs_list = problem
    kept_bases = []
    original = sweep._kept_basis

    def recorded(tableau, scales, basis, matrix, n):
        kept = original(tableau, scales, basis, matrix, n)
        kept_bases.append((kept, list(basis)))
        return kept

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "_kept_basis", recorded)
        sweep.solve_many(rows, rhs_list)
    for kept, basis in kept_bases:
        for b in rhs_list:
            assert sweep._feasible_at(kept, b) == _rows_hold(kept, basis, rows, b)


@st.composite
def _cold_problems(draw):
    """A :func:`_sweep_problems` draw, its right-hand sides also negated."""
    rows, rhs_list = draw(_sweep_problems())
    return rows, rhs_list + [[-v for v in rhs] for rhs in rhs_list]


@settings(deadline=None, max_examples=200)
@given(_cold_problems())
@example(([[1, 1], [1, 1], [0, 0]], [[1, 1, 0], [1, 2, 0], [1, 1, 1], [-1, -1, 0]]))
def test_cold_solve_gives_the_reference_status_and_its_proof(problem):
    rows, rhs_list = problem
    n = len(rows[0])
    calls = [0]
    original = sweep._pivot

    def counted(*args):
        calls[0] += 1
        return original(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "_pivot", counted)
        for rhs in rhs_list:
            calls[0] = 0
            sweep._crash.cache_clear()  # so that the crash's pivots are counted
            result = sweep.solve_lp(rows, rhs)
            assert result.pivots == calls[0]
            assert result.status == dense_simplex.solve_lp(rows, rhs).status
            if result.status == simplex.OPTIMAL:
                x = phase_one_point(result, rhs, n)
                assert all(v >= 0 for v in x)
                assert [sum(map(mul, row, x)) for row in rows] == rhs
            else:
                y = result.duals
                assert all(sum(map(mul, column, y)) <= 0 for column in zip(*rows))
                assert sum(map(mul, y, rhs)) > 0


def _two_row_optimum():
    columns = [{0: 1}, {1: 1}]
    return simplex.solve_from_basis([0, 0], columns, [1, 1], [0, 1])


@pytest.mark.parametrize(
    "solve, got",
    [
        pytest.param(lambda rhs: sweep.solve_lp([[1, 0], [0, 1]], rhs), [1], id="solve_lp-short"),
        pytest.param(lambda rhs: sweep.solve_lp([[1, 0], [0, 1]], rhs), [1, -1, 5], id="solve_lp-long"),
        pytest.param(
            lambda rhs: sweep.solve_many([[1, 0], [0, 1]], [[1, 1], rhs]), [1], id="solve_many"
        ),
        pytest.param(lambda rhs: simplex.settle(_two_row_optimum(), rhs), [1], id="settle-short"),
        pytest.param(
            lambda rhs: simplex.settle(_two_row_optimum(), rhs), [1, 2, -3], id="settle-long"
        ),
    ],
)
def test_a_right_hand_side_of_the_wrong_length_is_refused(solve, got):
    with pytest.raises(ValueError, match=f"right-hand side has {len(got)} entries for 2 rows"):
        solve(got)


@pytest.mark.parametrize(
    "solve",
    [
        pytest.param(lambda: sweep.solve_many([], []), id="solve_many-empty"),
        pytest.param(lambda: sweep.solve_lp([], []), id="solve_lp-empty"),
        pytest.param(lambda: sweep.solve_many([[1, 2], [1]], [[1, 1]]), id="solve_many-ragged"),
        pytest.param(lambda: sweep.solve_lp([[1, 2], [1]], [1, 1]), id="solve_lp-ragged"),
    ],
)
def test_an_empty_or_ragged_matrix_is_refused(solve):
    # Checked on every call, before the crash memo is read: the memo
    # holds a matrix of the same first row here.
    sweep.solve_many([[1, 2], [3, 4]], [[1, 1]])
    with pytest.raises(ValueError, match="at least one row|differ in length"):
        solve()


@pytest.mark.parametrize("entry", [1.0, True, Fraction(1)], ids=["float", "bool", "Fraction"])
def test_the_crash_memo_keeps_the_integer_check(entry):
    # 1, 1.0, True and Fraction(1) hash alike, so each would find the
    # int matrix's crash in the memo if the check came after it.
    rows, rhs_list = _ghz_rows_and_rhs()
    sweep.solve_many(rows, rhs_list)
    changed = [list(row) for row in rows]
    changed[0][0] = entry
    assert changed == rows
    with pytest.raises(TypeError, match="integer"):
        sweep.solve_many(changed, rhs_list)
    with pytest.raises(TypeError, match="integer"):
        sweep.solve_lp(changed, rhs_list[0])


def test_the_crash_memo_is_bounded_and_unchanged_by_dual_pivots(monkeypatch):
    rows, rhs_list = _ghz_rows_and_rhs()
    assert sweep._crash.cache_info().maxsize == 1
    calls = _counting_pivots(monkeypatch)  # clears the memo
    first = sweep.solve_many(rows, rhs_list)
    first_pivots = calls[0]
    crash_pivots = len(rows)  # the GHZ rows are independent: one pivot each
    assert first_pivots > crash_pivots  # the sweep took dual pivots
    assert any(sweep.solve_lp(rows, rhs).pivots > crash_pivots for rhs in rhs_list)
    matrix = tuple(map(tuple, rows))
    assert sweep._crash(matrix) == sweep._crash.__wrapped__(matrix)
    # A second sweep starts from the same crash, found in the memo: the
    # same verdicts from the same dual pivots, and no crash pivot.
    calls[0] = 0
    assert sweep.solve_many(rows, rhs_list) == first
    assert calls[0] == first_pivots - crash_pivots
