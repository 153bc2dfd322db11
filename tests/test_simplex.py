from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from contextuality_kit import simplex


def test_simple_optimum():
    # min x + 2y  s.t.  x + y = 1
    result = simplex.solve_lp([1, 2], [[1, 1]], [1])
    assert result.status == simplex.OPTIMAL
    assert result.x == [Fraction(1), Fraction(0)]
    assert result.objective == 1


def test_degenerate_equalities():
    # x = 1 stated twice plus x + y = 1: consistent, y forced to 0
    result = simplex.solve_lp([0, 1], [[1, 0], [1, 0], [1, 1]], [1, 1, 1])
    assert result.status == simplex.OPTIMAL
    assert result.x == [Fraction(1), Fraction(0)]


def test_infeasible_with_farkas():
    # x + y = 1 and x + y = 2 cannot both hold
    result = simplex.solve_lp(None, [[1, 1], [1, 1]], [1, 2])
    assert result.status == simplex.INFEASIBLE
    y = result.farkas
    # direct re-verification: combined coefficients <= 0, combined rhs > 0
    combined = [y[0] + y[1], y[0] + y[1]]
    assert all(c <= 0 for c in combined)
    assert y[0] * 1 + y[1] * 2 > 0


def test_negative_rhs_flip():
    # -x = -3 is x = 3
    result = simplex.solve_lp(None, [[-1]], [-3])
    assert result.status == simplex.OPTIMAL
    assert result.x == [Fraction(3)]


def test_unbounded():
    result = simplex.solve_lp([-1, 0], [[0, 1]], [1])
    assert result.status == simplex.UNBOUNDED


def test_feasibility_only_returns_bfs():
    result = simplex.solve_lp(None, [[1, 1, 1]], [1])
    assert result.status == simplex.OPTIMAL
    assert sum(result.x) == 1
    assert all(v >= 0 for v in result.x)


def test_exact_fractions_survive():
    # min z  s.t.  3z = 1  -> z = 1/3 exactly
    result = simplex.solve_lp([1], [[3]], [1])
    assert result.x == [Fraction(1, 3)]


_small = st.integers(min_value=-3, max_value=3)


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.lists(_small, min_size=3, max_size=3), min_size=1, max_size=4),
    st.lists(_small, min_size=1, max_size=4),
)
def test_farkas_certificates_always_verify(rows, rhs):
    m = min(len(rows), len(rhs))
    rows, rhs = rows[:m], rhs[:m]
    result = simplex.solve_lp(None, rows, rhs)
    if result.status == simplex.OPTIMAL:
        # solution satisfies every row exactly
        for row, b in zip(rows, rhs):
            assert sum(Fraction(c) * v for c, v in zip(row, result.x)) == b
        assert all(v >= 0 for v in result.x)
    else:
        assert result.status == simplex.INFEASIBLE
        y = result.farkas
        combined = [
            sum(yi * row[j] for yi, row in zip(y, rows)) for j in range(3)
        ]
        assert all(c <= 0 for c in combined)
        assert sum(yi * b for yi, b in zip(y, rhs)) > 0


def test_solve_from_basis_rejects_bad_starts():
    rows = [[1, 1, 0], [1, -1, 1]]
    rhs = [1, Fraction(1, 2)]
    costs = [0, 1, 0]
    # Columns 0 and 2: x0 = 1, x2 = -1/2, not primal-feasible.
    with pytest.raises(ValueError, match="feasible"):
        simplex.solve_from_basis(costs, rows, rhs, [0, 2])
    # Column 0 twice: linearly dependent.
    with pytest.raises(ValueError, match="singular"):
        simplex.solve_from_basis(costs, rows, rhs, [0, 0])
    # Columns 1 and 2 are a feasible start: x1 = 1, x2 = 3/2.  The
    # optimum has x2 = 2·x1 - 1/2 = 0.
    result = simplex.solve_from_basis(costs, rows, rhs, [1, 2])
    assert result.status == simplex.OPTIMAL
    assert result.objective == Fraction(1, 4)
    assert result.x == [Fraction(3, 4), Fraction(1, 4), 0]
    # No positive entry under an improving column.
    assert simplex.solve_from_basis([-1, 0], [[0, 1]], [1], [1]).status == (
        simplex.UNBOUNDED
    )


def test_solve_from_basis_terminates_on_beale_cycling_example():
    """Beale's LP cycles under Dantzig's rule alone from this basis.

    Its first two rows have right-hand side 0, so Dantzig's first steps
    are degenerate; the Bland fallback takes them instead, and the solve
    reaches the optimum.
    """
    q = Fraction(1, 4)
    rows = [
        [1, 0, 0, q, -8, -1, 9],
        [0, 1, 0, 2 * q, -12, -2 * q, 3],
        [0, 0, 1, 0, 0, 1, 0],
    ]
    rhs = [0, 0, 1]
    costs = [0, 0, 0, -3 * q, 20, -2 * q, 6]
    result = simplex.solve_from_basis(costs, rows, rhs, [0, 1, 2])
    assert result.status == simplex.OPTIMAL
    assert result.objective == Fraction(-5, 4)
    assert result.objective == simplex.solve_lp(costs, rows, rhs).objective
