"""The kit's former one-phase solver on the dense integer tableau, and
the tests' phase-1 reference decisions.

``simplex.solve_from_basis`` now keeps only B⁻¹ and prices the atom
columns with a Walsh–Hadamard transform.  This module keeps the solver
it replaced, which pivots every column of ``[A | b]``, as the reference
its pivot path is pinned against: both follow Dantzig's rule with
lowest-index ties and Bland's rule on a zero-ratio step from the same
start basis, so every LP must give the same status, pivots, point,
objective and reduced costs.  The integer pivot, ratio test and pricing
are the kit's own, pinned against ``fraction_simplex`` in
``test_simplex_reference.py``; ``_bring_in``, which places the start
basis with the kit's pivot, is this module's.

:func:`feasible_at` decides one scenario with the kit's phase 1,
``sweep.solve_lp``, on the scenario's rows in standard form
(:func:`to_standard_form`).  It shares no code with
``feasibility.solve``'s margin LP, so the tests cross-check the
one-phase verdicts and the closed forms with it.
"""

import math
from fractions import Fraction

from contextuality_kit.feasibility import _standard_rows
from contextuality_kit.numerics import over_common_denominator
from contextuality_kit.simplex import (
    EQ,
    GE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LpResult,
    _basic_values,
    _bland_entering,
    _leaving,
    _pivot,
    _reduced,
)
from contextuality_kit.sweep import solve_lp

_ZERO = Fraction(0)


def to_standard_form(rows, relations):
    """Append slack/surplus columns so every row becomes an equality.

    Returns the widened rows and their width.
    """
    n = len(rows[0])
    slack_count = sum(1 for r in relations if r != EQ)
    total = n + slack_count
    out_rows = []
    slack_at = n
    for row, rel in zip(rows, relations):
        line = list(row) + [0] * (total - n)
        if rel == LE:
            line[slack_at] = 1
            slack_at += 1
        elif rel == GE:
            line[slack_at] = -1
            slack_at += 1
        out_rows.append(line)
    return out_rows, total


def phase_one_point(result, rhs, n_vars):
    """The basic point of an optimal ``sweep.solve_lp`` result, from its inverse."""
    b, common = over_common_denominator(rhs)
    x = [_ZERO] * n_vars
    for col, value, (_, scale) in zip(
        result.basis, _basic_values(result.inverse, b), result.inverse
    ):
        x[col] = Fraction(value, scale * common)
    return x


def feasible_at(scenario):
    """Whether the kit's phase 1 finds a joint distribution for ``scenario``.

    It decides one target point, so every target must be a point; a
    bracketed scenario is decided at its corners.
    """
    rows, targets, relations = _standard_rows(scenario)
    if not all(t.is_point for t in targets):
        raise ValueError("phase 1 decides point targets; pass one corner of the brackets")
    std_rows, _ = to_standard_form(rows, relations)
    return solve_lp(std_rows, [t.lo for t in targets]).status == OPTIMAL


def _priced(costs, tableau, scales, basis):
    """Objective row of reduced costs for a basis, and its scale.

    The rows hold the constraint tableau in canonical form for
    ``basis``; the result is c - Σ c_B(i)·row_i over
    cost_scale·lcm(row scales), whose right-hand side is -c·x.
    """
    cost_ints, cost_scale = over_common_denominator(costs)
    priced = [i for i in range(len(basis)) if cost_ints[basis[i]]]
    common = math.lcm(*(scales[i] for i in priced))
    obj = [c * common for c in cost_ints] + [0]
    for i in priced:
        k = cost_ints[basis[i]] * (common // scales[i])
        obj = [a - k * b if b else a for a, b in zip(obj, tableau[i])]
    return _reduced(obj, cost_scale * common)


def _basic_point(tableau, scales, basis, n_vars):
    """The structural values of the basic solution, as Fractions."""
    x = [_ZERO] * n_vars
    for i, col in enumerate(basis):
        if col < n_vars:
            x[col] = Fraction(tableau[i][-1], scales[i])
    return x


def dense_rows(columns, rhs, characters=None):
    """The rows of ``solve_from_basis``'s LP: character columns, then ``columns``.

    Each of ``columns`` maps a row to its entry there.
    """
    rows = []
    for i in range(len(rhs)):
        row = []
        if characters is not None:
            bits, masks = characters
            row = [-1 if (a & masks[i]).bit_count() & 1 else 1 for a in range(1 << bits)]
        rows.append(row + [column.get(i, 0) for column in columns])
    return rows


def _bring_in(tableau, scales, placed, columns):
    """Pivot each column in on the first unplaced row where it is nonzero.

    ``placed`` records the column of each row (-1 while unplaced).
    Returns the first column that finds no such row, in which case the
    columns are linearly dependent, or -1 once all are placed.
    """
    for col in columns:
        row = next((i for i, c in enumerate(placed) if c < 0 and tableau[i][col]), -1)
        if row < 0:
            return col
        _pivot(tableau, scales, placed, row, col)
    return -1


def _run_dantzig(tableau, scales, basis):
    """Minimize the objective row with Dantzig's rule, Bland's when degenerate.

    Returns (status, pivots taken).
    """
    m = len(tableau) - 1
    columns = range(len(tableau[m]) - 1)
    pivots = 0
    while True:
        obj = tableau[m]
        most_negative = min(obj[:-1])
        if most_negative >= 0:
            return OPTIMAL, pivots
        entering = obj.index(most_negative)
        leaving = _leaving(tableau, basis, entering)
        if leaving >= 0 and not tableau[leaving][-1]:
            entering = _bland_entering(obj, columns)
            leaving = _leaving(tableau, basis, entering)
        if leaving < 0:
            return UNBOUNDED, pivots
        _pivot(tableau, scales, basis, leaving, entering)
        pivots += 1


def solve_from_basis(costs, rows, rhs, basis) -> LpResult:
    """One-phase simplex for  min c·x,  rows·x = rhs,  x >= 0, on the dense tableau."""
    m = len(rows)
    if len(basis) != m:
        raise ValueError(f"start basis has {len(basis)} columns for {m} rows")
    n_vars = len(costs)
    tableau: list[list[int]] = []
    scales: list[int] = []
    for row, b in zip(rows, rhs):
        ints, scale = over_common_denominator([*row, b])
        tableau.append(ints)
        scales.append(scale)
    placed = [-1] * m
    col = _bring_in(tableau, scales, placed, basis)
    if col >= 0:
        raise ValueError(f"start basis is singular at column {col}")
    if any(line[-1] < 0 for line in tableau):
        raise ValueError("start basis is not primal-feasible")

    obj, obj_scale = _priced(costs, tableau, scales, placed)
    tableau.append(obj)
    scales.append(obj_scale)
    status, pivots = _run_dantzig(tableau, scales, placed)
    if status == UNBOUNDED:
        return LpResult(status=UNBOUNDED, pivots=pivots)
    obj, obj_scale = tableau[m], scales[m]
    return LpResult(
        status=OPTIMAL,
        x=_basic_point(tableau, scales, placed, n_vars),
        objective=Fraction(-obj[-1], obj_scale),
        pivots=pivots,
        reduced_costs=[Fraction(v, obj_scale) if v else Fraction(0) for v in obj[:-1]],
    )
