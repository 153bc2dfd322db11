"""The kit's former one-phase solver on the dense integer tableau.

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
"""

from fractions import Fraction

from contextuality_kit.simplex import (
    OPTIMAL,
    UNBOUNDED,
    LpResult,
    _bland_entering,
    _leaving,
    _pivot,
    _scaled,
)
from contextuality_kit.sweep import _basic_point, _priced


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
        ints, scale = _scaled([*row, b])
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
        return LpResult(status=UNBOUNDED, pivots=(0, pivots))
    obj, obj_scale = tableau[m], scales[m]
    return LpResult(
        status=OPTIMAL,
        x=_basic_point(tableau, scales, placed, n_vars),
        objective=Fraction(-obj[-1], obj_scale),
        pivots=(0, pivots),
        reduced_costs=[Fraction(v, obj_scale) if v else Fraction(0) for v in obj[:-1]],
    )
