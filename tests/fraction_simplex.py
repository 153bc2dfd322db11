"""Test-only reference: the kit's former simplex, one Fraction per cell.

``dense_simplex.solve_lp`` holds its tableau in integer rows over a
positive scale and claims the very same Bland pivots.  This module keeps
the earlier dense Fraction tableau, unchanged apart from counting its
pivots, so tests can require identical results from both.

Solves   minimize c·x   subject to   A x = b,  x >= 0

entirely in ``fractions.Fraction`` arithmetic, so there is no tolerance
tuning anywhere: a pivot element is nonzero or it is not.  Bland's rule
(lowest eligible index enters; ties in the ratio test broken by lowest
basic index) guarantees termination without cycling.

Phase 1 minimizes the total artificial mass.  When that optimum is
positive the system is infeasible and the phase-1 duals are returned:
they are a Farkas certificate, i.e. row multipliers y with yᵀA <= 0
componentwise and yᵀb > 0, which any caller can re-verify by direct
arithmetic.  Callers that only need feasibility pass ``costs=None`` and
receive the first basic feasible solution found, which is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class LpResult:
    status: str
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    farkas: list[Fraction] | None = None
    pivots: tuple[int, int] = (0, 0)


def _pivot(tableau, basis, row, col):
    """In-place Gauss-Jordan pivot on (row, col); last row is the objective.

    Factors of ±1 dominate in sign-matrix problems, so they bypass the
    Fraction multiplication.
    """
    prow = tableau[row]
    pivot_value = prow[col]
    if pivot_value == -1:
        tableau[row] = prow = [-v for v in prow]
    elif pivot_value != 1:
        inv = 1 / pivot_value
        tableau[row] = prow = [v * inv for v in prow]
    for i, other in enumerate(tableau):
        if i == row:
            continue
        factor = other[col]
        if not factor:
            continue
        if factor == 1:
            tableau[i] = [a - b if b else a for a, b in zip(other, prow)]
        elif factor == -1:
            tableau[i] = [a + b if b else a for a, b in zip(other, prow)]
        else:
            tableau[i] = [a - factor * b if b else a for a, b in zip(other, prow)]
    basis[row] = col


def _run(tableau, basis, allowed_columns):
    """Minimize the objective row with Bland's rule.  Returns (status, pivots)."""
    m = len(tableau) - 1
    pivots = 0
    while True:
        obj = tableau[m]
        entering = -1
        for j in allowed_columns:
            if obj[j] < 0:
                entering = j
                break
        if entering < 0:
            return OPTIMAL, pivots
        leaving = -1
        best_ratio = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED, pivots
        _pivot(tableau, basis, leaving, entering)
        pivots += 1


def solve_lp(
    costs: list[Fraction] | None,
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    n_vars: int | None = None,
) -> LpResult:
    """Two-phase simplex for  min c·x,  rows·x = rhs,  x >= 0.

    ``costs=None`` requests a feasibility check only; the result then
    carries the phase-1 basic feasible solution.  Entries may be ints
    or Fractions.  The Farkas multipliers returned on infeasibility are
    indexed by the original rows (sign flips applied internally for a
    negative right-hand side are undone).
    """
    m = len(rows)
    if n_vars is None:
        n_vars = len(rows[0]) if m else (len(costs) if costs else 0)
    # Copy, normalize to Fraction, and make every right-hand side nonnegative.
    flips = [False] * m
    work_rows: list[list[Fraction]] = []
    work_rhs: list[Fraction] = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
            flips[i] = True
        work_rows.append(row)
        work_rhs.append(b)

    total_cols = n_vars + m  # structural + one artificial per row
    tableau: list[list[Fraction]] = []
    for i in range(m):
        line = work_rows[i] + [_ZERO] * m + [work_rhs[i]]
        line[n_vars + i] = _ONE
        tableau.append(line)
    basis = [n_vars + i for i in range(m)]

    # Phase-1 objective row: reduced costs of  min(sum of artificials).
    obj = [_ZERO] * (total_cols + 1)
    for j in range(n_vars, total_cols):
        obj[j] = _ONE
    for line in tableau[:m]:
        obj = [a - b for a, b in zip(obj, line)]
    tableau.append(obj)

    structural = range(n_vars)
    status, phase1_pivots = _run(tableau, basis, range(total_cols))
    assert status == OPTIMAL, "phase 1 is bounded below by zero"
    phase1_value = -tableau[m][-1]
    if phase1_value > 0:
        # Duals: reduced cost of artificial i is 1 - y_i in phase 1.
        farkas = []
        for i in range(m):
            y = _ONE - tableau[m][n_vars + i]
            farkas.append(-y if flips[i] else y)
        return LpResult(status=INFEASIBLE, farkas=farkas, pivots=(phase1_pivots, 0))

    # Remove artificials from the basis (degenerate pivots; redundant
    # rows have no structural pivot and are dropped).
    drop = []
    for i in range(m):
        if basis[i] >= n_vars:
            pivot_col = -1
            for j in structural:
                if tableau[i][j]:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, i, pivot_col)
                phase1_pivots += 1
            else:
                drop.append(i)
    if drop:
        for i in reversed(drop):
            del tableau[i]
            del basis[i]
        m = len(basis)

    phase2_pivots = 0
    if costs is not None:
        costs = [Fraction(c) for c in costs]
        obj = costs + [_ZERO] * (total_cols - n_vars) + [_ZERO]
        for i in range(m):
            cb = costs[basis[i]] if basis[i] < n_vars else _ZERO
            if cb:
                obj = [a - cb * b for a, b in zip(obj, tableau[i])]
        tableau[m] = obj
        status, phase2_pivots = _run(tableau, basis, structural)
        if status == UNBOUNDED:
            return LpResult(status=UNBOUNDED, pivots=(phase1_pivots, phase2_pivots))

    x = [_ZERO] * n_vars
    for i in range(m):
        if basis[i] < n_vars:
            x[basis[i]] = tableau[i][-1]
    objective = None
    if costs is not None:
        objective = sum((c * v for c, v in zip(costs, x)), _ZERO)
    return LpResult(
        status=OPTIMAL, x=x, objective=objective, pivots=(phase1_pivots, phase2_pivots)
    )
