"""Exact primal simplex over the rationals, in integers.

Solves   minimize c·x   subject to   A x = b,  x >= 0

exactly, so there is no tolerance tuning anywhere: a pivot element is
nonzero or it is not.  Two routines share the tableau, the pivot, the
ratio test and the pricing of the objective row:

* :func:`solve_lp`, two-phase with Bland's rule throughout.  Its pivot
  path fixes the evidence the kit reports (the first feasible basis is
  the witness, the phase-1 duals are the certificate), so that path is
  part of the output and must not change.
* :func:`solve_from_basis`, one phase from a feasible basis the caller
  knows, with Dantzig's rule.  Only its optimal value is reported, so
  its path is free to be short.

Every tableau row, the objective row included, is a list of Python ints
over one positive integer scale; the row's rational value is
``ints / scale``.  A constraint row is built by scaling its coefficients
and right-hand side by their common denominator (for the kit's ±1 and
slack rows, the denominator of the right-hand side), so no Fraction is
made per cell.  A pivot on entry p of the pivot row cross-multiplies
every other row, ``other·p − f·prow`` over ``scale·p``, then divides
the row and its scale by their gcd, which keeps the entries small: the
integer-preserving elimination of Escobedo and Moreno-Centeno
(*INFORMS J. Comput.* 27 (2015)).

Bland's rule (lowest eligible index enters; ties in the ratio test
broken by lowest basic index) guarantees termination without cycling.
Its choices read only signs and ratios within one row.  A positive
scale changes no sign, and the ratio test decides
``rhs_i/coeff_i < rhs_k/coeff_k`` as ``rhs_i·coeff_k < rhs_k·coeff_i``,
where the row scales cancel.  So the pivots are exactly those of the
same tableau held in Fractions.

Phase 1 minimizes the total artificial mass.  When that optimum is
positive the system is infeasible and the phase-1 duals are returned:
they are a Farkas certificate, i.e. row multipliers y with yᵀA <= 0
componentwise and yᵀb > 0, which any caller can re-verify by direct
arithmetic.  Callers that only need feasibility pass ``costs=None`` and
receive the first basic feasible solution found, which is deterministic.

The one-phase solve enters the column of most negative reduced cost.
When that step would be degenerate (a zero ratio), it takes Bland's
entering column and leaving row instead.  A non-degenerate pivot lowers
the objective strictly, so no basis recurs across one; a cycle would
have to consist of degenerate pivots only, and every degenerate pivot
is a Bland pivot, which cannot cycle.  So this loop terminates too.

Fractions appear only at the boundary: a basic value is
``Fraction(rhs_i, scale_i)``, and each Farkas multiplier is read off
the objective row the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: Row senses understood by :func:`to_standard_form`.
EQ, LE, GE = "eq", "le", "ge"

_ZERO = Fraction(0)


@dataclass
class LpResult:
    status: str
    x: list[Fraction] | None = None
    objective: Fraction | None = None
    farkas: list[Fraction] | None = None
    #: Pivots taken in phase 1 (including the degenerate pivots that
    #: drive artificials out of the basis) and in phase 2;
    #: :func:`solve_from_basis` has no phase 1.
    pivots: tuple[int, int] = (0, 0)


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


def _scaled(values):
    """Ints and a positive scale whose quotient is ``values``, exactly."""
    scale = 1
    for v in values:
        if type(v) is not int:
            scale = math.lcm(scale, Fraction(v).denominator)
    ints = [v * scale if type(v) is int else int(Fraction(v) * scale) for v in values]
    return ints, scale


def _reduced(line, scale):
    """Divide a row and its scale by their gcd."""
    g = math.gcd(scale, *line)
    if g == 1:
        return line, scale
    return [v // g for v in line], scale // g


def _pivot(tableau, scales, basis, row, col):
    """In-place integer pivot on (row, col); last row is the objective.

    The pivot row is rescaled so its pivot entry equals its scale (value
    1).  Factors of ±1 over a unit pivot dominate in sign-matrix
    problems, so they bypass the multiplication.
    """
    prow = tableau[row]
    p = prow[col]
    if p < 0:
        prow = [-v for v in prow]
        p = -p
    g = math.gcd(*prow)
    if g > 1:
        prow = [v // g for v in prow]
        p //= g
    tableau[row] = prow
    scales[row] = p
    for i, other in enumerate(tableau):
        if i == row:
            continue
        f = other[col]
        if not f:
            continue
        scale = scales[i]
        # other·p − f·prow over scale·p, with g = gcd(f, p) cancelled
        # first: other·(p/g) − (f/g)·prow over scale·(p/g).
        q = p
        if p != 1:
            g = math.gcd(f, p)
            q = p // g
            f //= g
        if q != 1:
            line = [a * q - f * b if b else a * q for a, b in zip(other, prow)]
            scale *= q
        elif f == 1:
            line = [a - b if b else a for a, b in zip(other, prow)]
        elif f == -1:
            line = [a + b if b else a for a, b in zip(other, prow)]
        else:
            line = [a - f * b if b else a for a, b in zip(other, prow)]
        if scale > 1:
            line, scale = _reduced(line, scale)
        tableau[i] = line
        scales[i] = scale
    basis[row] = col


def _leaving(tableau, basis, entering):
    """Ratio test on the entering column: the row that leaves, or -1.

    Ties go to the lowest basic column index (Bland's rule).
    """
    leaving = -1
    best_rhs = best_coeff = 0
    for i in range(len(tableau) - 1):
        line = tableau[i]
        coeff = line[entering]
        if coeff > 0:
            # rhs/coeff against best_rhs/best_coeff; both scales cancel.
            lhs = line[-1] * best_coeff
            rhs = best_rhs * coeff
            if (
                leaving < 0
                or lhs < rhs
                or (lhs == rhs and basis[i] < basis[leaving])
            ):
                best_rhs = line[-1]
                best_coeff = coeff
                leaving = i
    return leaving


def _bland_entering(obj, allowed_columns):
    """Lowest-index column with a negative reduced cost, or -1."""
    for j in allowed_columns:
        if obj[j] < 0:
            return j
    return -1


def _run(tableau, scales, basis, allowed_columns):
    """Minimize the objective row with Bland's rule.

    Returns (status, pivots taken).
    """
    m = len(tableau) - 1
    pivots = 0
    while True:
        entering = _bland_entering(tableau[m], allowed_columns)
        if entering < 0:
            return OPTIMAL, pivots
        leaving = _leaving(tableau, basis, entering)
        if leaving < 0:
            return UNBOUNDED, pivots
        _pivot(tableau, scales, basis, leaving, entering)
        pivots += 1


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


def _priced(costs, tableau, scales, basis):
    """Objective row of reduced costs for a basis, and its scale.

    The rows hold the constraint tableau in canonical form for
    ``basis``; the result is c - Σ c_B(i)·row_i over
    cost_scale·lcm(row scales), whose right-hand side is -c·x.
    """
    cost_ints, cost_scale = _scaled(costs)
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
    total_cols = n_vars + m  # structural + one artificial per row

    # Integer rows with nonnegative right-hand sides; artificial i sits
    # at column n_vars + i with value 1, i.e. the row's scale.
    flips = [False] * m
    tableau: list[list[int]] = []
    scales: list[int] = []
    for i in range(m):
        ints, scale = _scaled([*rows[i], rhs[i]])
        if ints[-1] < 0:
            ints = [-v for v in ints]
            flips[i] = True
        line = ints[:-1] + [0] * m
        line[n_vars + i] = scale
        line.append(ints[-1])
        tableau.append(line)
        scales.append(scale)
    basis = [n_vars + i for i in range(m)]

    # Phase-1 objective row: reduced costs of  min(sum of artificials),
    # i.e. the artificial unit costs minus every row, over the lcm of
    # the row scales.
    common = math.lcm(*scales)
    obj = [0] * n_vars + [common] * m + [0]
    for line, scale in zip(tableau, scales):
        k = common // scale
        obj = [a - k * b if b else a for a, b in zip(obj, line)]
    obj, common = _reduced(obj, common)
    tableau.append(obj)
    scales.append(common)

    structural = range(n_vars)
    status, phase1_pivots = _run(tableau, scales, basis, range(total_cols))
    assert status == OPTIMAL, "phase 1 is bounded below by zero"
    obj, obj_scale = tableau[m], scales[m]
    if obj[-1] < 0:  # phase-1 optimum -obj[-1]/obj_scale is positive
        # Duals: reduced cost of artificial i is 1 - y_i in phase 1.
        farkas = []
        for i in range(m):
            y = Fraction(obj_scale - obj[n_vars + i], obj_scale)
            farkas.append(-y if flips[i] else y)
        return LpResult(status=INFEASIBLE, farkas=farkas, pivots=(phase1_pivots, 0))

    # Remove artificials from the basis (degenerate pivots; redundant
    # rows have no structural pivot and are dropped).
    drop = []
    for i in range(m):
        if basis[i] >= n_vars:
            pivot_col = -1
            line = tableau[i]
            for j in structural:
                if line[j]:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, scales, basis, i, pivot_col)
                phase1_pivots += 1
            else:
                drop.append(i)
    for i in reversed(drop):
        del tableau[i]
        del scales[i]
        del basis[i]
    m = len(basis)

    phase2_pivots = 0
    objective = None
    if costs is not None:
        # Every basic column is structural now and artificials may not
        # re-enter, so phase 2 drops their columns.
        del tableau[m]
        del scales[m]
        for i in range(m):
            tableau[i] = tableau[i][:n_vars] + [tableau[i][-1]]
        obj, obj_scale = _priced(costs, tableau, scales, basis)
        tableau.append(obj)
        scales.append(obj_scale)
        status, phase2_pivots = _run(tableau, scales, basis, structural)
        if status == UNBOUNDED:
            return LpResult(status=UNBOUNDED, pivots=(phase1_pivots, phase2_pivots))
        # The objective row's right-hand side holds -c·x.
        objective = Fraction(-tableau[m][-1], scales[m])

    return LpResult(
        status=OPTIMAL,
        x=_basic_point(tableau, scales, basis, n_vars),
        objective=objective,
        pivots=(phase1_pivots, phase2_pivots),
    )


def solve_from_basis(
    costs: list[Fraction],
    rows: list[list[Fraction]],
    rhs: list[Fraction],
    basis: list[int],
) -> LpResult:
    """One-phase simplex for  min c·x,  rows·x = rhs,  x >= 0.

    ``basis`` names one column per row whose basic solution is
    feasible; the simplex starts there, so there is no phase 1 and no
    artificial column.  Entries may be ints or Fractions.  Raises
    ValueError when the columns are linearly dependent (singular) or
    their basic solution has a negative entry (not primal-feasible).

    Entering columns follow Dantzig's rule (most negative reduced cost,
    lowest index on ties).  When that column's ratio test gives a zero
    step, Bland's entering column and its ratio-test row pivot instead.
    Every degenerate pivot is then a Bland pivot, so the loop cannot
    cycle (the argument is in the module docstring).  The pivot path,
    unlike ``solve_lp``'s, is not part of any report; only the optimal
    value is.

    ``pivots`` is ``(0, simplex pivots)``; the pivots that bring
    ``basis`` in are not counted.
    """
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
    # Bring each column in on the first unused row where it is nonzero;
    # none left means the columns are linearly dependent.
    placed = [-1] * m
    for col in basis:
        row = next((i for i in range(m) if placed[i] < 0 and tableau[i][col]), -1)
        if row < 0:
            raise ValueError(f"start basis is singular at column {col}")
        _pivot(tableau, scales, placed, row, col)
    if any(line[-1] < 0 for line in tableau):
        raise ValueError("start basis is not primal-feasible")

    obj, obj_scale = _priced(costs, tableau, scales, placed)
    tableau.append(obj)
    scales.append(obj_scale)
    status, pivots = _run_dantzig(tableau, scales, placed)
    if status == UNBOUNDED:
        return LpResult(status=UNBOUNDED, pivots=(0, pivots))
    return LpResult(
        status=OPTIMAL,
        x=_basic_point(tableau, scales, placed, n_vars),
        objective=Fraction(-tableau[m][-1], scales[m]),
        pivots=(0, pivots),
    )
