"""Dense two-phase tableau and warm feasibility sweeps.

:func:`solve_lp` is the two-phase simplex with Bland's rule throughout,
on the dense integer tableau of :mod:`.simplex`: the same integer rows,
pivot and ratio test.  It runs :func:`solve_many`'s cold solves, and its
phase-1 verdict is the tests' independent reference for the one-phase
decisions and the closed forms (:func:`_feasible_at`).  No report reads
its pivot path, and a standard ``check`` never loads this module.

Phase 1 minimizes the total artificial mass.  When that optimum is
positive the system is infeasible and the phase-1 duals are returned:
they are a Farkas certificate, i.e. row multipliers y with yᵀA <= 0
componentwise and yᵀb > 0, which any caller can re-verify by direct
arithmetic.  Callers that only need feasibility pass ``costs=None`` and
receive the first basic feasible solution found, which is deterministic.
Each Farkas multiplier is read off the objective row as a Fraction, like
the basic values.

:func:`solve_many` decides feasibility for many right-hand sides that
share one matrix, such as the points of a parameter grid.  Within one
call it keeps two pieces of evidence from earlier cold solves: the last
feasible basis with its inverse, and the last Farkas certificate, whose
``yᵀA <= 0`` is checked once when it is kept.  The inverse costs
nothing to keep: phase 1 starts from the identity of the artificial
columns, so each final row is ``Σ_i M[r][i]·(row_i | e_i | b_i)`` and
the artificial block holds M, one row of B⁻¹ per kept row, against
every original row, the redundant ones included (V. Chvátal, *Linear
Programming*, 1983, ch. 7).  :func:`solve_lp` returns it as
``LpResult.inverse``, in the layout ``simplex.solve_from_basis`` uses,
and ``simplex._basic_values`` reads ``x_B = B⁻¹b`` from it for both
``simplex.settle`` and :func:`solve_many`.  A right-hand side b is
feasible when ``x_B >= 0`` and the padded x satisfies every row,
``A x = b``, in integers, the dropped redundant rows included; it is
infeasible when ``yᵀb > 0``.  Either is a complete proof at that b, so
the verdict is the one a cold solve returns, and a wrong kept inverse
or certificate can only cost a cold solve, never a wrong verdict.  A
right-hand side that neither settles runs a cold :func:`solve_lp`
phase 1, whose basis or certificate replaces the kept one.  No state
outlives the call, and there is no dual simplex: the cold solves are
the only pivots.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .feasibility import _standard_rows
from .simplex import (
    _ZERO,
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LpResult,
    _basic_values,
    _bland_entering,
    _leaving,
    _pivot,
    _reduced,
    _scaled,
)


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
    carries the phase-1 basic feasible solution, its basis and its
    inverse, read off the artificial columns.  Entries may be ints
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

    if costs is None:
        # The artificial block of each kept row is its row of B⁻¹
        # against the flipped rows; undoing the flips makes it B⁻¹ of
        # the original rows.
        inverse = tuple(
            ([-v if flip else v for v, flip in zip(line[n_vars:total_cols], flips)], scale)
            for line, scale in zip(tableau[:m], scales)
        )
        return LpResult(
            status=OPTIMAL,
            x=_basic_point(tableau, scales, basis, n_vars),
            pivots=(phase1_pivots, 0),
            basis=tuple(basis),
            inverse=inverse,
        )

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
    return LpResult(
        status=OPTIMAL,
        x=_basic_point(tableau, scales, basis, n_vars),
        # The objective row's right-hand side holds -c·x.
        objective=Fraction(-tableau[m][-1], scales[m]),
        pivots=(phase1_pivots, phase2_pivots),
        basis=tuple(basis),
    )


def _multipliers(row_scales, farkas):
    """Farkas multipliers of the original rows, as ints for the scaled rows.

    Row i of the integer matrix is ``row_scales[i]`` times row i, so
    z_i is farkas_i / row_scales[i] over a common denominator; z·b then
    has the sign of farkas·b.
    """
    weights = [Fraction(y) / s for y, s in zip(farkas, row_scales)]
    common = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (common // w.denominator) for w in weights]


def solve_many(rows: list[list[Fraction]], rhs_list) -> list[str]:
    """Feasibility of  rows·x = rhs,  x >= 0  for each rhs in ``rhs_list``.

    Returns OPTIMAL or INFEASIBLE per right-hand side, in order.
    Entries may be ints or Fractions.  Each verdict is either settled
    by evidence kept from an earlier cold solve in this call (the last
    feasible basis or the last Farkas certificate, re-checked exactly at
    this rhs) or by a cold ``solve_lp(None, rows, rhs)``, so it equals
    the cold verdict; see the module docstring.
    """
    matrix, row_scales = [], []
    for row in rows:
        ints, scale = _scaled(row)
        matrix.append(ints)
        row_scales.append(scale)
    columns = list(zip(*matrix))
    # (B⁻¹ over one scale, the basic columns of every row, that scale)
    # and integer Farkas multipliers, or None.
    feasible_basis = certificate = None
    verdicts = []
    for rhs in rhs_list:
        # ``b`` is rhs over one common denominator d; ``scaled`` is b
        # scaled like the rows.
        common = math.lcm(*(v.denominator for v in rhs))
        b = [v.numerator * (common // v.denominator) for v in rhs]
        scaled = list(map(mul, row_scales, b))
        if feasible_basis is not None:
            inverse, block, scale = feasible_basis
            # x_basic is scale·d·x_B; every row must give scale·scaled.
            x_basic = _basic_values(inverse, b)
            if x_basic is not None and all(
                sum(map(mul, line, x_basic)) == scale * v for line, v in zip(block, scaled)
            ):
                verdicts.append(OPTIMAL)
                continue
        if certificate is not None and sum(map(mul, certificate, scaled)) > 0:
            verdicts.append(INFEASIBLE)
            continue
        result = solve_lp(None, rows, rhs)
        if result.status == OPTIMAL:
            scale = math.lcm(*(s for _, s in result.inverse))
            inverse = [([v * (scale // s) for v in line], scale) for line, s in result.inverse]
            block = [[line[c] for c in result.basis] for line in matrix]
            feasible_basis = (inverse, block, scale)
        else:
            z = _multipliers(row_scales, result.farkas)
            certificate = z if all(
                sum(a * y for a, y in zip(column, z)) <= 0 for column in columns
            ) else None
        verdicts.append(result.status)
    return verdicts


def _feasible_at(scenario):
    """Phase-1 only: returns (feasible, witness values or farkas).

    Bland's two-phase path, independent of ``feasibility.solve``'s LP:
    the tests cross-check the one-phase verdicts and the closed forms
    with it.  It decides one target point, so every target must be a
    point; a bracketed scenario is decided at its corners.
    """
    rows, targets, relations = _standard_rows(scenario)
    if not all(t.is_point for t in targets):
        raise ValueError("phase 1 decides point targets; pass one corner of the brackets")
    rhs = [t.lo for t in targets]
    n = scenario.space.atom_count
    std_rows, total = to_standard_form(rows, relations)
    result = solve_lp(None, std_rows, rhs, n_vars=total)
    if result.status == INFEASIBLE:
        return False, result.farkas
    return True, result.x[:n]
