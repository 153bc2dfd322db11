"""Phase-1 tableau and warm feasibility sweeps.

:func:`solve_lp` is phase 1 of the simplex with Bland's rule, on the
dense integer tableau of :mod:`.simplex`: the same integer rows, pivot
and ratio test.  Like the revised simplex, it takes an integer matrix
and a rational right-hand side, put over one common denominator d.
Bland's choices are invariant under positive row and column scaling,
and no output depends on d, so each row ``[row_i | e_i | d·b_i]``
starts over scale 1.  It minimizes the total artificial mass.  A
positive optimum means infeasible, and the phase-1 row duals
(``LpResult.duals``) are a Farkas certificate: row multipliers y with
yᵀA <= 0 componentwise and yᵀb > 0.  At a zero optimum the artificials
are pivoted out, redundant rows are dropped, and the feasible basis is
returned with its inverse.  No report reads the pivot path, and a
standard ``check`` never loads this module.

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
``A x = b``, the dropped redundant rows included; it is infeasible when
``yᵀb > 0``.  Either is a complete proof at that b, so the verdict is
the one a cold solve returns, and a wrong kept inverse or certificate
can only cost a cold solve, never a wrong verdict.  Both checks are
exact for any rational b and unchanged when b is multiplied by a
positive number, so :func:`solve_many` takes each right-hand side as
given: a caller that already holds b as ints over its own denominator,
as the GHZ grid sweep does, passes those ints, and the checks run in
integers.  A right-hand side that neither settles runs a cold
:func:`solve_lp`, whose basis or certificate replaces the kept one.  No
state outlives the call, and there is no dual simplex: the cold solves
are the only pivots.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .numerics import over_common_denominator
from .simplex import (
    INFEASIBLE,
    OPTIMAL,
    LpResult,
    _basic_values,
    _bland_entering,
    _leaving,
    _pivot,
    _reduced,
)


def _run(tableau, scales, basis):
    """Minimize the phase-1 objective row with Bland's rule; returns the pivots."""
    m = len(tableau) - 1
    columns = range(len(tableau[m]) - 1)
    pivots = 0
    while True:
        entering = _bland_entering(tableau[m], columns)
        if entering < 0:
            return pivots
        leaving = _leaving(tableau, basis, entering)
        assert leaving >= 0, "phase 1 is bounded below by zero"
        _pivot(tableau, scales, basis, leaving, entering)
        pivots += 1


def solve_lp(rows: list[list[int]], rhs: list[Fraction]) -> LpResult:
    """Phase 1 of the simplex for  rows·x = rhs,  x >= 0,  over int rows.

    A non-int row entry raises TypeError.  A feasible system gives
    OPTIMAL with the basis and its inverse, read off the artificial
    columns; an infeasible one gives INFEASIBLE with the phase-1 duals,
    the Farkas multipliers, indexed by the original rows (sign flips
    applied internally for a negative right-hand side are undone).
    """
    m = len(rows)
    n_vars = len(rows[0])
    total_cols = n_vars + m  # structural + one artificial per row
    if any(type(v) is not int for row in rows for v in row):
        raise TypeError("phase 1 takes integer rows")

    # Rows with a negative right-hand side are negated; artificial i is column n_vars + i.
    b, _ = over_common_denominator(rhs)
    signs = [-1 if v < 0 else 1 for v in b]
    tableau = [
        [s * a for a in row] + [int(k == i) for k in range(m)] + [s * v]
        for i, (row, v, s) in enumerate(zip(rows, b, signs))
    ]
    basis = [n_vars + i for i in range(m)]

    # Objective row: reduced costs of  min(sum of artificials), i.e.
    # minus the column sums, 0 on the artificials.
    obj = [-sum(column) for column in zip(*tableau)]
    obj[n_vars:total_cols] = [0] * m
    tableau.append(obj)
    scales = [1] * (m + 1)

    pivots = _run(tableau, scales, basis)
    obj, obj_scale = tableau[m], scales[m]
    if obj[-1] < 0:  # the optimum -obj[-1]/obj_scale is positive
        # Duals: reduced cost of artificial i is 1 - y_i.
        duals = [
            s * Fraction(obj_scale - r, obj_scale) for s, r in zip(signs, obj[n_vars:total_cols])
        ]
        return LpResult(status=INFEASIBLE, duals=duals, pivots=pivots)

    # Remove artificials from the basis (degenerate pivots; redundant
    # rows have no structural pivot and are dropped).
    drop = []
    for i in range(m):
        if basis[i] >= n_vars:
            line = tableau[i]
            pivot_col = next((j for j in range(n_vars) if line[j]), -1)
            if pivot_col >= 0:
                _pivot(tableau, scales, basis, i, pivot_col)
                pivots += 1
            else:
                drop.append(i)
    for i in reversed(drop):
        del tableau[i]
        del scales[i]
        del basis[i]
    m = len(basis)

    # The artificial block of each kept row is its row of B⁻¹ against
    # the flipped rows; undoing the flips makes it B⁻¹ of the original
    # rows.
    inverse = tuple(
        _reduced([s * v for s, v in zip(signs, line[n_vars:total_cols])], scale)
        for line, scale in zip(tableau[:m], scales)
    )
    return LpResult(status=OPTIMAL, pivots=pivots, basis=tuple(basis), inverse=inverse)


def solve_many(rows: list[list[int]], rhs_list) -> list[str]:
    """Feasibility of  rows·x = rhs,  x >= 0  for each rhs in ``rhs_list``.

    Returns OPTIMAL or INFEASIBLE per right-hand side, in order.  The
    rows are ints, as for :func:`solve_lp`, which the first right-hand
    side always runs.  Each rhs is a sequence of ints or Fractions and
    is taken as given: the checks below are exact for any rational rhs
    and do not change when it is multiplied by a positive number, so
    ints over the caller's own denominator are the fast path.  Each
    verdict is either settled by evidence kept from an earlier cold
    solve in this call (the last feasible basis or the last Farkas
    certificate, re-checked exactly at this rhs) or by a cold
    ``solve_lp(rows, rhs)``, so it equals the cold verdict; see the
    module docstring.
    """
    columns = list(zip(*rows))
    # (B⁻¹ over one scale, the basic columns of every row, that scale)
    # and integer Farkas multipliers, or None.
    feasible_basis = certificate = None
    verdicts = []
    for b in rhs_list:
        if feasible_basis is not None:
            inverse, block, scale = feasible_basis
            # x_basic is scale·x_B at this b; every row must give scale·b.
            x_basic = _basic_values(inverse, b)
            if x_basic is not None and all(
                sum(map(mul, line, x_basic)) == scale * v for line, v in zip(block, b)
            ):
                verdicts.append(OPTIMAL)
                continue
        if certificate is not None and sum(map(mul, certificate, b)) > 0:
            verdicts.append(INFEASIBLE)
            continue
        result = solve_lp(rows, b)
        if result.status == OPTIMAL:
            scale = math.lcm(*(s for _, s in result.inverse))
            inverse = [([v * (scale // s) for v in line], scale) for line, s in result.inverse]
            block = [[line[c] for c in result.basis] for line in rows]
            feasible_basis = (inverse, block, scale)
        else:
            z = over_common_denominator(result.duals)[0]
            certificate = z if all(
                sum(a * y for a, y in zip(column, z)) <= 0 for column in columns
            ) else None
        verdicts.append(result.status)
    return verdicts
