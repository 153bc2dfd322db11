"""Warm feasibility sweeps, and the phase-1 tableau kept as a reference.

:func:`solve_many` decides feasibility of ``A x = b, x >= 0`` for many
right-hand sides b that share one integer matrix A, such as the points
of a parameter grid, with no phase 1.  A feasibility system has zero
costs, so every reduced cost is 0 and *every* basis is dual feasible:
a new b only moves x_B = B⁻¹b, and the dual simplex (C. E. Lemke,
*Naval Res. Logist. Q.* 1, 36 (1954)) pivots from whatever basis the
last point left.  So one crash basis per call is enough.  It is the
Gauss–Jordan form of ``[A | I | x_B]``, built with the shared
``simplex._pivot``: each row pivots on its lowest-index nonzero
column, and a row with no structural nonzero left is redundant, its
``I`` block a vector y with yᵀA = 0.  The ``I`` block of a kept row is
that row of B⁻¹ against every original row (V. Chvátal, *Linear
Programming*, 1983, ch. 7), so x_B at a new b is one dot product per
row, and a row whose x_B entry is negative but whose structural
entries are all >= 0 gives −(its row of B⁻¹) as a Farkas vector.

Within one call it also keeps the evidence of earlier points: the
last feasible basis with its inverse, read by
``simplex._basic_values``, and the last Farkas certificate, whose
``yᵀA <= 0`` is checked once when it is kept.  A right-hand side b is
feasible when ``x_B >= 0`` and the padded x satisfies every row,
``A x = b``, the redundant rows included; it is infeasible when
``yᵀb > 0``.  Either is a complete proof at that b, and only such a
proof decides a verdict, so each verdict is the one a cold solve
returns.  Both checks are exact for any rational b and unchanged when
b is multiplied by a positive number, so :func:`solve_many` takes each
right-hand side as given: a caller that already holds b as ints over
its own denominator, as the GHZ grid sweep does, passes those ints,
and the checks run in integers.  No state outlives the call.

:func:`solve_lp` is phase 1 of the simplex with Bland's rule, on the
dense integer tableau of :mod:`.simplex`: the same integer rows, pivot
and ratio test.  No kit path runs it any more.  It stays as the
``simplex.solve_lp`` attribute the benchmark's tracer wraps and as the
tests' independent cold reference for :func:`solve_many`.  Like the
revised simplex, it takes an integer matrix and a rational right-hand
side, put over one common denominator d.  Bland's choices are invariant
under positive row and column scaling, and no output depends on d, so
each row ``[row_i | e_i | d·b_i]`` starts over scale 1.  It minimizes
the total artificial mass.  A positive optimum means infeasible, and
the phase-1 row duals (``LpResult.duals``) are a Farkas certificate:
row multipliers y with yᵀA <= 0 componentwise and yᵀb > 0.  At a zero
optimum the artificials are pivoted out, redundant rows are dropped,
and the feasible basis is returned with its inverse
(``LpResult.inverse``, in the layout ``simplex.solve_from_basis``
uses), read off the artificial block.  No report reads the pivot path,
and a standard ``check`` never loads this module.
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

    No kit path runs it: :func:`solve_many` decides grid sweeps with no
    cold solve.  It is the tests' independent cold reference and the
    ``simplex.solve_lp`` attribute the benchmark's tracer wraps.

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


def _crash(rows):
    """The Gauss–Jordan form of ``[rows | I | 0]``: (tableau, scales, basis, redundant).

    Row i pivots on its lowest-index nonzero structural column, with the
    shared :func:`simplex._pivot`.  A row left with no structural nonzero
    is redundant: it is dropped, and its ``I`` block, a y with yᵀA = 0,
    goes to ``redundant``.  The kept rows are followed by the all-zero
    objective row of a feasibility system, which no pivot changes.
    """
    if any(type(v) is not int for row in rows for v in row):
        raise TypeError("the sweep takes integer rows")
    m, n = len(rows), len(rows[0])
    tableau = [[*row, *(int(k == i) for k in range(m)), 0] for i, row in enumerate(rows)]
    tableau.append([0] * (n + m + 1))
    scales = [1] * (m + 1)
    basis = [-1] * m
    for i in range(m):
        line = tableau[i]
        entering = next((j for j in range(n) if line[j]), -1)
        if entering >= 0:
            _pivot(tableau, scales, basis, i, entering)
    kept = [i for i in range(m) if basis[i] >= 0]
    redundant = [tableau[i][n:-1] for i in range(m) if basis[i] < 0]
    return (
        [tableau[i] for i in kept] + [tableau[m]],
        [scales[i] for i in kept] + [scales[m]],
        [basis[i] for i in kept],
        redundant,
    )


def _dual_simplex(tableau, scales, basis, n, b):
    """Dual-simplex pivots from the current basis at ints b: None, or a Farkas vector.

    Sets x_B = B⁻¹b, read off each row's ``I`` block, then pivots while
    an entry is negative: the negative row with the lowest basic index
    leaves, and the lowest-index structural column with a negative entry
    in that row enters.  None means x_B >= 0 at the basis reached; when
    the leaving row has no negative entry, −(its row of B⁻¹) is returned.
    """
    m = len(basis)
    for line in tableau[:m]:
        line[-1] = sum(map(mul, line[n:-1], b))
    while True:
        leaving = -1
        for i, line in enumerate(tableau[:m]):
            if line[-1] < 0 and (leaving < 0 or basis[i] < basis[leaving]):
                leaving = i
        if leaving < 0:
            return None
        line = tableau[leaving]
        entering = next((j for j in range(n) if line[j] < 0), -1)
        if entering < 0:
            return [-v for v in line[n:-1]]
        _pivot(tableau, scales, basis, leaving, entering)


def _kept_basis(tableau, scales, basis, rows, n):
    """(B⁻¹ over one scale, the basic columns of every row, that scale)."""
    inverse = [_reduced(line[n:-1], s) for line, s in zip(tableau, scales[:-1])]
    scale = math.lcm(*(s for _, s in inverse))
    inverse = [([v * (scale // s) for v in line], scale) for line, s in inverse]
    block = [[line[c] for c in basis] for line in rows]
    return inverse, block, scale


def _feasible_at(feasible_basis, b):
    """Whether the kept basis proves b feasible: x_B >= 0 and every row holds."""
    inverse, block, scale = feasible_basis
    # x_basic is scale·x_B at this b; every row must give scale·b.
    x_basic = _basic_values(inverse, b)
    return x_basic is not None and all(
        sum(map(mul, line, x_basic)) == scale * v for line, v in zip(block, b)
    )


def solve_many(rows: list[list[int]], rhs_list) -> list[str]:
    """Feasibility of  rows·x = rhs,  x >= 0  for each rhs in ``rhs_list``.

    Returns OPTIMAL or INFEASIBLE per right-hand side, in order.  The
    rows are ints (TypeError otherwise).  Each rhs is a sequence of
    ints or Fractions and is taken as given: every check below is exact
    for any rational rhs and does not change when it is multiplied by a
    positive number, so ints over the caller's own denominator are the
    fast path.  No cold solve runs: the rows are put in Gauss–Jordan
    form once (:func:`_crash`), and each rhs is then decided by the
    first of these that applies:

    1. the last feasible basis, when x_B >= 0 and every row, the
       redundant ones included, holds at rhs;
    2. the last certificate z, when zᵀrhs > 0;
    3. a redundant row's y with yᵀrhs != 0, whose ±y is the certificate;
    4. dual-simplex pivots from the tableau's current basis
       (:func:`_dual_simplex`), ending at a basis with x_B >= 0, which
       becomes the kept feasible basis and must pass check 1, or at a
       Farkas vector z, which must pass zᵀA <= 0 and zᵀrhs > 0 and
       becomes the kept certificate.

    So every verdict is an exact proof at its rhs, and equals the cold
    verdict; evidence that fails its check raises AssertionError
    instead of deciding anything.

    Termination of step 4: with zero costs every dual step is
    degenerate, so the dual objective gives no progress measure.  The
    leaving row is the negative x_B entry with the lowest basic index,
    and the entering column, among the dual ratio test's ties (all of
    them, every ratio being 0), the lowest-index negative entry of that
    row.  That is Bland's rule applied to the dual (R. G. Bland, *Math.
    Oper. Res.* 2, 103 (1977)): it cannot cycle, and there are finitely
    many bases, so the pivots stop.
    """
    tableau, scales, basis, redundant = _crash(rows)
    n = len(rows[0])
    columns = list(zip(*rows))
    # The kept feasible basis (see _kept_basis) and integer Farkas
    # multipliers, or None.
    feasible_basis = certificate = None
    verdicts = []
    for b in rhs_list:
        if feasible_basis is not None and _feasible_at(feasible_basis, b):
            verdicts.append(OPTIMAL)
            continue
        if certificate is not None and sum(map(mul, certificate, b)) > 0:
            verdicts.append(INFEASIBLE)
            continue
        z = next((y for y in redundant if sum(map(mul, y, b))), None)
        if z is not None:
            if sum(map(mul, z, b)) < 0:
                z = [-v for v in z]
        else:
            z = _dual_simplex(tableau, scales, basis, n, over_common_denominator(b)[0])
        if z is None:
            feasible_basis = _kept_basis(tableau, scales, basis, rows, n)
            if not _feasible_at(feasible_basis, b):
                raise AssertionError("the sweep's feasible basis fails its exact check")
            verdicts.append(OPTIMAL)
        else:
            if sum(map(mul, z, b)) <= 0 or any(
                sum(map(mul, column, z)) > 0 for column in columns
            ):
                raise AssertionError("the sweep's Farkas vector fails its exact check")
            certificate = z
            verdicts.append(INFEASIBLE)
    return verdicts
