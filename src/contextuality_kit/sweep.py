"""Feasibility of ``A x = b, x >= 0`` by a crash basis and dual simplex.

A feasibility system has zero costs, so every reduced cost is 0 and
*every* basis is dual feasible: a right-hand side b only moves
x_B = B⁻¹b, and the dual simplex (C. E. Lemke, *Naval Res. Logist. Q.*
1, 36 (1954)) pivots from whatever basis it finds.  The start is one
crash basis, the Gauss–Jordan form of ``[A | I | x_B]`` built with the
shared ``simplex._pivot``: each row pivots on its lowest-index nonzero
column, and a row with no structural nonzero left is redundant, its
``I`` block a vector y with yᵀA = 0.  The ``I`` block of a kept row is
that row of B⁻¹ against every original row (V. Chvátal, *Linear
Programming*, 1983, ch. 7), so x_B at a new b is one dot product per
row, and a row whose x_B entry is negative but whose structural
entries are all >= 0 gives −(its row of B⁻¹) as a Farkas vector.

:func:`solve_many` decides many right-hand sides that share one
integer matrix A, such as the points of a parameter grid, from one
crash basis, and keeps the evidence of earlier points: the last
feasible basis with its inverse, read by ``simplex._basic_values``, and
the last Farkas certificate.  A right-hand side b is feasible when
``x_B >= 0`` and the padded x satisfies every row, the redundant rows
included; it is infeasible when ``yᵀA <= 0`` and ``yᵀb > 0``.  Either
is a complete proof at that b, and only such a proof decides a
verdict.  Both checks are exact for any rational b and unchanged when b
is multiplied by a positive number, so a caller that holds b as ints
over its own denominator, as the GHZ grid sweep does, passes those
ints, and the checks run in integers.  No state outlives the call.

:func:`solve_lp` is the same solve at one right-hand side, with no
kept evidence.  No kit path runs it; it is the ``simplex.solve_lp``
attribute the benchmark's tracer wraps.  No report reads a pivot path,
and a standard ``check`` never loads this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .numerics import over_common_denominator
from .simplex import INFEASIBLE, OPTIMAL, LpResult, _basic_values, _check_rhs, _pivot, _reduced


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


def _dual_simplex(tableau, scales, basis, n, b, pivots):
    """Dual-simplex pivots from the current basis at ints b: None, or a Farkas vector.

    Sets x_B = B⁻¹b, read off each row's ``I`` block, then pivots while
    an entry is negative: the negative row with the lowest basic index
    leaves, and the lowest-index structural column with a negative entry
    in that row enters.  None means x_B >= 0 at the basis reached; when
    the leaving row has no negative entry, −(its row of B⁻¹) is returned.
    Each pivot adds 1 to ``pivots[0]``.
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
        pivots[0] += 1


def _farkas(tableau, scales, basis, redundant, n, b, pivots):
    """None when b is feasible at the basis that dual pivots reach, else a Farkas vector.

    A redundant row's y with yᵀb != 0 is the vector, signed so that
    yᵀb > 0; otherwise :func:`_dual_simplex` runs at b over its common
    denominator.
    """
    z = next((y for y in redundant if sum(map(mul, y, b))), None)
    if z is None:
        return _dual_simplex(tableau, scales, basis, n, over_common_denominator(b)[0], pivots)
    return z if sum(map(mul, z, b)) > 0 else [-v for v in z]


def _inverse(tableau, scales, n):
    """B⁻¹ of the current basis: one lowest-terms (ints, scale) per kept row."""
    return [_reduced(line[n:-1], s) for line, s in zip(tableau, scales[:-1])]


def solve_lp(rows: list[list[int]], rhs: list[Fraction]) -> LpResult:
    """Feasibility of  rows·x = rhs,  x >= 0: :func:`solve_many` at one rhs.

    The rows are ints (TypeError otherwise), and ``rhs`` has one int or
    Fraction per row (ValueError otherwise).  A feasible system gives
    OPTIMAL with the basic column and row of B⁻¹ of each row kept by the
    crash; an infeasible one gives INFEASIBLE with a Farkas vector y in
    ``duals``: yᵀA <= 0 componentwise and yᵀb > 0.  ``pivots`` counts
    the crash and dual pivots.
    """
    _check_rhs(rhs, len(rows))
    tableau, scales, basis, redundant = _crash(rows)
    n = len(rows[0])
    pivots = [len(basis)]
    z = _farkas(tableau, scales, basis, redundant, n, rhs, pivots)
    if z is not None:
        return LpResult(status=INFEASIBLE, duals=[Fraction(v) for v in z], pivots=pivots[0])
    inverse = tuple(_inverse(tableau, scales, n))
    return LpResult(status=OPTIMAL, pivots=pivots[0], basis=tuple(basis), inverse=inverse)


def _kept_basis(tableau, scales, basis, rows, n):
    """(B⁻¹ over one scale, the basic columns of every row, that scale)."""
    inverse = _inverse(tableau, scales, n)
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
    rows are ints (TypeError otherwise).  Each rhs has one int or
    Fraction per row (ValueError otherwise) and is taken as given, so
    ints over the caller's own denominator are the fast path.  The rows
    are put in Gauss–Jordan form once (:func:`_crash`), and each rhs is
    then decided by the first of these that applies:

    1. the last feasible basis, when x_B >= 0 and every row, the
       redundant ones included, holds at rhs;
    2. the last certificate z, when zᵀrhs > 0;
    3. a redundant row's y with yᵀrhs != 0, whose ±y is the certificate;
    4. dual-simplex pivots from the tableau's current basis
       (:func:`_dual_simplex`), ending at a basis with x_B >= 0, which
       becomes the kept feasible basis and must pass check 1, or at a
       Farkas vector z, which must pass zᵀA <= 0 and zᵀrhs > 0 and
       becomes the kept certificate.

    So every verdict is an exact proof at its rhs; evidence that fails
    its check raises AssertionError instead of deciding anything.

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
    m, n = len(rows), len(rows[0])
    columns = list(zip(*rows))
    pivots = [0]
    # The kept feasible basis (see _kept_basis) and integer Farkas
    # multipliers, or None.
    feasible_basis = certificate = None
    verdicts = []
    for b in rhs_list:
        _check_rhs(b, m)
        if feasible_basis is not None and _feasible_at(feasible_basis, b):
            verdicts.append(OPTIMAL)
            continue
        if certificate is not None and sum(map(mul, certificate, b)) > 0:
            verdicts.append(INFEASIBLE)
            continue
        z = _farkas(tableau, scales, basis, redundant, n, b, pivots)
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
