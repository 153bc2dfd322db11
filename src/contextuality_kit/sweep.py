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
feasible basis and the last Farkas certificate.  A right-hand side b
is feasible when ``x_B >= 0`` and the padded x satisfies every row, the
redundant rows included; it is infeasible when ``yᵀA <= 0`` and
``yᵀb > 0``.  Either is a complete proof at that b, and only such a
proof decides a verdict.  The row check is linear in b, so a kept basis
carries it as the nonzero rows of one residual matrix, formed once per
basis (:func:`_kept_basis`).  Both checks are exact for any rational b
and unchanged when b is multiplied by a positive number, so a caller
holding b as ints over its own denominator, as the GHZ grid sweep does,
passes those ints: a settled point is then a few integer dot products
(:func:`_feasible_at`), with no Fraction, record or x_B list built.

The crash depends only on the matrix, so it is memoized, immutably,
for the last matrix swept (:func:`_crash`), and each call starts from
a fresh copy of it; the type and shape checks still run on every call.
No evidence outlives the call.

:func:`solve_lp` is the same solve at one right-hand side, with no
kept evidence.  No kit path runs it; it is the ``simplex.solve_lp``
attribute the benchmark's tracer wraps.  No report reads a pivot path,
and a standard ``check`` never loads this module.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul

from .numerics import over_common_denominator
from .simplex import INFEASIBLE, OPTIMAL, LpResult, _check_rhs, _pivot, _reduced


def _matrix(rows):
    """``rows`` as a tuple of int tuples, the key of :func:`_crash`'s memo.

    Raises ValueError when there is no row or the rows differ in length,
    and TypeError when an entry is not an int: ``1``, ``1.0``, ``True``
    and ``Fraction(1)`` hash alike, so these checks run on every call,
    before the memo is read.
    """
    if not rows:
        raise ValueError("the sweep takes at least one row")
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("the sweep's rows differ in length")
    if any(type(v) is not int for row in rows for v in row):
        raise TypeError("the sweep takes integer rows")
    return tuple(map(tuple, rows))


@functools.lru_cache(maxsize=1)
def _crash(matrix):
    """The Gauss–Jordan form of ``[matrix | I | 0]``: (tableau, scales, basis, redundant).

    ``matrix`` is a :func:`_matrix` key.  Row i pivots on its
    lowest-index nonzero structural column, with the shared
    :func:`simplex._pivot`.  A row left with no structural nonzero is
    redundant: it is dropped, and its ``I`` block, a y with yᵀA = 0,
    goes to ``redundant``.  The kept rows are followed by the all-zero
    objective row of a feasibility system, which no pivot changes.

    Everything returned is a tuple, since the last matrix's crash is
    kept for the next call; :func:`_fresh` copies it into lists to pivot
    on.
    """
    m, n = len(matrix), len(matrix[0])
    tableau = [[*row, *(int(k == i) for k in range(m)), 0] for i, row in enumerate(matrix)]
    tableau.append([0] * (n + m + 1))
    scales = [1] * (m + 1)
    basis = [-1] * m
    for i in range(m):
        line = tableau[i]
        entering = next((j for j in range(n) if line[j]), -1)
        if entering >= 0:
            _pivot(tableau, scales, basis, i, entering)
    kept = [i for i in range(m) if basis[i] >= 0]
    return (
        tuple(tuple(tableau[i]) for i in kept + [m]),
        tuple(scales[i] for i in kept + [m]),
        tuple(basis[i] for i in kept),
        tuple(tuple(tableau[i][n:-1]) for i in range(m) if basis[i] < 0),
    )


def _fresh(crash):
    """A :func:`_crash` result in new lists, so that pivots leave the memo as it is."""
    tableau, scales, basis, redundant = crash
    return [list(line) for line in tableau], list(scales), list(basis), redundant


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

    The rows are ints (TypeError otherwise), one or more and of one
    length, and ``rhs`` has one int or Fraction per row (ValueError
    otherwise).  A feasible system gives OPTIMAL with the basic column
    and row of B⁻¹ of each row kept by the crash; an infeasible one
    gives INFEASIBLE with a Farkas vector y in ``duals``: yᵀA <= 0
    componentwise and yᵀb > 0.  ``pivots`` counts the crash's pivots,
    one per kept row, whether or not the memo held the crash, and the
    dual ones.
    """
    matrix = _matrix(rows)
    _check_rhs(rhs, len(matrix))
    tableau, scales, basis, redundant = _fresh(_crash(matrix))
    n = len(matrix[0])
    pivots = [len(basis)]
    z = _farkas(tableau, scales, basis, redundant, n, rhs, pivots)
    if z is not None:
        return LpResult(status=INFEASIBLE, duals=[Fraction(v) for v in z], pivots=pivots[0])
    inverse = tuple(_inverse(tableau, scales, n))
    return LpResult(status=OPTIMAL, pivots=pivots[0], basis=tuple(basis), inverse=inverse)


def _kept_basis(tableau, scales, basis, rows, n):
    """(B⁻¹ over one scale, the nonzero rows of its residual R).

    With the k kept rows of B⁻¹ over one scale s and ``block`` the basic
    columns of all m rows, x_B = B⁻¹b / s padded with zeros satisfies
    every row exactly when block·(B⁻¹b) = s·b, that is, when R·b = 0
    for the m×m matrix R = block·B⁻¹ − s·I.  That holds for every b, so
    R is formed once per basis, each entry a dot product of a block with
    a column of the kept inverse, and only its nonzero rows are kept.
    R is 0 with no redundant row and a correct inverse, −s·I with none kept.
    """
    inverse = _inverse(tableau, scales, n)
    scale = math.lcm(*(s for _, s in inverse))
    inverse = [([v * (scale // s) for v in line], scale) for line, s in inverse]
    columns = list(zip(*(line for line, _ in inverse))) or [()] * len(rows)
    residual = []
    for i, row in enumerate(rows):
        block = [row[c] for c in basis]
        line = [sum(map(mul, block, column)) for column in columns]
        line[i] -= scale
        if any(line):
            residual.append(line)
    return inverse, residual


def _feasible_at(feasible_basis, b):
    """Whether the kept basis proves b feasible: x_B >= 0 and R·b = 0.

    R·b = 0 on the residual's nonzero rows is A·x = scale·b on every
    row, the redundant ones included (see :func:`_kept_basis`).  One
    pass stops at the first negative x_B entry or nonzero R·b entry.
    """
    inverse, residual = feasible_basis
    for line, _ in inverse:
        if sum(map(mul, line, b)) < 0:
            return False
    for line in residual:
        if sum(map(mul, line, b)):
            return False
    return True


def solve_many(rows: list[list[int]], rhs_list) -> list[str]:
    """Feasibility of  rows·x = rhs,  x >= 0  for each rhs in ``rhs_list``.

    Returns OPTIMAL or INFEASIBLE per right-hand side, in order.  The
    rows are ints (TypeError otherwise), one or more and of one length
    (ValueError otherwise).  Each rhs has one int or Fraction per row
    (ValueError otherwise) and is taken as given, so ints over the
    caller's own denominator are the fast path.  The rows are put in
    Gauss–Jordan form once per matrix (:func:`_crash`, memoized for the
    last matrix), each call pivots on its own copy, and each rhs is then
    decided by the first of these that applies:

    1. the last feasible basis, when x_B >= 0 and R·rhs = 0
       (:func:`_feasible_at`; :func:`_kept_basis` forms R once per
       basis): every row, the redundant ones included, holds at rhs;
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
    matrix = _matrix(rows)
    tableau, scales, basis, redundant = _fresh(_crash(matrix))
    m, n = len(matrix), len(matrix[0])
    columns = list(zip(*matrix))
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
            feasible_basis = _kept_basis(tableau, scales, basis, matrix, n)
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
