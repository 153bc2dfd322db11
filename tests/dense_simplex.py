"""The kit's former one-phase solver on the dense integer tableau, and
the tests' phase-1 reference decisions.

``simplex.solve_from_basis`` now keeps only B⁻¹ and prices the atom
columns with a Walsh–Hadamard transform.  This module keeps the solver
it replaced, which pivots every column of ``[A | b]``, as the reference
its pivot path is pinned against: both follow Dantzig's rule with
lowest-index ties and the lexicographic ratio test from the same start
basis, so every LP must give the same status, pivots, point, objective
and row duals, and the duals must give the reduced costs of the dense
objective row.  The revised simplex computes each tied row's B⁻¹B₀
entries from B⁻¹ and B₀'s columns; here they are read directly, as
the dense tableau's entries at the start basis's columns.  The integer
pivot, ratio test and pricing are the kit's own; ``_bring_in``, which
places the start basis with the kit's pivot, is this module's.

:func:`solve_lp` is the kit's former phase 1: Bland's rule (lowest
eligible index enters, ratio-test ties go to the lowest basic index)
on the dense integer tableau ``[A | I | b]`` with one artificial column
per row, with the kit's integer pivot.  Bland's entering rule and tie
rule live here, as the kit's revised simplex no longer uses them.  The
kit now decides feasibility systems in ``sweep`` from a Gauss–Jordan
crash basis and dual-simplex pivots, so this is the tests' independent
integer phase-1 reference: ``test_simplex_reference.py`` pins it
against ``fraction_simplex``'s phase 1, and every cold verdict that
``sweep.solve_many`` is compared with comes from it.  It minimizes the
total artificial mass; a positive optimum means infeasible, and the
phase-1 row duals are a Farkas certificate.  At a zero optimum the
artificials are pivoted out, redundant rows are dropped, and the
feasible basis is returned with its inverse, read off the artificial
block.  :func:`feasible_at` decides one scenario with it, on the
scenario's rows in standard form (:func:`to_standard_form`).  It
shares no code with ``feasibility.solve``'s margin LP, and only the
integer pivot with ``sweep``.

:class:`FullWidthLp` is ``simplex._RevisedLp`` as it was before it kept
B⁻¹ over its live columns only: every row holds all m columns of B⁻¹,
and its ratio test multiplies each full row by B₀'s columns, with no
slack read off a held entry.  :func:`solve_full_width` runs
``simplex.solve_from_basis`` on it, so the tests can pin every
``LpResult`` field, ``inverse`` included, of the narrow rows against the
full ones.

:func:`verify_certificate_by_rows` is ``feasibility.verify_certificate``
as it was, combining the certificate's multipliers over the dense 2ⁿ
standard rows; the tests pin the kit's one-transform check against it.
"""

import math
from fractions import Fraction
from operator import mul

from contextuality_kit import simplex
from contextuality_kit.errors import CertificateError
from contextuality_kit.feasibility import _standard_rows
from contextuality_kit.numerics import over_common_denominator
from contextuality_kit.simplex import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LpResult,
    _basic_values,
    _leaving,
    _pivot,
    _reduced,
    _walsh,
)

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


def full_point(result, width):
    """``result.x``, the basic values x_B, lifted to all ``width`` columns through ``result.basis``.

    None for a result with no point.
    """
    if result.x is None:
        return None
    x = [_ZERO] * width
    for col, value in zip(result.basis, result.x):
        x[col] = value
    return x


def _bland_entering(obj):
    """Lowest-index column with a negative reduced cost, or -1."""
    return next((j for j, v in enumerate(obj[:-1]) if v < 0), -1)


def _bland_leaving(tableau, basis, entering):
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


def _run_bland(tableau, scales, basis):
    """Minimize the phase-1 objective row with Bland's rule; returns the pivots."""
    m = len(tableau) - 1
    pivots = 0
    while True:
        entering = _bland_entering(tableau[m])
        if entering < 0:
            return pivots
        leaving = _bland_leaving(tableau, basis, entering)
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

    pivots = _run_bland(tableau, scales, basis)
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


def phase_one_point(result, rhs, n_vars):
    """The basic point of an optimal ``solve_lp`` or ``sweep.solve_lp`` result, from its inverse."""
    b, common = over_common_denominator(rhs)
    x = [_ZERO] * n_vars
    for col, value, (_, scale) in zip(
        result.basis, _basic_values(result.inverse, b), result.inverse
    ):
        x[col] = Fraction(value, scale * common)
    return x


def integer_rows(rows, rhs_list):
    """The same systems in integer rows, as :func:`solve_lp` and ``sweep.solve_lp`` take them.

    Row i, and its entry of every right-hand side in ``rhs_list``, is
    multiplied by the lcm of the row's denominators.
    """
    scales = [math.lcm(*(v.denominator for v in row)) for row in rows]
    return (
        [[int(v * s) for v in row] for row, s in zip(rows, scales)],
        [[v * s for v, s in zip(rhs, scales)] for rhs in rhs_list],
    )


def feasible_at(scenario):
    """Whether the tests' phase 1, :func:`solve_lp`, finds a joint distribution for ``scenario``.

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


def reduced_costs(costs, rows, duals):
    """Each column's reduced cost c_j − Σ_r y_r·rows[r][j] under the row duals y."""
    return [c - sum(y * row[j] for y, row in zip(duals, rows) if y) for j, c in enumerate(costs)]


def _duals(costs, rows, basis):
    """The row duals y of ``basis``: yᵀ·(basic column i) = (its cost), solved in Fractions.

    Gauss–Jordan elimination on the m equations, one per basic column,
    independent of the kit's integer pivot.
    """
    m = len(rows)
    system = [[Fraction(rows[r][col]) for r in range(m)] + [Fraction(costs[col])] for col in basis]
    for k in range(m):
        pivot = next(i for i in range(k, m) if system[i][k])
        system[k], system[pivot] = system[pivot], system[k]
        system[k] = [v / system[k][k] for v in system[k]]
        for i in range(m):
            if i != k and system[i][k]:
                f = system[i][k]
                system[i] = [a - f * b for a, b in zip(system[i], system[k])]
    return [line[-1] for line in system]


def dense_lp(costs, columns, rhs, characters=None):
    """The costs and rows of ``solve_from_basis``'s LP: character columns, then ``columns``.

    The character columns are built from the atom oracle's ``bits`` and
    ``masks``.  Each of ``columns`` maps a row to its entry there, and ``costs``
    gives one cost per explicit column; a character column costs 0.
    """
    atoms = 1 << characters.bits if characters is not None else 0
    rows = []
    for i in range(len(rhs)):
        row = []
        if characters is not None:
            mask = characters.masks[i]
            row = [-1 if (a & mask).bit_count() & 1 else 1 for a in range(atoms)]
        rows.append(row + [column.get(i, 0) for column in columns])
    return [0] * atoms + list(costs), rows


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
    """Minimize the objective row with Dantzig's rule and the lexicographic ratio test.

    B⁻¹B₀ is read directly: its column k is the dense tableau's column
    of the start basis's k-th column, ``basis[k]`` as it is on entry.
    Returns (status, pivots taken).
    """
    m = len(tableau) - 1
    start = list(basis)
    pivots = 0
    while True:
        obj = tableau[m]
        most_negative = min(obj[:-1])
        if most_negative >= 0:
            return OPTIMAL, pivots
        entering = obj.index(most_negative)
        leaving = _leaving(
            [(i, line[entering], line[-1]) for i, line in enumerate(tableau[:-1]) if line[entering] > 0],
            lambda rows, k: (k, [tableau[i][start[k]] for i in rows]),
        )
        if leaving < 0:
            return UNBOUNDED, pivots
        _pivot(tableau, scales, basis, leaving, entering)
        pivots += 1


def solve_from_basis(costs, rows, rhs, basis):
    """One-phase simplex for  min c·x,  rows·x = rhs,  x >= 0, on the dense tableau.

    ``costs`` has one entry per column of ``rows``.  Returns the
    ``LpResult``, whose ``x`` holds the basic values in ``basis`` order,
    and the reduced costs of its final objective row (None when
    unbounded).  The result's duals are solved for from the final basis
    (:func:`_duals`), not read off any tableau entry.
    """
    m = len(rows)
    if len(basis) != m:
        raise ValueError(f"start basis has {len(basis)} columns for {m} rows")
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
        return LpResult(status=UNBOUNDED, pivots=pivots), None
    obj, obj_scale = tableau[m], scales[m]
    result = LpResult(
        status=OPTIMAL,
        x=[Fraction(line[-1], scale) for line, scale in zip(tableau, scales[:m])],
        objective=Fraction(-obj[-1], obj_scale),
        duals=_duals(costs, rows, placed),
        pivots=pivots,
        basis=tuple(placed),
    )
    return result, [Fraction(v, obj_scale) for v in obj[:-1]]


class FullWidthLp:
    """``simplex._RevisedLp`` as it was: every B⁻¹ row over all m columns.

    The rows ``[B⁻¹ | slot | x_B]`` and the objective row of one LP.

    The matrix and the costs are integers (a character is ±1, and the
    kit's explicit columns are ±1 too); a Fraction among them raises
    TypeError.  Only the right-hand side is rational: it is multiplied
    by its common denominator ``rhs_scale``, and the tableau starts as
    ``[I | 0 | b·rhs_scale]`` and an objective row ``[0 | 0 | 0]``, every
    row over scale 1.  So the bracket denominators of the targets are
    held once, in ``rhs_scale``, and never enter B⁻¹ or the duals;
    :meth:`result` divides x and the objective by it, and the ratio test
    is unchanged, since ``rhs_scale`` cancels in its cross-multiplication.
    A row's first m entries are the multipliers that combine the
    rows of ``[A | b]`` into that row of the dense tableau; the objective
    row's, w, stand for ``scale·[c | 0] + w·[A | b]``, so w prices every
    column.  Slot m holds the column being pivoted in, written by
    :meth:`enter`; :func:`_pivot` and :func:`_leaving` work on these
    rows as on the dense tableau.
    """

    def __init__(self, costs, columns, rhs, characters):
        m = self.m = len(rhs)
        self.bits, self.masks = (0, ()) if characters is None else (characters.bits, characters.masks)
        self.atoms = 1 << self.bits if characters is not None else 0
        if any(type(v) is not int for v in [*costs, *(v for c in columns for v in c.values())]):
            raise TypeError("the revised simplex takes integer columns and costs")
        if any(not 0 <= i < m for c in columns for i in c):
            raise ValueError(f"a column has an entry off the rows 0..{m - 1}")
        # Each explicit column: its (row, entry) when it has one nonzero
        # entry (a slack), else a list of m entries.
        self.units, self.columns = [], []
        for column in columns:
            nonzero = [(i, v) for i, v in column.items() if v]
            dense = None
            if len(nonzero) != 1:
                dense = [0] * m
                for i, v in nonzero:
                    dense[i] = v
            self.units.append(nonzero[0] if dense is None else None)
            self.columns.append(dense)
        self.costs = costs
        rhs, self.rhs_scale = over_common_denominator(rhs)
        self.tableau = [[0] * (m + 2) for _ in range(m + 1)]
        for i, b in enumerate(rhs):
            self.tableau[i][i] = 1
            self.tableau[i][-1] = b
        self.scales = [1] * (m + 1)
        self.basis = [-1] * m

    def enter(self, j):
        """Write column j, as the current basis sees it, into slot m."""
        m, tableau = self.m, self.tableau
        if j < self.atoms:
            column = [-1 if (j & mask).bit_count() & 1 else 1 for mask in self.masks]
            for line in tableau:
                line[m] = sum(map(mul, line, column))
        elif self.units[j - self.atoms] is not None:
            i, v = self.units[j - self.atoms]
            for line in tableau:
                line[m] = line[i] * v
        else:
            column = self.columns[j - self.atoms]
            for line in tableau:
                line[m] = sum(map(mul, line, column))
        if j >= self.atoms:
            tableau[m][m] += self.costs[j - self.atoms] * self.scales[m]

    def _column(self, j):
        """Column j's m entries, built afresh."""
        if j < self.atoms:
            return [-1 if (j & mask).bit_count() & 1 else 1 for mask in self.masks]
        column = self.columns[j - self.atoms]
        if column is None:
            i, v = self.units[j - self.atoms]
            column = [0] * self.m
            column[i] = v
        return column

    def leaving(self):
        """The ratio test on slot m: the row that leaves, or -1.

        Column k of B⁻¹B₀ is each full B⁻¹ row times the column that
        position k holds after :meth:`start`.
        """

        def lex(rows, k):
            column = self._column(self.start_basis[k])
            return k, [sum(map(mul, self.tableau[i], column)) for i in rows]

        m = self.m
        return _leaving([(i, line[m], line[-1]) for i, line in enumerate(self.tableau[:-1]) if line[m] > 0], lex)

    def pivot(self, row, j):
        _pivot(self.tableau, self.scales, self.basis, row, self.m)
        self.basis[row] = j

    def start(self, basis):
        """Bring the start basis's columns in, or raise ValueError if singular.

        While B⁻¹ is the identity, a unit column of cost 0 and entry ±1
        on row i needs no pivot: its pivot would only negate row i for
        −1, as no other row, the objective row included, has an entry in
        its column.  Such columns are placed first, each on its own row;
        the rest (a second unit on a taken row among them) are entered
        and pivoted in in order, each on the first row not yet taken
        where it is nonzero.  The rows' values depend only on which
        column ends up basic on each row, and the pivots only on those
        values; for the margin LP's crash basis (the atom on row 0, each
        other row's slack or t on that row) that is where pivoting every
        column in in order puts it, so every later pivot is unchanged.
        """
        m, tableau = self.m, self.tableau
        rest = []
        for col in basis:
            unit = self.units[col - self.atoms] if col >= self.atoms else None
            if (
                unit
                and unit[1] in (1, -1)
                and not self.costs[col - self.atoms]
                and self.basis[unit[0]] < 0
            ):
                i, v = unit
                if v < 0:
                    line = tableau[i]
                    line[i], line[-1] = -1, -line[-1]
                self.basis[i] = col
            else:
                rest.append(col)
        for col in rest:
            self.enter(col)
            row = next((i for i, c in enumerate(self.basis) if c < 0 and tableau[i][m]), -1)
            if row < 0:
                raise ValueError(f"start basis is singular at column {col}")
            self.pivot(row, col)
        if any(line[-1] < 0 for line in tableau[:m]):
            raise ValueError("start basis is not primal-feasible")
        self.start_basis = tuple(self.basis)

    def reduced_costs(self):
        """Every column's reduced cost, as ints over the objective row's scale.

        The atom block is one Walsh–Hadamard transform of the duals
        placed on their rows' masks; each explicit column is priced from
        its entries.
        """
        m, obj, scale = self.m, self.tableau[self.m], self.scales[self.m]
        reduced = []
        if self.atoms:
            weights = [0] * self.atoms
            for w, mask in zip(obj, self.masks):
                if w:
                    weights[mask] += w
            reduced = _walsh(weights, self.bits)
        for c, column, unit in zip(self.costs, self.columns, self.units):
            if unit is None:
                reduced.append(c * scale + sum(map(mul, obj, column)))
            else:
                reduced.append(c * scale + obj[unit[0]] * unit[1])
        return reduced

    def entering(self):
        """Dantzig's choice: (least reduced cost, its column), lowest index on ties."""
        reduced = self.reduced_costs()
        least = min(reduced)
        return least, reduced.index(least)

    def result(self, pivots) -> LpResult:
        """The optimal LpResult of the current basis, B⁻¹ in lowest terms."""
        m, tableau, scales = self.m, self.tableau, self.scales
        scale = scales[m]
        x = [Fraction(line[-1], s * self.rhs_scale) for line, s in zip(tableau, scales[:m])]
        inverse = tuple(_reduced(line[:m], s) for line, s in zip(tableau, scales[:m]))
        return LpResult(
            status=OPTIMAL,
            x=x,
            objective=Fraction(-tableau[m][-1], scale * self.rhs_scale),
            pivots=pivots,
            basis=tuple(self.basis),
            inverse=inverse,
            duals=[Fraction(-w, scale) if w else _ZERO for w in tableau[m][:m]],
        )


_solve_from_basis = simplex.solve_from_basis


def solve_full_width(costs, columns, rhs, basis, characters=None) -> LpResult:
    """``simplex.solve_from_basis`` on :class:`FullWidthLp` rows."""
    narrow = simplex._RevisedLp
    simplex._RevisedLp = FullWidthLp
    try:
        return _solve_from_basis(costs, columns, rhs, basis, characters)
    finally:
        simplex._RevisedLp = narrow


def verify_certificate_by_rows(scenario, certificate):
    """``feasibility.verify_certificate`` on the dense standard rows.

    The same sign rules and box right-hand side; every atom's combined
    coefficient is summed row by row over the 2ⁿ entries of each
    multiplier's row.
    """
    rows, targets, relations = _standard_rows(scenario)
    if len(certificate) != len(rows):
        raise CertificateError(
            f"certificate has {len(certificate)} entries for {len(rows)} rows"
        )
    y = [Fraction(v) for v in certificate]
    for yi, rel in zip(y, relations):
        if rel == GE and yi < 0:
            return False
        if rel == LE and yi > 0:
            return False
    scaled, _ = over_common_denominator(y)
    combined = [0] * scenario.space.atom_count
    for yi, row in zip(scaled, rows):
        if yi:
            combined = [c + yi * k for c, k in zip(combined, row)]
    if any(c > 0 for c in combined):
        return False
    rhs, _ = over_common_denominator([t.lo if yi > 0 else t.hi for yi, t in zip(y, targets)])
    return sum(map(mul, scaled, rhs)) > 0
