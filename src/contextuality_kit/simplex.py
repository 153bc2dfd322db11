"""Exact revised simplex over the rationals, in integers.

Solves   minimize c·x   subject to   A x = b,  x >= 0

exactly, so there is no tolerance tuning anywhere: a pivot element is
nonzero or it is not.

* :func:`solve_from_basis`, a revised simplex: one phase from a
  feasible basis the caller knows, with Dantzig's rule.  The start
  basis's unit columns of cost 0 (slacks) are placed on their rows
  while B⁻¹ is still the identity, with no pivot; only its other
  columns are pivoted in.  Every standard scenario is decided by it:
  the optimum's basic values (``LpResult.x``) give the witness, and
  its row duals (``LpResult.duals``) the Farkas certificate.  Dantzig's
  rule with lowest-index ties and the Bland fallback on degenerate
  steps fix the pivot path, so that evidence is deterministic.
* :func:`settle`, the optimum of a :func:`solve_from_basis` LP at
  another right-hand side, from its optimal basis, when that basis is
  still primal-feasible there; its objective is yᵀb, off the duals.

The integer rows and the pivot are shared with :mod:`.sweep`, which
decides feasibility systems from one Gauss–Jordan crash basis and
dual-simplex pivots, at many right-hand sides (``sweep.solve_many``,
the grid sweeps) or at one (``sweep.solve_lp``, which no kit path
runs).  ``solve_lp`` is still reachable as an attribute of this
module, and importing it loads :mod:`.sweep`.

The revised simplex holds ``[B⁻¹ | x_B]`` and the objective row instead
of every column, and B⁻¹ only over its live columns: while a slack (a
unit column of cost 0, entry ±1) of row r is basic, column r of B⁻¹ is
a unit vector, kept implicit.  So with k rows that have no basic slack
it holds (m + 1) × (k + 2) integers, not (m + 1) × (m + 2); the margin
LP's rows are mostly slack rows.  Every explicit column is held as its
m entries, entered and priced by dot products; the slack is the one
special explicit column, priced off its row's dual.  The LPs may have a
block of character columns: atom a's entry in row i is
``(-1)^popcount(a & mask_i)``, as for the kit's moment rows over 2ⁿ
atoms.  Those columns are never formed.  Each pivot prices all of them
at once: the objective row's duals, added up on their rows' masks, go
through one integer Walsh–Hadamard transform (n·2ⁿ additions; Fino and
Algazi, *IEEE Trans. Comput.* C-25, 1142 (1976)), and only the entering
column is built, from its atom's bits.  The pricing is exhaustive over
the atoms, because finding the best atom is the separation problem of
the correlation polytope, NP-hard in general (I. Pitowsky, *Math.
Programming* 50, 395 (1991)).  The pivots are those of the dense
one-phase tableau this replaced: the basis rows hold the same rational
values, Dantzig's choice reads the same reduced costs in the same
column order, and the ratio test the same column.  So the point,
objective and duals are the same too, which the tests pin against
that tableau, kept as ``tests/dense_simplex.py`` with the full-width
B⁻¹ rows that the live columns replaced.

Every LP the kit solves has an integer matrix and a rational
right-hand side: ±1 characters, ±1 slack and ``t`` columns,
and integer costs (the cost of t).  Both solvers take only such LPs; a
Fraction in the matrix or the costs raises TypeError.  The right-hand
side is put over one common denominator
(:func:`.numerics.over_common_denominator`), which no pivot reads, so
every row starts over scale 1 and the right-hand side's denominators
stay out of B⁻¹ (in the revised simplex, the usual layout ``[I | b]``
with x_B held apart from B⁻¹; I. Maros, *Computational Techniques of
the Simplex Method*, 2003).  Every tableau row, the objective row
included, is a list of Python ints over one positive integer scale;
the row's rational value is ``ints / scale``.  A pivot on entry p of
the pivot row cross-multiplies every other row, ``other·p − f·prow``
over ``scale·p`` with gcd(f, p) cancelled first, at the pivot row's
nonzero columns only: the integer-preserving elimination of Escobedo
and Moreno-Centeno (*INFORMS J. Comput.* 27 (2015)).  That method
divides every updated row by its gcd; here only the pivot row, the
objective row (the duals every pricing transforms) and a row whose
scale has outgrown ``_REDUCE_BITS`` bits are divided, and every other
row keeps a positive common factor until a read-out puts it in lowest
terms.  Below the bound a full-row gcd after every update costs more
than the slightly longer integers it saves.

Bland's rule (lowest eligible index enters; ties in the ratio test
broken by lowest basic index) guarantees termination without cycling.
Its choices read only signs and ratios within one row.  A positive
scale changes no sign, and the ratio test decides
``rhs_i/coeff_i < rhs_k/coeff_k`` as ``rhs_i·coeff_k < rhs_k·coeff_i``,
where the row scales cancel, and so does a positive factor common to a
row and its scale.  So the pivots are exactly those of the same tableau
held in Fractions, whichever rows are in lowest terms.

The one-phase solve enters the column of most negative reduced cost.
When that step would be degenerate (a zero ratio), it takes Bland's
entering column and leaving row instead.  A non-degenerate pivot lowers
the objective strictly, so no basis recurs across one; a cycle would
have to consist of degenerate pivots only, and every degenerate pivot
is a Bland pivot, which cannot cycle.  So this loop terminates too.

Fractions appear only at the boundary: a basic value is
``Fraction(rhs_i, scale_i)`` (over ``scale_i·rhs_scale`` in the revised
simplex), and each row dual is read off the objective row the same
way.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from ._record import Record
from .numerics import over_common_denominator

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: Row senses of the kit's LPs.
EQ, LE, GE = "eq", "le", "ge"

_ZERO = Fraction(0)


def __getattr__(name: str):
    if name == "solve_lp":
        from .sweep import solve_lp

        return solve_lp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class LpResult(Record):
    """The outcome of one LP solve.

    * ``pivots``: the pivots taken.  For ``sweep.solve_lp`` these
      include the crash pivots; for :func:`solve_from_basis` they
      exclude the pivots that bring the start basis in.
    * ``x``, ``objective``: x_B (one value per entry of ``basis``) and
      the objective of an optimal :func:`solve_from_basis` result.
    * ``basis``: on an optimal ``sweep.solve_lp`` result, the basic
      column of each row the crash kept (a redundant row has none).  On
      an optimal :func:`solve_from_basis` result, the basic column of
      each row.
    * ``inverse``: on an optimal :func:`solve_from_basis` or
      ``sweep.solve_lp`` result, row i of B⁻¹, one per entry of
      ``basis``, as (ints, scale) in lowest terms over every original
      row, so that x_B(i) = ints·b / scale for the rational right-hand
      side b (and d times that for b over a common denominator d); read
      by :func:`_basic_values`.
    * ``duals``: one per row, the row duals y of the final basis, so
      that column j's reduced cost is c_j − yᵀA_j.  On an optimal
      :func:`solve_from_basis` result they are the optimal duals:
      every reduced cost is >= 0 and yᵀb is the objective.  On an
      infeasible ``sweep.solve_lp`` result they are a Farkas
      certificate of the original integer rows: yᵀA <= 0 componentwise
      and yᵀb > 0.
    """

    __slots__ = ("status", "x", "objective", "duals", "pivots", "basis", "inverse")

    def __init__(
        self,
        status: str,
        x: list[Fraction] | None = None,
        objective: Fraction | None = None,
        duals: list[Fraction] | None = None,
        pivots: int = 0,
        basis: tuple[int, ...] | None = None,
        inverse: tuple[tuple[list[int], int], ...] | None = None,
    ):
        self._set(status, x, objective, duals, pivots, basis, inverse)


#: An updated row other than the objective row is put in lowest terms
#: only once its scale is longer than this many bits, two 30-bit
#: CPython digits; the bound keeps a row's integers from growing
#: without end.
_REDUCE_BITS = 60


def _reduced(line, scale):
    """Divide a row and its scale by their gcd."""
    g = math.gcd(scale, *line)
    if g == 1:
        return line, scale
    return [v // g for v in line], scale // g


def _pivot(tableau, scales, basis, row, col):
    """In-place integer pivot on (row, col); last row is the objective.

    The pivot row is rescaled so its pivot entry p equals its scale
    (value 1), put in lowest terms, and its nonzero columns are listed
    once.  Each other row with entry f in the pivot column becomes
    ``other·q − (f/g)·prow`` over ``scale·q``, where g = gcd(f, p) and
    q = p/g: it is multiplied by q only when q > 1, and the product is
    subtracted at the pivot row's nonzero columns only.  Rows with
    q = 1 are updated in place, so no caller may keep a tableau row
    that a later pivot must not change.

    An updated row is divided by its gcd only when it is the objective
    row, whose entries every pricing reads, or when its scale is longer
    than ``_REDUCE_BITS`` bits; any other row keeps a positive common
    factor.  Its rational values are the same either way, and so are
    the pivots: the ratio test and both entering rules read only signs
    and ratios within one row, which a positive factor does not change.
    Read-outs put each row in lowest terms once, with :func:`_reduced`.
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
    nonzero = [(j, v) for j, v in enumerate(prow) if v]
    objective = len(tableau) - 1
    for i, other in enumerate(tableau):
        f = other[col]
        if not f or i == row:
            continue
        scale = scales[i]
        g = math.gcd(f, p)
        q = p // g
        f //= g
        if q > 1:
            other = [a * q for a in other]
            scale *= q
        for j, v in nonzero:
            other[j] -= f * v
        if (i == objective and scale > 1) or scale.bit_length() > _REDUCE_BITS:
            other, scale = _reduced(other, scale)
        tableau[i] = other
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


def _walsh(values, bits):
    """Walsh–Hadamard transform: entry a is Σ_k values[k]·(-1)^popcount(a & k).

    ``values`` has 2**bits entries.  Each of the ``bits`` stages of the
    constant-geometry butterfly puts the sums of the pairs (2i, 2i+1)
    in the first half and their differences in the second; after the
    last stage the entries are back in natural order (Fino and Algazi,
    *IEEE Trans. Comput.* C-25, 1142 (1976)).  n·2ⁿ integer additions.
    """
    for _ in range(bits):
        even, odd = values[0::2], values[1::2]
        values = [a + b for a, b in zip(even, odd)] + [a - b for a, b in zip(even, odd)]
    return values


class _RevisedLp:
    """The rows ``[B⁻¹ | slot | x_B]`` of one LP, B⁻¹ over its live columns.

    The matrix and the costs are integers (a character is ±1, and the
    kit's explicit columns are ±1 too); a Fraction among them raises
    TypeError.  Only the right-hand side is rational: it is multiplied
    by its common denominator ``rhs_scale``, so every row starts over
    scale 1 and the bracket denominators of the targets are held once,
    in ``rhs_scale``, and never enter B⁻¹ or the duals; :meth:`result`
    divides x_B and the objective by it, and the ratio test is unchanged,
    since ``rhs_scale`` cancels in its cross-multiplication.

    Row i's B⁻¹ entries are the multipliers that combine the rows of
    ``[A | b]`` into that row of the dense tableau; the objective row's,
    w, stand for ``scale·[c | 0] + w·[A | b]``, so w prices every
    column and −w/scale are the row duals.  Every explicit column is
    held as its m entries; the one special kind is the *slack*, a
    column of cost 0 with one entry, ±1, on some row r, also held in
    ``slacks`` as (r, ±1).  While a slack is basic on position i,
    column r of B⁻¹ is ±e_i: row i's entry there is ±(its scale), every
    other row's is 0, the objective row's included (the slack's reduced
    cost is 0).  Such a column of B⁻¹ is not stored, only
    ``held[i] = (r, ±1)``; the other columns are *live*, listed in
    ``live`` in the order they are stored (the standard treatment of
    logical variables; I. Maros, *Computational Techniques of the
    Simplex Method*, 2003, ch. 8).  So
    each row is ``[live entries | slot | x_B]``, k + 2 integers for k
    live columns, where k counts the rows with no basic slack; the
    margin LP's are mostly slack rows.  The tableau starts with B⁻¹ the
    identity, every position holding its own column.

    Before a pivot on a position that holds a column, that column is
    made live, with its ``±scale`` written out on the pivot row; after
    a pivot that brings a slack in, the slack's column is dropped and
    held by that position.  Between the two, :func:`_pivot` works on
    the narrow rows as on the full ones: the dropped entries are 0 on
    the pivot row, so the update leaves them 0 elsewhere and a multiple
    of the scale on their own row, and they change no gcd.  So every
    stored entry, scale and pivot is the one the full rows would have,
    and :meth:`result` writes the held entries back in.  The slot,
    written by :meth:`enter` the same way for an atom and an explicit
    column, carries the column being pivoted in; :func:`_pivot` and
    :func:`_leaving` work on these rows as on the dense tableau.
    """

    def __init__(self, costs, columns, rhs, characters):
        m = self.m = len(rhs)
        self.bits, self.masks = characters if characters is not None else (0, ())
        self.atoms = 1 << self.bits if characters is not None else 0
        if any(type(v) is not int for v in [*costs, *(v for c in columns for v in c.values())]):
            raise TypeError("the revised simplex takes integer columns and costs")
        self.costs = costs
        # Every explicit column as its m entries; each slack also as (row, entry).
        self.columns, self.slacks = [], {}
        for j, (column, cost) in enumerate(zip(columns, costs), self.atoms):
            nonzero = [(i, v) for i, v in column.items() if v]
            dense = [0] * m
            for i, v in nonzero:
                dense[i] = v
            self.columns.append(dense)
            if len(nonzero) == 1 and nonzero[0][1] in (1, -1) and not cost:
                self.slacks[j] = nonzero[0]
        rhs, self.rhs_scale = over_common_denominator(rhs)
        self.live = []
        self.held = {i: (i, 1) for i in range(m)}
        self.tableau = [[0, b] for b in rhs] + [[0, 0]]
        self.scales = [1] * (m + 1)
        self.basis = [-1] * m

    def enter(self, j):
        """Write column j, as the current basis sees it, into the slot."""
        m, tableau, scales, live = self.m, self.tableau, self.scales, self.live
        slot = len(live)
        if j < self.atoms:
            column = [-1 if (j & mask).bit_count() & 1 else 1 for mask in self.masks]
        else:
            column = self.columns[j - self.atoms]
        stored = [column[c] for c in live]
        for line in tableau:
            line[slot] = sum(map(mul, line, stored))
        for i, (c, sign) in self.held.items():
            if column[c]:
                tableau[i][slot] += sign * column[c] * scales[i]
        if j >= self.atoms:
            tableau[m][slot] += self.costs[j - self.atoms] * scales[m]

    def leaving(self):
        """The ratio test on the slot: the row that leaves, or -1."""
        return _leaving(self.tableau, self.basis, len(self.live))

    def pivot(self, row, j):
        tableau, live = self.tableau, self.live
        held = self.held.pop(row, None)
        if held is not None:
            # The column this row holds goes live, its ±scale written out.
            c, sign = held
            slot = len(live)
            for line in tableau:
                line.insert(slot, 0)
            tableau[row][slot] = sign * self.scales[row]
            live.append(c)
        _pivot(tableau, self.scales, self.basis, row, len(live))
        self.basis[row] = j
        if j in self.slacks:
            # The slack's row's column of B⁻¹ is now ±e_row: this row holds it.
            c, sign = self.slacks[j]
            k = live.index(c)
            for line in tableau:
                del line[k]
            del live[k]
            self.held[row] = (c, sign)

    def start(self, basis):
        """Bring the start basis's columns in, or raise ValueError if singular.

        While B⁻¹ is the identity, a slack on row i needs no pivot: its
        pivot would only negate row i for −1, as no other row, the
        objective row included, has an entry in its column.  Such
        columns are placed first, each on its own row, where position i
        already holds column i; the rest (a second unit on a taken row
        among them) are entered and pivoted in in order, each on the
        first row not yet taken where it is nonzero.  The rows' values
        depend only on which column ends up basic on each row, and the
        pivots only on those values; for the margin LP's crash basis
        (the atom on row 0, each other row's slack or t on that row)
        that is where pivoting every column in in order puts it, so
        every later pivot is unchanged.
        """
        tableau, rest = self.tableau, []
        for col in basis:
            slack = self.slacks.get(col)
            if slack and self.basis[slack[0]] < 0:
                i, v = slack
                self.held[i] = slack
                tableau[i][-1] *= v
                self.basis[i] = col
            else:
                rest.append(col)
        for col in rest:
            self.enter(col)
            slot = len(self.live)
            row = next((i for i, c in enumerate(self.basis) if c < 0 and tableau[i][slot]), -1)
            if row < 0:
                raise ValueError(f"start basis is singular at column {col}")
            self.pivot(row, col)

    def duals(self):
        """The objective row's w on every row: its live entries, 0 on held columns."""
        duals = [0] * self.m
        for c, w in zip(self.live, self.tableau[self.m]):
            duals[c] = w
        return duals

    def reduced_costs(self):
        """Every column's reduced cost, as ints over the objective row's scale.

        The atom block is one Walsh–Hadamard transform of :meth:`duals`
        placed on their rows' masks; a slack is priced off its row's
        dual, every other explicit column by a dot product.
        """
        scale, duals = self.scales[self.m], self.duals()
        reduced = []
        if self.atoms:
            weights = [0] * self.atoms
            for w, mask in zip(duals, self.masks):
                if w:
                    weights[mask] += w
            reduced = _walsh(weights, self.bits)
        for j, (cost, column) in enumerate(zip(self.costs, self.columns), self.atoms):
            slack = self.slacks.get(j)
            if slack:
                reduced.append(duals[slack[0]] * slack[1])
            else:
                reduced.append(cost * scale + sum(map(mul, duals, column)))
        return reduced

    def result(self, pivots) -> LpResult:
        """The optimal LpResult of the current basis, B⁻¹ at full width in lowest terms."""
        m, tableau, scales = self.m, self.tableau, self.scales
        scale = scales[m]
        x, inverse = [], []
        for i, line in enumerate(tableau[:m]):
            x.append(Fraction(line[-1], scales[i] * self.rhs_scale))
            full = [0] * m
            for c, v in zip(self.live, line):
                full[c] = v
            if i in self.held:
                c, sign = self.held[i]
                full[c] = sign * scales[i]
            inverse.append(_reduced(full, scales[i]))
        return LpResult(
            status=OPTIMAL,
            x=x,
            objective=Fraction(-tableau[m][-1], scale * self.rhs_scale),
            pivots=pivots,
            basis=tuple(self.basis),
            inverse=tuple(inverse),
            duals=[Fraction(-w, scale) if w else _ZERO for w in self.duals()],
        )


def solve_from_basis(
    costs: list[int],
    columns: list[dict[int, int]],
    rhs: list[Fraction],
    basis: list[int],
    characters: tuple[int, list[int]] | None = None,
) -> LpResult:
    """One-phase revised simplex for  min c·x,  A x = rhs,  x >= 0.

    The columns of A are, in this order, the 2**bits character columns
    of ``characters = (bits, masks)`` (column a has entry
    ``(-1)^popcount(a & masks[i])`` in row i; none when ``characters``
    is None) and then ``columns``, each a dict from row to entry that
    lists the column's nonzero entries.  ``costs`` has one entry per
    explicit column, in the same order (ValueError otherwise); a
    character column costs 0.  Costs and column entries must be ints
    (TypeError otherwise); ``rhs`` may hold ints and Fractions.

    ``basis`` names one column per row whose basic solution is
    feasible; the simplex starts there, so there is no phase 1 and no
    artificial column.  Its unit columns of cost 0 and entry ±1 (the
    margin LP's slacks) are placed on their rows without a pivot, while
    B⁻¹ is still the identity; the other columns are then pivoted in in
    order, each on the first row not yet taken where it is nonzero
    (``_RevisedLp.start``).  Raises ValueError when the columns are
    linearly dependent (singular) or their basic solution has a
    negative entry (not primal-feasible).

    Entering columns follow Dantzig's rule (most negative reduced cost,
    lowest index on ties).  When that column's ratio test gives a zero
    step, Bland's entering column and its ratio-test row pivot instead.
    Every degenerate pivot is then a Bland pivot, so the loop cannot
    cycle (the argument is in the module docstring).  Callers report
    the optimal point and ``duals``, so the path is part of the output;
    it depends only on the LP, the start basis and these rules.

    Only B⁻¹, x_B and the objective row are held, B⁻¹ over the rows
    with no basic slack (``_RevisedLp``), and each explicit column as
    its m entries; no character column is stored.  Every reduced cost is
    recomputed from the objective row's duals each pivot (the character
    block by :func:`_walsh`), and only the entering column is formed.

    ``pivots`` counts the simplex pivots; the pivots that bring
    ``basis`` in are not counted.  An optimal result carries ``basis``
    (the basic column of each row), x_B and ``inverse`` for :func:`settle`.
    """
    m = len(rhs)
    if len(basis) != m:
        raise ValueError(f"start basis has {len(basis)} columns for {m} rows")
    if len(costs) != len(columns):
        raise ValueError(f"{len(costs)} costs for {len(columns)} explicit columns")
    lp = _RevisedLp(costs, columns, rhs, characters)
    lp.start(basis)
    if any(line[-1] < 0 for line in lp.tableau[:m]):
        raise ValueError("start basis is not primal-feasible")

    pivots = 0
    while True:
        reduced = lp.reduced_costs()
        most_negative = min(reduced)
        if most_negative >= 0:
            return lp.result(pivots)
        entering = reduced.index(most_negative)
        lp.enter(entering)
        leaving = lp.leaving()
        if leaving >= 0 and not lp.tableau[leaving][-1]:
            bland = _bland_entering(reduced, range(len(reduced)))
            if bland != entering:
                entering = bland
                lp.enter(entering)
                leaving = lp.leaving()
        if leaving < 0:
            return LpResult(status=UNBOUNDED, pivots=pivots)
        lp.pivot(leaving, entering)
        pivots += 1


def settle(result: LpResult, rhs: list[Fraction]) -> LpResult | None:
    """The optimum at another right-hand side from an optimal basis, or None.

    ``result`` is an optimal :func:`solve_from_basis` result of the same
    columns and costs; ``rhs`` may hold ints and Fractions.  Reduced
    costs do not depend on the right-hand side, so its basis is optimal
    at ``rhs`` whenever ``x_B = B⁻¹·rhs >= 0``, computed exactly from the
    kept inverse.  The new result has that x_B and the kept duals y,
    which depend on the basis alone, and the objective c_B·B⁻¹·rhs =
    yᵀ·rhs, exactly.  None means x_B has a negative entry and ``rhs``
    needs its own solve.  A ``rhs`` of another length than the LP's
    rows raises ValueError.
    """
    _check_rhs(rhs, len(result.duals))
    b, common = over_common_denominator(rhs)
    values = _basic_values(result.inverse, b)
    if values is None:
        return None
    return LpResult(
        status=OPTIMAL,
        x=[Fraction(v, scale * common) for (_, scale), v in zip(result.inverse, values)],
        objective=sum((y * v for y, v in zip(result.duals, b) if y), _ZERO) / common,
        basis=result.basis,
        duals=result.duals,
        inverse=result.inverse,
    )


def _check_rhs(rhs, m):
    """Raise ValueError unless ``rhs`` has one entry per row of m."""
    if len(rhs) != m:
        raise ValueError(f"right-hand side has {len(rhs)} entries for {m} rows")


def _basic_values(inverse, b):
    """``B⁻¹·b`` from a kept inverse, or None when an entry is negative.

    ``inverse`` is an ``LpResult.inverse``, or ``sweep.solve_many``'s
    kept basis inverse in the same layout, and ``b`` the right-hand side
    times some d > 0: ints over one common denominator d for
    :func:`settle`, or as a caller of ``sweep.solve_many`` gave it.
    Entry i is ``ints_i·b``, so x_B(i) is entry i over d times row i's
    scale.
    """
    values = []
    for line, _ in inverse:
        value = sum(map(mul, line, b))
        if value < 0:
            return None
        values.append(value)
    return values
