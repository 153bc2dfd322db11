"""Exact revised simplex over the rationals, in integers.

Solves   minimize c·x   subject to   A x = b,  x >= 0

exactly, so there is no tolerance tuning anywhere: a pivot element is
nonzero or it is not.

* :func:`solve_from_basis`, one phase from a feasible basis the caller
  knows.  Every standard scenario is decided by it: the optimum's basic
  values (``LpResult.x``) give the witness, and its row duals
  (``LpResult.duals``) the Farkas certificate.
* :func:`settle`, the optimum of a :func:`solve_from_basis` LP at
  another right-hand side, from its optimal basis, when that basis is
  still primal-feasible there; its objective is yᵀb, off the duals.

The integer rows and the pivot are shared with :mod:`.sweep`, which
decides feasibility systems by dual-simplex pivots from one
Gauss–Jordan crash basis (``sweep.solve_many``, the grid sweeps).
``sweep.solve_lp``, which no kit path runs, is still reachable as an
attribute of this module, and importing it loads :mod:`.sweep`.

The LPs may have a block of atom columns, atom a's entry in row i being
the character ``(-1)^popcount(a & mask_i)``, as for the kit's moment
rows over 2ⁿ atoms.  They are never formed: the one atom oracle,
:class:`WalshAtoms`, answers every question asked of them, and only the
entering column is built.  Each pivot asks it for the least reduced
cost, one integer Walsh–Hadamard transform of the objective row's
duals (n·2ⁿ additions; Fino and Algazi, *IEEE Trans. Comput.* C-25,
1142 (1976)).  The search is exhaustive, because finding the best atom
is the separation problem of the correlation polytope, NP-hard in
general (I. Pitowsky, *Math. Programming* 50, 395 (1991)).  The
revised simplex holds B⁻¹ only over its live columns
(:class:`_RevisedLp`); its pivots, and so its point, objective and
duals, are those of the dense one-phase tableau it replaced, which the
tests keep as ``tests/dense_simplex.py`` and pin them against.

Every LP the kit solves has an integer matrix (±1 characters, ±1 slack
and ``t`` columns) and integer costs; a Fraction among them raises
TypeError.  The rational right-hand side is put over one common
denominator (:func:`.numerics.over_common_denominator`), which no pivot
reads, so its denominators stay out of B⁻¹ (the usual layout ``[I | b]``
with x_B held apart; I. Maros, *Computational Techniques of the Simplex
Method*, 2003).  Every tableau row, the objective row included, is a
list of Python ints over one positive integer scale, its rational value
``ints / scale``, and :func:`_pivot` is the integer-preserving
elimination of Escobedo and Moreno-Centeno (*INFORMS J. Comput.* 27
(2015)).  Fractions appear only at the read-out.

Dantzig's column (most negative reduced cost, lowest index on ties)
enters.  The row of least ratio x_B(i)/α_i over the entering column's
positive entries α_i leaves; a tie goes to the row whose row of B⁻¹B₀
over α_i is lexicographically least, B₀ being the start basis (G. B.
Dantzig, A. Orden and P. Wolfe, *Pacific J. Math.* 5, 183 (1955)).
B⁻¹B₀ = I at the start, so every row of [x_B | B⁻¹B₀] starts
lexicographically positive and the rule keeps it so; each pivot then
lowers c_B·B⁻¹[b | B₀], which the basis fixes, lexicographically, so
no basis recurs.  The rules read signs, and ratios ``u_i/a_i`` compared
as ``u_i·a_k < u_k·a_i``, in which row scales and a positive factor
common to a row and its scale cancel.  So the pivots are those of the
same tableau held in Fractions, whichever rows are in lowest terms, and
the path, and with it the evidence, is deterministic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul, sub

from ._record import Record
from .event_space import _on_atoms
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
    q = p/g.  A row with q > 1 is formed anew in one pass over its
    entries; a row with q = 1 (most rows of the margin LP) is updated
    in place, at the pivot row's nonzero columns only, so no caller may
    keep a tableau row that a later pivot must not change.

    An updated row is divided by its gcd only when it is the objective
    row, whose entries every pricing reads, or when its scale is longer
    than ``_REDUCE_BITS`` bits; any other row keeps a positive common
    factor.  Its rational values are the same either way, and so are
    the pivots: the ratio test and the entering rule read only signs and
    ratios within one row, which a positive factor does not change.
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
            other = [a * q - f * v for a, v in zip(other, prow)]
            scale *= q
        else:
            for j, v in nonzero:
                other[j] -= f * v
        if (i == objective and scale > 1) or scale.bit_length() > _REDUCE_BITS:
            other, scale = _reduced(other, scale)
        tableau[i] = other
        scales[i] = scale
    basis[row] = col


def _leaving(tableau, entering, lex):
    """Ratio test on the entering column: the row that leaves, or -1.

    Of the rows tied at the least ratio x_B(i)/α_i, the one whose row of
    B⁻¹B₀ over α_i is lexicographically least leaves.  ``lex(rows, k)``
    returns (k', column k' of B⁻¹B₀ on the tied ``rows``) for some
    k' >= k such that columns k..k'−1 are zero on every one of ``rows``
    (a column zero on all tied rows keeps every tie), and is called
    again from k' + 1 until one row is least.
    """
    rows, values, k = range(len(tableau) - 1), [line[-1] for line in tableau], 0
    while True:
        tied = []
        for i, v in zip(rows, values):
            a = tableau[i][entering]
            if a > 0:
                # v/a against the least so far; both scales cancel.
                d = v * least_a - least_v * a if tied else -1
                if d < 0:
                    tied, least_v, least_a = [i], v, a
                elif not d:
                    tied.append(i)
        if len(tied) < 2:
            return tied[0] if tied else -1
        k, values = lex(tied, k)
        rows, k = tied, k + 1


def _walsh(values, bits):
    """Walsh–Hadamard transform: entry a is Σ_k values[k]·(-1)^popcount(a & k).

    ``values`` has 2**bits entries.  Each of the ``bits`` stages of the
    constant-geometry butterfly puts the sums of the pairs (2i, 2i+1)
    in the first half and their differences in the second; after the
    last stage the entries are back in natural order (Fino and Algazi,
    *IEEE Trans. Comput.* C-25, 1142 (1976)).  n·2ⁿ integer additions,
    each stage's halves by ``map`` over ``operator.add`` and ``sub``.
    """
    for _ in range(bits):
        even, odd = values[0::2], values[1::2]
        values = [*map(add, even, odd), *map(sub, even, odd)]
    return values


class WalshAtoms:
    """The atom oracle: the one place the 2**bits atom columns are enumerated.

    Atom a's entry on row i is the character ``(-1)^popcount(a & masks[i])``.
    Each question returns (value, atom), the lowest atom on ties:
    :meth:`least`, the least Σ_i w_i·χ_i(a) for weights w_i on the rows
    (Dantzig pricing, and the certificate check on −z), and
    :meth:`least_worst`, the least over atoms of the worst row, row i
    worth ``plus`` where χ_i(a) = 1 and ``minus`` where it is −1 (the
    margin LP's crash).

    :meth:`least` is one :func:`_walsh` of the weights added up on
    their rows' masks; :meth:`least_worst` folds the rows of each mask
    first and builds one atom row per mask (``event_space._on_atoms``),
    folded by a comparison per atom.  ``min`` and ``index`` read either.
    """

    __slots__ = ("bits", "masks", "atoms")

    def __init__(self, bits, masks):
        self.bits, self.masks, self.atoms = bits, masks, 1 << bits

    def column(self, atom):
        """Atom ``atom``'s entry on every row."""
        return [-1 if (atom & mask).bit_count() & 1 else 1 for mask in self.masks]

    def least(self, weights):
        """(least Σ_i w_i·χ_i(a), its atom) for (row i, w_i) pairs."""
        values, masks = [0] * self.atoms, self.masks
        for r, w in weights:
            if w:
                values[masks[r]] += w
        values = _walsh(values, self.bits)
        least = min(values)
        return least, values.index(least)

    def least_worst(self, rows):
        """(least over atoms of the worst row, its atom) for one or more (row, plus, minus)."""
        by_mask = {}
        for r, plus, minus in rows:
            if (mask := self.masks[r]) in by_mask:
                plus, minus = max(by_mask[mask][0], plus), max(by_mask[mask][1], minus)
            by_mask[mask] = plus, minus
        worst = None
        for mask, (plus, minus) in by_mask.items():
            row = _on_atoms(self.bits, mask, plus, minus)
            worst = row if worst is None else [a if a >= b else b for a, b in zip(worst, row)]
        least = min(worst)
        return least, worst.index(least)


class _RevisedLp:
    """The rows ``[B⁻¹ | slot | x_B]`` of one LP, B⁻¹ over its live columns.

    The matrix and the costs are integers; the right-hand side is
    multiplied by its common denominator ``rhs_scale``, which
    :meth:`result` divides x_B and the objective by and the ratio test
    cancels.  Row i's B⁻¹ entries combine the rows of ``[A | b]`` into
    that row of the dense tableau; the objective row's, w, stand for
    ``scale·[c | 0] + w·[A | b]``, so w prices every column and −w/scale
    are the row duals.

    A *slack*, a column of cost 0 with one entry ±1 on some row r, is
    held only as (r, ±1), in ``slacks`` by column and in ``slacks_on``
    by row; every other explicit column is held in ``dense`` as its m
    entries.  While a slack is basic on position i, column r of B⁻¹ is
    ±e_i (the objective row's entry included, as the slack's reduced
    cost is 0).  Such a column is not stored, only ``held[i] = (r, ±1)``;
    the others are *live*, listed in ``live`` in the order they are
    stored (the standard treatment of logical variables; I. Maros,
    *Computational Techniques of the Simplex Method*, 2003, ch. 8).  So
    each row is ``[live entries | slot | x_B]``, k + 2 integers for the
    k rows with no basic slack, and pricing and the read-out loop over
    the k live columns, not the m rows.

    Before a pivot on a position that holds a column, that column is
    made live, its ``±scale`` written out on the pivot row; after a
    pivot that brings a slack in, the slack's column is dropped and held
    by that position.  The dropped entries are 0 on the pivot row, so
    :func:`_pivot` leaves them 0 elsewhere and a multiple of the scale
    on their own row, and they change no gcd: every stored entry, scale
    and pivot is the one the full rows would have.  The slot, written by
    :meth:`enter`, carries the column being pivoted in.
    """

    def __init__(self, costs, columns, rhs, oracle):
        m = self.m = len(rhs)
        self.oracle, self.atoms = oracle, 0 if oracle is None else oracle.atoms
        if any(type(v) is not int for v in [*costs, *(v for c in columns for v in c.values())]):
            raise TypeError("the revised simplex takes integer columns and costs")
        if any(not 0 <= i < m for c in columns for i in c):
            raise ValueError(f"a column has an entry off the rows 0..{m - 1}")
        self.costs = costs
        # A slack as its (row, entry), also listed under its row by its
        # explicit index; every other explicit column as its m entries.
        self.slacks, self.slacks_on, self.dense = {}, {}, {}
        for j, (column, cost) in enumerate(zip(columns, costs), self.atoms):
            nonzero = [(i, v) for i, v in column.items() if v]
            if len(nonzero) == 1 and nonzero[0][1] in (1, -1) and not cost:
                r, v = self.slacks[j] = nonzero[0]
                self.slacks_on.setdefault(r, []).append((j - self.atoms, v))
                continue
            dense = self.dense[j - self.atoms] = [0] * m
            for i, v in nonzero:
                dense[i] = v
        rhs, self.rhs_scale = over_common_denominator(rhs)
        self.live = []
        self.held = {i: (i, 1) for i in range(m)}
        self.tableau = [[0, b] for b in rhs] + [[0, 0]]
        self.scales = [1] * (m + 1)
        self.basis = [-1] * m

    def _column(self, j):
        """Column j's m entries; an atom's come from the oracle, a slack's from its one entry."""
        if j < self.atoms:
            return self.oracle.column(j)
        slack = self.slacks.get(j)
        if slack is None:
            return self.dense[j - self.atoms]
        column = [0] * self.m
        column[slack[0]] = slack[1]
        return column

    def enter(self, j):
        """Write column j, as the current basis sees it, into the slot."""
        m, tableau, scales, live = self.m, self.tableau, self.scales, self.live
        slot = len(live)
        column = self._column(j)
        stored = [column[c] for c in live]
        for line in tableau:
            line[slot] = sum(map(mul, line, stored))
        for i, (c, sign) in self.held.items():
            if column[c]:
                tableau[i][slot] += sign * column[c] * scales[i]
        if j >= self.atoms:
            tableau[m][slot] += self.costs[j - self.atoms] * scales[m]

    def _lex(self, rows, k):
        """(k', column k' of B⁻¹B₀ on ``rows``), k' the first column >= k that can be nonzero there.

        B₀ is in position order.  A slack's column is ±(column r of
        B⁻¹) for its row r.  That column is live, or ±e_p for the one
        position p holding it (its own slack or a second unit on row r),
        which is zero on every row but p; so a slack held by a position
        outside ``rows`` is passed over unread.  The atom and t columns
        are formed.
        """
        tableau, scales, held, live = self.tableau, self.scales, self.held, self.live
        start, slacks = self.start_basis, self.slacks
        while (slack := slacks.get(j := start[k])) is not None:
            r, sign = slack
            if r in live:
                c = live.index(r)
                return k, [sign * tableau[i][c] for i in rows]
            for p in rows:
                h = held.get(p)
                if h is not None and h[0] == r:
                    return k, [sign * h[1] * scales[i] if i == p else 0 for i in rows]
            k += 1
        column = self._column(j)
        stored = [column[c] for c in live]
        values = [sum(map(mul, tableau[i], stored)) for i in rows]
        for n, i in enumerate(rows):
            if i in held:
                values[n] += held[i][1] * column[held[i][0]] * scales[i]
        return k, values

    def leaving(self):
        """The ratio test on the slot: the row that leaves, or -1."""
        return _leaving(self.tableau, len(self.live), self._lex)

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

        While B⁻¹ is the identity, a slack on row i needs no pivot (it
        would only negate row i for −1), so slacks are placed first, each
        on its own row; the rest are pivoted in in order, each on the
        first row not yet taken where it is nonzero.  For the margin
        LP's crash basis that puts every column where pivoting all of
        them in would, so every later pivot is unchanged.
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
        self.start_basis = tuple(self.basis)

    def reduced_costs(self):
        """Each explicit column's reduced cost, as ints over the objective row's scale.

        Only the objective row's k live entries w can be nonzero (its
        entry on a held column is 0).  A slack's reduced cost is ±(its
        row's w), so only the slacks of live rows (``slacks_on``) are
        filled in; any other column costs its cost times the scale plus w·column.
        """
        live, obj, costs, slacks_on = self.live, self.tableau[self.m], self.costs, self.slacks_on
        scale = self.scales[self.m]
        explicit = [0] * len(costs)
        for r, w in zip(live, obj):
            if w and r in slacks_on:
                for index, sign in slacks_on[r]:
                    explicit[index] = sign * w
        for index, column in self.dense.items():
            explicit[index] = costs[index] * scale + sum(map(mul, obj, [column[r] for r in live]))
        return explicit

    def entering(self):
        """(least reduced cost, its column), lowest index on ties: the oracle's atom on a tie."""
        explicit = self.reduced_costs()
        least = min(explicit, default=0)
        if self.oracle is not None:
            value, atom = self.oracle.least(zip(self.live, self.tableau[self.m]))
            if value <= least:
                return value, atom
        return least, self.atoms + explicit.index(least) if explicit else -1

    def result(self, pivots) -> LpResult:
        """The optimal LpResult of the current basis, B⁻¹ at full width in lowest terms.

        Row i's divisor is the gcd of its scale and its k live entries;
        its held entry, ±scale, cannot change it.  The live entries, so
        divided, are scattered over m zeros and the held one written
        in: the lowest-terms row :func:`_reduced` gives the widened row.
        """
        m, tableau, scales, live, held = self.m, self.tableau, self.scales, self.live, self.held
        k = len(live)
        scale = scales[m]
        x, inverse, duals = [], [], [_ZERO] * m
        for i, line in enumerate(tableau[:m]):
            s = scales[i]
            x.append(Fraction(line[-1], s * self.rhs_scale))
            g = math.gcd(s, *line[:k])
            full = [0] * m
            for c, v in zip(live, line if g == 1 else [v // g for v in line[:k]]):
                full[c] = v
            s //= g
            if i in held:
                c, sign = held[i]
                full[c] = sign * s
            inverse.append((full, s))
        for c, w in zip(live, tableau[m]):
            if w:
                duals[c] = Fraction(-w, scale)
        return LpResult(
            status=OPTIMAL,
            x=x,
            objective=Fraction(-tableau[m][-1], scale * self.rhs_scale),
            pivots=pivots,
            basis=tuple(self.basis),
            inverse=tuple(inverse),
            duals=duals,
        )


def solve_from_basis(
    costs: list[int],
    columns: list[dict[int, int]],
    rhs: list[Fraction],
    basis: list[int],
    atoms: WalshAtoms | None = None,
) -> LpResult:
    """One-phase revised simplex for  min c·x,  A x = rhs,  x >= 0.

    The columns of A are, in this order, the atom columns of the oracle
    ``atoms`` (:class:`WalshAtoms`; none when it is None) and then
    ``columns``, each a dict from row to entry that lists the column's
    nonzero entries, on rows 0..m−1.  ``costs`` has one entry per
    explicit column, in the same order; an atom column costs 0
    (ValueError otherwise, for either).  Costs and column
    entries must be ints (TypeError otherwise); ``rhs`` may hold ints
    and Fractions.

    ``basis`` names one column per row whose basic solution is
    feasible; the simplex starts there, so there is no phase 1 and no
    artificial column.  Its unit columns of cost 0 and entry ±1 (the
    margin LP's slacks) are placed on their rows without a pivot, while
    B⁻¹ is still the identity; the other columns are then pivoted in in
    order, each on the first row not yet taken where it is nonzero
    (``_RevisedLp.start``).  Raises ValueError when the columns are
    linearly dependent (singular) or their basic solution has a
    negative entry (not primal-feasible).

    Dantzig's column enters, asked of the oracle for the atoms and
    compared with the explicit columns' least, ties to the lower index,
    atoms first; a ratio-test tie goes to the lexicographically least
    row of B⁻¹B₀, so the loop cannot cycle (see the module docstring).
    Callers report the optimal point and ``duals``, so the path is part
    of the output; it depends only on the LP, the start basis and these
    rules.  Only B⁻¹ (``_RevisedLp``), x_B, the objective row and the
    entering column are held.

    ``pivots`` counts the simplex pivots; the pivots that bring
    ``basis`` in are not counted.  An optimal result carries ``basis``
    (the basic column of each row), x_B and ``inverse`` for :func:`settle`.
    """
    m = len(rhs)
    if len(basis) != m:
        raise ValueError(f"start basis has {len(basis)} columns for {m} rows")
    if len(costs) != len(columns):
        raise ValueError(f"{len(costs)} costs for {len(columns)} explicit columns")
    lp = _RevisedLp(costs, columns, rhs, atoms)
    lp.start(basis)
    if any(line[-1] < 0 for line in lp.tableau[:m]):
        raise ValueError("start basis is not primal-feasible")

    pivots = 0
    while True:
        most_negative, entering = lp.entering()
        if most_negative >= 0:
            return lp.result(pivots)
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

    ``inverse`` is an ``LpResult.inverse`` and ``b`` the right-hand side
    as ints over one common denominator d, as :func:`settle` holds it.
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
