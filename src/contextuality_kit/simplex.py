"""Exact revised simplex over the rationals, in integers.

Solves  minimize c·x  subject to  A x = b,  x >= 0  exactly: a pivot
element is nonzero or it is not, with no tolerance anywhere.

* :func:`solve_from_basis`, one phase from a feasible basis the caller
  knows; every standard scenario is decided by it, the witness from its
  basic values (``LpResult.x``) and the certificate from its row duals.
* :func:`settle`, its optimum at another right-hand side from its
  optimal basis, when that basis stays primal-feasible there.

What no right-hand side changes, the checks and split of the explicit
columns and the equality pairs, is one read-only :class:`Layout`.  A
caller that solves one LP at many right-hand sides builds it once and
hands it over on its atom oracle (``WalshAtoms.layout``), as the margin
LP's kept shape does; otherwise each solve builds its own.

The integer rows and the pivot are shared with :mod:`.sweep`
(dual-simplex pivots from a Gauss–Jordan crash basis, the grid sweeps);
``sweep.solve_lp`` is still reachable as an attribute of this module.

Atom a's entry in row i is the character ``(-1)^popcount(a & mask_i)``
of the kit's moment rows over 2ⁿ atoms.  These columns are never formed:
the atom oracle :class:`WalshAtoms` answers every question asked of
them, each pricing one integer Walsh–Hadamard transform (Fino and
Algazi, *IEEE Trans. Comput.* C-25, 1142 (1976)).  The search is
exhaustive, as finding the best atom is NP-hard in general
(I. Pitowsky, *Math. Programming* 50, 395 (1991)).  :class:`_RevisedLp`
holds B⁻¹ over its live columns and stores one row per equality pair,
as s_le + s_ge = 2t + (hi − lo) makes B⁻¹[P(s_ge)] = 2·B⁻¹[P(t)] −
B⁻¹[P(s_le)] + (e_le − e_ge) (L. Schrage, *Math. Programming Study* 4,
118 (1975)); its pivots, point, objective and duals are those of the
dense one-phase tableau that ``tests/dense_simplex.py`` keeps.

Matrices and costs are integers (TypeError for a Fraction); the
right-hand side is put over one common denominator, which no pivot
reads (the layout ``[I | b]`` with x_B apart; I. Maros, *Computational
Techniques of the Simplex Method*, 2003).  Every row is a list of ints
over one positive scale, and :func:`_pivot` is the integer-preserving
elimination of Escobedo and Moreno-Centeno (*INFORMS J. Comput.* 27
(2015)).  A result forms Fractions only for the fields that are read,
as exact LP solvers form rationals only for what they release (D. L.
Applegate, W. Cook, S. Dash and D. G. Espinoza, *Oper. Res. Lett.* 35,
693 (2007)).

Dantzig's column (lowest index on ties) enters.  The row of least ratio
x_B(i)/α_i over positive α_i leaves, a tie going to the row whose row of
B⁻¹B₀ over α_i is lexicographically least, B₀ the start basis (G. B.
Dantzig, A. Orden and P. Wolfe, *Pacific J. Math.* 5, 183 (1955)):
every row of [x_B | B⁻¹B₀] starts and stays lexicographically positive,
so no basis recurs.  The rules read signs and ratios compared as
``u_i·a_k < u_k·a_i``, in which row scales and common factors cancel,
so the path, and with it the evidence, is deterministic.  The derived
rows that are clones of T's row tie with it, when an atom enters, in
one order fixed per pair at the start (``_RevisedLp._kappa``), so such
a tie is broken without reading them.
"""

from __future__ import annotations

import math
from bisect import bisect
from fractions import Fraction
from itertools import groupby
from operator import add, itemgetter, mul, sub

from ._record import Record
from .numerics import over_common_denominator

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: Row senses of the kit's LPs.
EQ, LE, GE = "eq", "le", "ge"

_ZERO = Fraction(0)

_getattribute, _setattr = object.__getattribute__, object.__setattr__


def __getattr__(name: str):
    if name == "solve_lp":
        from .sweep import solve_lp

        return solve_lp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class LpResult(Record):
    """The outcome of one LP solve.

    * ``pivots``: the pivots taken; ``sweep.solve_lp`` counts its crash
      pivots, :func:`solve_from_basis` not those of its start basis.
    * ``x``, ``objective``: x_B (one value per entry of ``basis``) and
      the objective of an optimal :func:`solve_from_basis` result.
    * ``basis``: the basic column of each row (of each row the crash
      kept, for ``sweep.solve_lp``).
    * ``inverse``: row i of B⁻¹ per entry of ``basis``, as (ints, scale)
      in lowest terms over every original row, so that x_B(i) =
      ints·b / scale (:func:`_basic_values`).
    * ``duals``: the row duals y of the final basis, column j's reduced
      cost being c_j − yᵀA_j: optimal duals for :func:`solve_from_basis`
      (every reduced cost >= 0, yᵀb the objective), a Farkas
      certificate (yᵀA <= 0, yᵀb > 0) for an infeasible ``sweep.solve_lp``.

    An optimal :func:`solve_from_basis` result forms ``x``, ``duals`` and
    ``inverse`` from the optimum's kept integers (:class:`_ReadOut`) the
    first time each is read, and keeps it.  Each is then what an eager
    read-out gives, so equality, hash, repr and pickle, which read every
    field, are unchanged.  :func:`as_integers` reads x or the duals
    without forming them.
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

    def __getattribute__(self, name):
        value = _getattribute(self, name)
        if type(value) is _ReadOut:
            value = value.formed(name)
            _setattr(self, name, value)
        return value


class _ReadOut(Record):
    """The integers of one optimum, from which :class:`LpResult` forms x, duals and inverse.

    x_B(i) is ``values[i]`` over ``scales[i]·rhs_scale``; the row duals
    are −w/``scale`` for the objective row's entries w on the ``live``
    columns, 0 on the others.  ``rows`` holds each position's row, as
    (line, scale, its held column or None), a derived position's line
    as its terms (:func:`_derived`).  Those rows are all it keeps of the
    LP, which no pivot changes after the read-out.
    """

    __slots__ = ("values", "scales", "rhs_scale", "live", "weights", "scale", "rows")

    def integers(self, name):
        """Field ``name``, x or duals, as ints over one denominator d > 0."""
        if name == "x":
            d = math.lcm(*self.scales)
            return [v * (d // s) for v, s in zip(self.values, self.scales)], d * self.rhs_scale
        ints = [0] * len(self.rows)
        for c, w in zip(self.live, self.weights):
            ints[c] = -w
        return ints, self.scale

    def formed(self, name):
        """The LpResult field ``name``: x, duals or inverse."""
        if name != "inverse":
            ints, d = self.integers(name)
            return [Fraction(v, d) if v else _ZERO for v in ints]
        # Row i's divisor is the gcd of its scale and its k live entries;
        # its held entry, ±scale, cannot change it.
        m, live = len(self.rows), self.live
        k, inverse = len(live), []
        for line, s, own in self.rows:
            if type(line) is tuple:
                line = _derived(line, live, k)
            g = math.gcd(s, *line[:k])
            full = [0] * m
            for c, v in zip(live, line if g == 1 else [v // g for v in line[:k]]):
                full[c] = v
            s //= g
            if own:
                c, sign = own
                full[c] = sign * s
            inverse.append((full, s))
        return tuple(inverse)


def as_integers(result: LpResult, name: str) -> tuple[list[int], int]:
    """Field ``name`` of ``result``, x or duals, as ints over one denominator d > 0.

    They are read off the kept integers while the field is not formed.
    """
    kept = _getattribute(result, name)
    return kept.integers(name) if type(kept) is _ReadOut else over_common_denominator(kept)


#: A row other than the objective row is put in lowest terms once its
#: scale is longer than this many bits (two 30-bit CPython digits).
_REDUCE_BITS = 60


def _reduced(line, scale):
    """Divide a row and its scale by their gcd."""
    g = math.gcd(scale, *line)
    if g == 1:
        return line, scale
    return [v // g for v in line], scale // g


def _pivot(tableau, scales, basis, row, col):
    """In-place integer pivot on (row, col); last row is the objective.

    The pivot row is rescaled so its pivot entry p equals its scale,
    put in lowest terms, and its nonzero columns listed once.  Each
    other row with entry f in the pivot column becomes ``other·q −
    (f/g)·prow`` over ``scale·q``, g = gcd(f, p) and q = p/g: formed anew
    when q > 1, else updated in place at the pivot row's nonzero columns,
    so no caller may keep a row that a later pivot must not change.  A
    row with a zero in the pivot column is not touched.

    Only the objective row, and a row whose scale is longer than
    ``_REDUCE_BITS`` bits, is divided by its gcd; a positive common
    factor changes no sign or ratio within a row, so no pivot.
    Read-outs put each row in lowest terms with :func:`_reduced`.
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


def _leaving(candidates, lex):
    """Ratio test: the row that leaves, or -1.

    ``candidates`` are (row, α, x_B) for the rows whose entry α on the
    entering column is > 0, α and x_B over a positive denominator of the
    row's own.  Of the rows tied at the least x_B/α (:func:`_least`), the
    one whose row of B⁻¹B₀ over α is lexicographically least leaves
    (:func:`_tie_broken`).  :meth:`_RevisedLp.leaving` runs the two
    steps apart, to put one stand-in for its point clones among the
    tied rows only when T's row is one of them.
    """
    return _tie_broken(_least(candidates), lex)


def _least(candidates):
    """The candidates (row, α, x_B) tied at the least x_B/α."""
    tied = []
    for candidate in candidates:
        _, a, v = candidate
        # v/a against the least so far; the denominators cancel.
        d = v * least_a - least_v * a if tied else -1
        if d < 0:
            tied, least_v, least_a = [candidate], v, a
        elif not d:
            tied.append(candidate)
    return tied


def _tie_broken(tied, lex, pair=None):
    """The row of ``tied`` whose row of B⁻¹B₀ over α is lexicographically least, or -1 for none.

    ``lex(rows, k)`` gives (k', column k' of B⁻¹B₀ on the tied ``rows``)
    for some k' >= k whose earlier columns are zero on all of them.
    ``pair``, (rows, row), settles a round on which only those two rows
    are still tied: ``row`` leaves, and no column is read.
    """
    k = 0
    while len(tied) > 1:
        if pair and len(tied) == 2 and {tied[0][0], tied[1][0]} == pair[0]:
            return pair[1]
        k, values = lex([i for i, _, _ in tied], k)
        tied = _least([(i, a, v) for (i, a, _), v in zip(tied, values)])
        k += 1
    return tied[0][0] if tied else -1


def _walsh(values, bits):
    """Walsh–Hadamard transform: entry a is Σ_k values[k]·(-1)^popcount(a & k).

    Each of the ``bits`` stages of the constant-geometry butterfly puts
    the sums of the pairs (2i, 2i+1) in the first half and their
    differences in the second, ending in natural order: n·2ⁿ additions.
    """
    for _ in range(bits):
        even, odd = values[0::2], values[1::2]
        values = [*map(add, even, odd), *map(sub, even, odd)]
    return values


class WalshAtoms:
    """The atom oracle: the one place the 2**bits atom columns are enumerated.

    Atom a's entry on row i is ``(-1)^popcount(a & masks[i])``.  Each
    question returns (value, atom), the lowest atom on ties:
    :meth:`least`, the least Σ_i w_i·χ_i(a) (one :func:`_walsh`; Dantzig
    pricing and the certificate check), and :meth:`least_worst`, the
    least over atoms of the worst row, row i worth ``plus`` where
    χ_i(a) = 1 and ``minus`` where it is −1 (the margin LP's crash).
    :meth:`moments` gives every row's moment of atom masses.  ``layout``
    is the :class:`Layout` of the explicit columns its builder solves it
    with, or None.
    """

    __slots__ = ("bits", "masks", "atoms", "distinct", "places", "plus", "layout")

    def __init__(self, bits, masks):
        self.bits, self.masks, self.atoms = bits, masks, 1 << bits
        # Each mask once, and each row's place among them.
        self.distinct = list(dict.fromkeys(masks))
        self.places = [self.distinct.index(mask) for mask in masks]
        self.plus, self.layout = {}, None

    def column(self, atom):
        """Atom ``atom``'s entry on every row: one parity per distinct mask."""
        signs = [-1 if (atom & mask).bit_count() & 1 else 1 for mask in self.distinct]
        return [signs[k] for k in self.places]

    def least(self, weights):
        """(least Σ_i w_i·χ_i(a), its atom) for (row i, w_i) pairs."""
        values, masks = [0] * self.atoms, self.masks
        for r, w in weights:
            if w:
                values[masks[r]] += w
        values = _walsh(values, self.bits)
        least = min(values)
        return least, values.index(least)

    def moments(self, masses):
        """Σ_a m_a·χ_i(a) on every row i, for (atom a, m_a) pairs: one :func:`_walsh`."""
        values = [0] * self.atoms
        for a, v in masses:
            values[a] += v
        values = _walsh(values, self.bits)
        return [values[mask] for mask in self.masks]

    def least_worst(self, rows):
        """(least over atoms of the worst row, its atom) for one or more (row, plus, minus).

        A descending cover over bitsets: each row offers its ``plus`` on
        its mask's +1 atoms (:func:`_plus_atoms`, kept per mask) and its
        ``minus`` on the others.  From the highest value down, each
        group of equal offers clears the atoms it covers, whose worst row
        it is; the group that clears the last atoms gives the least worst
        value, and the lowest of those atoms.
        """
        left, kept, offers = (1 << self.atoms) - 1, self.plus, []
        for r, plus, minus in rows:
            mask = self.masks[r]
            on = kept.get(mask) or kept.setdefault(mask, _plus_atoms(self.bits, mask))
            offers += (plus, on), (minus, left ^ on)
        offers.sort(key=itemgetter(0), reverse=True)
        for value, group in groupby(offers, itemgetter(0)):
            cleared = 0
            for _, on in group:
                cleared |= on
            if not left & ~cleared:
                return value, (left & -left).bit_length() - 1
            left &= ~cleared


def _plus_atoms(bits, mask):
    """The atoms where the character of ``mask`` is +1, as the set bits of an int.

    ``event_space._on_atoms``' doubling over the atom index's bits, on
    ints: the atoms with bit k set repeat those below, flipped when
    ``mask`` has bit k.
    """
    plus = 1
    for k in range(bits):
        width = 1 << k
        plus |= (plus ^ (1 << width) - 1 if mask >> k & 1 else plus) << width
    return plus


class Layout:
    """The part of one LP that no right-hand side changes, read-only once built.

    :class:`_RevisedLp` reads it: the checks of the integer ``costs`` and
    ``columns`` against the m rows, the split of the explicit columns
    into ``slacks`` (by column) and ``slacks_on`` (by row) and the
    ``dense`` rest, and the equality pairs (:meth:`_pairs`): T's column
    ``t``, each pair's (r1, r2, τ, s1, c1, s2, c2) in ``pairs``, each
    pair slack's pair in ``pair_of``, and ``kappa_scale``, the lcm of the
    pairs' τ.  :func:`solve_from_basis` builds one per solve, unless its
    oracle carries the layout of these very ``costs`` and ``columns``.
    """

    def __init__(self, costs, columns, m, oracle):
        if any(type(v) is not int for v in [*costs, *(v for c in columns for v in c.values())]):
            raise TypeError("the revised simplex takes integer columns and costs")
        if any(not 0 <= i < m for c in columns for i in c):
            raise ValueError(f"a column has an entry off the rows 0..{m - 1}")
        self.costs, self.columns, self.m = costs, columns, m
        atoms = self.atoms = 0 if oracle is None else oracle.atoms
        # A slack as its (row, entry), also listed under its row by its
        # explicit index; every other explicit column as its m entries.
        self.slacks, self.slacks_on, self.dense = {}, {}, {}
        for j, (column, cost) in enumerate(zip(columns, costs), atoms):
            nonzero = [(i, v) for i, v in column.items() if v]
            if len(nonzero) == 1 and nonzero[0][1] in (1, -1) and not cost:
                r, v = self.slacks[j] = nonzero[0]
                self.slacks_on.setdefault(r, []).append((j - atoms, v))
                continue
            dense = self.dense[j - atoms] = [0] * m
            for i, v in nonzero:
                dense[i] = v
        self.pair_of = {}
        self.t, self.pairs = self._pairs(oracle)
        self.kappa_scale = math.lcm(*(pair[2] for pair in self.pairs))

    def _pairs(self, oracle):
        """T's column and (r1, r2, τ, s1, c1, s2, c2) for each pair of rows; fills in ``pair_of``."""
        t, pairs, groups, dense, on = None, [], {}, self.dense, self.slacks_on
        for r in on if oracle else ():
            if len(on[r]) == 1:
                groups.setdefault(oracle.masks[r], []).append(r)
        for rows in groups.values():
            while len(rows) > 1:
                r1 = rows.pop(0)
                for r2 in rows:
                    differ = [j for j in dense if dense[j][r1] != dense[j][r2]]
                    if len(differ) == 1 and t in (None, differ[0]):
                        t, (s1, c1), (s2, c2) = differ[0], on[r1][0], on[r2][0]
                        s1, s2 = self.atoms + s1, self.atoms + s2
                        self.pair_of[s1] = self.pair_of[s2] = len(pairs)
                        pairs.append((r1, r2, dense[t][r1] - dense[t][r2], s1, c1, s2, -c2))
                        rows.remove(r2)
                        break
        return None if t is None else self.atoms + t, pairs


class _RevisedLp:
    """The rows ``[B⁻¹ | slot | x_B]`` of one LP, B⁻¹ over its live columns.

    Integer matrix and costs; the right-hand side is over its common
    denominator ``rhs_scale``, which :meth:`result` divides out and the
    ratio test cancels.  The objective row's B⁻¹ entries w stand for
    ``scale·[c | 0] + w·[A | b]``: w prices every column, and −w/scale
    are the row duals.

    A *slack* (cost 0, one entry ±1 on row r) is held as (r, ±1), in
    ``slacks`` by column and ``slacks_on`` by row; the other explicit
    columns are ``dense``.  These and the pairs below are read from the
    LP's :class:`Layout`, shared by every right-hand side.  While a
    slack is basic on position i, column r of B⁻¹ is ±e_i and is not
    stored, only ``held[i] = (r, ±1)``; the others are ``live`` (the
    logical variables of I. Maros, *Computational Techniques of the
    Simplex Method*, 2003, ch. 8).  A row is ``[live entries | slot | x_B]``, :meth:`enter` writing the
    entering column into the slot.  A held column goes live, ±scale on
    its own row, before that row pivots; a slack's column is dropped
    once the slack comes in.

    A *pair* is two rows r1, r2 of equal atom masks whose difference
    lies on one dense column T (the same for every pair) and on their
    own slacks s1, s2: d = e_r1 − e_r2 has dᵀA = τ on T and c1, c2 on
    s1, s2.  As dᵀ = dᵀA_B·B⁻¹, a basic slack s of the pair has
    B⁻¹[P(s)] = c·(dᵀ − τ·B⁻¹[P(T)] − c'·B⁻¹[P(s')]), c its coefficient
    and s' its partner, a term dropping out while its column is
    nonbasic.  In the margin LP that is s_le + s_ge = 2t + (hi − lo), so
    B⁻¹[P(s_ge)] = 2·B⁻¹[P(t)] − B⁻¹[P(s_le)] + (e_le − e_ge) (the
    implicit upper bounds of L. Schrage, *Math. Programming Study* 4,
    118 (1975)).  So one position per pair, its s2's while basic, else
    its s1's, is *derived*: its row is ``zero``, which :func:`_pivot`
    passes over, and only the ``stored`` positions' ``lines`` are
    entered and pivoted.  A derived position's slot entry and x_B, and
    in a tie its B⁻¹B₀ entry, are formed from T's and the partner's rows
    over the product of their scales, and so is its x_B at the read-out;
    its row is formed only when it leaves, when its pair's derived
    position moves and when a result's ``inverse`` is first read.
    Every pivot reads the rational values it would with all rows stored.

    A derived row whose partner slack is nonbasic is a *clone* of T's
    row: B⁻¹[i] = c·dᵀ + ct·B⁻¹[q], q = P(T) and ct = −cτ.  An atom a
    has dᵀa = 0, so when one enters, α_i = ct·α_q and x_B(i) = ct·x_B(q)
    + cb, cb = c·(b_r1 − b_r2), and B⁻¹B₀[i]/α_i = B⁻¹B₀[q]/α_q + κ/α_q
    with κ = dᵀB₀/(−τ), fixed by the pair and B₀ alone (:meth:`_kappa`).
    With α_q > 0 and ct > 0, a clone's ratio is T's plus cb/(ct·α_q): a
    bracketed clone (cb > 0) never leaves while T's row is a candidate,
    and the point clones (cb = 0) tie with T's row, in the order of
    their κ, T's being 0.  So :meth:`leaving` gives the point clones one
    stand-in, the clone of least κ, and reads no other clone row.
    """

    def __init__(self, costs, columns, rhs, oracle):
        m = self.m = len(rhs)
        layout = self.layout = getattr(oracle, "layout", None)
        if layout is None or layout.costs is not costs or layout.columns is not columns or layout.m != m:
            layout = self.layout = Layout(costs, columns, m, oracle)
        self.oracle, self.atoms, self.costs = oracle, layout.atoms, costs
        self.slacks, self.slacks_on, self.dense = layout.slacks, layout.slacks_on, layout.dense
        self.rhs, self.rhs_scale = over_common_denominator(rhs)
        self.live = []
        self.held = {i: (i, 1) for i in range(m)}
        self.tableau = [[0, b] for b in self.rhs] + [[0, 0]]
        self.scales = [1] * (m + 1)
        self.basis, self.where, self.entered = [-1] * m, {}, [0] * m
        # The stored positions (the objective row's m last) and their rows.
        self.stored, self.lines, self.zero = list(range(m + 1)), list(self.tableau), [0] * (m + 1)
        # Set by :meth:`start`, once every position holds a column of A.
        self.t, self.pairs, self.pair_of, self.derived = None, [], {}, {}

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
        """Write column j, as the current basis sees it, into the slot of every stored row."""
        m, tableau, scales, live = self.m, self.tableau, self.scales, self.live
        slot = len(live)
        column = self.entered = self._column(j)
        self.atom_entered = j < self.atoms
        stored = [column[c] for c in live]
        for line in self.lines:
            line[slot] = sum(map(mul, line, stored))
        for i, (c, sign) in self.held.items():
            if column[c]:
                tableau[i][slot] += sign * column[c] * scales[i]
        if j >= self.atoms:
            tableau[m][slot] += self.costs[j - self.atoms] * scales[m]

    def _terms(self, i):
        """Derived position i's (c, r1, r2, ct, cp, cb, u, sq, w, sp).

        u and w are the rows of T and of the partner slack over their
        scales sq and sp; a nonbasic one's row is ``zero``, over scale 1.
        """
        _, c, r1, r2, ct, partner, cp, cb, _ = self.derived[i]
        q, p = self.where.get(self.t), self.where.get(partner)
        u, sq = (self.zero, 1) if q is None else (self.tableau[q], self.scales[q])
        w, sp = (self.zero, 1) if p is None else (self.tableau[p], self.scales[p])
        return c, r1, r2, ct, cp, cb, u, sq, w, sp

    def _row(self, i):
        """Derived position i's row ``[live | slot | x_B]`` and its scale sq·sp (:meth:`_terms`)."""
        terms = self._terms(i)
        c, r1, r2, _, _, cb, _, sq, _, sp = terms
        line = _derived(terms, self.live, len(self.live) + 2)
        line[-2] += c * sq * sp * (self.entered[r1] - self.entered[r2])
        line[-1] += cb * sq * sp
        return line, sq * sp

    def _lex(self, rows, k):
        """(k', column k' of B⁻¹B₀ on ``rows``), k' the first column >= k that can be nonzero there.

        B₀ is in position order.  A slack's column is ±(column r of
        B⁻¹) for its row r.  That column is live, or ±e_p for the one
        position p holding it (its own slack or a second unit on row r),
        which is zero on every row but p; so a slack held by a position
        outside ``rows`` is passed over unread.  Other columns are formed.
        """
        tableau, scales, held, live, terms = self.tableau, self.scales, self.held, self.live, self.terms
        start, slacks = self.start_basis, self.slacks
        while (slack := slacks.get(j := start[k])) is not None:
            r, sign = slack
            if r in live:
                c = live.index(r)
                column = [0] * self.m
                column[r] = sign
                return k, self._on(rows, lambda i: sign * tableau[i][c], column)
            for p in rows:
                h = held.get(p) or p in terms and self.derived[p][-1]
                if h and h[0] == r:
                    scale = terms[p][7] * terms[p][8] if p in terms else scales[p]
                    return k, [sign * h[1] * scale if i == p else 0 for i in rows]
            k += 1
        column = self._column(j)
        stored = [column[c] for c in live]

        def entry(i):
            value = sum(map(mul, tableau[i], stored))
            if i in held:
                value += held[i][1] * column[held[i][0]] * scales[i]
            return value

        return k, self._on(rows, entry, column)

    def _on(self, rows, entry, column):
        """``entry(i)`` on ``rows``, a derived row's from its ``terms``; ``column`` gives d's entry."""
        values, memo = [], {None: 0}
        for i in rows:
            term = self.terms.get(i)
            if term is None:
                values.append(entry(i))
                continue
            c, r1, r2, ct, q, cp, p, sq, sp = term
            for n in (q, p):
                if n not in memo:
                    memo[n] = entry(n)
            values.append((c * (column[r1] - column[r2]) * sq + ct * memo[q]) * sp + cp * memo[p] * sq)
        return values

    def leaving(self):
        """The ratio test on the slot: the row that leaves, or -1.

        A derived row's x_B is formed only when its slot entry is > 0,
        and its terms are then kept for :meth:`_lex`.  When an atom
        enters and α_q > 0, a clone is read by its pair's constants
        alone: one with ct < 0 is no candidate, a bracketed one (cb > 0)
        is passed over, and the point ones (cb = 0) are one stand-in,
        drawn (:meth:`_stand_in`) only when T's row survives the ratio.
        A tie that comes down to T's row and the stand-in alone, on any
        round, goes to the stand-in when its κ is lexicographically
        negative, with no :meth:`_lex`: the two rows of B⁻¹B₀ over α
        differ by κ/α_q, so κ's first nonzero entry orders them.
        """
        tableau, scales, where, slot = self.tableau, self.scales, self.where, len(self.live)
        candidates = [(i, v[slot], v[-1]) for i, v in zip(self.stored, self.lines[:-1]) if v[slot] > 0]
        q, terms, points = where.get(self.t), {}, []
        aq, vq, sq = (0, 0, 1) if q is None else (tableau[q][slot], tableau[q][-1], scales[q])
        # An atom's d entry is 0: the rows of a pair have one mask.
        entered = None if self.atom_entered else self.entered
        clones = self.atom_entered and aq > 0
        for i, (_, c, r1, r2, ct, partner, cp, cb, _) in self.derived.items():
            p = where.get(partner)
            if p is None:
                if clones and (ct < 0 or cb >= 0):
                    if ct > 0 and not cb:
                        points.append(i)
                    continue
                line, sp = self.zero, 1
            else:
                line, sp = tableau[p], scales[p]
            a = ct * aq * sp + cp * line[slot] * sq
            if entered:
                a += c * (entered[r1] - entered[r2]) * sq * sp
            if a > 0:
                candidates.append((i, a, (cb * sq + ct * vq) * sp + cp * line[-1] * sq))
                terms[i] = c, r1, r2, ct, q, cp, p, sq, sp
        self.terms = terms
        tied, pair = _least(candidates), None
        if points and any(i == q for i, _, _ in tied):
            i, below = self._stand_in(points)
            _, c, r1, r2, ct, _, cp, _, _ = self.derived[i]
            tied.append((i, ct * aq, ct * vq))
            terms[i] = c, r1, r2, ct, q, cp, None, sq, 1
            pair = {i, q}, i if below else q
        return _tie_broken(tied, self._lex, pair)

    def _kappa(self, k):
        """Pair k's κ = dᵀB₀/(−τ) over B₀'s positions, times ``kappa_scale``; kept once formed.

        dᵀ is τ on T and c1, c2 on the pair's own slacks, and 0 on every
        other column: an atom and any other dense column are equal on
        rows r1 and r2, which hold no other slack.
        """
        key = self.kappas.get(k)
        if key is None:
            _, _, tau, s1, c1, s2, c2 = self.pairs[k]
            on, f = {self.t: tau, s1: c1, s2: c2}, self.kappa_scale // -tau
            key = self.kappas[k] = tuple([f * on[j] if j in on else 0 for j in self.start_basis])
        return key

    def _stand_in(self, points):
        """The point clone of least κ, and whether that κ is lexicographically below T's, 0."""
        derived, kappa = self.derived, self._kappa
        key, i = min((kappa(derived[i][0]), i) for i in points)
        return i, key < (0,) * len(key)

    def pivot(self, row, j):
        tableau, scales, live, stored = self.tableau, self.scales, self.live, self.stored
        if row in self.derived:
            # A derived row leaves: it is formed and stored for the pivot.
            self.picked[self.derived[row][0]] = None
            self._store(row)
        held = self.held.pop(row, None)
        if held is not None:
            # The column this row holds goes live, its ±scale written out.
            c, sign = held
            slot = len(live)
            for line in self.lines:
                line.insert(slot, 0)
            tableau[row][slot] = sign * scales[row]
            live.append(c)
        left = self.basis[row]
        _pivot(tableau, scales, self.basis, row, len(live))
        lines = self.lines = [tableau[i] for i in stored]
        self.basis[row] = j
        self.where.pop(left, None)
        self.where[j] = row
        if j in self.slacks:
            # The slack's row's column of B⁻¹ is now ±e_row: this row holds it.
            c, sign = self.slacks[j]
            k = live.index(c)
            for line in lines:
                del line[k]
            del live[k]
            self.held[row] = (c, sign)
        for col in (left, j):
            if col in self.pair_of:
                self._pick(self.pair_of[col])

    def _pick(self, k):
        """Derive pair k's row at its second slack's position if basic, else its first's."""
        r1, r2, tau, s1, c1, s2, c2 = self.pairs[k]
        own, c, partner, cp = (s2, c2, s1, c1) if s2 in self.where else (s1, c1, s2, c2)
        want, have = self.where.get(own), self.picked[k]
        if want != have:
            if have is not None:
                self._store(have)
            if want is not None:
                cb = c * (self.rhs[r1] - self.rhs[r2])
                self.derived[want] = (k, c, r1, r2, -c * tau, partner, -c * cp, cb, self.held.pop(want))
                self.tableau[want] = self.zero
                n = self.stored.index(want)
                del self.stored[n], self.lines[n]
            self.picked[k] = want

    def _store(self, i):
        """Form derived position i's row and store it."""
        self.tableau[i], self.scales[i] = self._row(i)
        self.held[i] = self.derived.pop(i)[-1]
        n = bisect(self.stored, i)
        self.stored.insert(n, i)
        self.lines.insert(n, self.tableau[i])

    def start(self, basis):
        """Bring the start basis's columns in and pick the derived rows.

        ValueError if the basis is singular or not primal-feasible.
        While B⁻¹ is the identity, a slack on row i needs no pivot (it
        would only negate row i for −1), so slacks are placed first, each
        on its own row; the rest are pivoted in in order, each on the
        first row not yet taken where it is nonzero.  For the margin LP's
        crash basis that is where pivoting all of them in puts them.
        """
        tableau, rest = self.tableau, []
        for col in basis:
            slack = self.slacks.get(col)
            if slack and self.basis[slack[0]] < 0:
                i, v = slack
                self.held[i] = slack
                tableau[i][-1] *= v
                self.basis[i], self.where[col] = col, i
            else:
                rest.append(col)
        for col in rest:
            self.enter(col)
            slot = len(self.live)
            row = next((i for i, c in enumerate(self.basis) if c < 0 and tableau[i][slot]), -1)
            if row < 0:
                raise ValueError(f"start basis is singular at column {col}")
            self.pivot(row, col)
        if any(line[-1] < 0 for line in tableau[: self.m]):
            raise ValueError("start basis is not primal-feasible")
        self.start_basis = tuple(self.basis)
        layout = self.layout
        self.t, self.pairs, self.pair_of = layout.t, layout.pairs, layout.pair_of
        self.kappas, self.kappa_scale = {}, layout.kappa_scale
        self.picked = [None] * len(self.pairs)
        for k in range(len(self.pairs)):
            self._pick(k)

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
        """The optimal LpResult of the current basis, its x, duals and inverse formed on first read.

        Only x_B and the objective are read out here: a stored row's x_B
        is its last entry, and a derived row's is formed from T's and
        the partner's as in :meth:`leaving`, with no row formed.
        """
        m, tableau, scales, derived, held = self.m, self.tableau, self.scales, self.derived, self.held
        values, row_scales, rows = [], [], []
        for i in range(m):
            if i in derived:
                terms = self._terms(i)
                _, _, _, ct, cp, cb, u, sq, w, sp = terms
                values.append((cb * sq + ct * u[-1]) * sp + cp * w[-1] * sq)
                rows.append((terms, sq * sp, derived[i][-1]))
            else:
                values.append(tableau[i][-1])
                rows.append((tableau[i], scales[i], held.get(i)))
            row_scales.append(rows[-1][1])
        kept = _ReadOut(values, row_scales, self.rhs_scale, self.live, tableau[m], scales[m], rows)
        objective = Fraction(-tableau[m][-1], scales[m] * self.rhs_scale)
        return LpResult(OPTIMAL, kept, objective, kept, pivots, tuple(self.basis), kept)


def _derived(terms, live, width):
    """The first ``width`` entries of a derived row from its terms (:meth:`_RevisedLp._terms`).

    That is c·(e_r1 − e_r2) + ct·u/sq + cp·w/sp over sq·sp, on the live
    columns.
    """
    c, r1, r2, ct, cp, _, u, sq, w, sp = terms
    f, g, d = ct * sp, cp * sq, c * sq * sp
    line = [f * a + g * b for a, b in zip(u, w)][:width]
    for r, v in ((r1, d), (r2, -d)):
        if r in live:
            line[live.index(r)] += v
    return line


def solve_from_basis(
    costs: list[int],
    columns: list[dict[int, int]],
    rhs: list[Fraction],
    basis: list[int],
    atoms: WalshAtoms | None = None,
) -> LpResult:
    """One-phase revised simplex for  min c·x,  A x = rhs,  x >= 0.

    The columns of A are the atom columns of the oracle ``atoms`` (none
    when it is None), then ``columns``, each a dict from row (0..m−1) to
    its nonzero entry; ``costs`` has one int per explicit column, atoms
    costing 0.  Entries must be ints (TypeError otherwise); ``rhs`` may
    hold ints and Fractions; a length mismatch raises ValueError.

    ``basis`` names one column per row whose basic solution is
    feasible: no phase 1, no artificial column (``_RevisedLp.start``;
    ValueError when singular or not primal-feasible).  Dantzig's column
    enters, atoms first on ties; a ratio-test tie goes to the
    lexicographically least row of B⁻¹B₀, so the path depends only on
    the LP and the start basis.  ``pivots`` excludes the pivots that
    bring ``basis`` in; an optimal result carries ``basis``, x_B and
    ``inverse`` for :func:`settle`.
    """
    m = len(rhs)
    if len(basis) != m:
        raise ValueError(f"start basis has {len(basis)} columns for {m} rows")
    if len(costs) != len(columns):
        raise ValueError(f"{len(costs)} costs for {len(columns)} explicit columns")
    lp = _RevisedLp(costs, columns, rhs, atoms)
    lp.start(basis)

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
    columns and costs.  Reduced costs do not depend on the right-hand
    side, so its basis is optimal at ``rhs`` whenever x_B = B⁻¹·rhs >= 0,
    computed exactly from the kept inverse; the duals y are kept and the
    objective is yᵀ·rhs, in integers (:func:`as_integers`).  x is formed
    from x_B's integers the first time it is read (:class:`_ReadOut`).
    None means ``rhs`` needs its own solve; a ``rhs`` of another length
    raises ValueError.
    """
    inverse = result.inverse
    _check_rhs(rhs, len(inverse))
    b, common = over_common_denominator(rhs)
    values = _basic_values(inverse, b)
    if values is None:
        return None
    y, d = as_integers(result, "duals")
    # x_B(i) is values[i] over row i's scale times common; x reads no other field.
    x = _ReadOut(values, [scale for _, scale in inverse], common, None, None, None, None)
    objective = Fraction(sum(map(mul, y, b)), d * common)
    return LpResult(OPTIMAL, x, objective, _getattribute(result, "duals"), 0, result.basis, inverse)


def _check_rhs(rhs, m):
    """Raise ValueError unless ``rhs`` has one entry per row of m."""
    if len(rhs) != m:
        raise ValueError(f"right-hand side has {len(rhs)} entries for {m} rows")


def _basic_values(inverse, b):
    """``B⁻¹·b`` from an ``LpResult.inverse``, or None when an entry is negative.

    ``b`` is over one common denominator d, so x_B(i) is entry i over d
    times row i's scale.
    """
    values = []
    for line, _ in inverse:
        value = sum(map(mul, line, b))
        if value < 0:
            return None
        values.append(value)
    return values
