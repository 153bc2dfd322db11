"""Joint-distribution feasibility over the atom simplex, exactly.

A scenario fixes product-moment targets for ±1 variables.  A standard
joint distribution exists for those targets exactly when the linear
system

    p ≥ 0,  Σ p = 1,  (moment row)·p  (=, ≤, ≥)  target

has a solution.  One exact rational LP decides: the margin LP, which
minimizes the least uniform relaxation t of the targets that makes the
system feasible, started from a closed-form feasible basis.  Its
optimum t is the feasibility margin, and the system is feasible exactly
when t = 0.  Every verdict ships evidence read off that one optimum:

* feasible: its point p, a witness measure that reproduces every
  constraint exactly;
* infeasible: its optimal duals, which form a Farkas certificate, i.e.
  row multipliers that combine the constraint rows into an
  impossibility, re-checkable by direct arithmetic
  (:func:`verify_certificate`), together with the margin t > 0.

Both are re-checked exactly before release, and so is the margin t > 0.
The LP's structure is built once per decision (:class:`_MomentLp`).

Targets may be intervals (brackets of irrational inputs), and a verdict
must hold for every real target in the box they span.  The margin LP
takes the whole box at once: each target's ≤ side is relaxed from the
bracket's ``hi`` and its ≥ side from its ``lo``, so its optimum is the
least relaxation over the box.  A positive optimum proves every target
in the box infeasible, and its duals certify the whole box.  At t = 0
some point of the box is feasible, and the box is feasible when the
check points of :func:`_check_points` are, by convexity; otherwise the
verdict is honestly "indeterminate" rather than a rounding guess (A.
Fine, *Phys. Rev. Lett.* 48, 291 (1982); I. Pitowsky, *Math.
Programming* 50, 395 (1991)).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache
from math import lcm
from operator import mul

from ._record import Record
from .errors import CertificateError, ScenarioError, SpaceError
from .event_space import EventSpace, build_space, moment_coefficients, moment_mask
from .measures import STANDARD, AtomMeasure, signed_atom_sums, validate
from .numerics import ScalarInterval, as_interval, format_scalar, over_common_denominator, quoted
from . import simplex
from .simplex import EQ, GE, LE

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INDETERMINATE = "indeterminate"

_RELATIONS = (EQ, LE, GE)


class MomentConstraint(Record):
    """Target for one product moment: subset, relation, interval target."""

    __slots__ = ("subset", "relation", "target")

    def __init__(self, subset: tuple[str, ...], relation: str, target: ScalarInterval):
        if relation not in _RELATIONS:
            raise ScenarioError(f"unknown relation {quoted(relation)}")
        self._set(subset, relation, target)

    def describe(self) -> str:
        rel = {EQ: "=", LE: "<=", GE: ">="}[self.relation]
        return f"E({''.join(self.subset)}) {rel} {self.target}"

    def holds(self, value: Fraction) -> bool:
        """Whether a moment value meets the relation somewhere in the bracket.

        ``eq`` needs lo ≤ value ≤ hi, ``le`` value ≤ hi and ``ge``
        value ≥ lo.
        """
        if self.relation == EQ:
            return self.target.lo <= value <= self.target.hi
        if self.relation == LE:
            return value <= self.target.hi
        return value >= self.target.lo


class Scenario(Record):
    """A moment problem: space, constraints, and measure kind."""

    __slots__ = ("space", "constraints", "kind", "title")

    def __init__(
        self,
        space: EventSpace,
        constraints: tuple[MomentConstraint, ...],
        kind: str = STANDARD,
        title: str | None = None,
    ):
        seen = set()
        for index, c in enumerate(constraints):
            try:
                moment_mask(space, c.subset)  # validates the subset
            except SpaceError as err:
                raise SpaceError(f"constraint {index}: {err}") from err
            key = tuple(sorted(c.subset))
            if key in seen:
                raise ScenarioError(
                    f"constraint {index}: duplicate moment constraint on {quoted(c.subset)}"
                )
            seen.add(key)
        self._set(space, constraints, kind, title)

    @property
    def has_interval_targets(self) -> bool:
        return any(not c.target.is_point for c in self.constraints)


def make_scenario(
    variables: Sequence[str],
    constraints: Iterable[tuple[Sequence[str], str, object]],
    kind: str = STANDARD,
    title: str | None = None,
) -> Scenario:
    """Convenience constructor from (subset, relation, value) triples."""
    space = build_space(variables)
    built = tuple(
        MomentConstraint(tuple(subset), relation, as_interval(value))
        for subset, relation, value in constraints
    )
    return Scenario(space, built, kind, title)


def ghz_symmetric_scenario(p: Fraction, q: Fraction) -> Scenario:
    """Three-variable scenario with P(single)=p and P(product=1)=q.

    Encoded as moments: E(A)=E(B)=E(C)=2p-1 and E(ABC)=2q-1.
    """
    p, q = Fraction(p), Fraction(q)
    e = 2 * p - 1
    t = 2 * q - 1
    return make_scenario(
        ["A", "B", "C"],
        [(["A"], EQ, e), (["B"], EQ, e), (["C"], EQ, e), (["A", "B", "C"], EQ, t)],
        title=f"symmetric p={format_scalar(p)} q={format_scalar(q)}",
    )


class FeasibilityOutcome(Record):
    __slots__ = ("verdict", "witness", "certificate", "margin")

    def __init__(
        self,
        verdict: str,
        witness: AtomMeasure | None = None,
        certificate: tuple[Fraction, ...] | None = None,
        margin: Fraction | None = None,
    ):
        self._set(verdict, witness, certificate, margin)


def _standard_rows(scenario: Scenario):
    """LP rows for the standard-kind polytope.

    Row 0 is the normalization Σp = 1; the remaining rows follow the
    scenario's constraint order.  Returns (rows, targets, relations),
    with each target a :class:`ScalarInterval`.
    """
    n = scenario.space.atom_count
    rows = [[1] * n]
    targets = [ScalarInterval.point(1)]
    relations = [EQ]
    for c in scenario.constraints:
        rows.append(moment_coefficients(scenario.space, c.subset))
        targets.append(c.target)
        relations.append(c.relation)
    return rows, targets, relations


def solve(scenario: Scenario) -> FeasibilityOutcome:
    """Decide feasibility for every target in the scenario's brackets, with evidence.

    One LP decides: :func:`margin`'s relaxed LP over the whole target
    box (:class:`_MomentLp`, built once), from its crash basis.

    * t > 0: infeasible over the box; the optimal duals are the
      certificate, and t is released once both its bounds are t
      (:func:`_check_margin`).
    * t = 0: the optimal point is the witness, re-checked against every
      constraint.  With bracketed targets the verdict is feasible only
      when every point of :func:`_check_points` is, each settled from
      the last optimum's basis or else solved from its crash basis;
      otherwise indeterminate, with no evidence.

    The pivot path is fixed, so the evidence is deterministic.  The
    outcome carries the exact margin t.
    """
    lp = _MomentLp(scenario)
    result = _margin_lp(lp, _box(scenario))
    n = lp.atoms.atoms
    t = result.objective
    point = [(col, value) for col, value in zip(result.basis, result.x) if col < n]
    if t:
        certificate = _certificate_from_duals(result, lp.rows_of)
        _check_margin(lp, certificate, point, t)
        return FeasibilityOutcome(INFEASIBLE, certificate=certificate, margin=t)
    if scenario.has_interval_targets:
        start = result
        for bounds in _check_points(scenario):
            start = _margin_lp(lp, bounds, start)
            if start.objective:
                return FeasibilityOutcome(INDETERMINATE, margin=t)
    atoms = [Fraction(0)] * n
    for col, value in point:
        atoms[col] = value
    witness = AtomMeasure(scenario.space, tuple(atoms), STANDARD)
    _check_witness(lp, witness)
    return FeasibilityOutcome(FEASIBLE, witness=witness, margin=t)


#: The same decision under the name the CLI looks up.
solve_robust = solve


def _check_witness(lp, witness: AtomMeasure) -> None:
    report = validate(witness)
    if not report:
        raise AssertionError(f"witness fails validation: {report.violations}")
    if _largest_miss(lp, [(a, v) for a, v in enumerate(witness.values) if v]):
        c, got = violated_constraints(lp.scenario, witness)[0]
        raise AssertionError(f"witness violates {c.describe()}: got {format_scalar(got)}")


def _largest_miss(lp, point) -> Fraction:
    """The most by which a moment of ``point``, (atom, mass) pairs, misses its bracket, or 0.

    In integers: the brackets' ends and the masses over one denominator d.
    """
    constraints = lp.scenario.constraints
    ends = [v for c in constraints for v in (c.target.lo, c.target.hi)]
    ints, d = over_common_denominator(ends + [v for _, v in point])
    masses, misses = list(zip((a for a, _ in point), ints[len(ends):])), [0]
    for c, mask, lo, hi in zip(constraints, lp.masks[1:], ints[0::2], ints[1::2]):
        moment = sum(-v if (a & mask).bit_count() & 1 else v for a, v in masses)
        misses += [lo - moment] * (c.relation != LE) + [moment - hi] * (c.relation != GE)
    return Fraction(max(misses), d)


def _check_margin(lp, certificate, point, t) -> None:
    """Raise AssertionError unless the certificate holds and both bounds on t are t.

    Lower: zᵀA ≤ 0 on every atom, so any distribution p has Σ_{k≥1}
    z_k·(b_k − a_k·p) ≥ z·b and misses some bracket by at least
    :func:`_proved_miss`.  Upper: the LP's optimal ``point`` misses none
    by more than t.
    """
    lower = _proved_miss(lp.scenario, lp.masks, certificate)
    if lower is None:
        raise AssertionError("margin LP duals give a certificate that fails verification")
    upper = _largest_miss(lp, point)
    if not lower == t == upper:
        raise AssertionError(f"margin {format_scalar(t)} is not proved: the certificate"
                             f" gives {format_scalar(lower)}, the point {format_scalar(upper)}")


def violated_constraints(scenario: Scenario, witness: AtomMeasure) -> list:
    """(constraint, moment) for each constraint the witness's atom-level moment misses."""
    moments = signed_atom_sums(witness, [c.subset for c in scenario.constraints])
    return [(c, got) for c, got in zip(scenario.constraints, moments) if not c.holds(got)]


def _box(scenario: Scenario) -> list[tuple[Fraction, Fraction]]:
    """:func:`_margin_lp` bounds of the whole box: ≤ sides at hi, ≥ sides at lo."""
    return [(c.target.hi, c.target.lo) for c in scenario.constraints]


def _check_points(scenario: Scenario) -> list[list[tuple[Fraction, Fraction]]]:
    """Target points, as :func:`_margin_lp` bounds, that decide a feasible box.

    An ``le`` target is held at its ``lo`` and a ``ge`` target at its
    ``hi``, their most restrictive ends.  Let the k bracketed ``eq``
    targets have centre c and half-widths h_i.  Their box lies inside
    the cross-polytope with vertices c ± k·h_i·e_i, since a box corner
    has Σ_i |x_i − c_i| / (k·h_i) = 1.  The targets that a joint
    distribution reproduces form a convex set, so the whole box is
    feasible when all 2k vertices are.  For k = 1 they are the
    bracket's ``lo`` and ``hi``; for k = 0 the one point is c.
    """
    centre = []
    for c in scenario.constraints:
        lo, hi = c.target.lo, c.target.hi
        value = lo if c.relation == LE else hi if c.relation == GE else (lo + hi) / 2
        centre.append((value, value))
    bracketed = [
        i for i, c in enumerate(scenario.constraints)
        if c.relation == EQ and not c.target.is_point
    ]
    points = []
    for i in bracketed:
        reach = len(bracketed) * scenario.constraints[i].target.width / 2
        for value in (centre[i][0] - reach, centre[i][0] + reach):
            points.append(centre[:i] + [(value, value)] + centre[i + 1:])
    return points or [centre]


def margin(scenario: Scenario) -> Fraction:
    """Least uniform relaxation t ≥ 0 that makes some target in the box feasible.

    An equality target relaxes to lo - t ≤ moment ≤ hi + t; an
    inequality target relaxes by t in its own direction from the
    loosest end of its bracket.  Computed as an exact LP, so the result
    is an exact rational; it is 0 exactly when some target in the box
    is feasible, which for point targets means the scenario as stated.
    The LP (:class:`_MomentLp`) needs no phase 1: it starts from
    :func:`_crash_basis`.  :func:`solve` decides from the same LP.
    """
    return _margin_lp(_MomentLp(scenario), _box(scenario)).objective


class _MomentLp:
    """The relaxed LP  min t  of one standard scenario, but its right-hand side.

    Variables: p (n atoms, cost 0), then t (cost 1), then one slack per
    relaxed row.  Row 0 is Σp = 1; every constraint becomes one-sided
    rows, ``row·p - t ≤ upper`` on its le side and ``row·p + t ≥ lower``
    on its ge side (an equality gives both).

    ``masks`` holds each standard row's moment mask (row 0's is 0),
    ``rows_of`` each relaxed row's standard row and ``t_sign`` its t
    entry (−1 on a le side, +1 on a ge side, 0 on row 0).  ``atoms`` is
    the atom oracle (:class:`simplex.WalshAtoms`) of the relaxed rows;
    ``columns`` and ``costs`` are t and then each relaxed row r's slack
    (column n + r, +1 on a le side, −1 on a ge side).  Raises
    ScenarioError for a scenario that is not of the standard kind.
    """

    __slots__ = ("scenario", "masks", "rows_of", "t_sign", "atoms", "columns", "costs")

    def __init__(self, scenario: Scenario):
        if scenario.kind != STANDARD:
            raise ScenarioError(
                f"the LP engine handles standard scenarios; kind {scenario.kind!r}"
                " is served by the dedicated witness solvers"
            )
        masks, rows_of, t_sign = [0], [0], [0]
        for k, c in enumerate(scenario.constraints, start=1):
            masks.append(moment_mask(scenario.space, c.subset))
            for side, sign in ((LE, -1), (GE, 1)):
                if c.relation in (EQ, side):
                    rows_of.append(k)
                    t_sign.append(sign)
        self.scenario, self.masks, self.rows_of, self.t_sign = scenario, masks, rows_of, t_sign
        self.atoms = simplex.WalshAtoms(scenario.space.n, [masks[k] for k in rows_of])
        self.columns = [dict(enumerate(t_sign))] + [{r: -s} for r, s in enumerate(t_sign) if r]
        self.costs = [1] + [0] * (len(t_sign) - 1)  # minimize t; atoms cost 0


def _margin_lp(lp: _MomentLp, bounds, start=None):
    """The optimal result of the relaxed LP  min t  at ``bounds``.

    ``bounds`` gives each constraint, in scenario order, the right-hand
    side of its ≤ side and of its ≥ side: (hi, lo) over the whole box
    (:func:`_box`), (v, v) at one target point v.

    ``start``, an optimal result of this LP at other bounds, is tried
    first: when its basis is primal-feasible at these bounds it is
    optimal here (:func:`simplex.settle`), and no pivot runs.
    Otherwise the LP is solved from the crash basis.
    """
    rhs = [Fraction(1)] + [bounds[k - 1][s > 0] for k, s in zip(lp.rows_of[1:], lp.t_sign[1:])]
    result = None if start is None else simplex.settle(start, rhs)
    if result is None:
        basis = _crash_basis(lp.atoms, rhs, lp.t_sign)
        result = simplex.solve_from_basis(lp.costs, lp.columns, rhs, basis, lp.atoms)
    if result.status != simplex.OPTIMAL:
        raise AssertionError(f"margin LP ended {result.status}; it is bounded below by 0")
    return result


def _certificate_from_duals(result, rows_of) -> tuple[Fraction, ...]:
    """Farkas certificate from the margin LP's optimal duals.

    Standard row k's multiplier is z_k = Σ y_r over the relaxed rows r
    of that row (``rows_of[r] == k``): the two sides of an equality
    fold into one, and z_0 = y_0.  Optimality makes every reduced cost
    c_j − yᵀA_j ≥ 0: on a slack (+1 on an le side, −1 on a ge side,
    cost 0) that puts le duals ≤ 0 and ge duals ≥ 0, and on each atom
    column it gives zᵀA ≤ 0.  By strong duality Σ_r y_r·b_r = t.  Over
    the box an le side's b_r is its bracket's hi and a ge side's its
    lo, the ends at which y_r·b_r is least, so the least combined
    right-hand side of z over the box is at least t.  With t > 0 that
    is the certificate :func:`verify_certificate` checks.
    """
    z = [Fraction(0)] * (rows_of[-1] + 1)  # relaxed rows end on the last constraint
    for y, k in zip(result.duals, rows_of):
        z[k] += y
    return tuple(z)


def _crash_basis(atoms, relaxed_rhs, t_sign):
    """A feasible start basis for the margin LP, one column per row.

    Row 0 (Σp = 1) gets atom j; relaxed row r gets its slack, column
    n + r (t is column n, the oracle ``atoms``' atom count).  At p = e_j
    row r is violated by v_r(j) = t_sign[r]·(b_r - χ_r(j)), so
    t = max_r v_r(j) keeps every slack t - v_r(j) ≥ 0.  j is the atom
    with the least worst violation, the oracle's ``least_worst``, in
    integers over the targets' common denominator.  When that violation
    is ≥ 0, t takes the basic place of the first row attaining it, whose
    slack is 0; otherwise t stays nonbasic at 0.
    """
    n = atoms.atoms
    relaxed = range(1, len(t_sign))
    basis = [0] + [n + r for r in relaxed]
    if not relaxed:
        return basis
    targets, common = over_common_denominator(relaxed_rhs[1:])
    # Row r's violation where its character is +1 and where it is -1.
    violations = [(r, s * (b - common), s * (b + common))
                  for r, (s, b) in enumerate(zip(t_sign[1:], targets), 1)]
    least, j = atoms.least_worst(violations)
    basis[0] = j
    if least >= 0:
        signs = atoms.column(j)
        basis[next(r for r, *pair in violations if pair[signs[r] < 0] == least)] = n
    return basis


def verify_certificate(scenario: Scenario, certificate: Sequence[Fraction]) -> bool:
    """Re-check a Farkas certificate over the whole target box, exactly.

    The certificate has one multiplier per row (normalization row
    first, then the constraints in scenario order).  It proves every
    target in the box infeasible when the multipliers respect the row
    senses (nonnegative on ≥ rows, nonpositive on ≤ rows, free on
    equalities), the combined coefficient of every atom is ≤ 0, and the
    combined right-hand side is > 0 at every target in the box: any
    p ≥ 0 would give 0 ≥ combined·p ≥ rhs > 0 (:func:`_proved_miss`).
    """
    masks = [0] + [moment_mask(scenario.space, c.subset) for c in scenario.constraints]
    return _proved_miss(scenario, masks, certificate) is not None


def _proved_miss(scenario: Scenario, masks, certificate):
    """(least z·b over the box) / Σ_{k≥1}|z_k| for a certificate z, or None if it proves nothing.

    None when z breaks a row sense, zᵀA ≤ 0 fails (the atom oracle's
    least of −z on the rows' ``masks``) or that least z·b is ≤ 0;
    z_k·b_k is least at the bracket's ``lo`` for z_k > 0, else its ``hi``.
    """
    rows = [(ScalarInterval.point(1), EQ)] + [(c.target, c.relation) for c in scenario.constraints]
    if len(certificate) != len(rows):
        raise CertificateError(
            f"certificate has {len(certificate)} entries for {len(rows)} rows"
        )
    y = [Fraction(v) for v in certificate]
    for yi, (_, rel) in zip(y, rows):
        if (rel == GE and yi < 0) or (rel == LE and yi > 0):
            return None
    # In integers, y times d and b times e: (Σ dy·eb / de) / (Σ d|y| / d).
    scaled, _ = over_common_denominator(y)
    atoms = simplex.WalshAtoms(scenario.space.n, masks)
    if atoms.least((k, -v) for k, v in enumerate(scaled))[0] < 0:
        return None
    rhs, e = over_common_denominator([t.lo if yi > 0 else t.hi for yi, (t, _) in zip(y, rows)])
    bound = sum(map(mul, scaled, rhs))
    return Fraction(bound, e * sum(map(abs, scaled[1:]))) if bound > 0 else None


# --- closed-form cross-check over the symmetric parameter grid -------------


class GridMismatch(Record):
    __slots__ = ("p", "q", "lp_feasible", "closed_form_feasible")


class GridAgreementReport(Record):
    __slots__ = ("total", "mismatches")

    @property
    def agree(self) -> bool:
        return not self.mismatches


#: Most steps per axis; :func:`uniform_grid` builds every point up front.
MAX_GRID_STEPS = 401


def uniform_grid(steps: int) -> list[tuple[Fraction, Fraction]]:
    """(steps x steps) rational grid over [0,1]²; includes both endpoints."""
    if steps < 2:
        raise ValueError("grid needs at least 2 steps per axis")
    if steps > MAX_GRID_STEPS:
        raise ValueError(f"grid allows at most {MAX_GRID_STEPS} steps per axis, got {steps}")
    axis = [Fraction(i, steps - 1) for i in range(steps)]
    return [(p, q) for p in axis for q in axis]


@cache
def _ghz_rows() -> tuple[tuple[int, ...], ...]:
    """The 5×8 matrix every grid point shares, built once per process.

    Its rows follow :func:`ghz_symmetric_scenario`'s constraint order,
    read through :func:`_standard_rows`; tuples, as every caller shares them.
    """
    rows, _, _ = _standard_rows(ghz_symmetric_scenario(0, 0))
    return tuple(map(tuple, rows))


def _grid_verdicts(points) -> list[tuple[bool, bool]]:
    """(LP feasible, closed form feasible) for each point, in one warm sweep.

    Point (p, q) is the symmetric scenario with singles e = 2p - 1 and
    triple t = 2q - 1; with p = a/b, q = c/k and d = lcm(b, k) its
    right-hand side is the ints d·(1, e, e, e, t), which a positive scale
    changes no verdict of, for :func:`sweep.solve_many` and the closed
    form's integer core ``closed_form._ghz_check`` (None is a pass).  A
    point outside [0, 1]² builds its GhzMoments, which raises ValueError.
    """
    from . import closed_form, sweep

    check = closed_form._ghz_check
    rows = _ghz_rows()
    rhs_list = []
    for p, q in points:
        if type(p) is not Fraction or type(q) is not Fraction:
            p, q = Fraction(p), Fraction(q)
        a, b, c, k = p.numerator, p.denominator, q.numerator, q.denominator
        d = lcm(b, k)
        e, t = (2 * a - b) * (d // b), (2 * c - k) * (d // k)
        if not (-d <= e <= d and -d <= t <= d):
            # Outside [0, 1]²: the moments' own check raises its ValueError.
            single = Fraction(2 * a - b, b)
            closed_form.GhzMoments(single, single, single, Fraction(2 * c - k, k))
        rhs_list.append((d, e, e, e, t))
    statuses = sweep.solve_many(rows, rhs_list)
    return [
        (status == simplex.OPTIMAL, check(e, e, e, t, d) is None)
        for status, (d, e, _, _, t) in zip(statuses, rhs_list)
    ]


def oracle_grid_agreement(
    points: Iterable[tuple[Fraction, Fraction]], workers: int | None = None
) -> GridAgreementReport:
    """Compare the LP verdict with the closed-form inequalities pointwise.

    Each grid point (p, q) is the symmetric scenario of
    :func:`ghz_symmetric_scenario`, E(A)=E(B)=E(C)=2p-1 and
    E(ABC)=2q-1.  All points share its 5x8 matrix, so the LP verdicts
    come from one :func:`sweep.solve_many` sweep in the calling process:
    each point is settled by a basis or certificate found earlier in the
    sweep, re-checked exactly there, or takes dual-simplex pivots, so
    every verdict is an exact proof at its point.  The closed-form
    verdict is :func:`closed_form.check_ghz_inequalities` in integers on
    the same right-hand side (:func:`_grid_verdicts`).  ``workers`` is
    ignored.  The report lists every mismatch; none is expected.
    """
    points = list(points)
    verdicts = _grid_verdicts(points)
    mismatches = [
        GridMismatch(p, q, lp_ok, cf_ok)
        for (p, q), (lp_ok, cf_ok) in zip(points, verdicts)
        if lp_ok != cf_ok
    ]
    return GridAgreementReport(len(points), tuple(mismatches))
