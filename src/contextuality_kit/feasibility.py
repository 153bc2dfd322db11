"""Joint-distribution feasibility over the atom simplex, exactly.

A scenario fixes product-moment targets for ±1 variables.  A standard
joint distribution exists for those targets exactly when the linear
system

    p ≥ 0,  Σ p = 1,  (moment row)·p  (=, ≤, ≥)  target

has a solution.  One exact rational LP decides each endpoint: the
margin LP, which minimizes the least uniform relaxation t of the
targets that makes the system feasible, started from a closed-form
feasible basis.  Its optimum t is the feasibility margin, and the
system is feasible exactly when t = 0.  Every verdict ships evidence
read off that one optimum:

* feasible: its point p, a witness measure that reproduces every
  constraint exactly;
* infeasible: its optimal duals, which form a Farkas certificate, i.e.
  row multipliers that combine the constraint rows into an
  impossibility, re-checkable by direct arithmetic
  (:func:`verify_certificate`), together with the margin t > 0.

Both are re-checked exactly before release.

Targets may be intervals (brackets of irrational inputs).  Decisions
are then made at both endpoints by :func:`decide_endpoints`; if they
disagree the verdict is honestly "indeterminate" rather than a
rounding guess.  :func:`solve_robust` first tries the ``lo`` optimum's
basis at ``hi``, which decides a bracketed scenario with one LP
whenever that basis is still feasible there.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction

from ._record import Record
from .errors import CertificateError, ScenarioError
from .event_space import EventSpace, _on_atoms, build_space, moment_coefficients, moment_mask
from .measures import STANDARD, AtomMeasure, signed_atom_sum, validate
from .numerics import ScalarInterval, as_interval, format_scalar
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
            raise ScenarioError(f"unknown relation {relation!r}")
        self._set(subset, relation, target)

    @classmethod
    def eq(cls, subset: Sequence[str], value) -> "MomentConstraint":
        return cls(tuple(subset), EQ, as_interval(value))

    def describe(self) -> str:
        rel = {EQ: "=", LE: "<=", GE: ">="}[self.relation]
        return f"E({''.join(self.subset)}) {rel} {self.target}"

    def holds_at(self, value: Fraction, endpoint: str) -> bool:
        """Whether a moment value meets the target at one interval endpoint."""
        want = self.target.endpoint(endpoint)
        if self.relation == EQ:
            return value == want
        if self.relation == LE:
            return value <= want
        return value >= want


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
        for c in constraints:
            moment_mask(space, c.subset)  # validates the subset
            key = tuple(sorted(c.subset))
            if key in seen:
                raise ScenarioError(f"duplicate moment constraint on {c.subset}")
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
    e = 2 * Fraction(p) - 1
    t = 2 * Fraction(q) - 1
    return make_scenario(
        ["A", "B", "C"],
        [(["A"], EQ, e), (["B"], EQ, e), (["C"], EQ, e), (["A", "B", "C"], EQ, t)],
        title=f"symmetric p={p} q={q}",
    )


class FeasibilityOutcome(Record):
    __slots__ = ("verdict", "endpoint", "witness", "certificate", "margin", "endpoint_outcomes")

    def __init__(
        self,
        verdict: str,
        endpoint: str | None = None,
        witness: AtomMeasure | None = None,
        certificate: tuple[Fraction, ...] | None = None,
        margin: Fraction | None = None,
        endpoint_outcomes: dict | None = None,
    ):
        self._set(
            verdict, endpoint, witness, certificate, margin,
            {} if endpoint_outcomes is None else endpoint_outcomes,
        )


def _standard_rows(scenario: Scenario, endpoint: str):
    """LP rows for the standard-kind polytope at one interval endpoint.

    Row 0 is the normalization Σp = 1; the remaining rows follow the
    scenario's constraint order.  Returns (rows, rhs, relations).
    """
    n = scenario.space.atom_count
    rows = [[1] * n]
    rhs = [Fraction(1)]
    relations = [EQ]
    for c in scenario.constraints:
        rows.append(moment_coefficients(scenario.space, c.subset))
        rhs.append(c.target.endpoint(endpoint))
        relations.append(c.relation)
    return rows, rhs, relations


def solve(scenario: Scenario, endpoint: str = "lo") -> FeasibilityOutcome:
    """Decide feasibility at one interval endpoint, with evidence.

    One LP decides: :func:`margin`'s relaxed LP, solved from its crash
    basis by the revised simplex.  At t = 0 its optimal point is the
    witness; at t > 0 its optimal duals are the certificate
    (:func:`_certificate_from_duals`).  Dantzig pricing with
    lowest-index ties and the Bland fallback on degenerate steps fix
    the pivot path, so both are deterministic.  The witness is
    re-checked against every constraint and the certificate against
    :func:`verify_certificate` before either is released; the outcome
    carries the exact margin t in both cases.
    """
    return _decide(scenario, endpoint)[0]


def _decide(scenario: Scenario, endpoint: str, start=None):
    """:func:`solve`, settled from ``start`` where it can be.

    ``start`` is the optimal margin-LP result of the same scenario at
    the other endpoint (see :func:`_margin_lp`).  Returns the outcome
    and this endpoint's optimal LP result.
    """
    result, rhs, sides = _margin_lp(scenario, endpoint, start)
    n = scenario.space.atom_count
    t = result.objective
    if not t:
        witness = AtomMeasure(scenario.space, tuple(result.x[:n]), STANDARD)
        _check_witness(scenario, witness, endpoint)
        outcome = FeasibilityOutcome(
            verdict=FEASIBLE, endpoint=endpoint, witness=witness, margin=t
        )
        return outcome, result
    certificate = _certificate_from_duals(result, n, rhs, sides)
    if not verify_certificate(scenario, certificate, endpoint):
        raise AssertionError("margin LP duals give a certificate that fails verification")
    outcome = FeasibilityOutcome(
        verdict=INFEASIBLE, endpoint=endpoint, certificate=certificate, margin=t
    )
    return outcome, result


def _check_witness(scenario: Scenario, witness: AtomMeasure, endpoint: str) -> None:
    report = validate(witness)
    if not report:
        raise AssertionError(f"witness fails validation: {report.violations}")
    for c in scenario.constraints:
        got = signed_atom_sum(witness, c.subset)
        if not c.holds_at(got, endpoint):
            raise AssertionError(f"witness violates {c.describe()}: got {got}")


def decide_endpoints(decide: Callable, has_interval_targets: bool, key: Callable):
    """The kit's one policy for interval targets.

    Runs ``decide("lo")``, then ``decide("hi")`` only for interval
    targets, and returns ``(lo, hi, agree)``: ``hi`` is None for point
    targets, and ``agree`` says whether ``key`` maps both results to the
    same value.  Callers report a disagreement as indeterminate.
    """
    lo = decide("lo")
    if not has_interval_targets:
        return lo, None, True
    hi = decide("hi")
    return lo, hi, key(lo) == key(hi)


def solve_robust(scenario: Scenario) -> FeasibilityOutcome:
    """Decide under :func:`decide_endpoints`, keyed on the verdict.

    For all-rational scenarios a single run decides.  Otherwise the
    outcome carries the ``lo`` witness or certificate, the smaller of
    the endpoint margins, and both endpoint outcomes.

    The ``hi`` endpoint starts from ``lo``'s optimal basis: when that
    basis is primal-feasible at ``hi`` it is optimal there too, and its
    point and duals are ``hi``'s evidence, re-checked like any other;
    otherwise ``hi`` is solved from its own crash basis.  Either way
    ``hi``'s verdict and margin are those of a cold :func:`solve`, since
    the margin is the LP's unique optimal value.  The basis lives only
    for this call.
    """
    solved = []

    def decide(endpoint):
        outcome, result = _decide(scenario, endpoint, solved[0] if solved else None)
        solved.append(result)
        return outcome

    lo, hi, agree = decide_endpoints(
        decide, scenario.has_interval_targets, lambda outcome: outcome.verdict
    )
    if hi is None:
        return lo
    endpoints = {"lo": lo, "hi": hi}
    combined = min(lo.margin, hi.margin)
    if agree:
        return FeasibilityOutcome(
            lo.verdict, lo.endpoint, lo.witness, lo.certificate, combined, endpoints
        )
    return FeasibilityOutcome(
        verdict=INDETERMINATE, margin=combined, endpoint_outcomes=endpoints
    )


def margin(scenario: Scenario, endpoint: str = "lo") -> Fraction:
    """Least uniform relaxation t ≥ 0 that makes the scenario feasible.

    Equality targets relax to |moment - target| ≤ t; inequality targets
    relax by t in their own direction.  Computed as an exact LP, so the
    result is an exact rational; it is 0 exactly when the scenario is
    feasible as stated.

    The LP needs no phase 1: all mass on one atom j, with t equal to
    that atom's worst violation of the targets and every other row's
    slack basic, is a feasible basis (:func:`_crash_basis`), and
    :func:`simplex.solve_from_basis` minimizes t from there without
    forming the 2ⁿ atom columns (:func:`_margin_lp`).  The margin is
    the LP's optimal value, which does not depend on the start or the
    pivot path.  :func:`solve` decides from the same LP.
    """
    result, _, _ = _margin_lp(scenario, endpoint)
    return result.objective


def _margin_lp(scenario: Scenario, endpoint: str, start=None):
    """Solve the relaxed LP  min t  from the crash basis.

    Variables: p (n atoms), then t, then one slack per relaxed row.
    Row 0 is Σp = 1; every constraint becomes one-sided rows,
    ``row·p - t ≤ b`` on its le side and ``row·p + t ≥ b`` on its ge
    side (an equality gives both).  No atom column is built: relaxed
    row r's coefficient at atom a is the character
    ``(-1)^popcount(a & mask_r)`` of its moment (row 0 has mask 0, and
    an equality's two rows share one mask), which
    :func:`simplex.solve_from_basis` prices by one Walsh–Hadamard
    transform per pivot.  Only t and the slacks are explicit columns.

    ``start``, an optimal result of this LP at the other endpoint, is
    tried first: when its basis is primal-feasible at this endpoint's
    right-hand side it is optimal here (:func:`simplex.settle`), and
    no pivot runs.  Otherwise the LP is solved from the crash basis.

    Returns the optimal result, the right-hand sides of
    :func:`_standard_rows`, and for each relaxed row after row 0 the
    index of its standard row and its side (LE or GE); relaxed row r's
    slack is column n + r.  Raises ScenarioError for a scenario that is
    not of the standard kind.
    """
    if scenario.kind != STANDARD:
        raise ScenarioError(
            f"the LP engine handles standard scenarios; kind {scenario.kind!r}"
            " is served by the dedicated witness solvers"
        )
    space = scenario.space
    n = space.atom_count
    rhs = [Fraction(1)] + [c.target.endpoint(endpoint) for c in scenario.constraints]
    masks, relaxed_rhs, t_sign, sides = [0], [rhs[0]], [0], []
    for k, c in enumerate(scenario.constraints, start=1):
        mask = moment_mask(space, c.subset)
        for side, sign in ((LE, -1), (GE, 1)):
            if c.relation in (EQ, side):
                masks.append(mask)
                relaxed_rhs.append(rhs[k])
                t_sign.append(sign)
                sides.append((k, side))
    m = len(masks)
    # The t column, then relaxed row r's slack: +1 on le, -1 on ge.
    columns = [dict(enumerate(t_sign))] + [{r: -t_sign[r]} for r in range(1, m)]
    costs = [0] * (n + m)
    costs[n] = 1  # minimize t
    result = None if start is None else simplex.settle(start, costs, relaxed_rhs)
    if result is None:
        basis = _crash_basis(space.n, masks, relaxed_rhs, t_sign)
        result = simplex.solve_from_basis(
            costs, columns, relaxed_rhs, basis, (space.n, masks)
        )
    if result.status != simplex.OPTIMAL:
        raise AssertionError(
            f"margin LP ended {result.status}; it is bounded below by 0"
        )
    return result, rhs, sides


def _certificate_from_duals(result, n, rhs, sides) -> tuple[Fraction, ...]:
    """Farkas certificate from the margin LP's optimal duals.

    Relaxed row r's dual is y_r = -(reduced cost of its slack) on an le
    side (slack +1) and +(reduced cost) on a ge side (slack -1); the
    two sides of an equality fold into one multiplier z_k = y_le + y_ge.
    Row 0 has no slack, so z_0 comes from strong duality, zᵀb = t.
    Optimality makes every reduced cost ≥ 0: on the slacks that puts
    le multipliers ≤ 0 and ge multipliers ≥ 0, and on each atom column
    it gives zᵀA ≤ 0.  With zᵀb = t > 0 that is the certificate
    :func:`verify_certificate` checks.
    """
    z = [Fraction(0)] * len(rhs)
    for r, (k, side) in enumerate(sides, start=1):
        reduced = result.reduced_costs[n + r]
        z[k] += -reduced if side == LE else reduced
    z[0] = result.objective - sum(zk * b for zk, b in zip(z[1:], rhs[1:]))
    return tuple(z)


def _crash_basis(bits, masks, relaxed_rhs, t_sign):
    """A feasible start basis for the margin LP, one column per row.

    Row 0 (Σp = 1) gets atom j; relaxed row r gets its slack, column
    n + r (t is column n = 2**bits).  At p = e_j row r is violated by
    v_r(j) = t_sign[r]·(b_r - χ_r(j)), where χ_r(j) = ±1 is the
    character of row r's mask at atom j, so t = max_r v_r(j) keeps
    every slack t - v_r(j) ≥ 0.  j is the atom with the least worst
    violation (lowest index on ties).  When that violation is ≥ 0, t
    takes the basic place of the first row attaining it, whose slack is
    0; when every row is strictly slack at j, t stays nonbasic at 0.
    Violations are compared in integers over the targets' common
    denominator, and only the running worst is kept, one per atom.
    """
    n = 1 << bits
    relaxed = range(1, len(masks))
    basis = [0] + [n + r for r in relaxed]
    if not relaxed:
        return basis
    common = math.lcm(*(relaxed_rhs[r].denominator for r in relaxed))
    # Row r's violation where its character is +1 and where it is -1.
    violations = []
    for r in relaxed:
        b = relaxed_rhs[r]
        target = t_sign[r] * b.numerator * (common // b.denominator)
        step = t_sign[r] * common
        violations.append((target - step, target + step))
    worst = None
    for mask, (plus, minus) in zip(masks[1:], violations):
        row = _on_atoms(bits, mask, plus, minus)
        worst = row if worst is None else list(map(max, worst, row))
    least = min(worst)
    j = worst.index(least)
    basis[0] = j
    if least >= 0:
        first = next(
            k
            for k, (mask, pair) in enumerate(zip(masks[1:], violations))
            if pair[(j & mask).bit_count() & 1] == least
        )
        basis[first + 1] = n
    return basis


def verify_certificate(
    scenario: Scenario, certificate: Sequence[Fraction], endpoint: str = "lo"
) -> bool:
    """Re-check a Farkas certificate by direct exact arithmetic.

    The certificate has one multiplier per row (normalization row
    first, then the constraints in scenario order).  It proves
    infeasibility when the multipliers respect the row senses
    (nonnegative on ≥ rows, nonpositive on ≤ rows, free on equalities),
    the combined coefficient of every atom is ≤ 0, and the combined
    right-hand side is > 0: any p ≥ 0 would give 0 ≥ combined·p ≥ rhs > 0.
    """
    rows, rhs, relations = _standard_rows(scenario, endpoint)
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
    # Signs are all that matter, so scale y by its common denominator
    # and combine in integers.
    common = math.lcm(*(yi.denominator for yi in y))
    scaled = [yi.numerator * (common // yi.denominator) for yi in y]
    combined = [0] * scenario.space.atom_count
    for yi, row in zip(scaled, rows):
        if yi:
            combined = [c + yi * k for c, k in zip(combined, row)]
    if any(c > 0 for c in combined):
        return False
    rhs_common = math.lcm(*(b.denominator for b in rhs))
    combined_rhs = sum(
        yi * b.numerator * (rhs_common // b.denominator) for yi, b in zip(scaled, rhs)
    )
    return combined_rhs > 0


def certificate_to_json(certificate: Sequence[Fraction]) -> list[str]:
    return [format_scalar(Fraction(v)) for v in certificate]


# --- closed-form cross-check over the symmetric parameter grid -------------


class GridMismatch(Record):
    __slots__ = ("p", "q", "lp_feasible", "closed_form_feasible")

    def __init__(self, p: Fraction, q: Fraction, lp_feasible: bool, closed_form_feasible: bool):
        self._set(p, q, lp_feasible, closed_form_feasible)


class GridAgreementReport(Record):
    __slots__ = ("total", "mismatches")

    def __init__(self, total: int, mismatches: tuple[GridMismatch, ...]):
        self._set(total, mismatches)

    @property
    def agree(self) -> bool:
        return not self.mismatches


def uniform_grid(steps: int) -> list[tuple[Fraction, Fraction]]:
    """(steps x steps) rational grid over [0,1]²; includes both endpoints."""
    if steps < 2:
        raise ValueError("grid needs at least 2 steps per axis")
    axis = [Fraction(i, steps - 1) for i in range(steps)]
    return [(p, q) for p in axis for q in axis]


def _grid_verdicts(points) -> list[tuple[bool, bool]]:
    """(LP feasible, closed form feasible) for each point, in one warm sweep."""
    from . import sweep
    from .closed_form import GhzMoments, check_ghz_inequalities

    # The matrix every point shares; rows follow the scenario's order.
    rows, _, _ = _standard_rows(ghz_symmetric_scenario(0, 0), "lo")
    moments = [(2 * Fraction(p) - 1, 2 * Fraction(q) - 1) for p, q in points]
    statuses = sweep.solve_many(rows, [(1, e, e, e, t) for e, t in moments])
    return [
        (status == simplex.OPTIMAL, check_ghz_inequalities(GhzMoments(e, e, e, t)).passed)
        for status, (e, t) in zip(statuses, moments)
    ]


def oracle_grid_agreement(
    points: Iterable[tuple[Fraction, Fraction]], workers: int | None = None
) -> GridAgreementReport:
    """Compare the LP verdict with the closed-form inequalities pointwise.

    Each grid point (p, q) is the symmetric scenario of
    :func:`ghz_symmetric_scenario`, E(A)=E(B)=E(C)=2p-1 and
    E(ABC)=2q-1.  All points share its 5x8 matrix and differ only in
    the right-hand side, so the LP verdicts come from one
    :func:`sweep.solve_many` sweep: a point is settled by the last
    feasible basis or Farkas certificate found earlier in the same
    sweep, re-checked exactly at that point, and only a point neither
    settles runs a cold phase 1.  Every verdict is therefore the one a
    cold solve gives.  The kept evidence lives in this one sweep, which
    runs in the calling process.  ``workers`` is ignored; it is still
    accepted for callers that pass it.

    The report lists every mismatch; an empty list is the expected
    outcome.
    """
    points = list(points)
    verdicts = _grid_verdicts(points)
    mismatches = [
        GridMismatch(p, q, lp_ok, cf_ok)
        for (p, q), (lp_ok, cf_ok) in zip(points, verdicts)
        if lp_ok != cf_ok
    ]
    return GridAgreementReport(len(points), tuple(mismatches))
