"""Joint-distribution feasibility over the atom simplex, exactly.

A scenario fixes product-moment targets for ±1 variables.  A standard
joint distribution exists for those targets exactly when the linear
system

    p ≥ 0,  Σ p = 1,  (moment row)·p  (=, ≤, ≥)  target

has a solution, which phase-1 simplex decides in exact rational
arithmetic.  Every verdict ships evidence:

* feasible: a witness measure that reproduces every constraint exactly;
* infeasible: a Farkas certificate, i.e. row multipliers that combine
  the constraint rows into an impossibility, re-checkable by direct
  arithmetic (:func:`verify_certificate`), plus the feasibility margin:
  the least uniform relaxation of the targets that restores
  feasibility.

Targets may be intervals (brackets of irrational inputs).  Decisions
are then made at both endpoints by :func:`decide_endpoints`; if they
disagree the verdict is honestly "indeterminate" rather than a
rounding guess.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import CertificateError, ScenarioError
from .event_space import EventSpace, build_space, moment_coefficients
from .measures import STANDARD, AtomMeasure, signed_atom_sum, validate
from .numerics import ScalarInterval, as_interval, format_scalar
from . import simplex
from .simplex import EQ, GE, LE

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
INDETERMINATE = "indeterminate"

_RELATIONS = (EQ, LE, GE)

#: Optional cap on worker processes used by grid sweeps.
WORKERS_ENV_VAR = "CONTEXTUALITY_KIT_THREADS"


@dataclass(frozen=True)
class MomentConstraint:
    """Target for one product moment: subset, relation, interval target."""

    subset: tuple[str, ...]
    relation: str
    target: ScalarInterval

    def __post_init__(self):
        if self.relation not in _RELATIONS:
            raise ScenarioError(f"unknown relation {self.relation!r}")

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


@dataclass(frozen=True)
class Scenario:
    """A moment problem: space, constraints, and measure kind."""

    space: EventSpace
    constraints: tuple[MomentConstraint, ...]
    kind: str = STANDARD
    title: str | None = None

    def __post_init__(self):
        seen = set()
        for c in self.constraints:
            moment_coefficients(self.space, c.subset)  # validates the subset
            key = tuple(sorted(c.subset))
            if key in seen:
                raise ScenarioError(f"duplicate moment constraint on {c.subset}")
            seen.add(key)

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


@dataclass(frozen=True)
class FeasibilityOutcome:
    verdict: str
    endpoint: str | None = None
    witness: AtomMeasure | None = None
    certificate: tuple[Fraction, ...] | None = None
    margin: Fraction | None = None
    endpoint_outcomes: dict = field(default_factory=dict)


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


def _feasible_at(scenario: Scenario, endpoint: str):
    """Phase-1 only: returns (feasible, witness values or farkas)."""
    rows, rhs, relations = _standard_rows(scenario, endpoint)
    n = scenario.space.atom_count
    std_rows, total = simplex.to_standard_form(rows, relations)
    result = simplex.solve_lp(None, std_rows, rhs, n_vars=total)
    if result.status == simplex.INFEASIBLE:
        return False, result.farkas
    return True, result.x[:n]


def solve(scenario: Scenario, endpoint: str = "lo") -> FeasibilityOutcome:
    """Decide feasibility at one interval endpoint, with evidence.

    The witness returned on the feasible side is the first basic
    feasible solution found under Bland's rule, hence deterministic.
    The certificate returned on the infeasible side is verified against
    :func:`verify_certificate` before being released, and the outcome
    carries the exact feasibility margin in both cases.
    """
    if scenario.kind != STANDARD:
        raise ScenarioError(
            f"the LP engine handles standard scenarios; kind {scenario.kind!r}"
            " is served by the dedicated witness solvers"
        )
    feasible, payload = _feasible_at(scenario, endpoint)
    if feasible:
        witness = AtomMeasure(scenario.space, tuple(payload), STANDARD)
        _check_witness(scenario, witness, endpoint)
        return FeasibilityOutcome(
            verdict=FEASIBLE, endpoint=endpoint, witness=witness, margin=Fraction(0)
        )
    certificate = tuple(payload)
    if not verify_certificate(scenario, certificate, endpoint):
        raise AssertionError("simplex produced a certificate that fails verification")
    return FeasibilityOutcome(
        verdict=INFEASIBLE,
        endpoint=endpoint,
        certificate=certificate,
        margin=margin(scenario, endpoint),
    )


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
    """
    lo, hi, agree = decide_endpoints(
        lambda endpoint: solve(scenario, endpoint),
        scenario.has_interval_targets,
        lambda outcome: outcome.verdict,
    )
    if hi is None:
        return lo
    endpoints = {"lo": lo, "hi": hi}
    combined = min(lo.margin, hi.margin)
    if agree:
        return replace(lo, margin=combined, endpoint_outcomes=endpoints)
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
    :func:`simplex.solve_from_basis` minimizes t from there.  The
    margin is the LP's optimal value, which does not depend on the
    start or the pivot path.
    """
    rows, rhs, relations = _standard_rows(scenario, endpoint)
    n = scenario.space.atom_count
    # Variables: p (n), then t, then slacks.  Every relaxed row becomes
    # an inequality; equalities contribute a pair of one-sided rows.
    relaxed_rows, relaxed_rhs, relaxed_rel, t_sign = [], [], [], []
    relaxed_rows.append(rows[0])
    relaxed_rhs.append(rhs[0])
    relaxed_rel.append(EQ)
    t_sign.append(0)
    for row, b, rel in zip(rows[1:], rhs[1:], relations[1:]):
        if rel in (EQ, LE):
            relaxed_rows.append(row)
            relaxed_rhs.append(b)
            relaxed_rel.append(LE)
            t_sign.append(-1)  # row·p - t <= b
        if rel in (EQ, GE):
            relaxed_rows.append(row)
            relaxed_rhs.append(b)
            relaxed_rel.append(GE)
            t_sign.append(1)  # row·p + t >= b
    with_t = []
    for row, s in zip(relaxed_rows, t_sign):
        with_t.append(list(row) + [s])
    std_rows, total = simplex.to_standard_form(with_t, relaxed_rel)
    costs = [0] * total
    costs[n] = 1  # minimize t
    basis = _crash_basis(n, relaxed_rows, relaxed_rhs, t_sign)
    result = simplex.solve_from_basis(costs, std_rows, relaxed_rhs, basis)
    if result.status != simplex.OPTIMAL:
        raise AssertionError(
            f"margin LP ended {result.status}; it is bounded below by 0"
        )
    return result.x[n]


def _crash_basis(n, relaxed_rows, relaxed_rhs, t_sign):
    """A feasible start basis for the margin LP, one column per row.

    Row 0 (Σp = 1) gets atom j; relaxed row r gets its slack, column
    n + r (t is column n).  At p = e_j row r is violated by
    v_r(j) = t_sign[r]·(b_r - row_r[j]), so t = max_r v_r(j) keeps
    every slack t - v_r(j) ≥ 0.  j is the atom with the least worst
    violation (lowest index on ties).  When that violation is ≥ 0, t
    takes the basic place of the first row attaining it, whose slack is
    0; when every row is strictly slack at j, t stays nonbasic at 0.
    Violations are compared in integers over the targets' common
    denominator.
    """
    relaxed = range(1, len(relaxed_rows))
    basis = [0] + [n + r for r in relaxed]
    if not relaxed:
        return basis
    common = math.lcm(*(relaxed_rhs[r].denominator for r in relaxed))
    violations = []
    for r in relaxed:
        b = relaxed_rhs[r]
        sign = t_sign[r]
        target = sign * b.numerator * (common // b.denominator)
        step = sign * common
        violations.append([target - step * a for a in relaxed_rows[r]])
    worst = [max(column) for column in zip(*violations)]
    least = min(worst)
    j = worst.index(least)
    basis[0] = j
    if least >= 0:
        first = next(k for k, v in enumerate(violations) if v[j] == least)
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


@dataclass(frozen=True)
class GridMismatch:
    p: Fraction
    q: Fraction
    lp_feasible: bool
    closed_form_feasible: bool


@dataclass(frozen=True)
class GridAgreementReport:
    total: int
    mismatches: tuple[GridMismatch, ...]

    @property
    def agree(self) -> bool:
        return not self.mismatches


def uniform_grid(steps: int) -> list[tuple[Fraction, Fraction]]:
    """(steps x steps) rational grid over [0,1]²; includes both endpoints."""
    if steps < 2:
        raise ValueError("grid needs at least 2 steps per axis")
    axis = [Fraction(i, steps - 1) for i in range(steps)]
    return [(p, q) for p in axis for q in axis]


def _grid_point_agrees(point: tuple[Fraction, Fraction]) -> tuple[bool, bool]:
    from .closed_form import GhzMoments, check_ghz_inequalities

    p, q = point
    scenario = ghz_symmetric_scenario(p, q)
    lp_ok, _ = _feasible_at(scenario, "lo")
    cf_ok = check_ghz_inequalities(
        GhzMoments(2 * p - 1, 2 * p - 1, 2 * p - 1, 2 * q - 1)
    ).passed
    return lp_ok, cf_ok


def _worker_count(workers: int | None) -> int:
    if workers is not None:
        return max(1, workers)
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def oracle_grid_agreement(
    points: Iterable[tuple[Fraction, Fraction]], workers: int | None = None
) -> GridAgreementReport:
    """Compare the LP verdict with the closed-form inequalities pointwise.

    Each grid point (p, q) builds the symmetric scenario with
    E(A)=E(B)=E(C)=2p-1 and E(ABC)=2q-1.  The report lists every
    mismatch; an empty list is the expected outcome.  Points may be
    partitioned across worker processes; the result order follows the
    input order regardless of scheduling.
    """
    points = list(points)
    workers = _worker_count(workers)
    if workers > 1 and len(points) > 64:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            verdicts = pool.map(_grid_point_agrees, points, chunksize=256)
    else:
        verdicts = [_grid_point_agrees(pt) for pt in points]
    mismatches = [
        GridMismatch(p, q, lp_ok, cf_ok)
        for (p, q), (lp_ok, cf_ok) in zip(points, verdicts)
        if lp_ok != cf_ok
    ]
    return GridAgreementReport(len(points), tuple(mismatches))
