"""Closed-form criteria and dedicated witness solvers.

This module collects the results that do not need the generic LP engine
(though several cross-check against it):

* the four-inequality criterion deciding whether three ±1 variables
  with given single and triple-product expectations admit a joint
  distribution, together with the signed sum E(A)+E(B)+E(C)-E(ABC)
  whose value above 2 certifies nonexistence;
* the explicit symmetric joint distribution on the feasible side;
* the noise threshold: degrading perfect GHZ correlations by ε keeps
  the contradiction alive for every ε < 1/2;
* exhaustive enumeration of deterministic sign assignments for the
  three-particle spin products, showing none matches the quantum
  predictions while the product identity A·B·C = D always holds;
* the Bell conditional-expectation system (equalities for standard
  probabilities, inequalities for upper probabilities);
* constructions of lower/upper atom witnesses for the GHZ expectations
  that no standard joint distribution can reproduce.

Underdetermined systems are resolved deterministically: the symmetric
solution when one exists, otherwise the exact-LP optimum under Bland's
rule, symmetrized over variable permutations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import KitError, NoWitnessError
from .event_space import EventMask, EventSpace, build_space, moment_coefficients, sign_event
from .feasibility import EQ, GE, INDETERMINATE, _feasible_at, decide_endpoints, make_scenario
from .measures import (
    LOWER,
    LOWER_ATOMS,
    STANDARD,
    UPPER,
    UPPER_ATOMS,
    AtomMeasure,
    ConditionalMomentValue,
    PartialSetFunction,
    signed_atom_sum,
    validate,
)
from .numerics import ScalarInterval, as_interval
from . import simplex

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class GhzMoments:
    """Single and triple-product expectations of three ±1 variables."""

    eA: Fraction
    eB: Fraction
    eC: Fraction
    eABC: Fraction

    def __post_init__(self):
        for name in ("eA", "eB", "eC", "eABC"):
            v = getattr(self, name)
            if abs(v) > 1:
                raise ValueError(f"{name} = {v} outside [-1, 1]")

    @classmethod
    def of(cls, eA, eB, eC, eABC) -> "GhzMoments":
        return cls(Fraction(eA), Fraction(eB), Fraction(eC), Fraction(eABC))


def ghz_sum(m: GhzMoments) -> Fraction:
    """The signed sum E(A) + E(B) + E(C) - E(ABC).

    For any joint distribution this sum lies in [-2, 2]; the perfect
    GHZ correlations give 4.
    """
    return m.eA + m.eB + m.eC - m.eABC


#: Sign patterns of the four joint-existence inequalities, applied to
#: (eA, eB, eC, eABC); each signed sum must lie within [-2, 2].
_INEQUALITY_SIGNS = (
    (1, 1, 1, -1),
    (-1, 1, 1, 1),
    (1, -1, 1, 1),
    (1, 1, -1, 1),
)


@dataclass(frozen=True)
class InequalityCheck:
    passed: bool
    violated_index: int | None = None  # 1-based, first violated
    value: Fraction | None = None      # the offending signed sum


def check_ghz_inequalities(m: GhzMoments) -> InequalityCheck:
    """Joint-distribution existence test for GHZ-type moments.

    A joint distribution reproducing (eA, eB, eC, eABC) exists exactly
    when all four signed sums lie within [-2, 2].  Returns the first
    violated inequality (1-based) with its value, or a pass.
    """
    values = (m.eA, m.eB, m.eC, m.eABC)
    for index, signs in enumerate(_INEQUALITY_SIGNS, start=1):
        total = sum((s * v for s, v in zip(signs, values)), _ZERO)
        if not -2 <= total <= 2:
            return InequalityCheck(False, index, total)
    return InequalityCheck(True)


@dataclass(frozen=True)
class SymmetricParams:
    """P(single variable = +1) = p and P(product = +1) = q."""

    p: Fraction
    q: Fraction

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError(f"p = {self.p} outside [0, 1]")
        if not 0 <= self.q <= 1:
            raise ValueError(f"q = {self.q} outside [0, 1]")

    @classmethod
    def of(cls, p, q) -> "SymmetricParams":
        return cls(Fraction(p), Fraction(q))


@dataclass(frozen=True)
class SymmetricWitness:
    """Atom weights of the symmetric joint distribution.

    x is the common weight of the three atoms with exactly one minus
    sign, y of the three atoms with exactly two, z of the all-plus
    atom, and w of the all-minus atom; 3x + 3y + z + w = 1.
    """

    x: Fraction
    y: Fraction
    z: Fraction
    w: Fraction


def construct_symmetric_joint(
    sp: SymmetricParams,
) -> tuple[SymmetricWitness, AtomMeasure]:
    """Explicit joint distribution for the symmetric parameter region.

    Requires 0 <= 3p - q <= 2 (the binding existence inequality in the
    symmetric case).  Writing lam = (3p - q)/2, the boundary
    distribution at 3p = q + 2 (x = (1-q)/3, y = 0, z = q, w = 0) is
    mixed with weight lam against the boundary distribution at 3p = q
    (x = 0, y = q/3, z = 0, w = 1 - q), which yields

        x = lam (1-q)/3,   y = (1-lam) q/3,
        z = lam q,         w = (1-lam)(1-q).

    The returned measure is re-verified on every call to reproduce
    E(A) = E(B) = E(C) = 2p - 1 and E(ABC) = 2q - 1 exactly.
    """
    p, q = sp.p, sp.q
    gap = 3 * p - q
    if not 0 <= gap <= 2:
        raise NoWitnessError(
            f"no joint distribution: 3p - q = {gap} outside [0, 2]"
        )
    lam = gap / 2
    x = lam * (1 - q) / 3
    y = (1 - lam) * q / 3
    z = lam * q
    w = (1 - lam) * (1 - q)
    witness = SymmetricWitness(x, y, z, w)

    space = build_space(["A", "B", "C"])
    values = [_ZERO] * 8
    for atom in range(8):
        minus_count = bin(atom).count("1")
        values[atom] = (z, x, y, w)[minus_count]
    measure = AtomMeasure(space, tuple(values), STANDARD)

    if 3 * x + 3 * y + z + w != 1 or min(x, y, z, w) < 0:
        raise AssertionError("symmetric weights are not a distribution")
    e_single = 2 * p - 1
    e_triple = 2 * q - 1
    for subset, want in ((["A"], e_single), (["B"], e_single), (["C"], e_single),
                         (["A", "B", "C"], e_triple)):
        got = signed_atom_sum(measure, subset)
        if got != want:
            raise AssertionError(
                f"constructed witness gives E({''.join(subset)}) = {got}, wanted {want}"
            )
    return witness, measure


@dataclass(frozen=True)
class NoiseThresholdResult:
    epsilon: Fraction
    statistic: Fraction  # value of the signed sum at the degraded moments
    feasible: bool


def check_noise_threshold(epsilon) -> NoiseThresholdResult:
    """Feasibility of GHZ correlations degraded by noise level ε.

    The degraded moments E(A)=E(B)=E(C)=1-ε, E(ABC)=-1+ε give the
    signed sum 4 - 4ε, which exceeds the bound 2 exactly when ε < 1/2;
    below that threshold no joint distribution exists.
    """
    eps = Fraction(epsilon)
    if not 0 <= eps <= 1:
        raise ValueError(f"noise level {eps} outside [0, 1]")
    statistic = 4 - 4 * eps
    return NoiseThresholdResult(eps, statistic, statistic <= 2)


@dataclass(frozen=True)
class AssignmentEnumeration:
    total: int
    satisfying: int              # assignments with A = B = C = 1 and D = -1
    product_identity_holds: int  # assignments with A·B·C = D


def mermin_assignment_check() -> AssignmentEnumeration:
    """Exhaustive check of deterministic spin-value assignments.

    Each of the three particles carries pre-assigned values s_ix, s_iy
    in {±1}; the observables are A = s1x s2y s3y, B = s1y s2x s3y,
    C = s1y s2y s3x and D = s1x s2x s3x.  Because every squared value
    is 1, A·B·C = D identically, so no assignment can reproduce the
    quantum predictions A = B = C = 1, D = -1.
    """
    total = satisfying = identity = 0
    for bits in itertools.product((1, -1), repeat=6):
        s1x, s1y, s2x, s2y, s3x, s3y = bits
        a = s1x * s2y * s3y
        b = s1y * s2x * s3y
        c = s1y * s2y * s3x
        d = s1x * s2x * s3x
        total += 1
        if a == b == c == 1 and d == -1:
            satisfying += 1
        if a * b * c == d:
            identity += 1
    return AssignmentEnumeration(total, satisfying, identity)


# --- Bell conditional-expectation systems -----------------------------------


@dataclass(frozen=True)
class BellMoments:
    """Pairwise correlations E(XY), E(XZ), E(YZ); fair ±1 marginals assumed."""

    exy: ScalarInterval
    exz: ScalarInterval
    eyz: ScalarInterval

    def __post_init__(self):
        for name in ("exy", "exz", "eyz"):
            iv = getattr(self, name)
            if iv.lo < -1 or iv.hi > 1:
                raise ValueError(f"{name} = {iv} outside [-1, 1]")

    @classmethod
    def of(cls, exy, exz, eyz) -> "BellMoments":
        return cls(as_interval(exy), as_interval(exz), as_interval(eyz))

    @property
    def has_interval_targets(self) -> bool:
        return not (self.exy.is_point and self.exz.is_point and self.eyz.is_point)


SOLUTION = "solution"
NO_SOLUTION = "no-solution"

STAGE_AVERAGING = "averaging-system"
STAGE_REALIZABILITY = "joint-realizability"


def _bell_scenario(exy: Fraction, exz: Fraction, eyz: Fraction):
    return make_scenario(
        ["X", "Y", "Z"],
        [
            (["X"], EQ, _ZERO),
            (["Y"], EQ, _ZERO),
            (["Z"], EQ, _ZERO),
            (["X", "Y"], EQ, exy),
            (["X", "Z"], EQ, exz),
            (["Y", "Z"], EQ, eyz),
        ],
        title="pairwise Bell correlations with fair marginals",
    )


def _conditionals(v_xy: Fraction, v_xz: Fraction, v_yz: Fraction):
    return (
        ConditionalMomentValue(("X", "Y"), "Z", 1, v_xy),
        ConditionalMomentValue(("X", "Y"), "Z", -1, v_xy),
        ConditionalMomentValue(("X", "Z"), "Y", 1, v_xz),
        ConditionalMomentValue(("X", "Z"), "Y", -1, v_xz),
        ConditionalMomentValue(("Y", "Z"), "X", 1, v_yz),
        ConditionalMomentValue(("Y", "Z"), "X", -1, v_yz),
    )


@dataclass(frozen=True)
class BellConditionalOutcome:
    status: str  # SOLUTION | NO_SOLUTION | INDETERMINATE
    failed_stage: str | None = None
    conditionals: tuple[ConditionalMomentValue, ...] = ()
    detail: str = ""
    endpoint_outcomes: tuple = ()


def _solve_bell_at(m: BellMoments, endpoint: str) -> BellConditionalOutcome:
    exy = m.exy.endpoint(endpoint)
    exz = m.exz.endpoint(endpoint)
    eyz = m.eyz.endpoint(endpoint)
    # With fair marginals, each pairwise correlation is the plain average
    # of its two conditionals.  The cyclic symmetry requirement
    # E(XY|Z=s) = E(YZ|X=s) then forces E(XY) = E(YZ); when that fails
    # the equalities are already inconsistent.
    if exy != eyz:
        return BellConditionalOutcome(
            status=NO_SOLUTION,
            failed_stage=STAGE_AVERAGING,
            detail=f"averaging requires E(XY) = E(YZ), but {exy} != {eyz}",
        )
    # Symmetric canonical solution: every conditional equals its
    # unconditional correlation; automatically inside [-1, 1].
    conditionals = _conditionals(exy, exz, eyz)
    # Remaining requirement: the conditionals must belong to an actual
    # joint distribution, i.e. the pairwise moments with zero single
    # moments must be feasible.
    feasible, _ = _feasible_at(_bell_scenario(exy, exz, eyz), "lo")
    if not feasible:
        return BellConditionalOutcome(
            status=NO_SOLUTION,
            failed_stage=STAGE_REALIZABILITY,
            detail="no joint distribution reproduces the pairwise correlations",
        )
    return BellConditionalOutcome(status=SOLUTION, conditionals=conditionals)


def solve_bell_conditionals(m: BellMoments) -> BellConditionalOutcome:
    """Solve the conditional-expectation system for pairwise correlations.

    Stage one solves the averaging equalities 2E(XY) = E(XY|Z=1) +
    E(XY|Z=-1) (and cyclic counterparts) under the cyclic symmetry of
    conditionals; stage two checks joint realizability with the exact
    LP.  Interval targets go through
    :func:`~contextuality_kit.feasibility.decide_endpoints`, keyed on
    (status, failed stage); disagreement yields an indeterminate outcome.
    """
    lo, hi, agree = decide_endpoints(
        lambda endpoint: _solve_bell_at(m, endpoint),
        m.has_interval_targets,
        lambda outcome: (outcome.status, outcome.failed_stage),
    )
    if hi is None:
        return lo
    if agree:
        return replace(lo, endpoint_outcomes=(lo, hi))
    return BellConditionalOutcome(status=INDETERMINATE, endpoint_outcomes=(lo, hi))


@dataclass(frozen=True)
class CheckRecord:
    description: str
    satisfied: bool
    detail: str = ""


def _require_all(trace) -> None:
    bad = [r for r in trace if not r.satisfied]
    if bad:
        raise AssertionError(f"internal witness verification failed: {bad}")


@dataclass(frozen=True)
class UpperBellSolution:
    conditionals: tuple[ConditionalMomentValue, ...]
    atom_uppers: AtomMeasure
    trace: tuple[CheckRecord, ...]


def solve_upper_bell_conditionals(m: BellMoments) -> UpperBellSolution:
    """Conditional upper expectations for given pairwise correlations.

    Always solvable: the averaging rows are one-sided for upper
    expectations, so no endpoint can disagree with another and interval
    targets are solved at their ``lo`` endpoints only.  Every
    inequality, symmetry equality, and the total upper-mass condition is
    re-verified exactly before returning.
    """
    exy, exz, eyz = m.exy.lo, m.exz.lo, m.eyz.lo
    # For upper expectations the averaging rows weaken to inequalities
    # 2E*(XY) >= E*(XY|Z=1) + E*(XY|Z=-1) (and cyclic), so the system
    # is always solvable.  Canonical choice: the symmetric solution
    # with the least total slack, i.e. each conditional as large as the
    # inequalities allow: the XY/YZ block at min(E*(XY), E*(YZ)) and
    # the XZ block at E*(XZ).
    v_xy = min(exy, eyz)
    v_xz = exz
    conditionals = _conditionals(v_xy, v_xz, v_xy)

    # Mass evidence: nonnegative atom uppers with total at least one
    # whose conditional signed sums (fair marginals, so each
    # conditioning event has weight 1/2) reproduce the six values.
    space = build_space(["X", "Y", "Z"])
    rows, rhs, relations = [], [], []
    for cond in conditionals:
        coeffs = moment_coefficients(space, cond.subset)
        event = sign_event(space, cond.given_variable, cond.given_sign)
        rows.append([coeffs[a] if a in event else 0 for a in space.atoms()])
        rhs.append(cond.value / 2)
        relations.append(EQ)
    rows.append([1] * space.atom_count)
    rhs.append(_ONE)
    relations.append(GE)

    std_rows, total = simplex.to_standard_form(rows, relations)
    result = simplex.solve_lp(None, std_rows, rhs, n_vars=total)
    if result.status != simplex.OPTIMAL:
        raise KitError(
            "no nonnegative atom uppers reproduce these conditional expectations"
        )
    atom_uppers = AtomMeasure(
        space, tuple(result.x[: space.atom_count]), UPPER_ATOMS
    )

    trace = [
        CheckRecord(
            "2 E*(XY) >= E*(XY|Z=1) + E*(XY|Z=-1)",
            2 * exy >= 2 * v_xy,
            f"{2 * exy} >= {2 * v_xy}",
        ),
        CheckRecord(
            "2 E*(XZ) >= E*(XZ|Y=1) + E*(XZ|Y=-1)",
            2 * exz >= 2 * v_xz,
            f"{2 * exz} >= {2 * v_xz}",
        ),
        CheckRecord(
            "2 E*(YZ) >= E*(YZ|X=1) + E*(YZ|X=-1)",
            2 * eyz >= 2 * v_xy,
            f"{2 * eyz} >= {2 * v_xy}",
        ),
        CheckRecord(
            "symmetry E*(XY|Z=s) = E*(YZ|X=s)",
            True,
            "imposed structurally",
        ),
    ]
    for cond, row, b in zip(conditionals, rows[:-1], rhs[:-1]):
        got = sum(
            (Fraction(k) * v for k, v in zip(row, atom_uppers.values)), _ZERO
        )
        trace.append(
            CheckRecord(
                f"atom uppers reproduce {cond.describe()} = {cond.value}",
                got == b,
                f"restricted signed sum {got} = {cond.value}/2",
            )
        )
    total_mass = atom_uppers.total()
    trace.append(
        CheckRecord(
            "total upper mass >= 1", total_mass >= 1, f"total = {total_mass}"
        )
    )
    _require_all(trace)
    return UpperBellSolution(conditionals, atom_uppers, tuple(trace))


# --- lower/upper GHZ witnesses ----------------------------------------------


@dataclass(frozen=True)
class GhzWitness:
    atom_measure: AtomMeasure
    set_function: PartialSetFunction
    trace: tuple[CheckRecord, ...]


def _ghz_space() -> EventSpace:
    return build_space(["A", "B", "C"])


def _product_coeffs(space: EventSpace) -> list[int]:
    return moment_coefficients(space, list(space.variables))


def _witness_set_function(
    space: EventSpace, kind: str, atom_values: tuple[Fraction, ...]
) -> PartialSetFunction:
    """Package atom and event values into a partial set function.

    Specified events: all atoms, the six single-variable sign events
    (value 1 on the +1 side, 0 on the -1 side, as forced by unit
    single-variable expectations), the empty set, the full space, and
    the complement of each atom.  Complements carry the canonical value
    consistent with the kind: for a lower function the superadditive
    floor (sum of member atoms), for an upper function the subadditive
    sum capped at 1.  These derived entries give the conjugacy and
    monotonicity scans comparable pairs.
    """
    entries: dict[EventMask, Fraction] = {}
    labels: dict[EventMask, str] = {}
    for atom in space.atoms():
        mask = EventMask.from_atoms(space, [atom])
        entries[mask] = atom_values[atom]
        labels[mask] = f"atom {space.signature(atom)}"
    for variable in space.variables:
        plus = sign_event(space, variable, 1)
        minus = sign_event(space, variable, -1)
        entries[plus] = _ONE
        entries[minus] = _ZERO
        labels[plus] = f"{variable}=+1"
        labels[minus] = f"{variable}=-1"
    entries[EventMask.empty(space)] = _ZERO
    labels[EventMask.empty(space)] = "empty"
    entries[EventMask.full(space)] = _ONE
    labels[EventMask.full(space)] = "full"
    for atom in space.atoms():
        comp = EventMask.from_atoms(space, [atom]).complement()
        member_sum = sum(
            (atom_values[a] for a in space.atoms() if a != atom), _ZERO
        )
        entries[comp] = member_sum if kind == LOWER else min(_ONE, member_sum)
        labels[comp] = f"complement of atom {space.signature(atom)}"
    return PartialSetFunction(space, kind, entries, labels)


def _witness_trace(
    space: EventSpace,
    kind: str,
    atom_values: tuple[Fraction, ...],
    sf: PartialSetFunction,
) -> list[CheckRecord]:
    product_coeffs = _product_coeffs(space)
    trace: list[CheckRecord] = []
    tag = "P_" if kind == LOWER else "P*"
    for variable in space.variables:
        plus = sign_event(space, variable, 1)
        minus = sign_event(space, variable, -1)
        trace.append(
            CheckRecord(
                f"{tag}({variable}=+1) = 1 and {tag}({variable}=-1) = 0",
                sf.value(plus) == 1 and sf.value(minus) == 0,
                "event-level values forced by unit single-variable expectations",
            )
        )
    for variable in space.variables:
        for sign, want in ((1, _ONE), (-1, _ZERO)):
            event = sign_event(space, variable, sign)
            atom_sum = sum((atom_values[a] for a in event.atoms()), _ZERO)
            if kind == LOWER:
                ok = atom_sum <= 1
                rel = f"{atom_sum} <= 1"
            else:
                ok = atom_sum >= want
                rel = f"{atom_sum} >= {want}"
            trace.append(
                CheckRecord(
                    f"atom sum over {variable}={sign:+d} vs event value",
                    ok,
                    rel,
                )
            )
    correlation = sum(
        (k * v for k, v in zip(product_coeffs, atom_values)), _ZERO
    )
    trace.append(
        CheckRecord(
            "atom-level product expectation = -1",
            correlation == -1,
            f"signed atom sum = {correlation}",
        )
    )
    total = sum(atom_values, _ZERO)
    if kind == LOWER:
        trace.append(
            CheckRecord("total atom mass <= 1", total <= 1, f"total = {total}")
        )
        plus_atoms = [a for a in space.atoms() if product_coeffs[a] == 1]
        forced = all(atom_values[a] == 0 for a in plus_atoms)
        trace.append(
            CheckRecord(
                "atoms with product +1 are forced to 0",
                forced,
                "correlation -1 with total mass <= 1 leaves them no room",
            )
        )
        minus_sum = sum(
            (atom_values[a] for a in space.atoms() if product_coeffs[a] == -1),
            _ZERO,
        )
        trace.append(
            CheckRecord(
                "atoms with product -1 sum to exactly 1",
                minus_sum == 1,
                f"sum = {minus_sum}",
            )
        )
    else:
        trace.append(
            CheckRecord("total atom mass >= 1", total >= 1, f"total = {total}")
        )
    report = validate(sf)
    trace.append(
        CheckRecord(
            f"{kind} set function passes all axioms on its domain",
            report.passed,
            "; ".join(v.message for v in report.violations) or "no violations",
        )
    )
    for variable in space.variables:
        e_single = sf.event_level_single_expectation(variable)
        trace.append(
            CheckRecord(
                f"event-level E({variable}) = 1",
                e_single == 1,
                f"value {e_single}",
            )
        )
    return trace


def solve_lower_ghz_witness() -> GhzWitness:
    """Lower-probability witness for the contradictory GHZ expectations.

    No standard joint distribution has E(A)=E(B)=E(C)=1 with
    E(ABC)=-1, but superadditive lower probabilities do: the atoms with
    one minus sign carry 1/3 each and everything else carries 0.  The
    full constraint system (event values, per-event atom sums, the
    atom-level correlation, total mass, the forced zeros and the
    resulting equality) is re-verified exactly on every call.
    """
    space = _ghz_space()
    values = [_ZERO] * space.atom_count
    for variable in space.variables:
        signs = {v: 1 for v in space.variables}
        signs[variable] = -1
        signature = "".join(
            "+" if signs[v] == 1 else "-" for v in space.variables
        )
        values[space.atom_index(signature)] = Fraction(1, 3)
    atom_values = tuple(values)
    measure = AtomMeasure(space, atom_values, LOWER_ATOMS)
    sf = _witness_set_function(space, LOWER, atom_values)
    trace = _witness_trace(space, LOWER, atom_values, sf)
    one_minus = [
        a
        for a in space.atoms()
        if sum(1 for ch in space.signature(a) if ch == "-") == 1
    ]
    for a1, a2 in itertools.combinations(one_minus, 2):
        pair_sum = atom_values[a1] + atom_values[a2]
        trace.append(
            CheckRecord(
                f"{space.signature(a1)} + {space.signature(a2)} <= 1",
                pair_sum <= 1,
                f"sum = {pair_sum}",
            )
        )
    _require_all(trace)
    return GhzWitness(measure, sf, tuple(trace))


def _symmetrized(space: EventSpace, values) -> list[Fraction]:
    """Average atom values over all permutations of the variables."""
    n = space.n
    perms = list(itertools.permutations(range(n)))
    out = []
    for atom in space.atoms():
        acc = _ZERO
        for perm in perms:
            image = 0
            for j in range(n):
                bit = (atom >> (n - 1 - perm[j])) & 1
                image |= bit << (n - 1 - j)
            acc += values[image]
        out.append(acc / len(perms))
    return out


def solve_upper_ghz_witness() -> GhzWitness:
    """Upper-probability witness for the contradictory GHZ expectations.

    Subadditivity turns every constraint around: each +1 sign event
    needs its member atoms to sum to at least its value 1, the total
    mass is at least 1, and the atom-level correlation is still -1.
    The canonical witness minimizes the total atom mass by exact LP and
    is symmetrized over variable permutations (the constraint system is
    permutation-invariant, so the average stays optimal).
    """
    space = _ghz_space()
    n = space.atom_count
    rows, rhs, relations = [], [], []
    for variable in space.variables:
        event = sign_event(space, variable, 1)
        rows.append([1 if a in event else 0 for a in space.atoms()])
        rhs.append(_ONE)
        relations.append(GE)
    rows.append(_product_coeffs(space))
    rhs.append(Fraction(-1))
    relations.append(EQ)
    rows.append([1] * n)
    rhs.append(_ONE)
    relations.append(GE)

    std_rows, total = simplex.to_standard_form(rows, relations)
    costs = [1] * n + [0] * (total - n)
    result = simplex.solve_lp(costs, std_rows, rhs, n_vars=total)
    if result.status != simplex.OPTIMAL:
        raise AssertionError("upper witness LP is feasible by construction")
    atom_values = tuple(_symmetrized(space, result.x[:n]))
    measure = AtomMeasure(space, atom_values, UPPER_ATOMS)
    sf = _witness_set_function(space, UPPER, atom_values)
    trace = _witness_trace(space, UPPER, atom_values, sf)
    _require_all(trace)
    return GhzWitness(measure, sf, tuple(trace))
