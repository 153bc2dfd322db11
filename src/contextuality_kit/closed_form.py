"""Closed-form criteria and dedicated witness solvers.

This module collects the results that need no LP: each answer is a
formula, re-verified exactly before it is returned (the tests check each
one against the generic LP engine):

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
  probabilities, decided by the Suppes–Zanotti inequalities;
  inequalities for upper probabilities, with atom uppers in closed
  form);
* constructions of lower/upper atom witnesses for the GHZ expectations
  that no standard joint distribution can reproduce.

Underdetermined systems are resolved deterministically by their
symmetric solution.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from ._record import Record
from .errors import NoWitnessError
from .event_space import EventMask, EventSpace, build_space, moment_coefficients, sign_event
from .feasibility import INDETERMINATE
from .measures import (
    LOWER_ATOMS,
    STANDARD,
    UPPER_ATOMS,
    AtomMeasure,
    ConditionalMomentValue,
    signed_atom_sum,
    validate,
)
from .numerics import ScalarInterval, as_interval, format_scalar
from .set_functions import LOWER, UPPER, PartialSetFunction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class GhzMoments(Record):
    """Single and triple-product expectations of three ±1 variables."""

    __slots__ = ("eA", "eB", "eC", "eABC")

    def __init__(self, eA: Fraction, eB: Fraction, eC: Fraction, eABC: Fraction):
        # |v| <= 1 in integers: a grid sweep builds one of these per point.
        for name, v in zip(self.__slots__, (eA, eB, eC, eABC)):
            if abs(v.numerator) > v.denominator:
                raise ValueError(f"{name} = {format_scalar(v)} outside [-1, 1]")
        self._set(eA, eB, eC, eABC)

    @classmethod
    def of(cls, eA, eB, eC, eABC) -> "GhzMoments":
        return cls(Fraction(eA), Fraction(eB), Fraction(eC), Fraction(eABC))


def ghz_sum(m: GhzMoments) -> Fraction:
    """The signed sum E(A) + E(B) + E(C) - E(ABC).

    For any joint distribution this sum lies in [-2, 2]; the perfect
    GHZ correlations give 4.
    """
    return m.eA + m.eB + m.eC - m.eABC


class InequalityCheck(Record):
    __slots__ = ("passed", "violated_index", "value")

    def __init__(
        self,
        passed: bool,
        violated_index: int | None = None,  # 1-based, first violated
        value: Fraction | None = None,      # the offending signed sum
    ):
        self._set(passed, violated_index, value)


#: The result of every passing check; records are immutable.
_PASSED = InequalityCheck(True)


def check_ghz_inequalities(m: GhzMoments) -> InequalityCheck:
    """Joint-distribution existence test for GHZ-type moments.

    A joint distribution reproducing (eA, eB, eC, eABC) exists exactly
    when all four signed sums lie within [-2, 2].  Returns the first
    violated inequality (1-based) with its value, or a pass.

    The moments are put over their common denominator and handed to
    :func:`_ghz_check` as integers; only here does its answer become a
    record: the shared ``_PASSED``, or a violation with its Fraction.
    """
    moments = (m.eA, m.eB, m.eC, m.eABC)
    common = lcm(*(v.denominator for v in moments))
    violated = _ghz_check(*(v.numerator * (common // v.denominator) for v in moments), common)
    if violated is None:
        return _PASSED
    return InequalityCheck(False, violated[0], Fraction(violated[1], common))


def _ghz_check(a: int, b: int, c: int, t: int, common: int) -> tuple[int, int] | None:
    """The four GHZ sums of a/common, ..., t/common against ±2, in integers.

    ``common`` is any positive integer.  Returns None when every signed
    sum lies in [-2·common, 2·common], else (index, total): the first
    that does not, 1-based, and that sum times ``common``; all five
    times k > 0 give the same index and k·total.  It builds no record or
    Fraction, since a grid sweep reads only whether a point passes.
    """
    bound = 2 * common
    sums = (a + b + c - t, -a + b + c + t, a - b + c + t, a + b - c + t)
    for index, total in enumerate(sums, start=1):
        if not -bound <= total <= bound:
            return index, total
    return None


class SymmetricParams(Record):
    """P(single variable = +1) = p and P(product = +1) = q."""

    __slots__ = ("p", "q")

    def __init__(self, p: Fraction, q: Fraction):
        if not 0 <= p <= 1:
            raise ValueError(f"p = {format_scalar(p)} outside [0, 1]")
        if not 0 <= q <= 1:
            raise ValueError(f"q = {format_scalar(q)} outside [0, 1]")
        self._set(p, q)

    @classmethod
    def of(cls, p, q) -> "SymmetricParams":
        return cls(Fraction(p), Fraction(q))


class SymmetricWitness(Record):
    """Atom weights of the symmetric joint distribution.

    x is the common weight of the three atoms with exactly one minus
    sign, y of the three atoms with exactly two, z of the all-plus
    atom, and w of the all-minus atom; 3x + 3y + z + w = 1.
    """

    __slots__ = ("x", "y", "z", "w")


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
            f"no joint distribution: 3p - q = {format_scalar(gap)} outside [0, 2]"
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
                f"constructed witness gives E({''.join(subset)}) = {format_scalar(got)},"
                f" wanted {format_scalar(want)}"
            )
    return witness, measure


class NoiseThresholdResult(Record):
    """``statistic`` is the value of the signed sum at the degraded moments."""

    __slots__ = ("epsilon", "statistic", "feasible")


def check_noise_threshold(epsilon) -> NoiseThresholdResult:
    """Feasibility of GHZ correlations degraded by noise level ε.

    The degraded moments E(A)=E(B)=E(C)=1-ε, E(ABC)=-1+ε give the
    signed sum 4 - 4ε, which exceeds the bound 2 exactly when ε < 1/2;
    below that threshold no joint distribution exists.
    """
    eps = Fraction(epsilon)
    if not 0 <= eps <= 1:
        raise ValueError(f"noise level {format_scalar(eps)} outside [0, 1]")
    statistic = 4 - 4 * eps
    return NoiseThresholdResult(eps, statistic, statistic <= 2)


class AssignmentEnumeration(Record):
    """``satisfying`` counts the assignments with A = B = C = 1 and D = -1,
    ``product_identity_holds`` those with A·B·C = D.
    """

    __slots__ = ("total", "satisfying", "product_identity_holds")


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


class BellMoments(Record):
    """Pairwise correlations E(XY), E(XZ), E(YZ); fair ±1 marginals assumed."""

    __slots__ = ("exy", "exz", "eyz")

    def __init__(self, exy: ScalarInterval, exz: ScalarInterval, eyz: ScalarInterval):
        for name, iv in zip(self.__slots__, (exy, exz, eyz)):
            if iv.lo < -1 or iv.hi > 1:
                raise ValueError(f"{name} = {iv} outside [-1, 1]")
        self._set(exy, exz, eyz)

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


def _conditionals(v_xy: Fraction, v_xz: Fraction, v_yz: Fraction):
    return (
        ConditionalMomentValue(("X", "Y"), "Z", 1, v_xy),
        ConditionalMomentValue(("X", "Y"), "Z", -1, v_xy),
        ConditionalMomentValue(("X", "Z"), "Y", 1, v_xz),
        ConditionalMomentValue(("X", "Z"), "Y", -1, v_xz),
        ConditionalMomentValue(("Y", "Z"), "X", 1, v_yz),
        ConditionalMomentValue(("Y", "Z"), "X", -1, v_yz),
    )


class BellConditionalOutcome(Record):
    __slots__ = ("status", "failed_stage", "conditionals", "detail")

    def __init__(
        self,
        status: str,  # SOLUTION | NO_SOLUTION | INDETERMINATE
        failed_stage: str | None = None,
        conditionals: tuple[ConditionalMomentValue, ...] = (),
        detail: str = "",
    ):
        self._set(status, failed_stage, conditionals, detail)


def solve_bell_conditionals(m: BellMoments) -> BellConditionalOutcome:
    """Solve the conditional-expectation system for pairwise correlations.

    Stage one solves the averaging equalities 2E(XY) = E(XY|Z=1) +
    E(XY|Z=-1) (and cyclic counterparts) under the cyclic symmetry of
    conditionals; stage two checks joint realizability with the four
    Suppes–Zanotti inequalities.  Each verdict holds over the whole
    box of bracketed correlations, or the outcome is indeterminate.
    """
    exy, exz, eyz = m.exy, m.exz, m.eyz
    # With fair marginals, each pairwise correlation is the plain average
    # of its two conditionals.  The cyclic symmetry requirement
    # E(XY|Z=s) = E(YZ|X=s) then forces E(XY) = E(YZ); when that fails
    # the equalities are already inconsistent.  Disjoint brackets fail
    # everywhere.  Identical brackets are taken as equal inputs, which
    # only exact arithmetic on the radicals they bracket would prove;
    # brackets that merely overlap are undecided.
    if exy.hi < eyz.lo or eyz.hi < exy.lo:
        return BellConditionalOutcome(
            status=NO_SOLUTION,
            failed_stage=STAGE_AVERAGING,
            detail=f"averaging requires E(XY) = E(YZ), but {exy} != {eyz}",
        )
    if exy != eyz:
        return BellConditionalOutcome(status=INDETERMINATE)
    # Remaining requirement: the conditionals must belong to an actual
    # joint distribution of X, Y, Z with fair marginals.  By Suppes and
    # Zanotti (Synthese 48, 191 (1981)) one exists exactly when every
    # 1 + a E(XY) + b E(XZ) + ab E(YZ), a, b = ±1, is nonnegative: each
    # is 4× the weight that the joint distribution averaged with its
    # global sign flip puts on the atom pair ±(1, a, b).  Each form is
    # linear, so its range over the box is exact in interval arithmetic.
    forms = [
        ScalarInterval.point(1)
        + (exy if a > 0 else -exy)
        + (exz if b > 0 else -exz)
        + (eyz if a * b > 0 else -eyz)
        for a in (1, -1)
        for b in (1, -1)
    ]
    if any(form.hi < 0 for form in forms):
        return BellConditionalOutcome(
            status=NO_SOLUTION,
            failed_stage=STAGE_REALIZABILITY,
            detail="no joint distribution reproduces the pairwise correlations",
        )
    if any(form.lo < 0 for form in forms):
        return BellConditionalOutcome(status=INDETERMINATE)
    # Symmetric canonical solution: every conditional equals its
    # unconditional correlation, at the lower bracket ends; automatically
    # inside [-1, 1].
    return BellConditionalOutcome(
        status=SOLUTION, conditionals=_conditionals(exy.lo, exz.lo, eyz.lo)
    )


class CheckRecord(Record):
    __slots__ = ("description", "satisfied", "detail")

    def __init__(self, description: str, satisfied: bool, detail: str = ""):
        self._set(description, satisfied, detail)


def _require_all(trace) -> None:
    bad = [r for r in trace if not r.satisfied]
    if bad:
        raise AssertionError(f"internal witness verification failed: {bad}")


class UpperBellSolution(Record):
    __slots__ = ("conditionals", "atom_uppers", "trace")


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
    # Atom (x, y, z) gets (k + α·xy + β·xz + α·yz)/4 with α = v_xy/2 and
    # β = v_xz/2: restricted to one conditioning event, only the matching
    # term survives the signed sum, so it is exactly α (or β), and the
    # total is 2k.  k is the least value >= 1/2 that keeps every atom
    # nonnegative; over the atoms, (xy, xz, yz) runs through (s, t, st).
    space = build_space(["X", "Y", "Z"])
    alpha, beta = v_xy / 2, v_xz / 2
    k = max(
        Fraction(1, 2),
        *(-(alpha * s + beta * t + alpha * s * t) for s in (1, -1) for t in (1, -1)),
    )
    c_xy, c_xz, c_yz = (
        moment_coefficients(space, pair) for pair in (("X", "Y"), ("X", "Z"), ("Y", "Z"))
    )
    values = tuple(
        (k + alpha * c_xy[a] + beta * c_xz[a] + alpha * c_yz[a]) / 4
        for a in space.atoms()
    )
    if min(values) < 0:
        raise AssertionError("closed-form atom uppers are negative")
    atom_uppers = AtomMeasure(space, values, UPPER_ATOMS)

    rows, rhs = [], []
    for cond in conditionals:
        coeffs = moment_coefficients(space, cond.subset)
        event = sign_event(space, cond.given_variable, cond.given_sign)
        rows.append([coeffs[a] if a in event else 0 for a in space.atoms()])
        rhs.append(cond.value / 2)

    trace = [
        CheckRecord(
            "2 E*(XY) >= E*(XY|Z=1) + E*(XY|Z=-1)",
            2 * exy >= 2 * v_xy,
            f"{format_scalar(2 * exy)} >= {format_scalar(2 * v_xy)}",
        ),
        CheckRecord(
            "2 E*(XZ) >= E*(XZ|Y=1) + E*(XZ|Y=-1)",
            2 * exz >= 2 * v_xz,
            f"{format_scalar(2 * exz)} >= {format_scalar(2 * v_xz)}",
        ),
        CheckRecord(
            "2 E*(YZ) >= E*(YZ|X=1) + E*(YZ|X=-1)",
            2 * eyz >= 2 * v_xy,
            f"{format_scalar(2 * eyz)} >= {format_scalar(2 * v_xy)}",
        ),
        CheckRecord(
            "symmetry E*(XY|Z=s) = E*(YZ|X=s)",
            True,
            "imposed structurally",
        ),
    ]
    for cond, row, b in zip(conditionals, rows, rhs):
        got = sum((c * v for c, v in zip(row, atom_uppers.values)), _ZERO)
        value = format_scalar(cond.value)
        trace.append(
            CheckRecord(
                f"atom uppers reproduce {cond.describe()} = {value}",
                got == b,
                f"restricted signed sum {format_scalar(got)} = {value}/2",
            )
        )
    total_mass = atom_uppers.total()
    trace.append(
        CheckRecord(
            "total upper mass >= 1", total_mass >= 1, f"total = {format_scalar(total_mass)}"
        )
    )
    _require_all(trace)
    return UpperBellSolution(conditionals, atom_uppers, tuple(trace))


# --- lower/upper GHZ witnesses ----------------------------------------------


class GhzWitness(Record):
    __slots__ = ("atom_measure", "set_function", "trace")


def _ghz_space() -> EventSpace:
    return build_space(["A", "B", "C"])


def _one_minus_atoms(space: EventSpace) -> list[int]:
    """The atoms with exactly one minus sign, in atom order."""
    return [a for a in space.atoms() if space.signature(a).count("-") == 1]


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
    one_minus = _one_minus_atoms(space)
    values = [_ZERO] * space.atom_count
    for atom in one_minus:
        values[atom] = Fraction(1, 3)
    atom_values = tuple(values)
    measure = AtomMeasure(space, atom_values, LOWER_ATOMS)
    sf = _witness_set_function(space, LOWER, atom_values)
    trace = _witness_trace(space, LOWER, atom_values, sf)
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


def solve_upper_ghz_witness() -> GhzWitness:
    """Upper-probability witness for the contradictory GHZ expectations.

    Subadditivity turns every constraint around: each +1 sign event
    needs its member atoms to sum to at least its value 1, the total
    mass is at least 1, and the atom-level correlation is still -1.
    The canonical witness carries 1/5 on the all-plus atom and 2/5 on
    each one-minus atom, total 7/5.  It is the least total mass: the
    multipliers (2/5, 2/5, 2/5) on the three sign events, -1/5 on the
    correlation and 0 on the total are dual feasible (every atom's
    column sums to at most 1) with value 6/5 + 1/5 = 7/5.  Complementary
    slackness leaves only those atoms nonzero, so it is also the unique
    minimum symmetric under variable permutations.
    """
    space = _ghz_space()
    values = [_ZERO] * space.atom_count
    values[space.atom_index("+++")] = Fraction(1, 5)
    for atom in _one_minus_atoms(space):
        values[atom] = Fraction(2, 5)
    atom_values = tuple(values)
    measure = AtomMeasure(space, atom_values, UPPER_ATOMS)
    sf = _witness_set_function(space, UPPER, atom_values)
    trace = _witness_trace(space, UPPER, atom_values, sf)
    _require_all(trace)
    return GhzWitness(measure, sf, tuple(trace))
