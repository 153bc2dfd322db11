"""Probability measures on atom spaces, standard and nonadditive.

Two carriers are used throughout:

* :class:`AtomMeasure`: nonnegative values indexed by atom.  A standard
  joint distribution sums to exactly 1; a lower-atoms vector may sum to
  at most 1 (superadditivity toward the full space) and an upper-atoms
  vector to at least 1 (subadditivity).

* :class:`PartialSetFunction`: upper or lower probability values on an
  explicit, finite family of events.  Only the axioms that are checkable
  on the specified family are enforced: values in [0, 1], empty set 0,
  full space 1 when specified, and for every specified disjoint pair
  whose union is also specified, subadditivity (upper) or
  superadditivity (lower).

Validation never raises on a violated axiom; violations are data,
returned in a report with the offending events, so that deliberately
broken inputs can be inspected.

Expectations of product moments come in two flavours that coincide for
standard measures but not in general: the atom-level signed sum
(:func:`signed_atom_sum`) and the event-level difference
P(v=+1) - P(v=-1) for a single variable
(:meth:`PartialSetFunction.event_level_single_expectation`).  Reports in
this package always name which one was used.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._record import Record
from .errors import MeasureError, SpaceError, UndefinedConditionalError
from .event_space import EventMask, EventSpace, moment_coefficients, sign_event
from .numerics import format_scalar, scalar_from_string

STANDARD = "standard"
LOWER_ATOMS = "lower-atoms"
UPPER_ATOMS = "upper-atoms"

_ATOM_KINDS = (STANDARD, LOWER_ATOMS, UPPER_ATOMS)

UPPER = "upper"
LOWER = "lower"


class AtomMeasure(Record):
    """Nonnegative rational value per atom, with a kind tag."""

    __slots__ = ("space", "values", "kind")

    def __init__(self, space: EventSpace, values: tuple[Fraction, ...], kind: str = STANDARD):
        if kind not in _ATOM_KINDS:
            raise MeasureError(f"unknown atom-measure kind {kind!r}")
        if len(values) != space.atom_count:
            raise MeasureError(
                f"expected {space.atom_count} atom values, got {len(values)}"
            )
        self._set(space, values, kind)

    @classmethod
    def from_dict(
        cls, space: EventSpace, entries: Mapping[str, object], kind: str = STANDARD
    ) -> "AtomMeasure":
        """Build from a {sign string: value} mapping; missing atoms are 0."""
        values = [Fraction(0)] * space.atom_count
        for signature, value in entries.items():
            values[space.atom_index(signature)] = Fraction(value)  # type: ignore[arg-type]
        return cls(space, tuple(values), kind)

    def value(self, signature: str) -> Fraction:
        return self.values[self.space.atom_index(signature)]

    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))

    def event_probability(self, mask: EventMask) -> Fraction:
        return sum((self.values[a] for a in mask.atoms()), Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "type": "atom-measure",
            "variables": list(self.space.variables),
            "kind": self.kind,
            "atoms": {
                self.space.signature(a): format_scalar(v)
                for a, v in enumerate(self.values)
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "AtomMeasure":
        from .event_space import build_space

        space = build_space(data["variables"])
        atoms = {k: scalar_from_string(v) for k, v in data["atoms"].items()}
        return cls.from_dict(space, atoms, data.get("kind", STANDARD))


class PartialSetFunction(Record):
    """Upper or lower probability values on an explicit event family."""

    __slots__ = ("space", "kind", "entries", "labels")

    def __init__(
        self,
        space: EventSpace,
        kind: str,  # UPPER | LOWER
        entries: Mapping[EventMask, Fraction],
        labels: Mapping[EventMask, str] | None = None,
    ):
        if kind not in (UPPER, LOWER):
            raise MeasureError(f"unknown set-function kind {kind!r}")
        for mask in entries:
            if mask.space != space:
                raise SpaceError("entry event belongs to a different space")
        self._set(space, kind, entries, {} if labels is None else labels)

    def value(self, mask: EventMask) -> Fraction:
        return self.entries[mask]

    def specified(self, mask: EventMask) -> bool:
        return mask in self.entries

    def label(self, mask: EventMask) -> str:
        if mask in self.labels:
            return self.labels[mask]
        return "{" + ",".join(str(a) for a in mask.atoms()) + "}"

    def event_level_single_expectation(self, variable: str) -> Fraction:
        """P(v=+1) - P(v=-1) from the specified sign-event values."""
        plus = sign_event(self.space, variable, 1)
        minus = sign_event(self.space, variable, -1)
        if not (self.specified(plus) and self.specified(minus)):
            raise MeasureError(
                f"sign events for {variable!r} are not both specified"
            )
        return self.entries[plus] - self.entries[minus]

    def to_json_dict(self) -> dict:
        events = []
        for mask in sorted(self.entries, key=lambda m: (m.size, m.bits)):
            events.append(
                {
                    "event": mask.atoms(),
                    "label": self.label(mask),
                    "value": format_scalar(self.entries[mask]),
                }
            )
        return {
            "type": "set-function",
            "variables": list(self.space.variables),
            "kind": self.kind,
            "entries": events,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PartialSetFunction":
        from .event_space import build_space

        space = build_space(data["variables"])
        entries = {}
        labels = {}
        for item in data["entries"]:
            mask = EventMask.from_atoms(space, item["event"])
            entries[mask] = scalar_from_string(item["value"])
            if "label" in item:
                labels[mask] = item["label"]
        return cls(space, data["kind"], entries, labels)


class ConditionalMomentValue(Record):
    """A conditional product-moment value, e.g. E(XY | Z = +1)."""

    __slots__ = ("subset", "given_variable", "given_sign", "value")

    def __init__(
        self, subset: tuple[str, ...], given_variable: str, given_sign: int, value: Fraction
    ):
        if abs(value) > 1:
            raise MeasureError(f"conditional expectation {value} outside [-1, 1]")
        self._set(subset, given_variable, given_sign, value)

    def describe(self) -> str:
        sign = "+1" if self.given_sign == 1 else "-1"
        return f"E({''.join(self.subset)}|{self.given_variable}={sign})"


class Violation(Record):
    __slots__ = ("axiom", "message")

    def __init__(self, axiom: str, message: str):
        self._set(axiom, message)


class ValidationReport(Record):
    __slots__ = ("passed", "violations")

    def __init__(self, passed: bool, violations: tuple[Violation, ...]):
        self._set(passed, violations)

    def __bool__(self) -> bool:
        return self.passed


def _validate_atom_measure(measure: AtomMeasure) -> ValidationReport:
    violations = []
    for a, v in enumerate(measure.values):
        if v < 0:
            violations.append(
                Violation(
                    "nonnegativity",
                    f"atom {measure.space.signature(a)} has value {v} < 0",
                )
            )
    total = measure.total()
    if measure.kind == STANDARD and total != 1:
        violations.append(
            Violation("normalization", f"atom values sum to {total}, expected 1")
        )
    elif measure.kind == LOWER_ATOMS and total > 1:
        violations.append(
            Violation("total-mass", f"lower atom values sum to {total} > 1")
        )
    elif measure.kind == UPPER_ATOMS and total < 1:
        violations.append(
            Violation("total-mass", f"upper atom values sum to {total} < 1")
        )
    return ValidationReport(not violations, tuple(violations))


def _validate_set_function(sf: PartialSetFunction) -> ValidationReport:
    violations = []
    space = sf.space
    empty = EventMask.empty(space)
    full = EventMask.full(space)
    for mask, v in sf.entries.items():
        if not 0 <= v <= 1:
            violations.append(
                Violation("range", f"{sf.label(mask)} has value {v} outside [0, 1]")
            )
    if sf.specified(empty) and sf.entries[empty] != 0:
        violations.append(
            Violation("empty-set", f"empty set has value {sf.entries[empty]}, expected 0")
        )
    if sf.specified(full) and sf.entries[full] != 1:
        violations.append(
            Violation("full-space", f"full space has value {sf.entries[full]}, expected 1")
        )
    masks = sorted(sf.entries, key=lambda m: m.bits)
    for i, m1 in enumerate(masks):
        for m2 in masks[i + 1 :]:
            if not m1.disjoint(m2):
                continue
            union = m1.union(m2)
            if not sf.specified(union):
                continue
            lhs = sf.entries[union]
            rhs = sf.entries[m1] + sf.entries[m2]
            if sf.kind == UPPER and lhs > rhs:
                violations.append(
                    Violation(
                        "subadditivity",
                        f"P*({sf.label(union)}) = {lhs} > "
                        f"P*({sf.label(m1)}) + P*({sf.label(m2)}) = {rhs}",
                    )
                )
            elif sf.kind == LOWER and lhs < rhs:
                violations.append(
                    Violation(
                        "superadditivity",
                        f"P_({sf.label(union)}) = {lhs} < "
                        f"P_({sf.label(m1)}) + P_({sf.label(m2)}) = {rhs}",
                    )
                )
    return ValidationReport(not violations, tuple(violations))


def validate(obj: AtomMeasure | PartialSetFunction) -> ValidationReport:
    """Check every axiom on its specified domain; violations are data."""
    if isinstance(obj, AtomMeasure):
        return _validate_atom_measure(obj)
    if isinstance(obj, PartialSetFunction):
        return _validate_set_function(obj)
    raise TypeError(f"cannot validate {type(obj).__name__}")


def signed_atom_sum(measure: AtomMeasure, subset: Sequence[str]) -> Fraction:
    """Signed sum of atom values weighted by the product-moment signs.

    Defined for every atom-measure kind; this is the atom-level reading
    of the expectation of a product of ±1 variables.
    """
    coeffs = moment_coefficients(measure.space, subset)
    terms = [(c, v) for c, v in zip(coeffs, measure.values) if v]
    # One common denominator, so the sum runs in ints.
    common = math.lcm(*(v.denominator for _, v in terms))
    total = sum(c * v.numerator * (common // v.denominator) for c, v in terms)
    return Fraction(total, common)


def expectation(measure: AtomMeasure, subset: Sequence[str]) -> Fraction:
    """Expectation of a product moment under a standard measure."""
    if measure.kind != STANDARD:
        raise MeasureError(
            f"expectation requires a standard measure, got {measure.kind!r};"
            " use signed_atom_sum for nonadditive atom vectors"
        )
    return signed_atom_sum(measure, subset)


def conditional_expectation(
    measure: AtomMeasure, subset: Sequence[str], given: str, sign: int
) -> Fraction:
    """E(product | given = sign) under a standard measure."""
    if measure.kind != STANDARD:
        raise MeasureError("conditional expectation requires a standard measure")
    event = sign_event(measure.space, given, sign)
    prob = measure.event_probability(event)
    if prob == 0:
        raise UndefinedConditionalError(
            f"conditioning event {given}={sign:+d} has probability zero"
        )
    coeffs = moment_coefficients(measure.space, subset)
    restricted = sum(
        (coeffs[a] * measure.values[a] for a in event.atoms()), Fraction(0)
    )
    return restricted / prob


class MonotonicityViolation(Record):
    __slots__ = ("smaller", "larger", "smaller_value", "larger_value")

    def __init__(
        self,
        smaller: EventMask,
        larger: EventMask,
        smaller_value: Fraction,
        larger_value: Fraction,
    ):
        self._set(smaller, larger, smaller_value, larger_value)


def check_monotonicity(sf: PartialSetFunction) -> list[MonotonicityViolation]:
    """All specified pairs with ξ1 ⊂ ξ2 but value(ξ1) > value(ξ2).

    An empty list means the set function is monotone on its specified
    domain.  Additive measures can never appear here; the nonadditive
    witnesses constructed in this package typically do.
    """
    found = []
    masks = sorted(sf.entries, key=lambda m: (m.size, m.bits))
    for m1 in masks:
        v1 = sf.entries[m1]
        for m2 in masks:
            if m1.bits == m2.bits or not m1.issubset(m2):
                continue
            v2 = sf.entries[m2]
            if v1 > v2:
                found.append(MonotonicityViolation(m1, m2, v1, v2))
    return found


class ConjugacyViolation(Record):
    __slots__ = ("event", "upper_value", "one_minus_lower_of_complement")

    def __init__(
        self, event: EventMask, upper_value: Fraction, one_minus_lower_of_complement: Fraction
    ):
        self._set(event, upper_value, one_minus_lower_of_complement)


class ConjugacyReport(Record):
    __slots__ = ("checked", "vacuous", "violations")

    def __init__(self, checked: int, vacuous: bool, violations: tuple[ConjugacyViolation, ...]):
        self._set(checked, vacuous, violations)


def check_conjugacy(
    upper: PartialSetFunction, lower: PartialSetFunction
) -> ConjugacyReport:
    """Scan for events where P*(E) differs from 1 - P_(complement E).

    Only events with the upper side specified on E and the lower side
    specified on the complement are comparable; when no pair is
    comparable the report is flagged vacuous.
    """
    if upper.space != lower.space:
        raise SpaceError("set functions live on different spaces")
    if upper.kind != UPPER or lower.kind != LOWER:
        raise MeasureError("check_conjugacy expects (upper, lower) in that order")
    checked = 0
    violations = []
    for mask in sorted(upper.entries, key=lambda m: (m.size, m.bits)):
        comp = mask.complement()
        if not lower.specified(comp):
            continue
        checked += 1
        u = upper.entries[mask]
        conjugate = 1 - lower.entries[comp]
        if u != conjugate:
            violations.append(ConjugacyViolation(mask, u, conjugate))
    return ConjugacyReport(checked, checked == 0, tuple(violations))


def conjugate_pair_from_measure(
    measure: AtomMeasure, events: Iterable[EventMask]
) -> tuple[PartialSetFunction, PartialSetFunction]:
    """Upper/lower pair induced by one additive measure on given events.

    Both set functions equal the additive event probabilities, so the
    conjugacy relation holds by construction; useful as a baseline.
    """
    if measure.kind != STANDARD:
        raise MeasureError("conjugate pair requires a standard measure")
    entries = {mask: measure.event_probability(mask) for mask in events}
    return (
        PartialSetFunction(measure.space, UPPER, dict(entries)),
        PartialSetFunction(measure.space, LOWER, dict(entries)),
    )
