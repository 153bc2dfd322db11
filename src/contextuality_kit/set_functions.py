"""Upper and lower probabilities on explicit event families.

:class:`PartialSetFunction` holds upper or lower probability values on
an explicit, finite family of events.  Only the axioms that are
checkable on the specified family are enforced: values in [0, 1], empty
set 0, full space 1 when specified, and for every specified disjoint
pair whose union is also specified, subadditivity (upper) or
superadditivity (lower).  ``measures.validate`` checks them here, and
reports violations as data.

The nonadditive witnesses of the closed forms are set functions, and
:func:`check_monotonicity` and :func:`check_conjugacy` inspect them.  A
standard ``check`` decides with atom measures alone and never loads
this module.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from ._record import Record
from .errors import MeasureError, SpaceError
from .event_space import EventMask, EventSpace, build_space, sign_event
from .measures import STANDARD, AtomMeasure, ValidationReport, Violation
from .numerics import format_scalar, scalar_from_string

UPPER = "upper"
LOWER = "lower"


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
        space = build_space(data["variables"])
        entries = {}
        labels = {}
        for index, item in enumerate(data["entries"]):
            mask = EventMask.from_atoms(space, item["event"])
            entries[mask] = scalar_from_string(item["value"], f"entry {index}")
            if "label" in item:
                labels[mask] = item["label"]
        return cls(space, data["kind"], entries, labels)


def _validate_set_function(sf: PartialSetFunction) -> ValidationReport:
    violations = []
    space = sf.space
    empty = EventMask.empty(space)
    full = EventMask.full(space)
    for mask, v in sf.entries.items():
        if not 0 <= v <= 1:
            violations.append(
                Violation(
                    "range", f"{sf.label(mask)} has value {format_scalar(v)} outside [0, 1]"
                )
            )
    if sf.specified(empty) and sf.entries[empty] != 0:
        violations.append(
            Violation(
                "empty-set", f"empty set has value {format_scalar(sf.entries[empty])}, expected 0"
            )
        )
    if sf.specified(full) and sf.entries[full] != 1:
        violations.append(
            Violation(
                "full-space", f"full space has value {format_scalar(sf.entries[full])}, expected 1"
            )
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
                        f"P*({sf.label(union)}) = {format_scalar(lhs)} > "
                        f"P*({sf.label(m1)}) + P*({sf.label(m2)}) = {format_scalar(rhs)}",
                    )
                )
            elif sf.kind == LOWER and lhs < rhs:
                violations.append(
                    Violation(
                        "superadditivity",
                        f"P_({sf.label(union)}) = {format_scalar(lhs)} < "
                        f"P_({sf.label(m1)}) + P_({sf.label(m2)}) = {format_scalar(rhs)}",
                    )
                )
    return ValidationReport(not violations, tuple(violations))


class MonotonicityViolation(Record):
    __slots__ = ("smaller", "larger", "smaller_value", "larger_value")


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


class ConjugacyReport(Record):
    __slots__ = ("checked", "vacuous", "violations")


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
