"""Probability measures on atom spaces, standard and nonadditive.

:class:`AtomMeasure` holds nonnegative values indexed by atom.  A
standard joint distribution sums to exactly 1; a lower-atoms vector may
sum to at most 1 (superadditivity toward the full space) and an
upper-atoms vector to at least 1 (subadditivity).  The other carrier,
upper or lower probability values on an explicit family of events, is
``set_functions.PartialSetFunction``; :func:`validate` checks either,
and loads :mod:`.set_functions` only when it is handed a set function.

Validation never raises on a violated axiom; violations are data,
returned in a report with the offending events, so that deliberately
broken inputs can be inspected.

Expectations of product moments come in two flavours that coincide for
standard measures but not in general: the atom-level signed sum
(:func:`signed_atom_sum`, or :func:`signed_atom_sums` for several
moments of one measure) and the event-level difference
P(v=+1) - P(v=-1) for a single variable
(``PartialSetFunction.event_level_single_expectation``).  Reports in
this package always name which one was used.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction

from ._record import Record
from .errors import MeasureError, UndefinedConditionalError
from .event_space import EventMask, EventSpace, moment_coefficients, moment_mask, sign_event
from .numerics import format_scalar, over_common_denominator, quoted, scalar_from_string

STANDARD = "standard"
LOWER_ATOMS = "lower-atoms"
UPPER_ATOMS = "upper-atoms"

_ATOM_KINDS = (STANDARD, LOWER_ATOMS, UPPER_ATOMS)


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
        atoms = {k: scalar_from_string(v, f"atom {quoted(k)}") for k, v in data["atoms"].items()}
        return cls.from_dict(space, atoms, data.get("kind", STANDARD))


class ConditionalMomentValue(Record):
    """A conditional product-moment value, e.g. E(XY | Z = +1)."""

    __slots__ = ("subset", "given_variable", "given_sign", "value")

    def __init__(
        self, subset: tuple[str, ...], given_variable: str, given_sign: int, value: Fraction
    ):
        if abs(value) > 1:
            raise MeasureError(
                f"conditional expectation {format_scalar(value)} outside [-1, 1]"
            )
        self._set(subset, given_variable, given_sign, value)

    def describe(self) -> str:
        sign = "+1" if self.given_sign == 1 else "-1"
        return f"E({''.join(self.subset)}|{self.given_variable}={sign})"


class Violation(Record):
    __slots__ = ("axiom", "message")


class ValidationReport(Record):
    __slots__ = ("passed", "violations")

    def __bool__(self) -> bool:
        return self.passed


def _validate_atom_measure(measure: AtomMeasure) -> ValidationReport:
    violations = []
    for a, v in enumerate(measure.values):
        if v < 0:
            violations.append(
                Violation(
                    "nonnegativity",
                    f"atom {measure.space.signature(a)} has value {format_scalar(v)} < 0",
                )
            )
    total = measure.total()
    if measure.kind == STANDARD and total != 1:
        violations.append(
            Violation("normalization", f"atom values sum to {format_scalar(total)}, expected 1")
        )
    elif measure.kind == LOWER_ATOMS and total > 1:
        violations.append(
            Violation("total-mass", f"lower atom values sum to {format_scalar(total)} > 1")
        )
    elif measure.kind == UPPER_ATOMS and total < 1:
        violations.append(
            Violation("total-mass", f"upper atom values sum to {format_scalar(total)} < 1")
        )
    return ValidationReport(not violations, tuple(violations))


def validate(obj) -> ValidationReport:
    """Check every axiom on its specified domain; violations are data.

    ``obj`` is an :class:`AtomMeasure` or a
    ``set_functions.PartialSetFunction``.
    """
    if isinstance(obj, AtomMeasure):
        return _validate_atom_measure(obj)
    from . import set_functions

    if isinstance(obj, set_functions.PartialSetFunction):
        return set_functions._validate_set_function(obj)
    raise TypeError(f"cannot validate {type(obj).__name__}")


def signed_atom_sum(measure: AtomMeasure, subset: Sequence[str]) -> Fraction:
    """Signed sum of atom values weighted by the product-moment signs.

    Defined for every atom-measure kind; this is the atom-level reading
    of the expectation of a product of ±1 variables.
    """
    return signed_atom_sums(measure, [subset])[0]


def signed_atom_sums(measure: AtomMeasure, subsets: Sequence[Sequence[str]]) -> list[Fraction]:
    """:func:`signed_atom_sum` of each subset, reading the measure's support once.

    Over the common denominator d of the nonzero atom values k_a / d, a
    moment is Σ ±k_a / d, each sign the character of the moment's mask
    at atom a.
    """
    support = [(a, v) for a, v in enumerate(measure.values) if v]
    ints, common = over_common_denominator([v for _, v in support])
    terms = [(a, k) for (a, _), k in zip(support, ints)]
    return [
        Fraction(sum(-k if (a & mask).bit_count() & 1 else k for a, k in terms), common)
        for mask in (moment_mask(measure.space, subset) for subset in subsets)
    ]


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
