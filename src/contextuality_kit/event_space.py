"""Finite sample spaces of ±1 random variables.

A space over n named variables has 2^n atoms, one per joint sign
assignment.  Atom indices and sign strings are interchangeable: the
first variable maps to the most significant bit of the index, and a
'+' sign maps to bit value 0, so index 0 is always the all-plus atom
and the last index is the all-minus atom.  This ordering is the
canonical serialization used everywhere in the package.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from ._record import Record
from .errors import SizeLimitError, SpaceError
from .numerics import quoted

MAX_VARIABLES = 16


class EventSpace(Record):
    """Ordered collection of distinct ±1 variable names."""

    __slots__ = ("variables",)

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def atom_count(self) -> int:
        return 1 << self.n

    def index_of(self, variable: str) -> int:
        try:
            return self.variables.index(variable)
        except ValueError:
            raise SpaceError(f"unknown variable {quoted(variable)}") from None

    def atom_sign(self, atom: int, variable: str) -> int:
        """Sign (+1 or -1) of a variable at the given atom index."""
        j = self.index_of(variable)
        return -1 if (atom >> (self.n - 1 - j)) & 1 else 1

    def signature(self, atom: int) -> str:
        """Sign string of an atom, e.g. '+-+' for index 2 over 3 variables."""
        if not 0 <= atom < self.atom_count:
            raise SpaceError(f"atom index {atom} out of range")
        return "".join(
            "-" if (atom >> (self.n - 1 - j)) & 1 else "+" for j in range(self.n)
        )

    def atom_index(self, signature: str) -> int:
        """Inverse of :meth:`signature`."""
        if len(signature) != self.n:
            raise SpaceError(
                f"signature {signature!r} has length {len(signature)}, expected {self.n}"
            )
        atom = 0
        for ch in signature:
            if ch == "+":
                atom = atom << 1
            elif ch == "-":
                atom = (atom << 1) | 1
            else:
                raise SpaceError(f"signature character {ch!r} is not '+' or '-'")
        return atom

    def atoms(self) -> Iterator[int]:
        return iter(range(self.atom_count))


def build_space(names: Sequence[str]) -> EventSpace:
    """Build the sample space for the given variable names.

    Names must be distinct and nonempty; at most 16 variables are
    supported so the downstream exact solvers stay tractable.
    """
    names = list(names)
    if not names:
        raise SpaceError("at least one variable name is required")
    if len(names) > MAX_VARIABLES:
        raise SizeLimitError(
            f"{len(names)} variables exceed the limit of {MAX_VARIABLES}"
        )
    seen = set()
    for name in names:
        if not isinstance(name, str) or not name:
            raise SpaceError("variable names must be nonempty strings")
        if name in seen:
            raise SpaceError(f"duplicate variable name {quoted(name)}")
        seen.add(name)
    return EventSpace(tuple(names))


class EventMask(Record):
    """Subset of atoms, stored as a bitmask over atom indices."""

    __slots__ = ("space", "bits")

    def __init__(self, space: EventSpace, bits: int):
        full = (1 << space.atom_count) - 1
        if not 0 <= bits <= full:
            raise SpaceError("mask has bits outside the atom range")
        self._set(space, bits)

    @classmethod
    def from_atoms(cls, space: EventSpace, atoms: Sequence[int]) -> "EventMask":
        bits = 0
        for a in atoms:
            if not 0 <= a < space.atom_count:
                raise SpaceError(f"atom index {a} out of range")
            bits |= 1 << a
        return cls(space, bits)

    @classmethod
    def empty(cls, space: EventSpace) -> "EventMask":
        return cls(space, 0)

    @classmethod
    def full(cls, space: EventSpace) -> "EventMask":
        return cls(space, (1 << space.atom_count) - 1)

    def atoms(self) -> list[int]:
        return [a for a in range(self.space.atom_count) if (self.bits >> a) & 1]

    @property
    def size(self) -> int:
        return bin(self.bits).count("1")

    def _check_space(self, other: "EventMask") -> None:
        if self.space != other.space:
            raise SpaceError("masks belong to different spaces")

    def complement(self) -> "EventMask":
        return EventMask(self.space, self.bits ^ ((1 << self.space.atom_count) - 1))

    def union(self, other: "EventMask") -> "EventMask":
        self._check_space(other)
        return EventMask(self.space, self.bits | other.bits)

    def intersection(self, other: "EventMask") -> "EventMask":
        self._check_space(other)
        return EventMask(self.space, self.bits & other.bits)

    def disjoint(self, other: "EventMask") -> bool:
        self._check_space(other)
        return self.bits & other.bits == 0

    def issubset(self, other: "EventMask") -> bool:
        self._check_space(other)
        return self.bits & ~other.bits == 0

    __invert__ = complement
    __or__ = union
    __and__ = intersection

    def __contains__(self, atom: int) -> bool:
        return bool((self.bits >> atom) & 1)


def sign_event(space: EventSpace, variable: str, sign: int) -> EventMask:
    """Event {variable = sign}; exactly half the atoms."""
    if sign not in (1, -1):
        raise SpaceError(f"sign must be +1 or -1, got {sign!r}")
    j = space.index_of(variable)
    shift = space.n - 1 - j
    bit = 0 if sign == 1 else 1
    bits = 0
    for atom in range(space.atom_count):
        if (atom >> shift) & 1 == bit:
            bits |= 1 << atom
    return EventMask(space, bits)


def moment_coefficients(space: EventSpace, subset: Sequence[str]) -> list[int]:
    """Per-atom coefficients (±1) of the product moment over ``subset``.

    The coefficient at an atom is the product of that atom's signs over
    the subset, so the expectation of the product under any atom measure
    is the inner product of these coefficients with the atom values.
    """
    return _on_atoms(space.n, moment_mask(space, subset), 1, -1)


def moment_mask(space: EventSpace, subset: Sequence[str]) -> int:
    """Bit mask of a moment's variables, in the atom index's bit order.

    The moment's coefficient at an atom is ``(-1)^popcount(atom & mask)``.
    Raises SpaceError unless ``subset`` lists distinct variables of the
    space, at least one.
    """
    subset = tuple(subset)
    if not subset:
        raise SpaceError("moment subset must be nonempty")
    if not all(isinstance(name, str) for name in subset):
        raise SpaceError(f"moment subset {quoted(subset)} must list variable names")
    if len(set(subset)) != len(subset):
        raise SpaceError(f"moment subset {quoted(subset)} repeats a variable")
    mask = 0
    for v in subset:
        mask |= 1 << (space.n - 1 - space.index_of(v))
    return mask


def _on_atoms(bits, mask, plus, minus):
    """``plus`` on every atom where the character of ``mask`` is +1, else ``minus``.

    Built by doubling over the atom index's bits, lowest first: bit k
    either keeps the character or, when ``mask`` has it, flips it.
    """
    values, flipped = [plus], [minus]
    for k in range(bits):
        if mask >> k & 1:
            values, flipped = values + flipped, flipped + values
        else:
            values, flipped = values + values, flipped + flipped
    return values
