"""Quantum expectations that source the scenario targets, in exact arithmetic.

Pauli strings, state-vector expectations, and the two-particle singlet
correlation, in plain Python.  A Pauli string maps every basis state to
one basis state times a phase i^k: x flips the particle's bit, z negates
when the bit is set, and y = i·x·z does both with an extra factor i
(N. D. Mermin, Am. J. Phys. 58, 731 (1990); D. Gottesman,
arXiv:quant-ph/9705052).  A state is a vector v of Gaussian integers
standing for v/‖v‖, so every expectation is an exact rational.  The
singlet correlation -cos θ is a float; its exact form comes from a
fixed table of cosines written in the expression grammar, never from
the float.

Basis convention: |+> and |-> are the σ_z eigenstates, the first
particle is the most significant bit of the basis index, matching the
atom ordering used by the event spaces.
"""

from __future__ import annotations

from fractions import Fraction
from math import cos, fmod

from ._record import Record
from .errors import SizeLimitError, SpaceError

MAX_PARTICLES = 10

_COMPONENTS = ("i", "x", "y", "z")


class SpinOperator(Record):
    """Tensor product of per-particle Pauli components (a Pauli string)."""

    __slots__ = ("factors",)

    @property
    def dimension(self) -> int:
        return 1 << len(self.factors)

    def apply(self, basis: int) -> tuple[int, int]:
        """Op|basis> = i^k·|image>, returned as (image, k) with k in 0..3."""
        image = basis
        quarter_turns = 0
        for position, f in enumerate(reversed(self.factors)):
            bit = 1 << position
            if f in ("x", "y"):
                image ^= bit
            if f == "y":
                quarter_turns += 1
            if f in ("y", "z") and basis & bit:
                quarter_turns += 2
        return image, quarter_turns % 4


def _gaussian_integer(value) -> tuple[int, int]:
    """(re, im) of a Gaussian integer, given as a number or as an (re, im) pair."""
    try:
        parts = value if isinstance(value, tuple) else (value.real, value.imag)
        pair = tuple(int(p) for p in parts)
    except (AttributeError, TypeError, ValueError, OverflowError):
        pair = None
    if pair is None or len(pair) != 2 or pair != parts:
        raise ValueError(f"amplitude {value!r} is not a Gaussian integer")
    return pair


class StateVector(Record):
    """Gaussian-integer amplitudes v over 2^k basis states, standing for v/‖v‖.

    Each amplitude is an int, a complex with integral parts or an (re, im)
    pair of ints; ``amplitudes`` holds them as (re, im) pairs of ints.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amplitudes = tuple(_gaussian_integer(a) for a in amplitudes)
        if not any(re or im for re, im in amplitudes):
            raise ValueError("the zero vector is not a state")
        self._set(amplitudes)

    @property
    def dimension(self) -> int:
        return len(self.amplitudes)


def build_operator(factors) -> SpinOperator:
    """Tensor product of Pauli components, one per particle in order."""
    factors = tuple(str(f).lower() for f in factors)
    if not 1 <= len(factors) <= MAX_PARTICLES:
        raise SizeLimitError(
            f"{len(factors)} particles outside the supported range 1..{MAX_PARTICLES}"
        )
    for f in factors:
        if f not in _COMPONENTS:
            raise SpaceError(f"unknown Pauli component {f!r}; use x, y, z or i")
    return SpinOperator(factors)


def expectation_value(state: StateVector, operator: SpinOperator) -> Fraction:
    """<v| Op |v> / <v|v>, exactly.

    The numerator is Σ_b conj(v[image])·i^k·v[b]; a Pauli string is
    Hermitian, so its imaginary part is 0.
    """
    if state.dimension != operator.dimension:
        raise SpaceError(
            f"state dimension {state.dimension} != operator dimension {operator.dimension}"
        )
    v = state.amplitudes
    re_sum = im_sum = 0
    for basis, (br, bi) in enumerate(v):
        if br or bi:
            image, quarter_turns = operator.apply(basis)
            wr, wi = v[image]
            re, im = wr * br + wi * bi, wr * bi - wi * br
            for _ in range(quarter_turns):
                re, im = -im, re
            re_sum += re
            im_sum += im
    if im_sum:
        raise AssertionError(f"expectation has imaginary part {im_sum}")
    return Fraction(re_sum, sum(re * re + im * im for re, im in v))


def singlet_correlation(theta: float) -> float:
    """Two-particle spin correlation at relative analyzer angle theta (radians)."""
    return -cos(theta)


#: cos at each angle in 0..90 degrees that has a form in square roots of
#: integers, written in the expression grammar.
_COSINE_FORMS = {
    0: "1", 15: "(sqrt(6)+sqrt(2))/4", 30: "1/2*sqrt(3)", 36: "(1+sqrt(5))/4",
    45: "1/2*sqrt(2)", 60: "1/2", 72: "(sqrt(5)-1)/4", 75: "(sqrt(6)-sqrt(2))/4", 90: "0",
}


def singlet_exact_form(degrees: float) -> str | None:
    """-cos(degrees) in the expression grammar, or None off the table.

    The angle is folded onto 0..90 by cos(-x) = cos x, a period of 360
    and cos(180 - x) = -cos x.  ``math.fmod`` is exact, so an angle
    that is not exactly a table angle plus a multiple of 360 gets None.
    """
    folded = fmod(abs(degrees), 360)
    if not folded.is_integer():
        return None
    angle = min(int(folded), 360 - int(folded))
    form = _COSINE_FORMS.get(180 - angle if angle > 90 else angle)
    # The correlation is -cos: -form up to 90 degrees, form beyond.
    if form is None or angle > 90 or form == "0":
        return form
    return "-" + form


#: The four three-particle spin-product observables of the GHZ argument.
GHZ_OPERATOR_FACTORS = {
    "A": ("x", "y", "y"),
    "B": ("y", "x", "y"),
    "C": ("y", "y", "x"),
    "D": ("x", "x", "x"),
}


def ghz_operators() -> dict[str, SpinOperator]:
    return {name: build_operator(f) for name, f in GHZ_OPERATOR_FACTORS.items()}


def _basis_state(entries: dict[int, int], dimension: int) -> StateVector:
    return StateVector(entries.get(index, 0) for index in range(dimension))


def ghz_state_mermin() -> StateVector:
    """(|+++> - |--->)/sqrt(2): gives (1, 1, 1, -1) on the four observables."""
    return _basis_state({0b000: 1, 0b111: -1}, 8)


def ghz_state_alternate() -> StateVector:
    """(|++-> + |--+>)/sqrt(2): a commonly printed variant.

    It gives (1, 1, -1, 1) on the four observables, a different sign
    pattern than the Mermin-convention state, but the product relation
    E(A) E(B) E(C) = -E(D), which is all the contradiction argument
    needs, holds for both.  Shipping both makes the discrepancy
    inspectable.
    """
    return _basis_state({0b001: 1, 0b110: 1}, 8)


BUILTIN_STATES = {"mermin": ghz_state_mermin, "alternate": ghz_state_alternate}


def ghz_expectations(state: StateVector) -> dict[str, Fraction]:
    """Expectations of the four spin-product observables in one state."""
    return {name: expectation_value(state, op) for name, op in ghz_operators().items()}
