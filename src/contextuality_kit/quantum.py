"""Quantum expectations that source the scenario targets.

Pauli strings, state-vector expectations, and the two-particle singlet
correlation, in plain Python.  A Pauli string maps every basis state to
one basis state times a phase: x flips the particle's bit, z negates
when the bit is set, and y = i·x·z does both with an extra factor i
(N. D. Mermin, Am. J. Phys. 58, 731 (1990); D. Gottesman,
arXiv:quant-ph/9705052).  Amplitudes are floats; the values computed
here enter the exact solvers only as re-entered exact constants (for
example ``-sqrt(3)/2``), so no verdict depends on a float.

Basis convention: |+> and |-> are the σ_z eigenstates, the first
particle is the most significant bit of the basis index, matching the
atom ordering used by the event spaces.
"""

from __future__ import annotations

from fractions import Fraction
from math import cos, fsum, sqrt

from ._record import Record
from .errors import SizeLimitError, SpaceError

TOLERANCE = 1e-12

MAX_PARTICLES = 10

_COMPONENTS = ("i", "x", "y", "z")

#: i^k for k quarter turns.
_PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


class SpinOperator(Record):
    """Tensor product of per-particle Pauli components (a Pauli string)."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[str, ...]):
        self._set(factors)

    @property
    def dimension(self) -> int:
        return 1 << len(self.factors)

    def apply(self, basis: int) -> tuple[int, complex]:
        """Op|basis> = phase·|image>, returned as (image, phase)."""
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
        return image, _PHASES[quarter_turns % 4]

    @property
    def matrix(self):
        """Dense numpy matrix of the operator, a reference view only."""
        import numpy as np

        dense = np.zeros((self.dimension, self.dimension), dtype=complex)
        for basis in range(self.dimension):
            image, phase = self.apply(basis)
            dense[image, basis] = phase
        return dense


class StateVector(Record):
    """Normalized complex amplitudes over 2^k basis states."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: tuple[complex, ...]):
        amplitudes = tuple(complex(a) for a in amplitudes)
        norm = sqrt(fsum(a.real * a.real + a.imag * a.imag for a in amplitudes))
        if abs(norm - 1.0) > TOLERANCE:
            raise ValueError(f"state norm {norm} differs from 1 beyond {TOLERANCE}")
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


def expectation_value(state: StateVector, operator: SpinOperator) -> float:
    """<psi| Op |psi>, checked real within tolerance."""
    if state.dimension != operator.dimension:
        raise SpaceError(
            f"state dimension {state.dimension} != operator dimension {operator.dimension}"
        )
    psi = state.amplitudes
    value = 0j
    for basis, amplitude in enumerate(psi):
        if amplitude:
            image, phase = operator.apply(basis)
            value += psi[image].conjugate() * phase * amplitude
    if abs(value.imag) > TOLERANCE:
        raise ValueError(f"expectation has imaginary part {value.imag}")
    return value.real


def singlet_correlation(theta: float) -> float:
    """Two-particle spin correlation at relative analyzer angle theta (radians)."""
    return -cos(theta)


#: The four three-particle spin-product observables of the GHZ argument.
GHZ_OPERATOR_FACTORS = {
    "A": ("x", "y", "y"),
    "B": ("y", "x", "y"),
    "C": ("y", "y", "x"),
    "D": ("x", "x", "x"),
}


def ghz_operators() -> dict[str, SpinOperator]:
    return {name: build_operator(f) for name, f in GHZ_OPERATOR_FACTORS.items()}


def _basis_state(entries: dict[int, complex], dimension: int) -> StateVector:
    return StateVector(tuple(entries.get(index, 0j) for index in range(dimension)))


def ghz_state_mermin() -> StateVector:
    """(|+++> - |--->)/sqrt(2): gives (1, 1, 1, -1) on the four observables."""
    return _basis_state({0b000: 1 / sqrt(2), 0b111: -1 / sqrt(2)}, 8)


def ghz_state_alternate() -> StateVector:
    """(|++-> + |--+>)/sqrt(2): a commonly printed variant.

    Direct computation shows this state yields a different sign pattern
    on the four observables than the Mermin-convention state, but the
    product relation E(A) E(B) E(C) = -E(D), which is all the
    contradiction argument needs, holds for both.  Shipping both makes
    the discrepancy inspectable.
    """
    return _basis_state({0b001: 1 / sqrt(2), 0b110: 1 / sqrt(2)}, 8)


BUILTIN_STATES = {
    "mermin": ghz_state_mermin,
    "alternate": ghz_state_alternate,
}


def ghz_expectations(state: StateVector) -> dict[str, float]:
    """Expectations of the four spin-product observables in one state."""
    return {
        name: expectation_value(state, op) for name, op in ghz_operators().items()
    }


def nearest_exact_form(value: float, tolerance: float = 1e-9) -> str | None:
    """Readable exact form p/q or (p/q)·sqrt(d), d in {2, 3}, if nearby.

    Searches denominators up to 64; returns None when nothing matches
    within the tolerance.  Annotation only, never used in decisions.
    """
    candidates: list[tuple[float, str]] = []
    for d, scale, suffix in ((1, 1.0, ""), (2, sqrt(2), "*sqrt(2)"), (3, sqrt(3), "*sqrt(3)")):
        reduced = value / scale
        for q in range(1, 65):
            p = round(reduced * q)
            approx = p / q * scale
            if abs(approx - value) <= tolerance:
                frac = Fraction(p, q)
                if frac == 0:
                    text = "0"
                elif suffix and abs(frac) == 1:
                    text = ("-" if frac < 0 else "") + suffix[1:]
                elif suffix:
                    text = f"{frac}{suffix}"
                else:
                    text = str(frac)
                candidates.append((abs(approx - value), text))
                break
    if not candidates:
        return None
    candidates.sort(key=lambda c: (c[0], len(c[1])))
    return candidates[0][1]
