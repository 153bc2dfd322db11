"""Pauli strings as bit flips and phases, checked against dense matrices.

The kit evaluates Pauli strings without numpy, in exact arithmetic;
these tests compare its basis-state action and expectations with numpy
reference matrices, within a float tolerance kept here, and run the CLI
in a process where numpy cannot be imported.
"""

import functools
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import contextuality_kit
from contextuality_kit.cli import EXIT_PASS, EXIT_VIOLATION, scenario_dir
from contextuality_kit.quantum import (
    StateVector,
    build_operator,
    expectation_value,
    ghz_state_alternate,
    ghz_state_mermin,
)

PAULI = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Every Pauli string on 1, 2 and 3 particles: 4 + 16 + 64 = 84.
STRINGS = [s for k in (1, 2, 3) for s in itertools.product("ixyz", repeat=k)]


def kron(factors) -> np.ndarray:
    return functools.reduce(np.kron, (PAULI[f] for f in factors))


def test_all_strings_enumerated():
    assert len(STRINGS) == 84


def dense(op) -> np.ndarray:
    """The operator's matrix, built from its action on the basis states."""
    matrix = np.zeros((op.dimension, op.dimension), dtype=complex)
    for basis in range(op.dimension):
        image, quarter_turns = op.apply(basis)
        matrix[image, basis] = 1j**quarter_turns
    return matrix


@pytest.mark.parametrize("factors", STRINGS, ids="".join)
def test_apply_matches_dense_matrix(factors):
    op = build_operator(factors)
    matrix = dense(op)
    assert np.array_equal(matrix, kron(factors))
    assert np.array_equal(matrix, matrix.conj().T)
    assert np.array_equal(matrix @ matrix, np.eye(op.dimension))


def _fixed_states() -> list:
    """The built-in states, a uniform one and seeded random Gaussian-integer ones."""
    rng = np.random.default_rng(20260101)
    states = [ghz_state_mermin(), ghz_state_alternate(), StateVector([1] * 8)]
    for _ in range(3):
        parts = rng.integers(-9, 10, size=(8, 2))
        parts[0, 0] = 10  # never the zero vector
        states.append(StateVector(complex(int(re), int(im)) for re, im in parts))
    return states


@pytest.mark.parametrize("index", range(6))
def test_expectation_matches_vdot(index):
    state = _fixed_states()[index]
    psi = np.array([complex(re, im) for re, im in state.amplitudes])
    for factors in itertools.product("ixyz", repeat=3):
        reference = np.vdot(psi, kron(factors) @ psi) / np.vdot(psi, psi)
        value = expectation_value(state, build_operator(factors))
        assert type(value) is Fraction
        assert abs(value - reference.real) <= 1e-12 and abs(reference.imag) <= 1e-12


def _run_without_numpy(*argv) -> subprocess.CompletedProcess:
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from contextuality_kit.cli import main\n"
        "main()\n"
    )
    src = Path(contextuality_kit.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", script, "--format", "json", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )


def test_cli_runs_without_numpy():
    check = _run_without_numpy("check", "--scenario", str(scenario_dir() / "ghz.json"))
    assert check.returncode == EXIT_VIOLATION, check.stderr
    assert json.loads(check.stdout)["certificate"]["verified"] is True

    quantum = _run_without_numpy("quantum", "--angle-degrees", "30")
    assert quantum.returncode == EXIT_PASS, quantum.stderr
    assert json.loads(quantum.stdout)["operator_identity"]["holds"] is True
