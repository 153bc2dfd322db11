"""Pauli strings as bit flips and phases, checked against dense matrices.

The kit evaluates Pauli strings without numpy; these tests compare its
basis-state action and expectations with numpy reference matrices, and
run the CLI in a process where numpy cannot be imported.
"""

import functools
import itertools
import json
import os
import subprocess
import sys
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


@pytest.mark.parametrize("factors", STRINGS, ids="".join)
def test_apply_matches_dense_matrix(factors):
    op = build_operator(factors)
    dense = op.matrix
    assert np.array_equal(dense, kron(factors))
    for basis in range(op.dimension):
        image, phase = op.apply(basis)
        column = np.zeros(op.dimension, dtype=complex)
        column[image] = phase
        assert np.array_equal(dense[:, basis], column)
    assert np.array_equal(dense, dense.conj().T)
    assert np.array_equal(dense @ dense, np.eye(op.dimension))


def _fixed_states() -> list[np.ndarray]:
    rng = np.random.default_rng(20260101)
    states = [
        np.array(ghz_state_mermin().amplitudes),
        np.array(ghz_state_alternate().amplitudes),
        np.full(8, 1 / np.sqrt(8), dtype=complex),
    ]
    for _ in range(3):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        states.append(psi / np.linalg.norm(psi))
    return states


@pytest.mark.parametrize("index", range(6))
def test_expectation_matches_vdot(index):
    psi = _fixed_states()[index]
    state = StateVector(psi)
    for factors in itertools.product("ixyz", repeat=3):
        reference = np.vdot(psi, kron(factors) @ psi).real
        assert abs(expectation_value(state, build_operator(factors)) - reference) <= 1e-12


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
