"""The benchmark's traced run still finds every function it wraps.

``perfbench/spans.py`` wraps kit functions at the module attribute each
caller looks up.  Moving a function to another module must leave that
attribute in place, or a ``--trace 1`` run stops installing.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from contextuality_kit import simplex, sweep
from contextuality_kit.cli import EXIT_VIOLATION, scenario_dir

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


@pytest.mark.parametrize(
    "module, attr, name", spans.WRAP_POINTS, ids=[f"{m}.{a}" for m, a, _ in spans.WRAP_POINTS]
)
def test_wrap_point_resolves(module, attr, name):
    assert callable(getattr(importlib.import_module(f"contextuality_kit.{module}"), attr))


def test_simplex_solve_lp_is_the_sweep_solver():
    assert simplex.solve_lp is sweep.solve_lp


def test_traced_check_installs_and_restores_every_wrap_point(tmp_path, capsys):
    originals = [
        getattr(importlib.import_module(f"contextuality_kit.{module}"), attr)
        for module, attr, _ in spans.WRAP_POINTS
    ]
    out = tmp_path / "state.json"
    argv = ["check", "--scenario", str(scenario_dir() / "ghz.json"), "--format", "json"]
    assert spans.traced_cli(str(out), argv) == EXIT_VIOLATION
    assert json.loads(capsys.readouterr().out)["verdict"] == "infeasible"
    by_name = json.loads(out.read_text())["by_name"]
    for name in ("cli.run", "cli.load_scenario", "feasibility.solve_robust",
                 "feasibility.verify_certificate"):
        assert by_name[name][0] >= 1, name
    restored = [
        getattr(importlib.import_module(f"contextuality_kit.{module}"), attr)
        for module, attr, _ in spans.WRAP_POINTS
    ]
    assert restored == originals
