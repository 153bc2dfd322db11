"""Byte-for-byte golden reports of ``check`` and ``margin``.

``tests/golden/<command>/<scenario>`` holds the ``--format json`` report
of each bundled scenario, and ``tests/golden/exit_codes.json`` the exit
code of each run.  A change that claims identical reports must leave
these files alone.  ``PYTHONPATH=src python tests/test_golden.py`` rewrites
them from the current code; run it only for a change that means to alter
reports.
"""

import io
import json
from pathlib import Path

import pytest

from contextuality_kit.cli import run, scenario_dir

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ("check", "margin")
SCENARIOS = sorted(p.name for p in scenario_dir().iterdir() if p.name.endswith(".json"))


def _report(command, name):
    stream = io.StringIO()
    code = run([command, "--scenario", str(scenario_dir() / name), "--format", "json"], stream)
    return code, stream.getvalue()


def _exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


def test_golden_set_covers_every_bundled_scenario():
    assert len(SCENARIOS) == 11
    assert sorted(_exit_codes()) == [f"{c}/{n}" for c in COMMANDS for n in SCENARIOS]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_report_is_byte_identical_to_golden(command, name):
    code, text = _report(command, name)
    assert text == (GOLDEN / command / name).read_text()
    assert code == _exit_codes()[f"{command}/{name}"]


if __name__ == "__main__":
    codes = {}
    for command in COMMANDS:
        (GOLDEN / command).mkdir(parents=True, exist_ok=True)
        for name in SCENARIOS:
            codes[f"{command}/{name}"], text = _report(command, name)
            (GOLDEN / command / name).write_text(text)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
