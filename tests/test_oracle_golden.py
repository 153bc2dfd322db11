"""Byte-for-byte golden reports of ``check --oracle``.

``tests/golden/oracle/ghz-grid-<steps>.<json|txt>`` holds the report of
``check --scenario ghz.json --oracle --grid <steps>`` in that format,
exit code 1.  Its oracle section holds the closed form's verdict on the
scenario (violated inequality, signed sum) and the grid's point count,
mismatches and agreement.  These files are kept apart from
``tests/golden/exit_codes.json``, whose key set covers the plain
``check`` and ``margin`` runs only.  The 61x61 and 401x401 JSON
reports are the ones CI's two grid-oracle steps also compare; the
401x401 one, the largest grid the CLI allows (160,801 points), takes
a second or two to generate.
"""

import io
from pathlib import Path

import pytest

from contextuality_kit.cli import run, scenario_dir

GOLDEN = Path(__file__).parent / "golden" / "oracle"


@pytest.mark.parametrize(
    ("steps", "fmt", "suffix"),
    [(21, "json", "json"), (21, "text", "txt"), (61, "json", "json"), (401, "json", "json")],
)
def test_oracle_report_is_byte_identical_to_golden(steps, fmt, suffix):
    stream = io.StringIO()
    argv = ["check", "--scenario", str(scenario_dir() / "ghz.json"), "--oracle"]
    code = run([*argv, "--grid", str(steps), "--format", fmt], stream)
    assert code == 1
    assert stream.getvalue() == (GOLDEN / f"ghz-grid-{steps}.{suffix}").read_text()
