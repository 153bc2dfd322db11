import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contextuality_kit

from contextuality_kit.cli import (
    EXIT_INDETERMINATE,
    EXIT_PASS,
    EXIT_USAGE,
    EXIT_VIOLATION,
    load_scenario,
    run,
    scenario_dir,
)
from contextuality_kit.errors import ScenarioError


def run_cli(*argv):
    stream = io.StringIO()
    code = run(list(argv), stream=stream)
    return code, stream.getvalue()


def run_json(*argv):
    code, text = run_cli(*argv, "--format", "json")
    return code, json.loads(text)


def bundled(name: str) -> str:
    return str(scenario_dir() / name)


class TestLoadScenario:
    def test_all_bundled_scenarios_load(self):
        names = [
            "ghz.json",
            "bell.json",
            "bell-perfect.json",
            "chsh.json",
            "chsh-classical.json",
            "ghz-epsilon-1-4.json",
            "ghz-epsilon-1-2.json",
        ]
        for name in names:
            scenario, echo = load_scenario(bundled(name))
            assert scenario.constraints
            assert echo["variables"]

    def test_ghz_values(self):
        scenario, _ = load_scenario(bundled("ghz.json"))
        assert scenario.space.variables == ("A", "B", "C")
        assert [c.target.lo for c in scenario.constraints] == [1, 1, 1, -1]

    def test_bell_interval_targets(self):
        scenario, _ = load_scenario(bundled("bell.json"))
        assert scenario.has_interval_targets

    def test_expression_error_carries_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "variables": ["A"],
                    "constraints": [
                        {"moment": ["A"], "relation": "eq", "value": "1/0"}
                    ],
                }
            )
        )
        with pytest.raises(ScenarioError) as exc:
            load_scenario(str(path))
        assert "constraint 0" in str(exc.value)

    def test_unknown_variable_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "variables": ["A"],
                    "constraints": [
                        {"moment": ["Q"], "relation": "eq", "value": "1"}
                    ],
                }
            )
        )
        with pytest.raises(Exception):
            load_scenario(str(path))


class TestCheckCommand:
    def test_ghz_exit_and_certificate(self):
        code, report = run_json("check", "--scenario", bundled("ghz.json"))
        assert code == EXIT_VIOLATION
        assert report["verdict"] == "infeasible"
        assert report["margin"] == "1/2"
        assert report["certificate"]["verified"] is True

    def test_feasible_scenario(self):
        code, report = run_json("check", "--scenario", bundled("chsh-classical.json"))
        assert code == EXIT_PASS
        assert report["verdict"] == "feasible"
        assert report["witness"] is not None
        assert all(entry["satisfied"] for entry in report["trace"])

    def test_bell_infeasible_with_endpoints(self):
        code, report = run_json("check", "--scenario", bundled("bell.json"))
        assert code == EXIT_VIOLATION
        assert set(report["endpoints"]) == {"lo", "hi"}

    def test_indeterminate_exit_code(self, tmp_path):
        # sqrt(2) - sqrt(2) evaluates to a zero-straddling interval, so
        # the triple target straddles the existence boundary -1/2
        doc = {
            "variables": ["A", "B", "C"],
            "constraints": [
                {"moment": ["A"], "relation": "eq", "value": "1/2"},
                {"moment": ["B"], "relation": "eq", "value": "1/2"},
                {"moment": ["C"], "relation": "eq", "value": "1/2"},
                {
                    "moment": ["A", "B", "C"],
                    "relation": "eq",
                    "value": "sqrt(2) - sqrt(2) - 1/2",
                },
            ],
        }
        path = tmp_path / "straddle.json"
        path.write_text(json.dumps(doc))
        code, report = run_json("check", "--scenario", str(path))
        assert code == EXIT_INDETERMINATE
        assert report["verdict"] == "indeterminate"

    def test_input_error_exit(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "variables": ["A"],
                    "constraints": [
                        {"moment": ["A"], "relation": "eq", "value": "1/0"}
                    ],
                }
            )
        )
        code, report = run_json("check", "--scenario", str(path))
        assert code == EXIT_USAGE
        assert report["verdict"] == "input-error"

    @pytest.mark.parametrize(
        "document, message",
        [
            (
                {
                    "variables": ["A"],
                    "constraints": [{"moment": ["A"], "relation": "eq", "value": 0.5}],
                },
                "constraint 0: value must be an expression string",
            ),
            (
                {
                    "variables": "AB",
                    "constraints": [{"moment": ["A"], "relation": "eq", "value": "0"}],
                },
                "'variables' must be a list",
            ),
            (
                {
                    "variables": ["A", "B"],
                    "constraints": [{"moment": "AB", "relation": "eq", "value": "0"}],
                },
                "constraint 0: 'moment' must be a list",
            ),
        ],
        ids=["numeric-value", "string-variables", "string-moment"],
    )
    def test_malformed_document_is_input_error(self, tmp_path, document, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code, report = run_json("check", "--scenario", str(path))
        assert code == EXIT_USAGE
        assert report["verdict"] == "input-error"
        assert message in report["error"]

    def test_missing_file(self):
        code, _ = run_json("check", "--scenario", "/nonexistent/file.json")
        assert code == EXIT_USAGE

    def test_oracle_section(self):
        code, report = run_json(
            "check", "--scenario", bundled("ghz.json"), "--oracle"
        )
        assert report["oracle"]["closed_form"]["passed"] is False
        assert report["oracle"]["closed_form"]["signed_sum"] == "4"

    def test_oracle_grid_sweep(self):
        code, report = run_json(
            "check", "--scenario", bundled("ghz.json"), "--oracle", "--grid", "5"
        )
        assert report["oracle"]["grid"]["points"] == 25
        assert report["oracle"]["grid"]["agree"] is True
        assert report["oracle"]["grid"]["mismatches"] == []

    def test_report_round_trip(self, tmp_path):
        _, first = run_json("check", "--scenario", bundled("ghz.json"))
        echo_path = tmp_path / "echo.json"
        echo_path.write_text(json.dumps(first["input"]))
        _, second = run_json("check", "--scenario", str(echo_path))
        assert first == second


class TestMarginCommand:
    def test_ghz_margin(self):
        code, report = run_json("margin", "--scenario", bundled("ghz.json"))
        assert code == EXIT_VIOLATION
        assert report["margin_lo"] == "1/2"
        assert report["margin_hi"] == "1/2"

    def test_feasible_margin(self):
        code, report = run_json(
            "margin", "--scenario", bundled("chsh-classical.json")
        )
        assert code == EXIT_PASS
        assert report["margin_lo"] == "0"


class TestConstructSymmetric:
    def test_midpoint(self):
        code, report = run_json("construct-symmetric", "--p", "1/2", "--q", "1/2")
        assert code == EXIT_PASS
        assert report["weights"] == {"x": "1/12", "y": "1/12", "z": "1/4", "w": "1/4"}

    def test_outside_region(self):
        code, report = run_json("construct-symmetric", "--p", "1", "--q", "0")
        assert code == EXIT_VIOLATION
        assert report["verdict"] == "no-witness"

    def test_irrational_p_rejected(self):
        code, report = run_json("construct-symmetric", "--p", "sqrt(2)/2", "--q", "0")
        assert code == EXIT_USAGE


class TestOtherCommands:
    def test_mermin(self):
        code, report = run_json("mermin")
        assert code == EXIT_VIOLATION
        assert report["satisfying"] == 0
        assert "0 of 64" in report["summary"]

    def test_ghz_epsilon(self):
        code, report = run_json("ghz-epsilon", "--epsilon", "2/5", "--oracle")
        assert code == EXIT_VIOLATION
        assert report["signed_sum"] == "12/5"
        assert report["oracle"]["agrees"] is True
        code, report = run_json("ghz-epsilon", "--epsilon", "1/2")
        assert code == EXIT_PASS

    def test_ghz_epsilon_bad_value(self):
        code, _ = run_json("ghz-epsilon", "--epsilon", "3/2")
        assert code == EXIT_USAGE

    def test_bell_system_exit_codes(self):
        code, report = run_json(
            "bell-system", "--exy=-sqrt(3)/2", "--exz=-sqrt(3)/2", "--eyz=-1/2"
        )
        assert code == EXIT_VIOLATION
        assert report["failed_stage"] == "averaging-system"
        code, report = run_json("bell-system", "--exy=0", "--exz=0", "--eyz=0")
        assert code == EXIT_PASS
        assert [c["value"] for c in report["conditionals"]] == ["0"] * 6

    def test_upper_bell(self):
        code, report = run_json(
            "upper-bell", "--exy=-sqrt(3)/2", "--exz=-sqrt(3)/2", "--eyz=-1/2"
        )
        assert code == EXIT_PASS
        assert len(report["conditionals"]) == 6
        assert all(t["satisfied"] for t in report["trace"])

    def test_bell_system_reports_bracket_tolerance(self):
        _, report = run_json(
            "bell-system", "--exy=-sqrt(3)/2", "--exz=-sqrt(3)/2", "--eyz=-1/2"
        )
        assert report["bracket_tolerance"] == "1/1000000000000"
        _, report = run_json(
            "bell-system", "--exy=0", "--exz=0", "--eyz=0", "--bracket-tolerance", "1/10"
        )
        assert report["bracket_tolerance"] == "1/10"

    def test_upper_bell_marks_bracketed_values_as_lo_endpoints(self):
        _, report = run_json(
            "upper-bell",
            "--exy=-sqrt(3)/2",
            "--exz=-sqrt(3)/2",
            "--eyz=-1/2",
            "--bracket-tolerance",
            "1/100000",
        )
        assert report["bracket_tolerance"] == "1/100000"
        assert report["endpoint"] == "lo"
        _, report = run_json("upper-bell", "--exy=-1/2", "--exz=-1/2", "--eyz=-1/2")
        assert report["bracket_tolerance"] == "1/1000000000000"
        assert "endpoint" not in report

    def test_quantum(self):
        code, report = run_json("quantum", "--angle-degrees", "30")
        assert code == EXIT_PASS
        assert report["operator_identity"]["holds"] is True
        mermin = report["states"]["mermin"]["expectations"]
        assert abs(mermin["D"]["value"] + 1) < 1e-9
        assert report["singlet"]["exact_form"] == "-1/2*sqrt(3)"


class TestWitnessCommandsAndValidate:
    def test_lower_ghz_report(self):
        code, report = run_json("lower-ghz")
        assert code == EXIT_PASS
        assert report["witness"]["atoms"]["-++"] == "1/3"
        assert all(t["satisfied"] for t in report["trace"])
        assert report["monotonicity_violations"]

    def test_upper_ghz_conjugacy_section(self):
        code, report = run_json("upper-ghz")
        assert code == EXIT_PASS
        assert report["conjugacy_with_lower"]["violations"]

    def test_validate_emitted_witness(self, tmp_path):
        _, report = run_json("lower-ghz")
        path = tmp_path / "witness.json"
        path.write_text(json.dumps(report))
        code, validated = run_json("validate", "--file", str(path))
        assert code == EXIT_PASS
        assert validated["verdict"] == "pass"

    def test_validate_standalone_measure(self, tmp_path):
        _, report = run_json("check", "--scenario", bundled("chsh-classical.json"))
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(report["witness"]))
        code, validated = run_json("validate", "--file", str(path))
        assert code == EXIT_PASS

    def test_validate_broken_measure(self, tmp_path):
        doc = {
            "type": "atom-measure",
            "variables": ["A"],
            "kind": "standard",
            "atoms": {"+": "2", "-": "-1"},
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, validated = run_json("validate", "--file", str(path))
        assert code == EXIT_VIOLATION
        assert validated["results"][0]["violations"]

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"type": "atom-measure", "variables": ["A"]}, "missing the 'atoms' field"),
            (
                {"type": "atom-measure", "variables": ["A"], "atoms": {"+": 0.5, "-": "1/2"}},
                "got 0.5",
            ),
            (
                {"type": "atom-measure", "variables": "A", "atoms": {"+": "1", "-": "0"}},
                "'variables' must be a list",
            ),
        ],
        ids=["no-atoms", "numeric-atom", "string-variables"],
    )
    def test_malformed_validate_document_is_input_error(self, tmp_path, document, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code, report = run_json("validate", "--file", str(path))
        assert code == EXIT_USAGE
        assert report["verdict"] == "input-error"
        assert message in report["error"]

    def test_lower_kind_scenario_routes_to_witness_solver(self, tmp_path):
        doc = {
            "kind": "lower",
            "variables": ["A", "B", "C"],
            "constraints": [
                {"moment": ["A"], "relation": "eq", "value": "1"},
                {"moment": ["B"], "relation": "eq", "value": "1"},
                {"moment": ["C"], "relation": "eq", "value": "1"},
                {"moment": ["A", "B", "C"], "relation": "eq", "value": "-1"},
            ],
        }
        path = tmp_path / "lower.json"
        path.write_text(json.dumps(doc))
        code, report = run_json("check", "--scenario", str(path))
        assert code == EXIT_PASS
        assert report["verdict"] == "witness-constructed"

    def test_lower_kind_other_pattern_rejected(self, tmp_path):
        doc = {
            "kind": "lower",
            "variables": ["A", "B"],
            "constraints": [
                {"moment": ["A"], "relation": "eq", "value": "1/2"},
            ],
        }
        path = tmp_path / "lower.json"
        path.write_text(json.dumps(doc))
        code, _ = run_json("check", "--scenario", str(path))
        assert code == EXIT_USAGE


class TestUsage:
    def test_unknown_subcommand(self):
        code, _ = run_cli("frobnicate")
        assert code == EXIT_USAGE

    def test_missing_required_flag(self):
        code, _ = run_cli("check")
        assert code == EXIT_USAGE

    def test_text_format_default(self):
        code, text = run_cli("mermin")
        assert code == EXIT_VIOLATION
        assert text.startswith("contextuality-kit")
        assert "verdict: contradiction" in text

    def test_exit_codes_are_total_function_of_verdict(self):
        # same verdict, same code, across invocations
        first, _ = run_json("check", "--scenario", bundled("ghz.json"))
        second, _ = run_json("check", "--scenario", bundled("ghz.json"))
        assert first == second == EXIT_VIOLATION


def test_module_entry_point_runs_the_cli():
    src = Path(contextuality_kit.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "contextuality_kit.cli", "check", "--scenario", bundled("ghz.json")],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert proc.returncode == EXIT_VIOLATION
    assert "verdict: infeasible" in proc.stdout


_BUNDLED = sorted(p.name for p in scenario_dir().iterdir() if p.name.endswith(".json"))


@pytest.mark.parametrize("name", _BUNDLED)
def test_margin_agrees_with_check_on_bundled_scenarios(name):
    check_code, check = run_json("check", "--scenario", bundled(name))
    margin_code, margin = run_json("margin", "--scenario", bundled(name))
    assert margin["verdict"] == check["verdict"]
    assert margin_code == check_code


@pytest.mark.parametrize(
    "tolerance, verdict, code",
    [("1/10", "indeterminate", EXIT_INDETERMINATE), ("1/100000", "infeasible", EXIT_VIOLATION)],
)
def test_margin_agrees_with_check_on_a_straddling_bracket(tmp_path, tolerance, verdict, code):
    # E(A) = sqrt(2) - 4142/10000 exceeds 1 by about 10^-5, so a
    # 1/10-wide bracket straddles the existence boundary E(A) = 1
    doc = {
        "variables": ["A", "B"],
        "constraints": [
            {"moment": ["A"], "relation": "eq", "value": "sqrt(2) - 4142/10000"},
            {"moment": ["A", "B"], "relation": "eq", "value": "-1"},
        ],
    }
    path = tmp_path / "straddle.json"
    path.write_text(json.dumps(doc))
    argv = ("--scenario", str(path), "--bracket-tolerance", tolerance)
    check_code, check = run_json("check", *argv)
    margin_code, margin = run_json("margin", *argv)
    assert (check["verdict"], check_code) == (margin["verdict"], margin_code) == (verdict, code)
