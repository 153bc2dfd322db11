import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import contextuality_kit

from contextuality_kit import cli, quantum
from contextuality_kit.cli import (
    DEFAULT_BRACKET_TOLERANCE,
    EXIT_INDETERMINATE,
    EXIT_PASS,
    EXIT_USAGE,
    EXIT_VIOLATION,
    QUANTUM_STATES,
    load_scenario,
    run,
    scenario_dir,
    scenario_from_document,
)
from contextuality_kit.errors import ScenarioError
from contextuality_kit.feasibility import solve_robust
from contextuality_kit.numerics import format_scalar, parse_and_evaluate

#: Environment of a child interpreter that imports the kit from this checkout.
KIT_ENV = dict(
    os.environ, PYTHONPATH=str(Path(contextuality_kit.__file__).resolve().parents[1])
)


def run_cli(*argv):
    stream = io.StringIO()
    code = run(list(argv), stream=stream)
    return code, stream.getvalue()


def run_json(*argv):
    code, text = run_cli(*argv, "--format", "json")
    return code, json.loads(text)


def bundled(name: str) -> str:
    return str(scenario_dir() / name)


def decimal_digits(n: int) -> str:
    """The decimal digits of ``n`` >= 0, 500 at a time, so within any digit limit."""
    chunks = []
    while n >= 10**500:
        n, low = divmod(n, 10**500)
        chunks.append(str(low).zfill(500))
    return str(n) + "".join(reversed(chunks))


#: E(A) = √2/3, E(B) = -√2/3, E(AB) = -1: realizable, with P(+-) = 1/2 + √2/6
#: and P(-+) = 1/2 - √2/6, but only on the face E(A) = -E(B), which the
#: bracket box is not inside.
REPRODUCER_1 = {
    "title": "bracketed targets on a face",
    "variables": ["A", "B"],
    "constraints": [
        {"moment": ["A"], "relation": "eq", "value": "sqrt(2)/3"},
        {"moment": ["B"], "relation": "eq", "value": "-sqrt(2)/3"},
        {"moment": ["A", "B"], "relation": "eq", "value": "-1"},
    ],
}


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

    def test_bell_infeasible_over_the_whole_bracket(self):
        code, report = run_json("check", "--scenario", bundled("bell.json"))
        assert code == EXIT_VIOLATION
        assert report["certificate"]["verified"] is True
        assert "endpoints" not in report

    def test_bracket_box_off_a_face_is_indeterminate(self, tmp_path):
        path = tmp_path / "face.json"
        path.write_text(json.dumps(REPRODUCER_1))
        for command in ("check", "margin"):
            code, report = run_json(command, "--scenario", str(path))
            assert (code, report["verdict"]) == (EXIT_INDETERMINATE, "indeterminate")
            assert report["margin"] == "0"

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
            (
                {
                    "variables": ["A", "B"],
                    "constraints": [{"moment": [["A"]], "relation": "eq", "value": "0"}],
                },
                "must list variable names",
            ),
            (
                {
                    "variables": ["A"],
                    "constraints": [{"moment": ["A"], "relation": "foo", "value": "0"}],
                },
                "constraint 0: unknown relation 'foo'",
            ),
            (
                {
                    "variables": ["A"],
                    "constraints": [{"moment": ["A"], "relation": [0] * 3000, "value": "0"}],
                },
                "constraint 0: unknown relation [0, 0, ",
            ),
            (
                {
                    "variables": ["A"],
                    "constraints": [{"moment": ["A", 0], "relation": "eq", "value": "0"}],
                },
                "constraint 0: moment subset ['A', 0] must list variable names",
            ),
            (
                {
                    "variables": ["A"],
                    "constraints": [{"moment": ["A"] * 3000, "relation": "eq", "value": "0"}],
                },
                "constraint 0: moment subset ['A', 'A', ",
            ),
            (
                {
                    "variables": ["A"],
                    "constraints": [{"moment": ["Z" * 5000], "relation": "eq", "value": "0"}],
                },
                "constraint 0: unknown variable 'ZZZ",
            ),
            (
                {
                    "variables": ["A"],
                    "kind": "k" * 5000,
                    "constraints": [{"moment": ["A"], "relation": "eq", "value": "0"}],
                },
                "unknown scenario kind 'kkk",
            ),
            (
                {
                    "variables": ["A", "B"],
                    "constraints": [
                        {"moment": ["A"], "relation": "eq", "value": "0"},
                        {"moment": ["A"], "relation": "le", "value": "1"},
                    ],
                },
                "constraint 1: duplicate moment constraint on ['A']",
            ),
        ],
        ids=[
            "numeric-value",
            "string-variables",
            "string-moment",
            "nested-moment",
            "unknown-relation",
            "long-list-relation",
            "non-name-in-moment",
            "long-moment",
            "long-unknown-variable",
            "long-kind",
            "duplicate-moment",
        ],
    )
    def test_malformed_document_is_input_error(self, tmp_path, document, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code, report = run_json("check", "--scenario", str(path))
        assert code == EXIT_USAGE
        assert report["verdict"] == "input-error"
        assert message in report["error"]
        # An over-long input is quoted by its start and its length.
        assert len(report["error"]) < 300

    @pytest.mark.parametrize(
        "value",
        ["(" * 330 + "1/2" + ")" * 330, "-" * 1200 + "1/2", "0+" * 1200 + "1/2"],
        ids=["deep-parentheses", "deep-negation", "long-sum"],
    )
    def test_deep_expression_is_input_error(self, tmp_path, value):
        path = tmp_path / "deep.json"
        path.write_text(
            json.dumps(
                {
                    "variables": ["A"],
                    "constraints": [{"moment": ["A"], "relation": "eq", "value": value}],
                }
            )
        )
        for argv in (
            ("check", "--scenario", str(path)),
            ("bell-system", f"--exy={value}", "--exz=0", "--eyz=0"),
        ):
            code, report = run_json(*argv)
            assert code == EXIT_USAGE
            assert report["verdict"] == "input-error"
            assert "nested too deeply" in report["error"]

    @staticmethod
    def _one_value(tmp_path, value):
        path = tmp_path / "value.json"
        constraints = [
            {"moment": ["A"], "relation": "eq", "value": "0"},
            {"moment": ["B"], "relation": "eq", "value": value},
        ]
        path.write_text(json.dumps({"variables": ["A", "B"], "constraints": constraints}))
        return path

    @pytest.mark.parametrize("value", ["\u0661/\u0662", "\uff11", "sqrt(\u0662)"])
    def test_non_ascii_digits_are_input_error(self, tmp_path, value):
        code, report = run_json("check", "--scenario", str(self._one_value(tmp_path, value)))
        assert code == EXIT_USAGE
        assert report["verdict"] == "input-error"
        assert "constraint 1" in report["error"] and "unexpected character" in report["error"]

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter converts integer strings of any length",
    )
    @pytest.mark.parametrize(
        "template, position", [("{}", 0), ("-1/{}", 0), ("1+{}", 2), ("(0.{})", 1)]
    )
    def test_literal_over_the_digit_limit_is_input_error(self, tmp_path, template, position):
        value = template.format("1" * (sys.get_int_max_str_digits() + 1))
        path = self._one_value(tmp_path, value)
        with pytest.raises(ScenarioError, match=f"constraint 1: .*at position {position}"):
            load_scenario(path)
        code, report = run_json("check", "--scenario", str(path))
        assert code == EXIT_USAGE
        assert report["verdict"] == "input-error"
        assert "number too long" in report["error"]
        assert "PYTHONINTMAXSTRDIGITS" in report["error"]

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter converts integer strings of any length",
    )
    def test_value_over_the_digit_limit_is_decided(self, tmp_path):
        # Each literal is within the limit; their product, the exact
        # target's denominator, is not.  It is decided and printed in full.
        literal = "3" * (sys.get_int_max_str_digits() // 2 + 50)
        path = self._one_value(tmp_path, f"1/{literal}/{literal}")
        scenario, _ = load_scenario(path)
        assert scenario.constraints[1].target.lo == Fraction(1, int(literal) ** 2)
        reports = {}
        for command in ("check", "margin"):
            code, reports[command] = run_json(command, "--scenario", str(path))
            assert (code, reports[command]["verdict"]) == (EXIT_PASS, "feasible")
        exact = reports["check"]["trace"][1]["target"]["exact"]
        assert exact == "1/" + decimal_digits(int(literal) ** 2)

    def test_missing_file(self):
        code, _ = run_json("check", "--scenario", "/nonexistent/file.json")
        assert code == EXIT_USAGE

    def test_deeply_nested_json_is_input_error(self, tmp_path):
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"variables": ' + "[" * depth + "]" * depth + ', "constraints": []}')
        for argv in (("check", "--scenario", str(path)), ("validate", "--file", str(path))):
            code, report = run_json(*argv)
            assert code == EXIT_USAGE
            assert report["verdict"] == "input-error"
            assert "JSON nested too deeply" in report["error"]

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

    @pytest.mark.parametrize("steps", ["1", "402", "100000"])
    def test_oracle_grid_out_of_range_is_input_error(self, steps):
        code, report = run_json(
            "check", "--scenario", bundled("ghz.json"), "--oracle", "--grid", steps
        )
        assert code == EXIT_USAGE
        assert report["verdict"] == "input-error"
        assert "steps per axis" in report["error"]

    @pytest.mark.parametrize("steps", ["5", "-3"])
    def test_grid_without_oracle_is_input_error(self, steps):
        code, report = run_json("check", "--scenario", bundled("ghz.json"), "--grid", steps)
        assert code == EXIT_USAGE
        assert report["verdict"] == "input-error"
        assert report["error"] == "--grid needs --oracle"

    def test_grid_zero_without_oracle_is_the_default(self):
        assert run_json("check", "--scenario", bundled("ghz.json"), "--grid", "0") == run_json(
            "check", "--scenario", bundled("ghz.json")
        )

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
        assert report["margin"] == "1/2"
        assert report["margin_approx"] == 0.5

    def test_feasible_margin(self):
        code, report = run_json(
            "margin", "--scenario", bundled("chsh-classical.json")
        )
        assert code == EXIT_PASS
        assert report["margin"] == "0"


class TestTargetsTooLargeForAFloat:
    """Exact values past the float range are decided; their floats are null."""

    @staticmethod
    def _one_target(tmp_path, value):
        path = tmp_path / "large.json"
        constraint = {"moment": ["A"], "relation": "eq", "value": value}
        path.write_text(json.dumps({"variables": ["A"], "constraints": [constraint]}))
        return str(path)

    def test_point_target(self, tmp_path):
        path = self._one_target(tmp_path, "1" + "0" * 400)
        code, report = run_json("margin", "--scenario", path)
        assert code == EXIT_VIOLATION
        assert report["margin"] == str(10**400 - 1)
        assert report["margin_approx"] is None
        code, report = run_json("check", "--scenario", path)
        assert code == EXIT_VIOLATION
        assert report["trace"][0]["target"]["exact"] == str(10**400)

    def test_bracketed_target(self, tmp_path):
        path = self._one_target(tmp_path, "sqrt(2)*1" + "0" * 400)
        tolerance = "1" + "0" * 400
        scenario, _ = load_scenario(path, Fraction(tolerance))
        target = scenario.constraints[0].target
        flags = ("--scenario", path, "--bracket-tolerance", tolerance)
        code, report = run_json("check", *flags)
        assert code == EXIT_VIOLATION
        assert report["trace"][0]["target"] == {
            "lo": format_scalar(target.lo), "hi": format_scalar(target.hi), "approx": None
        }
        code, report = run_json("margin", *flags)
        assert code == EXIT_VIOLATION
        assert report["margin"] == format_scalar(solve_robust(scenario).margin)
        assert report["margin_approx"] is None


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


@pytest.mark.parametrize(
    "tolerance, message",
    [
        ("sqrt(2)", "--bracket-tolerance must be an exact rational, got 'sqrt(2)'"),
        ("0", "--bracket-tolerance must be a positive rational"),
        ("-1/2", "--bracket-tolerance must be a positive rational"),
    ],
)
def test_bracket_tolerance_must_be_a_positive_rational(tolerance, message):
    code, report = run_json("check", "--scenario", bundled("ghz.json"), f"--bracket-tolerance={tolerance}")
    assert (code, report["error"]) == (EXIT_USAGE, message)


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

    def test_quantum_state_choices_match_the_builtin_states(self):
        assert QUANTUM_STATES == tuple(quantum.BUILTIN_STATES) + ("all",)

    def test_quantum(self):
        code, report = run_json("quantum", "--angle-degrees", "30")
        assert code == EXIT_PASS
        assert report["operator_identity"]["holds"] is True
        assert "max_entry_deviation" not in report["operator_identity"]
        for state in ("mermin", "alternate"):
            assert report["states"][state]["product_relation_holds"] is True
        mermin = report["states"]["mermin"]["expectations"]
        assert mermin["D"] == {"value": -1.0, "exact_form": "-1"}
        assert report["singlet"]["exact_form"] == "-1/2*sqrt(3)"

    def test_quantum_exact_form_only_on_the_table(self):
        for angle, form in (("36", "-(1+sqrt(5))/4"), ("0.001", None), ("30.0000001", None)):
            _, report = run_json("quantum", "--state", "mermin", f"--angle-degrees={angle}")
            assert report["singlet"]["exact_form"] == form, angle

    def test_quantum_correlation_reduces_the_angle_first(self):
        def singlet(angle):
            _, report = run_json("quantum", "--state", "mermin", f"--angle-degrees={angle}")
            return report["singlet"]

        # The float 3.6e18 is an exact multiple of 360.
        assert singlet("3600000000000000030") == {
            "angle_degrees": 3.6e18, "correlation": -1.0, "exact_form": "-1"
        }
        assert singlet("400")["correlation"] == singlet("40")["correlation"]
        assert singlet("-400")["correlation"] == singlet("40")["correlation"]

    @pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
    def test_quantum_rejects_a_non_finite_angle(self, angle):
        code, report = run_json("quantum", f"--angle-degrees={angle}")
        assert code == EXIT_USAGE
        assert report["verdict"] == "input-error"
        assert report["error"] == "--angle-degrees must be a finite number"


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

    def test_validate_names_a_malformed_atom_value(self, tmp_path):
        # One atom of a feasible report's witness is 5,000 x's: the error
        # names that atom and stays short.
        _, report = run_json("check", "--scenario", bundled("chsh-classical.json"))
        atom = sorted(report["witness"]["atoms"])[1]
        report["witness"]["atoms"][atom] = "x" * 5000
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        code, validated = run_json("validate", "--file", str(path))
        assert code == EXIT_USAGE
        assert validated["verdict"] == "input-error"
        assert f"for atom {atom!r} is not an integer or p/q" in validated["error"]
        assert len(validated["error"]) < 300

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
            (
                {"type": "atom-measure", "variables": ["A"], "atoms": {"+": "1/0", "-": "0"}},
                "zero denominator",
            ),
            (
                {
                    "type": "set-function",
                    "variables": ["A"],
                    "kind": "lower",
                    "entries": [{"event": [], "value": "1/0"}],
                },
                "zero denominator",
            ),
            (
                {"type": "atom-measure", "variables": ["A"], "atoms": {"+": "1e999999999", "-": "0"}},
                "not an integer or p/q",
            ),
            (
                {"type": "atom-measure", "variables": ["A"], "atoms": {"+": "x" * 5000, "-": "0"}},
                "exact scalar 'xxxx",
            ),
        ],
        ids=[
            "no-atoms",
            "numeric-atom",
            "string-variables",
            "zero-denominator-atom",
            "zero-denominator-entry",
            "exponent-atom",
            "long-atom",
        ],
    )
    def test_malformed_validate_document_is_input_error(self, tmp_path, document, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        code, report = run_json("validate", "--file", str(path))
        assert code == EXIT_USAGE
        assert report["verdict"] == "input-error"
        assert message in report["error"]
        assert len(report["error"]) < 300

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

    def test_margin_refuses_a_lower_kind_scenario(self, tmp_path):
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
        code, report = run_json("margin", "--scenario", str(path))
        assert code == EXIT_USAGE
        assert report["verdict"] == "input-error"
        assert "kind 'lower'" in report["error"]

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
    proc = subprocess.run(
        [sys.executable, "-m", "contextuality_kit.cli", "check", "--scenario", bundled("ghz.json")],
        capture_output=True,
        text=True,
        env=KIT_ENV,
        timeout=120,
    )
    assert proc.returncode == EXIT_VIOLATION
    assert "verdict: infeasible" in proc.stdout


@pytest.mark.parametrize(
    "name, code", [("bell.json", EXIT_VIOLATION), ("chsh-classical.json", EXIT_PASS)]
)
def test_closed_reader_exits_quietly_with_the_verdict(name, code):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "contextuality_kit.cli", "check", "--scenario",
             bundled(name), "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=KIT_ENV,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == code


# Runs cli.run in a fresh interpreter; prints the exit code, the kit's
# modules that the run loaded, and every module loaded at all.
_FRESH_RUN = """
import io, json, sys
from contextuality_kit import cli
code = cli.run(sys.argv[1:], stream=io.StringIO())
loaded = sorted(m for m in sys.modules if m.startswith("contextuality_kit"))
print(json.dumps({"code": code, "loaded": loaded, "all": sorted(sys.modules)}))
"""

DECISION_PATH = [
    "contextuality_kit",
    "contextuality_kit._record",
    "contextuality_kit.cli",
    "contextuality_kit.errors",
    "contextuality_kit.event_space",
    "contextuality_kit.feasibility",
    "contextuality_kit.measures",
    "contextuality_kit.numerics",
    "contextuality_kit.simplex",
]


def fresh_run(*argv, flags=()):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _FRESH_RUN, *argv],
        capture_output=True,
        text=True,
        env=KIT_ENV,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


#: Modules that only the other subcommands, the grid sweep and the
#: set-function witnesses need.
OFF_THE_DECISION_PATH = [
    "contextuality_kit.closed_form",
    "contextuality_kit.commands",
    "contextuality_kit.quantum",
    "contextuality_kit.set_functions",
    "contextuality_kit.sweep",
]


class TestImportLayout:
    def test_standard_check_loads_only_the_decision_path(self):
        result = fresh_run("check", "--scenario", bundled("chsh-classical.json"), "--format", "json")
        assert result["code"] == EXIT_PASS
        assert result["loaded"] == DECISION_PATH
        assert not set(OFF_THE_DECISION_PATH) & set(result["all"])

    def test_standard_check_loads_neither_dataclasses_nor_inspect(self):
        # -S: no site hooks, so only the kit's own imports count
        argv = ("check", "--scenario", bundled("ghz.json"), "--format", "json")
        result = fresh_run(*argv, flags=("-S",))
        assert result["code"] == EXIT_VIOLATION
        assert "dataclasses" not in result["all"]
        assert "inspect" not in result["all"]
        assert "typing" not in result["all"]

    def test_oracle_grid_check_loads_the_sweep(self):
        argv = ("check", "--scenario", bundled("ghz.json"), "--oracle", "--grid", "5")
        result = fresh_run(*argv, "--format", "json")
        assert result["code"] == EXIT_VIOLATION
        assert "contextuality_kit.sweep" in result["loaded"]
        assert "contextuality_kit.commands" in result["loaded"]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("margin", "--scenario", bundled("ghz.json")), EXIT_VIOLATION),
            (("mermin",), EXIT_VIOLATION),
            (("lower-ghz",), EXIT_PASS),
        ],
        ids=["margin", "mermin", "lower-ghz"],
    )
    def test_other_subcommands_load_the_commands_module(self, argv, code):
        result = fresh_run(*argv, "--format", "json")
        assert result["code"] == code
        assert "contextuality_kit.commands" in result["loaded"]
        assert "contextuality_kit.sweep" not in result["loaded"]

    def test_oracle_check_loads_the_closed_forms(self):
        result = fresh_run("check", "--scenario", bundled("ghz.json"), "--oracle", "--format", "json")
        assert result["code"] == EXIT_VIOLATION
        assert "contextuality_kit.closed_form" in result["loaded"]
        assert "contextuality_kit.quantum" not in result["loaded"]

    def test_lower_kind_check_loads_the_closed_forms(self, tmp_path):
        doc = {
            "kind": "lower",
            "variables": ["A", "B", "C"],
            "constraints": [
                {"moment": list(m), "relation": "eq", "value": v}
                for m, v in (("A", "1"), ("B", "1"), ("C", "1"), ("ABC", "-1"))
            ],
        }
        path = tmp_path / "lower.json"
        path.write_text(json.dumps(doc))
        result = fresh_run("check", "--scenario", str(path), "--format", "json")
        assert result["code"] == EXIT_PASS
        assert "contextuality_kit.closed_form" in result["loaded"]

    def test_quantum_command_loads_quantum(self):
        result = fresh_run("quantum", "--state", "mermin", "--format", "json")
        assert result["code"] == EXIT_PASS
        assert "contextuality_kit.quantum" in result["loaded"]


_BUNDLED = sorted(p.name for p in scenario_dir().iterdir() if p.name.endswith(".json"))


_INFEASIBLE = [
    "bell-perfect.json", "bell.json", "chsh.json", "ghz-epsilon-1-4.json",
    "ghz-epsilon-2-5.json", "ghz-epsilon-49-100.json", "ghz.json",
]


def _validate_report(tmp_path, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    return run_json("validate", "--file", str(path))


@pytest.mark.parametrize("name", _INFEASIBLE)
def test_validate_rechecks_the_certificate_of_an_infeasible_report(tmp_path, name):
    code, report = run_json("check", "--scenario", bundled(name))
    assert (code, report["verdict"]) == (EXIT_VIOLATION, "infeasible")
    code, validated = _validate_report(tmp_path, report)
    assert (code, validated["verdict"]) == (EXIT_PASS, "pass")
    assert [r["type"] for r in validated["results"]] == ["certificate"]


def test_validate_rejects_a_tampered_multiplier(tmp_path):
    _, report = run_json("check", "--scenario", bundled("ghz.json"))
    multipliers = report["certificate"]["multipliers"]
    # Every atom coefficient of the combined rows turns positive
    multipliers[0] = str(Fraction(multipliers[0]) + 10**6)
    code, validated = _validate_report(tmp_path, report)
    assert (code, validated["verdict"]) == (EXIT_VIOLATION, "violations")
    assert validated["results"][0]["violations"][0]["axiom"] == "farkas-certificate"


def test_validate_rejects_a_certificate_that_holds_only_at_the_corners(tmp_path):
    # A check report on REPRODUCER_1 from the two-corner rule, abridged:
    # its multipliers prove both corners infeasible, not the whole box.
    report = {
        "tool": {"name": "contextuality-kit", "version": "0.1.0"},
        "command": "check",
        "input": REPRODUCER_1,
        "bracket_tolerance": "1/1000000000000",
        "verdict": "infeasible",
        "margin": "1/2533274790395904",
        "witness": None,
        "certificate": {"multipliers": ["-1/3", "-1/3", "-1/3", "-1/3"], "verified": True},
    }
    code, validated = _validate_report(tmp_path, report)
    assert (code, validated["verdict"]) == (EXIT_VIOLATION, "violations")
    (result,) = validated["results"]
    assert result["type"] == "certificate" and result["passed"] is False
    assert result["violations"] == [
        {
            "axiom": "farkas-certificate",
            "message": "the multipliers do not prove the input infeasible over its brackets",
        }
    ]


@pytest.mark.parametrize("field", ["bracket_tolerance", "input"])
def test_validate_needs_the_input_behind_a_certificate(tmp_path, field):
    _, report = run_json("check", "--scenario", bundled("ghz.json"))
    del report[field]
    code, validated = _validate_report(tmp_path, report)
    assert (code, validated["verdict"]) == (EXIT_USAGE, "input-error")


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


def _ghz_shaped(tmp_path, values):
    """A three-singles-plus-triple scenario with the given E(A), E(B), E(C), E(ABC)."""
    doc = {
        "variables": ["A", "B", "C"],
        "constraints": [
            {"moment": list(m), "relation": "eq", "value": v}
            for m, v in zip(("A", "B", "C", "ABC"), values)
        ],
    }
    path = tmp_path / "ghz-shaped.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_oracle_reports_a_target_outside_the_closed_form_domain(tmp_path):
    path = _ghz_shaped(tmp_path, ("2", "1", "1", "-1"))
    plain_code, plain = run_json("check", "--scenario", path)
    oracle_code, oracle = run_json("check", "--scenario", path, "--oracle")
    assert (plain_code, plain["verdict"]) == (EXIT_VIOLATION, "infeasible")
    assert oracle_code == plain_code
    assert oracle["oracle"] == {"closed_form": {"outside_domain": "eA = 2 outside [-1, 1]"}}
    del oracle["oracle"]
    assert oracle == plain


_FEASIBLE = ["chsh-classical.json", "ghz-epsilon-1.json", "ghz-epsilon-1-2.json",
             "ghz-epsilon-3-4.json"]


@pytest.mark.parametrize("name", _FEASIBLE)
def test_validate_rechecks_the_witness_of_a_feasible_report(tmp_path, name):
    code, report = run_json("check", "--scenario", bundled(name))
    assert (code, report["verdict"]) == (EXIT_PASS, "feasible")
    code, validated = _validate_report(tmp_path, report)
    assert (code, validated["verdict"]) == (EXIT_PASS, "pass")
    assert [r["type"] for r in validated["results"]] == ["atom-measure", "witness-moments"]


def test_validate_rejects_a_witness_that_misses_the_targets(tmp_path):
    _, report = run_json("check", "--scenario", bundled("chsh-classical.json"))
    # The uniform distribution is a valid measure, but every correlation is 0
    atoms = report["witness"]["atoms"]
    report["witness"]["atoms"] = {signature: f"1/{len(atoms)}" for signature in atoms}
    code, validated = _validate_report(tmp_path, report)
    assert (code, validated["verdict"]) == (EXIT_VIOLATION, "violations")
    measure, moments = validated["results"]
    assert measure["passed"] is True
    assert moments["type"] == "witness-moments" and moments["passed"] is False
    assert len(moments["violations"]) == 4
    assert {v["axiom"] for v in moments["violations"]} == {"witness-moments"}


def _zero_mean_report(tmp_path):
    """The check report of E(A) = 0, feasible with the witness +: 1/2, -: 1/2."""
    path = tmp_path / "zero-mean.json"
    constraints = [{"moment": ["A"], "relation": "eq", "value": "0"}]
    path.write_text(json.dumps({"variables": ["A"], "constraints": constraints}))
    code, report = run_json("check", "--scenario", str(path))
    assert (code, report["verdict"]) == (EXIT_PASS, "feasible")
    return report


def _relabelled_upper_witness(tmp_path):
    # Atoms summing to 2 are a valid upper measure and still give E(A) = 0.
    report = _zero_mean_report(tmp_path)
    report["witness"].update(kind="upper-atoms", atoms={"+": "1", "-": "1"})
    return report, {"witness-kind"}


def _input_relabelled_lower(tmp_path):
    # A lower input skips the moment re-check, which E(A) = 1 would fail.
    report = _zero_mean_report(tmp_path)
    report["input"]["kind"] = "lower"
    report["witness"]["atoms"] = {"+": "1", "-": "0"}
    return report, {"witness-kind", "verdict-evidence"}


def _verdict_set_to(name, verdict):
    def tampered(tmp_path):
        _, report = run_json("check", "--scenario", bundled(name))
        assert report["verdict"] != verdict
        report["verdict"] = verdict
        return report, {"verdict-evidence"}

    return tampered


@pytest.mark.parametrize(
    "tamper",
    [
        _relabelled_upper_witness,
        _input_relabelled_lower,
        _verdict_set_to("ghz.json", "feasible"),
        _verdict_set_to("ghz.json", "indeterminate"),
        _verdict_set_to("chsh-classical.json", "infeasible"),
    ],
    ids=["upper-atoms-witness", "lower-input", "ghz-feasible", "ghz-indeterminate",
         "chsh-classical-infeasible"],
)
def test_validate_rejects_a_report_whose_evidence_does_not_fit(tmp_path, tamper):
    report, axioms = tamper(tmp_path)
    code, validated = _validate_report(tmp_path, report)
    assert (code, validated["verdict"]) == (EXIT_VIOLATION, "violations")
    evidence = validated["results"][-1]
    assert evidence["type"] == "report-evidence" and evidence["passed"] is False
    assert {v["axiom"] for v in evidence["violations"]} == axioms
    assert all(r["passed"] for r in validated["results"][:-1])


def test_validate_passes_an_indeterminate_check_report(tmp_path):
    # Neither a witness nor a certificate: only the verdict and its evidence are checked.
    path = tmp_path / "face.json"
    path.write_text(json.dumps(REPRODUCER_1))
    code, report = run_json("check", "--scenario", str(path))
    assert (code, report["verdict"]) == (EXIT_INDETERMINATE, "indeterminate")
    assert report["witness"] is None and report["certificate"] is None
    code, validated = _validate_report(tmp_path, report)
    assert (code, validated["verdict"]) == (EXIT_PASS, "pass")
    assert validated["results"] == []


def test_validate_still_refuses_a_check_report_without_its_input(tmp_path):
    # An input-error report echoes no input, so it has nothing to re-check.
    path = tmp_path / "zero.json"
    constraints = [{"moment": ["A"], "relation": "eq", "value": "1/0"}]
    path.write_text(json.dumps({"variables": ["A"], "constraints": constraints}))
    code, report = run_json("check", "--scenario", str(path))
    assert (code, report["verdict"]) == (EXIT_USAGE, "input-error")
    code, validated = _validate_report(tmp_path, report)
    assert (code, validated["verdict"]) == (EXIT_USAGE, "input-error")
    assert validated["error"].startswith("no validatable object found")



def _singlet_form(degrees: str) -> str:
    code, report = run_json("quantum", "--state", "mermin", "--angle-degrees", degrees)
    assert code == EXIT_PASS
    return report["singlet"]["exact_form"]


@pytest.mark.parametrize(
    "bundled_name, variables, fair, pairs",
    [
        ("bell.json", ["X", "Y", "Z"], ["X", "Y", "Z"], [("XY", "30"), ("XZ", "30"), ("YZ", "60")]),
        (
            "chsh.json",
            ["A1", "A2", "B1", "B2"],
            [],
            [(("A1", "B1"), "135"), (("A1", "B2"), "135"), (("A2", "B1"), "135"), (("A2", "B2"), "45")],
        ),
    ],
)
def test_quantum_forms_feed_check_to_the_bundled_verdict(tmp_path, bundled_name, variables, fair, pairs):
    """The paper's argument end to end: singlet predictions admit no joint distribution.

    Fair marginals (``fair`` at 0) and each pair's correlation at its
    analyzer angle, as ``quantum`` writes it, go into ``check``.
    """
    constraints = [{"moment": [v], "relation": "eq", "value": "0"} for v in fair]
    constraints += [
        {"moment": list(moment), "relation": "eq", "value": _singlet_form(degrees)}
        for moment, degrees in pairs
    ]
    path = tmp_path / "quantum.json"
    path.write_text(json.dumps({"variables": variables, "constraints": constraints}))
    code, report = run_json("check", "--scenario", str(path))
    assert (code, report["verdict"]) == (EXIT_VIOLATION, "infeasible")
    assert report["certificate"]["verified"] is True
    bundled_code, bundled_report = run_json("check", "--scenario", bundled(bundled_name))
    assert (bundled_code, bundled_report["verdict"]) == (code, report["verdict"])


# --- exact values longer than the interpreter's digit limit ----------------

#: Literals within a digit limit of 640 whose products are not, and the
#: exact value 1/(A·B) that a document writes as ``1/A/B``.
_A, _B, _C = "3" * 602, "7" * 601, "9" * 600
_AB = int(_A) * int(_B)
_TINY = f"1/{_A}/{_B}"


def _fraction_text(value: Fraction) -> str:
    return decimal_digits(value.numerator) + (
        "" if value.denominator == 1 else "/" + decimal_digits(value.denominator)
    )


@pytest.fixture
def digit_limit_640():
    """The interpreter converts ints of at most 640 digits to and from strings."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts integer strings of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


def _verdict(text: str, fmt: str) -> str:
    if fmt == "json":
        return json.loads(text)["verdict"]
    return text.splitlines()[1].removeprefix("verdict: ")


#: name: (moment targets, exit code, a computed value the reports print in full)
_LONG_DOCUMENTS = {
    "one-target": ({"A": _TINY}, EXIT_PASS, _fraction_text(Fraction(1, _AB))),
    "three-singles": (
        {"A": f"1/{_A}", "B": f"1/{_B}", "C": f"1/{_C}"}, EXIT_PASS, None
    ),
    "ghz-singles": (
        {"A": f"1-{_TINY}", "B": f"1-{_TINY}", "C": f"1-{_TINY}", "ABC": "-1"},
        EXIT_VIOLATION,
        _fraction_text(1 - Fraction(1, _AB)),
    ),
    "outside-domain": (
        {"A": f"1+{_TINY}", "B": "1", "C": "1", "ABC": "-1"},
        EXIT_VIOLATION,
        f"eA = {_fraction_text(1 + Fraction(1, _AB))} outside [-1, 1]",
    ),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", list(_LONG_DOCUMENTS))
def test_check_and_margin_print_values_over_the_digit_limit(tmp_path, digit_limit_640, name, fmt):
    targets, want, printed = _LONG_DOCUMENTS[name]
    path = tmp_path / f"{name}.json"
    constraints = [
        {"moment": list(moment), "relation": "eq", "value": value}
        for moment, value in targets.items()
    ]
    path.write_text(json.dumps({"variables": sorted(set("".join(targets))), "constraints": constraints}))
    verdict = "feasible" if want == EXIT_PASS else "infeasible"
    outputs = {}
    for command in (("check",), ("check", "--oracle"), ("margin",)):
        code, text = run_cli(*command, "--scenario", str(path), "--format", fmt)
        assert (code, _verdict(text, fmt)) == (want, verdict), command
        outputs[command] = text
    if printed is not None:
        assert printed in outputs[("check", "--oracle")]
    if name == "three-singles" and fmt == "json":
        report = json.loads(outputs[("check",)])
        assert max(len(v) for v in report["witness"]["atoms"].values()) > 640
        for entry in report["trace"]:
            assert entry["satisfied"] and entry["witness_moment"] == entry["target"]["exact"]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "argv, want",
    [
        (("bell-system", f"--exy={_TINY}", f"--exz={_TINY}", f"--eyz={_TINY}"), EXIT_PASS),
        (("upper-bell", f"--exy={_TINY}", f"--exz={_TINY}", f"--eyz={_TINY}"), EXIT_PASS),
        (("construct-symmetric", "--p", _TINY, "--q", _TINY), EXIT_PASS),
        (("ghz-epsilon", "--epsilon", _TINY, "--oracle"), EXIT_VIOLATION),
    ],
    ids=["bell-system", "upper-bell", "construct-symmetric", "ghz-epsilon"],
)
def test_closed_forms_print_values_over_the_digit_limit(digit_limit_640, argv, want, fmt):
    code, text = run_cli(*argv, "--format", fmt)
    assert code == want
    assert _fraction_text(Fraction(1, _AB)) in text
    if argv[0] == "ghz-epsilon" and fmt == "json":
        assert json.loads(text)["oracle"] == {"lp_verdict": "infeasible", "agrees": True}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_validate_prints_a_sum_over_the_digit_limit(tmp_path, digit_limit_640, fmt):
    path = tmp_path / "measure.json"
    atoms = {"+": f"1/{_A}", "-": f"1/{_B}"}
    path.write_text(json.dumps({"type": "atom-measure", "variables": ["A"], "atoms": atoms}))
    code, text = run_cli("validate", "--file", str(path), "--format", fmt)
    assert (code, _verdict(text, fmt)) == (EXIT_VIOLATION, "violations")
    total = Fraction(1, int(_A)) + Fraction(1, int(_B))
    assert f"atom values sum to {_fraction_text(total)}, expected 1" in text


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integer strings of any length",
)
@pytest.mark.parametrize(
    "field, named",
    [
        ("atom", "atom '++'"),
        ("multiplier", "multiplier 0"),
        ("bracket_tolerance", "bracket_tolerance"),
        ("entry", "entry 2"),
    ],
    ids=["atom", "multiplier", "bracket_tolerance", "entry"],
)
def test_validate_refuses_a_value_over_the_digit_limit(tmp_path, field, named):
    if field == "entry":
        _, report = run_json("lower-ghz")
    else:
        name = "ghz.json" if field == "multiplier" else "chsh-classical.json"
        _, report = run_json("check", "--scenario", bundled(name))
    long_value = "1/" + "1" * (sys.get_int_max_str_digits() + 1)
    if field == "atom":
        report["witness"]["atoms"]["++"] = long_value
    elif field == "multiplier":
        report["certificate"]["multipliers"][0] = long_value
    elif field == "entry":
        report["set_function"]["entries"][2]["value"] = long_value
    else:
        report["bracket_tolerance"] = long_value
    code, validated = _validate_report(tmp_path, report)
    assert (code, validated["verdict"]) == (EXIT_USAGE, "input-error")
    assert validated["error"].startswith(f"number too long: {named} has ")
    assert "PYTHONINTMAXSTRDIGITS" in validated["error"]


def _value_error(tmp_path, value):
    """The error of ``check`` on one constraint E(A) = ``value``."""
    path = tmp_path / "value.json"
    constraints = [{"moment": ["A"], "relation": "eq", "value": value}]
    path.write_text(json.dumps({"variables": ["A"], "constraints": constraints}))
    code, report = run_json("check", "--scenario", str(path))
    assert (code, report["verdict"]) == (EXIT_USAGE, "input-error")
    return report["error"]


@pytest.mark.parametrize(
    "value, message",
    [
        ("1/0" + "+1" * 38 + " ", "cannot evaluate {}: division by zero"),
        ("2+" * 39 + "x", "bad value expression {}: unknown identifier 'x' (at position 78)"),
    ],
    ids=["cannot-evaluate", "bad-expression"],
)
def test_a_value_of_at_most_80_characters_is_quoted_whole(tmp_path, value, message):
    assert len(value) <= 80
    assert _value_error(tmp_path, value) == "constraint 0: " + message.format(repr(value))


@pytest.mark.parametrize(
    "value, phrase",
    [("1/0" + "+1" * 39, "cannot evaluate"), ("2+" * 50 + "x", "bad value expression")],
    ids=["cannot-evaluate", "bad-expression"],
)
def test_a_longer_value_is_quoted_by_its_start_and_length(tmp_path, value, phrase):
    assert len(value) > 80
    error = _value_error(tmp_path, value)
    assert error.startswith(
        f"constraint 0: {phrase} {value[:40]!r}\u2026 ({len(value)} characters): "
    )
    assert value not in error


@pytest.mark.parametrize("name", ["chsh.json", "bell.json"])
def test_a_repeated_value_text_is_evaluated_once(monkeypatch, name):
    evaluated = []

    def counted(text, tolerance):
        evaluated.append(text)
        return parse_and_evaluate(text, tolerance)

    monkeypatch.setattr(cli, "parse_and_evaluate", counted)
    document = json.loads((scenario_dir() / name).read_text())
    texts = [raw["value"] for raw in document["constraints"]]
    assert len(set(texts)) < len(texts)
    scenario = scenario_from_document(document)
    assert sorted(evaluated) == sorted(set(texts))
    for constraint, text in zip(scenario.constraints, texts):
        assert constraint.target == parse_and_evaluate(text, DEFAULT_BRACKET_TOLERANCE)


@pytest.mark.parametrize(
    "value, message",
    [("1/0", "cannot evaluate '1/0': division by zero"), ("x", "bad value expression 'x'")],
    ids=["cannot-evaluate", "bad-expression"],
)
def test_a_repeated_bad_value_fails_at_its_first_constraint(value, message):
    def error(copies):
        constraints = [{"moment": ["A"], "relation": "eq", "value": "0"}] + [
            {"moment": ["A"], "relation": "eq", "value": value}
        ] * copies
        with pytest.raises(ScenarioError) as caught:
            scenario_from_document({"variables": ["A"], "constraints": constraints})
        return str(caught.value)

    assert error(3) == error(1)
    assert error(3).startswith("constraint 1: " + message)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integer strings of any length",
)
def test_a_value_over_the_digit_limit_gives_a_short_error(tmp_path):
    value = "1/" + "7" * 5000
    error = _value_error(tmp_path, value)
    assert len(error) < 400
    assert error.startswith("constraint 0: ")
    assert "(5002 characters)" in error and "PYTHONINTMAXSTRDIGITS" in error


@pytest.mark.parametrize(
    "value, shown",
    [
        ([0] * 3000, "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, \u2026 (9000 characters)"),
        ({"k": "1/2"}, "{'k': '1/2'}"),
        (3, "3"),
    ],
    ids=["long-list", "object", "number"],
)
def test_a_non_string_value_is_shown_like_a_string_one(tmp_path, value, shown):
    # Not quoted, so the number 3 and the string "3" read apart.
    error = _value_error(tmp_path, value)
    assert error == f'constraint 0: value must be an expression string such as "1/2", got {shown}'


def test_a_long_non_list_is_shown_by_its_start_and_length(tmp_path):
    path = tmp_path / "variables.json"
    path.write_text(json.dumps({"variables": {"A": [0] * 3000}, "constraints": []}))
    code, report = run_json("check", "--scenario", str(path))
    assert (code, report["verdict"]) == (EXIT_USAGE, "input-error")
    text = repr({"A": [0] * 3000})
    shown = f"{text[:40]}\u2026 ({len(text)} characters)"
    assert report["error"] == f"'variables' must be a list, got {shown}"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integer strings of any length",
)
@pytest.mark.parametrize("where", ["value", "variables"])
def test_an_int_over_the_digit_limit_is_shown_by_its_start_and_length(where):
    # Only a document built in Python can hold such an int; repr refuses it.
    big = 10**5000
    constraint = {"moment": ["A"], "relation": "eq", "value": big if where == "value" else "0"}
    document = {"variables": ["A"] if where == "value" else big, "constraints": [constraint]}
    with pytest.raises(ScenarioError) as caught:
        scenario_from_document(document)
    assert str(caught.value).endswith(f"got 1{'0' * 39}\u2026 (5001 characters)")


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integer strings of any length",
)
@pytest.mark.parametrize("command, flag", [("check", "--scenario"), ("validate", "--file")])
def test_a_bare_number_over_the_digit_limit_is_a_named_input_error(tmp_path, command, flag):
    path = tmp_path / "bare.json"
    constraint = '{"moment": ["A"], "relation": "eq", "value": ' + "7" * 5000 + "}"
    path.write_text('{"variables": ["A"], "constraints": [' + constraint + "]}")
    code, report = run_json(command, flag, str(path))
    assert (code, report["verdict"]) == (EXIT_USAGE, "input-error")
    assert report["error"].startswith(f"{path}: number too long: ")
    assert "PYTHONINTMAXSTRDIGITS" in report["error"] and len(report["error"]) < 300


def test_undecodable_bytes_stay_a_decoding_error(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe")
    code, report = run_json("check", "--scenario", str(path))
    assert (code, report["verdict"]) == (EXIT_USAGE, "input-error")
    assert "codec can't decode" in report["error"]


def test_validate_reads_a_long_witness_when_the_limit_is_lifted(tmp_path):
    # Three singles at 1/(10^1500 + k): the witness's atoms have up to
    # 4,501 digits, more than the interpreter reads by default.
    path = tmp_path / "found.json"
    constraints = [
        {"moment": [v], "relation": "eq", "value": f"1/{10**1500 + k}"}
        for v, k in (("A", 1), ("B", 3), ("C", 7))
    ]
    path.write_text(json.dumps({"variables": ["A", "B", "C"], "constraints": constraints}))
    for command in ("check", "margin"):
        code, report = run_json(command, "--scenario", str(path))
        assert (code, report["verdict"]) == (EXIT_PASS, "feasible")
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(run_json("check", "--scenario", str(path))[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "contextuality_kit.cli", "validate", "--file", str(report_path),
         "--format", "json"],
        capture_output=True,
        text=True,
        env=dict(KIT_ENV, PYTHONINTMAXSTRDIGITS="0"),
        timeout=120,
    )
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "pass"
