"""Command-line front end.

Subcommands map one-to-one onto the library operations; every run emits
a self-contained report (JSON or text) whose exact rational values make
independent re-verification possible from the report alone.  Reports
carry no timestamps, so identical inputs produce byte-identical output.

Exit codes: 0 feasible/pass, 1 infeasible/violation, 2 indeterminate,
3 usage or input error, 4 internal error.

This module holds the parser, :func:`run`, the scenario loader, the
report helpers and the ``check`` handler.  A standard ``check`` runs on
the decision path alone (``feasibility``, ``simplex``, ``measures``,
``numerics``, ``event_space``, ``_record``).  Every other subcommand,
``check --oracle`` and ``check`` on a lower or upper scenario go through
``commands``, which :func:`run` imports on first use; it in turn
imports ``closed_form`` and ``quantum`` inside the handlers that use
them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from . import measures
from .errors import ExpressionError, KitError, ScenarioError
from .event_space import build_space
from .feasibility import (
    FEASIBLE,
    INDETERMINATE,
    INFEASIBLE,
    MomentConstraint,
    Scenario,
    solve_robust,
    verify_certificate,
)
from .numerics import (
    DEFAULT_BRACKET_TOLERANCE,
    ScalarInterval,
    format_scalar,
    parse_and_evaluate,
    quoted,
)

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

#: The exit code of each verdict of a standard decision.
EXIT_OF_VERDICT = {
    FEASIBLE: EXIT_PASS,
    INFEASIBLE: EXIT_VIOLATION,
    INDETERMINATE: EXIT_INDETERMINATE,
}

_TOOL = {"name": "contextuality-kit", "version": __version__}

#: ``quantum --state`` choices: ``quantum.BUILTIN_STATES`` plus "all",
#: written out so that building the parser does not import ``quantum``.
QUANTUM_STATES = ("mermin", "alternate", "all")


def scenario_dir():
    """Directory of the bundled scenario files."""
    from importlib import resources

    return resources.files("contextuality_kit") / "scenarios"


def load_scenario(path, bracket_tolerance: Fraction = DEFAULT_BRACKET_TOLERANCE):
    """Load and fully validate a scenario file.

    Returns (scenario, echo) where echo is the parsed JSON document,
    suitable for embedding in reports.  Expression errors carry the
    constraint index and character position.
    """
    with open(path, "r", encoding="utf-8") as fh:
        document = _load_json(fh, path)
    return scenario_from_document(document, bracket_tolerance), document


def _load_json(fh, path):
    try:
        text = fh.read()
    except UnicodeDecodeError as err:
        raise ScenarioError(
            f"{path}: not UTF-8: byte {err.object[err.start]:#04x} at offset {err.start}"
        ) from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"{path}: invalid JSON: {err}") from err
    except RecursionError as err:
        raise ScenarioError(f"{path}: JSON nested too deeply") from err
    except ValueError as err:
        # The text is read, so the one other ValueError is a bare
        # integer longer than int() converts.
        raise ScenarioError(
            f"{path}: number too long: a JSON integer has more than"
            f" {sys.get_int_max_str_digits()} digits, the most this interpreter"
            " reads; PYTHONINTMAXSTRDIGITS=0 in the environment lifts the limit"
        ) from err


def scenario_from_document(
    document, bracket_tolerance: Fraction = DEFAULT_BRACKET_TOLERANCE
) -> Scenario:
    if not isinstance(document, dict):
        raise ScenarioError("scenario document must be a JSON object")
    try:
        variables = document["variables"]
        raw_constraints = document["constraints"]
    except KeyError as err:
        raise ScenarioError(f"scenario is missing the {err.args[0]!r} field") from err
    _require_list(variables, "'variables'")
    _require_list(raw_constraints, "'constraints'")
    kind = document.get("kind", "standard")
    if kind not in ("standard", "lower", "upper"):
        raise ScenarioError(f"unknown scenario kind {quoted(kind)}")
    space = build_space(variables)
    constraints = []
    # Each distinct value text is evaluated once; a ScalarInterval is immutable.
    targets = {}
    for index, raw in enumerate(raw_constraints):
        if not isinstance(raw, dict):
            raise ScenarioError(f"constraint {index} must be an object, got {quoted(raw)}")
        try:
            subset = raw["moment"]
            relation = raw["relation"]
            value_text = raw["value"]
        except KeyError as err:
            raise ScenarioError(f"constraint {index}: malformed entry: {err}") from err
        _require_list(subset, f"constraint {index}: 'moment'")
        if not isinstance(value_text, str):
            # A JSON number is refused: a decimal one is already a rounded float.
            raise ScenarioError(
                f"constraint {index}: value must be an expression string"
                f" such as \"1/2\", got {quoted(value_text)}"
            )
        target = targets.get(value_text)
        if target is None:
            target = _evaluated(value_text, bracket_tolerance, f"constraint {index}")
            targets[value_text] = target
        try:
            constraints.append(MomentConstraint(tuple(subset), relation, target))
        except ScenarioError as err:
            raise ScenarioError(f"constraint {index}: {err}") from err
    return Scenario(space, tuple(constraints), kind, document.get("title"))


def _require_list(value, what: str) -> None:
    """Reject anything but a list, so a string is never split into names."""
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{what} must be a list, got {quoted(value)}")


def _approx(value: Fraction) -> float | None:
    """``float(value)``, or None when the value is too large for a float."""
    try:
        return float(value)
    except OverflowError:
        return None


def _interval_json(iv: ScalarInterval) -> dict:
    data = {"lo": format_scalar(iv.lo), "hi": format_scalar(iv.hi)}
    if iv.is_point:
        data["exact"] = format_scalar(iv.lo)
    else:
        data["approx"] = _approx(iv.lo)
    return data


def _constraint_trace(scenario: Scenario, outcome) -> list[dict]:
    trace = []
    moments = [None] * len(scenario.constraints)
    if outcome.witness is not None:
        moments = measures.signed_atom_sums(
            outcome.witness, [c.subset for c in scenario.constraints]
        )
    for c, achieved in zip(scenario.constraints, moments):
        entry = {
            "constraint": c.describe(),
            "relation": c.relation,
            "target": _interval_json(c.target),
        }
        if outcome.witness is not None:
            entry["witness_moment"] = format_scalar(achieved)
            entry["satisfied"] = c.holds(achieved)
        trace.append(entry)
    return trace


def _certificate_section(scenario: Scenario, outcome) -> dict | None:
    if outcome.certificate is None:
        return None
    labels = ["normalization"] + [c.describe() for c in scenario.constraints]
    return {
        "rows": labels,
        "multipliers": [format_scalar(y) for y in outcome.certificate],
        "verified": verify_certificate(scenario, outcome.certificate),
        "meaning": (
            "multipliers respect the row senses, combine the atom"
            " coefficients to <= 0 everywhere, and combine the targets to"
            " a strictly positive value; no nonnegative distribution can"
            " satisfy all rows"
        ),
    }


def _base_report(command: str, echo) -> dict:
    return {"tool": dict(_TOOL), "command": command, "input": echo}


def _cmd_check(args) -> tuple[int, dict]:
    if args.grid is not None and not args.oracle:
        raise ScenarioError("--grid needs --oracle")
    tolerance = _tolerance(args)
    scenario, echo = load_scenario(args.scenario, tolerance)
    report = _base_report("check", echo)
    report["bracket_tolerance"] = format_scalar(tolerance)
    if scenario.kind != "standard":
        from . import commands

        return commands._check_witness_kind(scenario, report)

    outcome = solve_robust(scenario)
    report["verdict"] = outcome.verdict
    report["margin"] = format_scalar(outcome.margin)
    report["witness"] = None if outcome.witness is None else outcome.witness.to_json_dict()
    certificate = _certificate_section(scenario, outcome)
    report["certificate"] = certificate
    report["trace"] = _constraint_trace(scenario, outcome)
    if args.oracle:
        from . import commands

        report["oracle"] = commands._oracle_section(scenario, args)
    return EXIT_OF_VERDICT[outcome.verdict], report


def _tolerance(args) -> Fraction:
    text = getattr(args, "bracket_tolerance", None)
    if text is None:
        return DEFAULT_BRACKET_TOLERANCE
    tolerance = _parse_rational_flag(text, "--bracket-tolerance")
    if tolerance <= 0:
        raise ScenarioError("--bracket-tolerance must be a positive rational")
    return tolerance


def _evaluated(text: str, bracket_tolerance: Fraction, where: str) -> ScalarInterval:
    """``parse_and_evaluate(text)``; an error names ``where`` and quotes the text.

    ``where`` is a constraint (``constraint 3``) or a flag (``--p``).
    """
    try:
        return parse_and_evaluate(text, bracket_tolerance)
    except KitError as err:
        what = "bad value expression" if isinstance(err, ExpressionError) else "cannot evaluate"
        raise ScenarioError(f"{where}: {what} {quoted(text)}: {err}") from err


def _parse_rational_flag(text: str, flag: str) -> Fraction:
    """The exact rational value of a flag's expression."""
    interval = _evaluated(text, DEFAULT_BRACKET_TOLERANCE, flag)
    if not interval.is_point:
        raise ScenarioError(f"{flag} must be an exact rational, got {quoted(text)}")
    return interval.lo


def _emit_text(report: dict, stream) -> None:
    def walk(value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            for k, v in value.items():
                if isinstance(v, (dict, list)):
                    print(f"{pad}{k}:", file=stream)
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}", file=stream)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, (dict, list)):
                    print(f"{pad}-", file=stream)
                    walk(item, indent + 1)
                else:
                    print(f"{pad}- {item}", file=stream)

    header = f"{report['tool']['name']} {report['tool']['version']} :: {report['command']}"
    print(header, file=stream)
    if "verdict" in report:
        print(f"verdict: {report['verdict']}", file=stream)
    body = {k: v for k, v in report.items() if k not in ("tool", "command", "verdict")}
    walk(body)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextuality-kit",
        description=(
            "Decide whether expectation constraints on ±1 random variables"
            " admit a joint probability distribution, with exact witnesses"
            " and certificates; construct nonadditive upper/lower"
            " probability witnesses when none exists."
        ),
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    # The same flag is accepted after the subcommand; SUPPRESS keeps an
    # absent subcommand-level flag from clobbering the top-level value.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default=argparse.SUPPRESS,
        help="report format",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    def add_tolerance(p):
        p.add_argument(
            "--bracket-tolerance",
            default=None,
            metavar="EXPR",
            help="bracket width for irrational values (default 1/10^12)",
        )

    p = add_parser("check", help="decide joint-distribution existence for a scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--oracle", action="store_true", help="add closed-form cross-check")
    p.add_argument("--grid", type=int, default=None, metavar="N",
                   help="with --oracle: sweep an NxN symmetric parameter grid")
    add_tolerance(p)

    p = add_parser("margin", help="least uniform target relaxation restoring feasibility")
    p.add_argument("--scenario", required=True)
    add_tolerance(p)

    p = add_parser("construct-symmetric", help="explicit symmetric joint distribution")
    p.add_argument("--p", required=True, help="P(single variable = +1), exact rational")
    p.add_argument("--q", required=True, help="P(triple product = +1), exact rational")

    p = add_parser("ghz-epsilon", help="noise threshold for degraded GHZ correlations")
    p.add_argument("--epsilon", required=True, help="noise level in [0, 1], exact rational")
    p.add_argument("--oracle", action="store_true", help="cross-check against the LP engine")

    add_parser("mermin", help="enumerate deterministic sign assignments")

    for name, help_text in (
        ("bell-system", "conditional-expectation system for pairwise correlations"),
        ("upper-bell", "conditional upper expectations for pairwise correlations"),
    ):
        p = add_parser(name, help=help_text)
        for flag in ("--exy", "--exz", "--eyz"):
            p.add_argument(
                flag,
                required=True,
                metavar="EXPR",
                help=f"pairwise correlation; write {flag}=-1/2 for negative values",
            )
        add_tolerance(p)

    add_parser("lower-ghz", help="lower-probability witness for the GHZ expectations")
    add_parser("upper-ghz", help="upper-probability witness for the GHZ expectations")

    p = add_parser("quantum", help="quantum expectations of the GHZ observables")
    p.add_argument(
        "--state",
        choices=QUANTUM_STATES,
        default="all",
    )
    p.add_argument(
        "--angle-degrees",
        type=float,
        default=None,
        help="also report the singlet correlation at this analyzer angle",
    )

    p = add_parser("validate", help="validate a witness or report file")
    p.add_argument("--file", required=True)

    return parser


def _handler(command: str):
    """``check``'s handler is here; every other one is in ``commands``."""
    if command == "check":
        return _cmd_check
    from . import commands

    return commands.HANDLERS[command]


def run(argv=None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_PASS if err.code == 0 else EXIT_USAGE
    try:
        code, report = _handler(args.command)(args)
    except (KitError, ValueError, OSError) as err:
        error_report = {
            "tool": dict(_TOOL),
            "command": args.command,
            "error": str(err),
            "verdict": "input-error",
        }
        _print_report(error_report, args.format, stream)
        return EXIT_USAGE
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL
    _print_report(report, args.format, stream)
    return code


def _print_report(report: dict, fmt: str, stream) -> None:
    """Write the report; when its reader has gone, drop it quietly."""
    try:
        if fmt == "json":
            json.dump(report, stream, indent=2)
            stream.write("\n")
        else:
            _emit_text(report, stream)
        stream.flush()
    except BrokenPipeError:
        # Point the descriptor at /dev/null, so that the interpreter's
        # final flush of what is still buffered cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
