"""Command-line front end.

Subcommands map one-to-one onto the library operations; every run emits
a self-contained report (JSON or text) whose exact rational values make
independent re-verification possible from the report alone.  Reports
carry no timestamps, so identical inputs produce byte-identical output.

Exit codes: 0 feasible/pass, 1 infeasible/violation, 2 indeterminate,
3 usage or input error, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from importlib import resources

from . import __version__
from . import closed_form, feasibility, measures, quantum
from .errors import ExpressionError, KitError, ScenarioError
from .event_space import build_space
from .feasibility import (
    FEASIBLE,
    INDETERMINATE,
    INFEASIBLE,
    MomentConstraint,
    Scenario,
    certificate_to_json,
    oracle_grid_agreement,
    solve_robust,
    uniform_grid,
    verify_certificate,
)
from .measures import AtomMeasure, PartialSetFunction, validate
from .numerics import (
    DEFAULT_BRACKET_TOLERANCE,
    ScalarInterval,
    format_scalar,
    parse_and_evaluate,
)

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

_TOOL = {"name": "contextuality-kit", "version": __version__}


def scenario_dir():
    """Directory of the bundled scenario files."""
    return resources.files("contextuality_kit") / "scenarios"


def load_scenario(path, bracket_tolerance: Fraction = DEFAULT_BRACKET_TOLERANCE):
    """Load and fully validate a scenario file.

    Returns (scenario, echo) where echo is the parsed JSON document,
    suitable for embedding in reports.  Expression errors carry the
    constraint index and character position.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as err:
            raise ScenarioError(f"{path}: invalid JSON: {err}") from err
    return scenario_from_document(document, bracket_tolerance), document


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
        raise ScenarioError(f"unknown scenario kind {kind!r}")
    space = build_space(variables)
    constraints = []
    for index, raw in enumerate(raw_constraints):
        try:
            subset = raw["moment"]
            relation = raw["relation"]
            value_text = raw["value"]
        except (KeyError, TypeError) as err:
            raise ScenarioError(f"constraint {index}: malformed entry: {err}") from err
        _require_list(subset, f"constraint {index}: 'moment'")
        if not isinstance(value_text, str):
            # A JSON number is refused: a decimal one is already a rounded float.
            raise ScenarioError(
                f"constraint {index}: value must be an expression string"
                f" such as \"1/2\", got {value_text!r}"
            )
        try:
            target = parse_and_evaluate(value_text, bracket_tolerance)
        except ExpressionError as err:
            raise ScenarioError(
                f"constraint {index}: bad value expression {value_text!r}: {err}"
            ) from err
        except KitError as err:
            raise ScenarioError(
                f"constraint {index}: cannot evaluate {value_text!r}: {err}"
            ) from err
        constraints.append(MomentConstraint(tuple(subset), relation, target))
    return Scenario(space, tuple(constraints), kind, document.get("title"))


def _require_list(value, what: str) -> None:
    """Reject anything but a list, so a string is never split into names."""
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{what} must be a list, got {value!r}")


def _interval_json(iv: ScalarInterval) -> dict:
    data = {"lo": format_scalar(iv.lo), "hi": format_scalar(iv.hi)}
    if iv.is_point:
        data["exact"] = format_scalar(iv.lo)
    else:
        data["approx"] = float(iv.lo)
    return data


def _witness_json(witness: AtomMeasure | None):
    if witness is None:
        return None
    return witness.to_json_dict()


def _constraint_trace(scenario: Scenario, outcome) -> list[dict]:
    trace = []
    endpoint = outcome.endpoint or "lo"
    for c in scenario.constraints:
        entry = {
            "constraint": c.describe(),
            "relation": c.relation,
            "target": _interval_json(c.target),
        }
        if outcome.witness is not None:
            achieved = measures.signed_atom_sum(outcome.witness, c.subset)
            entry["witness_moment"] = format_scalar(achieved)
            entry["satisfied"] = c.holds_at(achieved, endpoint)
        trace.append(entry)
    return trace


def _certificate_section(scenario: Scenario, outcome) -> dict | None:
    if outcome.certificate is None:
        return None
    endpoint = outcome.endpoint or "lo"
    labels = ["normalization"] + [c.describe() for c in scenario.constraints]
    return {
        "rows": labels,
        "multipliers": certificate_to_json(outcome.certificate),
        "verified": verify_certificate(scenario, outcome.certificate, endpoint),
        "meaning": (
            "multipliers respect the row senses, combine the atom"
            " coefficients to <= 0 everywhere, and combine the targets to"
            " a strictly positive value; no nonnegative distribution can"
            " satisfy all rows"
        ),
    }


def _base_report(command: str, echo) -> dict:
    return {"tool": dict(_TOOL), "command": command, "input": echo}


def _ghz_witness_pattern(scenario: Scenario) -> bool:
    """Match the fixed witness pattern: three singles at 1, triple at -1."""
    return _ghz_moment_shape(scenario) == closed_form.GhzMoments.of(1, 1, 1, -1)


def _cmd_check(args) -> tuple[int, dict]:
    tolerance = _tolerance(args)
    scenario, echo = load_scenario(args.scenario, tolerance)
    report = _base_report("check", echo)
    report["bracket_tolerance"] = format_scalar(tolerance)
    if scenario.kind != "standard":
        if not _ghz_witness_pattern(scenario):
            raise ScenarioError(
                f"kind {scenario.kind!r} scenarios are supported only for the"
                " unit-singles / anticorrelated-triple witness pattern;"
                " use the lower-ghz or upper-ghz subcommands"
            )
        solver = (
            closed_form.solve_lower_ghz_witness
            if scenario.kind == "lower"
            else closed_form.solve_upper_ghz_witness
        )
        witness = solver()
        report["verdict"] = "witness-constructed"
        report["witness"] = witness.atom_measure.to_json_dict()
        report["set_function"] = witness.set_function.to_json_dict()
        report["trace"] = [
            {"check": r.description, "satisfied": r.satisfied, "detail": r.detail}
            for r in witness.trace
        ]
        return EXIT_PASS, report

    outcome = solve_robust(scenario)
    report["verdict"] = outcome.verdict
    report["margin"] = format_scalar(outcome.margin)
    report["witness"] = _witness_json(outcome.witness)
    certificate = _certificate_section(scenario, outcome)
    report["certificate"] = certificate
    report["trace"] = _constraint_trace(scenario, outcome)
    if outcome.endpoint_outcomes:
        report["endpoints"] = {
            name: {
                "verdict": sub.verdict,
                "margin": format_scalar(sub.margin),
            }
            for name, sub in outcome.endpoint_outcomes.items()
        }
    if args.oracle:
        report["oracle"] = _oracle_section(scenario, args)
    code = {
        FEASIBLE: EXIT_PASS,
        INFEASIBLE: EXIT_VIOLATION,
        INDETERMINATE: EXIT_INDETERMINATE,
    }[outcome.verdict]
    return code, report


def _oracle_section(scenario: Scenario, args) -> dict:
    section: dict = {}
    moments = _ghz_moment_shape(scenario)
    if moments is not None:
        check = closed_form.check_ghz_inequalities(moments)
        section["closed_form"] = {
            "passed": check.passed,
            "violated_inequality": check.violated_index,
            "value": None if check.value is None else format_scalar(check.value),
            "signed_sum": format_scalar(closed_form.ghz_sum(moments)),
        }
    else:
        section["closed_form"] = None
    if args.grid:
        grid_report = oracle_grid_agreement(uniform_grid(args.grid))
        section["grid"] = {
            "points": grid_report.total,
            "mismatches": [
                {
                    "p": format_scalar(m.p),
                    "q": format_scalar(m.q),
                    "lp_feasible": m.lp_feasible,
                    "closed_form_feasible": m.closed_form_feasible,
                }
                for m in grid_report.mismatches
            ],
            "agree": grid_report.agree,
        }
    return section


def _ghz_moment_shape(scenario: Scenario):
    """GhzMoments when the scenario is three singles plus the triple, rational."""
    if scenario.space.n != 3 or len(scenario.constraints) != 4:
        return None
    singles = {}
    triple = None
    for c in scenario.constraints:
        if c.relation != "eq" or not c.target.is_point:
            return None
        if len(c.subset) == 1:
            singles[c.subset[0]] = c.target.lo
        elif len(c.subset) == 3:
            triple = c.target.lo
    if len(singles) != 3 or triple is None:
        return None
    a, b, c_ = (singles[v] for v in scenario.space.variables)
    return closed_form.GhzMoments(a, b, c_, triple)


def _cmd_margin(args) -> tuple[int, dict]:
    tolerance = _tolerance(args)
    scenario, echo = load_scenario(args.scenario, tolerance)
    report = _base_report("margin", echo)
    report["bracket_tolerance"] = format_scalar(tolerance)
    lo, hi, agree = feasibility.decide_endpoints(
        lambda endpoint: feasibility.margin(scenario, endpoint),
        scenario.has_interval_targets,
        lambda m: m == 0,
    )
    hi = lo if hi is None else hi
    report["margin_lo"] = format_scalar(lo)
    report["margin_hi"] = format_scalar(hi)
    report["margin_approx"] = float(min(lo, hi))
    if not agree:
        verdict, code = INDETERMINATE, EXIT_INDETERMINATE
    elif lo == 0:
        verdict, code = FEASIBLE, EXIT_PASS
    else:
        verdict, code = INFEASIBLE, EXIT_VIOLATION
    report["verdict"] = verdict
    return code, report


def _parse_rational_flag(text: str, flag: str) -> Fraction:
    interval = parse_and_evaluate(text)
    if not interval.is_point:
        raise ScenarioError(f"{flag} must be an exact rational, got {text!r}")
    return interval.lo


def _cmd_construct_symmetric(args) -> tuple[int, dict]:
    p = _parse_rational_flag(args.p, "--p")
    q = _parse_rational_flag(args.q, "--q")
    report = _base_report("construct-symmetric", {"p": str(p), "q": str(q)})
    try:
        witness, measure = closed_form.construct_symmetric_joint(
            closed_form.SymmetricParams(p, q)
        )
    except KitError as err:
        report["verdict"] = "no-witness"
        report["reason"] = str(err)
        return EXIT_VIOLATION, report
    report["verdict"] = "constructed"
    report["weights"] = {
        "x": format_scalar(witness.x),
        "y": format_scalar(witness.y),
        "z": format_scalar(witness.z),
        "w": format_scalar(witness.w),
    }
    report["witness"] = measure.to_json_dict()
    report["moments"] = {
        "single": format_scalar(2 * p - 1),
        "triple": format_scalar(2 * q - 1),
    }
    return EXIT_PASS, report


def _cmd_ghz_epsilon(args) -> tuple[int, dict]:
    eps = _parse_rational_flag(args.epsilon, "--epsilon")
    try:
        result = closed_form.check_noise_threshold(eps)
    except ValueError as err:
        raise ScenarioError(str(err)) from err
    report = _base_report("ghz-epsilon", {"epsilon": str(eps)})
    report["signed_sum"] = format_scalar(result.statistic)
    report["verdict"] = FEASIBLE if result.feasible else INFEASIBLE
    report["threshold"] = "feasible exactly when epsilon >= 1/2"
    if args.oracle:
        scenario = feasibility.make_scenario(
            ["A", "B", "C"],
            [
                (["A"], "eq", 1 - eps),
                (["B"], "eq", 1 - eps),
                (["C"], "eq", 1 - eps),
                (["A", "B", "C"], "eq", -1 + eps),
            ],
        )
        outcome = solve_robust(scenario)
        report["oracle"] = {
            "lp_verdict": outcome.verdict,
            "agrees": (outcome.verdict == FEASIBLE) == result.feasible,
        }
    return (EXIT_PASS if result.feasible else EXIT_VIOLATION), report


def _cmd_mermin(args) -> tuple[int, dict]:
    result = closed_form.mermin_assignment_check()
    report = _base_report("mermin", {})
    report["assignments"] = result.total
    report["satisfying"] = result.satisfying
    report["product_identity_holds"] = result.product_identity_holds
    report["summary"] = (
        f"{result.satisfying} of {result.total} sign assignments give"
        " A = B = C = 1 with D = -1; the product identity A*B*C = D holds"
        f" for {result.product_identity_holds} of {result.total}"
    )
    report["verdict"] = "contradiction" if result.satisfying == 0 else "satisfiable"
    return (
        EXIT_VIOLATION if result.satisfying == 0 else EXIT_PASS
    ), report


def _bell_moments_from_args(args) -> tuple[closed_form.BellMoments, dict, Fraction]:
    tolerance = _tolerance(args)
    echo = {"exy": args.exy, "exz": args.exz, "eyz": args.eyz}
    moments = closed_form.BellMoments(
        parse_and_evaluate(args.exy, tolerance),
        parse_and_evaluate(args.exz, tolerance),
        parse_and_evaluate(args.eyz, tolerance),
    )
    return moments, echo, tolerance


def _conditionals_json(conditionals) -> list[dict]:
    return [
        {"conditional": c.describe(), "value": format_scalar(c.value)}
        for c in conditionals
    ]


def _cmd_bell_system(args) -> tuple[int, dict]:
    moments, echo, tolerance = _bell_moments_from_args(args)
    outcome = closed_form.solve_bell_conditionals(moments)
    report = _base_report("bell-system", echo)
    report["bracket_tolerance"] = format_scalar(tolerance)
    report["verdict"] = outcome.status
    if outcome.status == closed_form.SOLUTION:
        report["conditionals"] = _conditionals_json(outcome.conditionals)
        code = EXIT_PASS
    elif outcome.status == closed_form.NO_SOLUTION:
        report["failed_stage"] = outcome.failed_stage
        report["detail"] = outcome.detail
        code = EXIT_VIOLATION
    else:
        code = EXIT_INDETERMINATE
    if outcome.endpoint_outcomes:
        report["endpoints"] = [
            {"status": o.status, "failed_stage": o.failed_stage}
            for o in outcome.endpoint_outcomes
        ]
    return code, report


def _cmd_upper_bell(args) -> tuple[int, dict]:
    moments, echo, tolerance = _bell_moments_from_args(args)
    solution = closed_form.solve_upper_bell_conditionals(moments)
    report = _base_report("upper-bell", echo)
    report["bracket_tolerance"] = format_scalar(tolerance)
    if moments.has_interval_targets:
        # The conditionals are solved at the lower bracket ends.
        report["endpoint"] = "lo"
    report["verdict"] = "solution"
    report["conditionals"] = _conditionals_json(solution.conditionals)
    report["atom_uppers"] = solution.atom_uppers.to_json_dict()
    report["trace"] = [
        {"check": r.description, "satisfied": r.satisfied, "detail": r.detail}
        for r in solution.trace
    ]
    return EXIT_PASS, report


def _witness_report(command: str, witness: closed_form.GhzWitness) -> dict:
    report = _base_report(command, {})
    report["verdict"] = "witness-constructed"
    report["witness"] = witness.atom_measure.to_json_dict()
    report["set_function"] = witness.set_function.to_json_dict()
    report["expectations"] = {
        "atom_level_product": format_scalar(
            measures.signed_atom_sum(
                witness.atom_measure, witness.atom_measure.space.variables
            )
        ),
        "event_level_singles": {
            v: format_scalar(witness.set_function.event_level_single_expectation(v))
            for v in witness.atom_measure.space.variables
        },
    }
    report["trace"] = [
        {"check": r.description, "satisfied": r.satisfied, "detail": r.detail}
        for r in witness.trace
    ]
    monotonicity = measures.check_monotonicity(witness.set_function)
    report["monotonicity_violations"] = [
        {
            "smaller": witness.set_function.label(v.smaller),
            "larger": witness.set_function.label(v.larger),
            "smaller_value": format_scalar(v.smaller_value),
            "larger_value": format_scalar(v.larger_value),
        }
        for v in monotonicity
    ]
    return report


def _cmd_lower_ghz(args) -> tuple[int, dict]:
    witness = closed_form.solve_lower_ghz_witness()
    return EXIT_PASS, _witness_report("lower-ghz", witness)


def _cmd_upper_ghz(args) -> tuple[int, dict]:
    witness = closed_form.solve_upper_ghz_witness()
    report = _witness_report("upper-ghz", witness)
    lower = closed_form.solve_lower_ghz_witness()
    conjugacy = measures.check_conjugacy(witness.set_function, lower.set_function)
    report["conjugacy_with_lower"] = {
        "checked": conjugacy.checked,
        "vacuous": conjugacy.vacuous,
        "violations": [
            {
                "event": witness.set_function.label(v.event),
                "upper_value": format_scalar(v.upper_value),
                "one_minus_lower_of_complement": format_scalar(
                    v.one_minus_lower_of_complement
                ),
            }
            for v in conjugacy.violations
        ],
    }
    return EXIT_PASS, report


def _cmd_quantum(args) -> tuple[int, dict]:
    report = _base_report(
        "quantum", {"state": args.state, "angle_degrees": args.angle_degrees}
    )
    states = (
        quantum.BUILTIN_STATES
        if args.state == "all"
        else {args.state: quantum.BUILTIN_STATES[args.state]}
    )
    sections = {}
    for name, factory in states.items():
        values = quantum.ghz_expectations(factory())
        product = values["A"] * values["B"] * values["C"]
        sections[name] = {
            "expectations": {
                op: {
                    "value": v,
                    "exact_form": quantum.nearest_exact_form(v),
                }
                for op, v in values.items()
            },
            "product_relation_holds": abs(product + values["D"]) <= 1e-9,
        }
    report["states"] = sections
    ops = quantum.ghz_operators()
    deviation = 0.0
    for basis in range(ops["D"].dimension):
        image, phase = basis, 1
        for name in ("C", "B", "A"):
            image, step = ops[name].apply(image)
            phase *= step
        d_image, d_phase = ops["D"].apply(basis)
        # Column `basis` of A·B·C + D: one entry when the images agree,
        # otherwise two entries of modulus 1.
        column = abs(phase + d_phase) if image == d_image else 1.0
        deviation = max(deviation, column)
    report["operator_identity"] = {
        "statement": "A·B·C = -D as 8x8 matrices",
        "max_entry_deviation": deviation,
        "holds": deviation <= quantum.TOLERANCE,
    }
    if args.angle_degrees is not None:
        theta = math.radians(args.angle_degrees)
        value = quantum.singlet_correlation(theta)
        report["singlet"] = {
            "angle_degrees": args.angle_degrees,
            "correlation": value,
            "exact_form": quantum.nearest_exact_form(value),
        }
    return EXIT_PASS, report


def _cmd_validate(args) -> tuple[int, dict]:
    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as err:
            raise ScenarioError(f"{args.file}: invalid JSON: {err}") from err
    candidates = []
    if isinstance(document, dict):
        if document.get("type") == "atom-measure":
            candidates.append(document)
        elif document.get("type") == "set-function":
            candidates.append(document)
        else:
            for key in ("witness", "set_function", "atom_uppers"):
                section = document.get(key)
                if isinstance(section, dict) and "type" in section:
                    candidates.append(section)
    if not candidates:
        raise ScenarioError(
            "no validatable object found: expected an atom-measure or"
            " set-function document, or a report embedding one"
        )
    report = _base_report("validate", document)
    results = []
    all_passed = True
    for section in candidates:
        try:
            _require_list(section["variables"], "'variables'")
            if section["type"] == "atom-measure":
                obj = AtomMeasure.from_json_dict(section)
            else:
                obj = PartialSetFunction.from_json_dict(section)
        except KeyError as err:
            raise ScenarioError(
                f"{section['type']} document is missing the {err.args[0]!r} field"
            ) from err
        except (AttributeError, TypeError) as err:
            raise ScenarioError(f"malformed {section['type']} document: {err}") from err
        outcome = validate(obj)
        all_passed = all_passed and outcome.passed
        results.append(
            {
                "type": section["type"],
                "kind": section.get("kind"),
                "passed": outcome.passed,
                "violations": [
                    {"axiom": v.axiom, "message": v.message}
                    for v in outcome.violations
                ],
            }
        )
    report["results"] = results
    report["verdict"] = "pass" if all_passed else "violations"
    return (EXIT_PASS if all_passed else EXIT_VIOLATION), report


def _tolerance(args) -> Fraction:
    text = getattr(args, "bracket_tolerance", None)
    if text is None:
        return DEFAULT_BRACKET_TOLERANCE
    interval = parse_and_evaluate(text)
    if not interval.is_point or interval.lo <= 0:
        raise ScenarioError("--bracket-tolerance must be a positive rational")
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
    p.add_argument("--grid", type=int, default=0, metavar="N",
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
        choices=tuple(quantum.BUILTIN_STATES) + ("all",),
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


_HANDLERS = {
    "check": _cmd_check,
    "margin": _cmd_margin,
    "construct-symmetric": _cmd_construct_symmetric,
    "ghz-epsilon": _cmd_ghz_epsilon,
    "mermin": _cmd_mermin,
    "bell-system": _cmd_bell_system,
    "upper-bell": _cmd_upper_bell,
    "lower-ghz": _cmd_lower_ghz,
    "upper-ghz": _cmd_upper_ghz,
    "quantum": _cmd_quantum,
    "validate": _cmd_validate,
}


def run(argv=None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_PASS if err.code == 0 else EXIT_USAGE
    try:
        code, report = _HANDLERS[args.command](args)
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
    if fmt == "json":
        json.dump(report, stream, indent=2)
        stream.write("\n")
    else:
        _emit_text(report, stream)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
