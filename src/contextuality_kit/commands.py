"""The CLI's subcommands other than ``check``, and ``check``'s extras.

``cli.run`` imports this module the first time it needs it: for any
subcommand but ``check``, for ``check --oracle`` and for ``check`` on a
lower or upper scenario.  A standard ``check`` never loads it.  The
closed forms and the quantum layer are imported inside the handlers
that use them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .cli import (
    EXIT_INDETERMINATE,
    EXIT_OF_VERDICT,
    EXIT_PASS,
    EXIT_VIOLATION,
    _approx,
    _base_report,
    _evaluated,
    _load_json,
    _parse_rational_flag,
    _require_list,
    _tolerance,
    load_scenario,
    scenario_from_document,
)
from .errors import KitError, ScenarioError
from .feasibility import (
    FEASIBLE,
    INDETERMINATE,
    INFEASIBLE,
    Scenario,
    ghz_symmetric_scenario,
    oracle_grid_agreement,
    solve_robust,
    uniform_grid,
    verify_certificate,
    violated_constraints,
)
from .measures import (
    LOWER_ATOMS,
    STANDARD,
    UPPER_ATOMS,
    AtomMeasure,
    signed_atom_sum,
    validate,
)
from .numerics import format_scalar, scalar_from_string
from .set_functions import PartialSetFunction, check_conjugacy, check_monotonicity

if TYPE_CHECKING:
    from . import closed_form


def _check_witness_kind(scenario: Scenario, report: dict) -> tuple[int, dict]:
    """``check`` on a lower or upper scenario: the closed-form GHZ witness."""
    from . import closed_form

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
    report["trace"] = _trace_json(witness.trace)
    return EXIT_PASS, report


def _trace_json(trace) -> list[dict]:
    """A closed form's check records, as report entries."""
    return [{"check": r.description, "satisfied": r.satisfied, "detail": r.detail} for r in trace]


def _ghz_witness_pattern(scenario: Scenario) -> bool:
    """Match the fixed witness pattern: three singles at 1, triple at -1."""
    return _ghz_moment_shape(scenario) == (1, 1, 1, -1)


def _oracle_section(scenario: Scenario, args) -> dict:
    from . import closed_form

    section: dict = {}
    shape = _ghz_moment_shape(scenario)
    if shape is None:
        section["closed_form"] = None
    else:
        try:
            moments = closed_form.GhzMoments(*shape)
        except ValueError as err:
            # A target outside [-1, 1]: the LP decides it, the closed form
            # is not defined there.
            section["closed_form"] = {"outside_domain": str(err)}
        else:
            check = closed_form.check_ghz_inequalities(moments)
            section["closed_form"] = {
                "passed": check.passed,
                "violated_inequality": check.violated_index,
                "value": None if check.value is None else format_scalar(check.value),
                "signed_sum": format_scalar(closed_form.ghz_sum(moments)),
            }
    if args.grid is not None:
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
    """(eA, eB, eC, eABC) when the scenario is three singles plus the triple, rational."""
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
    return (*(singles[v] for v in scenario.space.variables), triple)


def _cmd_margin(args) -> tuple[int, dict]:
    tolerance = _tolerance(args)
    scenario, echo = load_scenario(args.scenario, tolerance)
    report = _base_report("margin", echo)
    report["bracket_tolerance"] = format_scalar(tolerance)
    # The least margin over the bracket, and the verdict of that decision.
    outcome = solve_robust(scenario)
    report["margin"] = format_scalar(outcome.margin)
    report["margin_approx"] = _approx(outcome.margin)
    report["verdict"] = outcome.verdict
    return EXIT_OF_VERDICT[outcome.verdict], report


def _cmd_construct_symmetric(args) -> tuple[int, dict]:
    from . import closed_form

    p = _parse_rational_flag(args.p, "--p")
    q = _parse_rational_flag(args.q, "--q")
    report = _base_report("construct-symmetric", {"p": format_scalar(p), "q": format_scalar(q)})
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
    from . import closed_form

    eps = _parse_rational_flag(args.epsilon, "--epsilon")
    try:
        result = closed_form.check_noise_threshold(eps)
    except ValueError as err:
        raise ScenarioError(str(err)) from err
    report = _base_report("ghz-epsilon", {"epsilon": format_scalar(eps)})
    report["signed_sum"] = format_scalar(result.statistic)
    report["verdict"] = FEASIBLE if result.feasible else INFEASIBLE
    report["threshold"] = "feasible exactly when epsilon >= 1/2"
    if args.oracle:
        outcome = solve_robust(ghz_symmetric_scenario(1 - eps / 2, eps / 2))
        report["oracle"] = {
            "lp_verdict": outcome.verdict,
            "agrees": (outcome.verdict == FEASIBLE) == result.feasible,
        }
    return (EXIT_PASS if result.feasible else EXIT_VIOLATION), report


def _cmd_mermin(args) -> tuple[int, dict]:
    from . import closed_form

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
    from . import closed_form

    tolerance = _tolerance(args)
    echo = {"exy": args.exy, "exz": args.exz, "eyz": args.eyz}
    moments = closed_form.BellMoments(
        *(_evaluated(text, tolerance, f"--{name}") for name, text in echo.items())
    )
    return moments, echo, tolerance


def _conditionals_json(conditionals) -> list[dict]:
    return [
        {"conditional": c.describe(), "value": format_scalar(c.value)}
        for c in conditionals
    ]


def _cmd_bell_system(args) -> tuple[int, dict]:
    from . import closed_form

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
    return code, report


def _cmd_upper_bell(args) -> tuple[int, dict]:
    from . import closed_form

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
    report["trace"] = _trace_json(solution.trace)
    return EXIT_PASS, report


def _witness_report(command: str, witness: closed_form.GhzWitness) -> dict:
    report = _base_report(command, {})
    report["verdict"] = "witness-constructed"
    report["witness"] = witness.atom_measure.to_json_dict()
    report["set_function"] = witness.set_function.to_json_dict()
    report["expectations"] = {
        "atom_level_product": format_scalar(
            signed_atom_sum(
                witness.atom_measure, witness.atom_measure.space.variables
            )
        ),
        "event_level_singles": {
            v: format_scalar(witness.set_function.event_level_single_expectation(v))
            for v in witness.atom_measure.space.variables
        },
    }
    report["trace"] = _trace_json(witness.trace)
    monotonicity = check_monotonicity(witness.set_function)
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
    from . import closed_form

    witness = closed_form.solve_lower_ghz_witness()
    return EXIT_PASS, _witness_report("lower-ghz", witness)


def _cmd_upper_ghz(args) -> tuple[int, dict]:
    from . import closed_form

    witness = closed_form.solve_upper_ghz_witness()
    report = _witness_report("upper-ghz", witness)
    lower = closed_form.solve_lower_ghz_witness()
    conjugacy = check_conjugacy(witness.set_function, lower.set_function)
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
    from . import quantum

    if args.angle_degrees is not None and not math.isfinite(args.angle_degrees):
        raise ScenarioError("--angle-degrees must be a finite number")
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
        sections[name] = {
            "expectations": {
                op: {"value": float(v), "exact_form": format_scalar(v)}
                for op, v in values.items()
            },
            "product_relation_holds": values["A"] * values["B"] * values["C"] == -values["D"],
        }
    report["states"] = sections
    ops = quantum.ghz_operators()
    holds = True
    for basis in range(ops["D"].dimension):
        image, turns = basis, 0
        for name in ("C", "B", "A"):
            image, step = ops[name].apply(image)
            turns += step
        d_image, d_turns = ops["D"].apply(basis)
        # A·B·C|basis> = -D|basis>: the same image, phases i^2 apart.
        holds = holds and image == d_image and (turns - d_turns) % 4 == 2
    report["operator_identity"] = {"statement": "A·B·C = -D as 8x8 matrices", "holds": holds}
    if args.angle_degrees is not None:
        report["singlet"] = {
            "angle_degrees": args.angle_degrees,
            "correlation": quantum.singlet_correlation(
                math.radians(math.fmod(args.angle_degrees, 360))
            ),
            "exact_form": quantum.singlet_exact_form(args.angle_degrees),
        }
    return EXIT_PASS, report


def _cmd_validate(args) -> tuple[int, dict]:
    with open(args.file, "r", encoding="utf-8") as fh:
        document = _load_json(fh, args.file)
    candidates = []
    certificate = None
    check_report = isinstance(document, dict) and document.get("command") == "check"
    if isinstance(document, dict):
        if document.get("type") in ("atom-measure", "set-function"):
            candidates.append((None, document))
        else:
            for key in ("witness", "set_function", "atom_uppers"):
                section = document.get(key)
                if isinstance(section, dict) and "type" in section:
                    candidates.append((key, section))
            if isinstance(document.get("certificate"), dict):
                certificate = document["certificate"]
    # A check report that echoes its input has a verdict to check, even
    # with neither witness nor certificate, as an indeterminate one has.
    if not candidates and certificate is None and not (check_report and "input" in document):
        raise ScenarioError(
            "no validatable object found: expected an atom-measure or"
            " set-function document, or a report embedding one or a certificate"
        )
    report = _base_report("validate", document)
    results = []
    witness = None
    for key, section in candidates:
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
        if key == "witness":
            witness = obj
        outcome = validate(obj)
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
    if check_report or certificate is not None:
        scenario = _report_scenario(document)
    if check_report and scenario.kind == STANDARD and isinstance(witness, AtomMeasure):
        results.append(_witness_moments_result(scenario, witness))
    if certificate is not None:
        results.append(_certificate_result(scenario, certificate))
    if check_report:
        results.extend(_evidence_result(scenario, document, witness, certificate is not None))
    all_passed = all(r["passed"] for r in results)
    report["results"] = results
    report["verdict"] = "pass" if all_passed else "violations"
    return (EXIT_PASS if all_passed else EXIT_VIOLATION), report


def _report_scenario(document: dict) -> Scenario:
    """The scenario a ``check`` report echoes, at the report's ``bracket_tolerance``."""
    try:
        tolerance = scalar_from_string(document["bracket_tolerance"], "bracket_tolerance")
    except KeyError as err:
        raise ScenarioError(f"report is missing the {err.args[0]!r} field") from err
    if tolerance <= 0:
        raise ScenarioError("bracket_tolerance must be a positive rational")
    return scenario_from_document(document.get("input"), tolerance)


def _witness_moments_result(scenario: Scenario, witness: AtomMeasure) -> dict:
    """Re-check a check report's witness against the report's own input.

    Every constraint's atom-level moment must meet its relation within
    the target's bracket (:func:`~.feasibility.violated_constraints`).
    """
    violations = [
        f"{c.describe()}, but the witness gives {format_scalar(got)}"
        for c, got in violated_constraints(scenario, witness)
    ]
    return {
        "type": "witness-moments",
        "kind": scenario.kind,
        "passed": not violations,
        "violations": [{"axiom": "witness-moments", "message": m} for m in violations],
    }


def _certificate_result(scenario: Scenario, section: dict) -> dict:
    """Re-check a check report's certificate against the report's own input.

    ``scenario`` is the one the report echoes (:func:`_report_scenario`),
    and the multipliers must prove every target in its brackets
    infeasible.
    """
    try:
        multipliers = section["multipliers"]
    except KeyError as err:
        raise ScenarioError(f"report is missing the {err.args[0]!r} field") from err
    _require_list(multipliers, "'multipliers'")
    certificate = [scalar_from_string(v, f"multiplier {i}") for i, v in enumerate(multipliers)]
    passed = verify_certificate(scenario, certificate)
    violations = [] if passed else [
        {
            "axiom": "farkas-certificate",
            "message": "the multipliers do not prove the input infeasible over its brackets",
        }
    ]
    return {
        "type": "certificate",
        "kind": scenario.kind,
        "passed": passed,
        "violations": violations,
    }


#: The witness kind each input kind of a ``check`` report implies.
_WITNESS_KIND = {"standard": STANDARD, "lower": LOWER_ATOMS, "upper": UPPER_ATOMS}

#: Whether each verdict on a standard input has a witness and a certificate.
_EVIDENCE = {FEASIBLE: (True, False), INFEASIBLE: (False, True), INDETERMINATE: (False, False)}


def _evidence_result(scenario: Scenario, document: dict, witness, certificate: bool) -> list:
    """A check report's witness kind and verdict against its input.

    The witness must have the kind the input's kind implies.  On a
    standard input, ``feasible`` needs a witness and no certificate,
    ``infeasible`` a certificate and no witness, and ``indeterminate``
    neither; a lower or upper input's verdict is ``witness-constructed``.
    Returns one failed result naming each mismatch, or [] when there is
    none, so a consistent report's results are unchanged.
    """
    violations = []
    want = _WITNESS_KIND[scenario.kind]
    if witness is not None and witness.kind != want:
        violations.append(
            ("witness-kind", f"a {scenario.kind} input's witness is {want!r}, not {witness.kind!r}")
        )
    verdict = document.get("verdict")
    if scenario.kind == STANDARD:
        have = (witness is not None, certificate)
        if _EVIDENCE.get(verdict) != have:
            evidence = " and ".join(
                f"{'a' if on else 'no'} {name}" for on, name in zip(have, ("witness", "certificate"))
            )
            violations.append(
                ("verdict-evidence", f"verdict {verdict!r} does not fit a report with {evidence}")
            )
    elif verdict != "witness-constructed":
        violations.append(
            ("verdict-evidence", f"a {scenario.kind} input's verdict is 'witness-constructed',"
             f" not {verdict!r}")
        )
    if not violations:
        return []
    return [{
        "type": "report-evidence",
        "kind": scenario.kind,
        "passed": False,
        "violations": [{"axiom": axiom, "message": message} for axiom, message in violations],
    }]


#: Every subcommand's handler but ``check``'s, which ``cli`` keeps.
HANDLERS = {
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
