"""Exact feasibility analysis for moment problems over ±1 variables.

The package decides whether expectation constraints admit a joint
probability distribution (exact rational LP with witnesses and Farkas
certificates), provides the closed-form GHZ/Bell criteria, and
constructs the nonmonotonic upper/lower probability witnesses that
remain consistent when no standard joint distribution exists.

Importing the package loads only the decision path: ``errors``,
``event_space``, ``numerics``, ``measures``, ``feasibility``,
``simplex`` and ``_record``, the base of every value record.
``closed_form``, ``quantum`` and ``set_functions``, and the names below
that come from them, are loaded on first access (PEP 562), so a
``check`` process never reads them.  Neither does it read ``sweep``,
the phase-1 tableau behind grid sweeps, nor ``commands``, the CLI's
other subcommands.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .errors import (
    CertificateError,
    EvaluationError,
    ExpressionError,
    KitError,
    MeasureError,
    NoWitnessError,
    ScenarioError,
    SizeLimitError,
    SpaceError,
    UndefinedConditionalError,
)
from .event_space import EventMask, EventSpace, build_space, moment_coefficients, sign_event
from .numerics import (
    DEFAULT_BRACKET_TOLERANCE,
    ScalarInterval,
    evaluate,
    parse_and_evaluate,
    parse_value,
)
from .measures import (
    AtomMeasure,
    ConditionalMomentValue,
    ValidationReport,
    conditional_expectation,
    expectation,
    signed_atom_sum,
    validate,
)
from .feasibility import (
    FeasibilityOutcome,
    MomentConstraint,
    Scenario,
    ghz_symmetric_scenario,
    make_scenario,
    margin,
    oracle_grid_agreement,
    solve,
    solve_robust,
    uniform_grid,
    verify_certificate,
)

#: Names resolved on first access, by the submodule that defines them.
_ON_DEMAND = {
    "closed_form": (
        "AssignmentEnumeration",
        "BellMoments",
        "GhzMoments",
        "GhzWitness",
        "SymmetricParams",
        "SymmetricWitness",
        "check_ghz_inequalities",
        "check_noise_threshold",
        "construct_symmetric_joint",
        "ghz_sum",
        "mermin_assignment_check",
        "solve_bell_conditionals",
        "solve_lower_ghz_witness",
        "solve_upper_bell_conditionals",
        "solve_upper_ghz_witness",
    ),
    "quantum": (
        "build_operator",
        "expectation_value",
        "ghz_expectations",
        "ghz_operators",
        "ghz_state_alternate",
        "ghz_state_mermin",
        "singlet_correlation",
    ),
    "set_functions": (
        "PartialSetFunction",
        "check_conjugacy",
        "check_monotonicity",
    ),
}
_SOURCE = {name: module for module, names in _ON_DEMAND.items() for name in names}

__all__ = [
    "AssignmentEnumeration",
    "AtomMeasure",
    "BellMoments",
    "CertificateError",
    "ConditionalMomentValue",
    "DEFAULT_BRACKET_TOLERANCE",
    "EvaluationError",
    "EventMask",
    "EventSpace",
    "ExpressionError",
    "FeasibilityOutcome",
    "GhzMoments",
    "GhzWitness",
    "KitError",
    "MeasureError",
    "MomentConstraint",
    "NoWitnessError",
    "PartialSetFunction",
    "ScalarInterval",
    "Scenario",
    "ScenarioError",
    "SizeLimitError",
    "SpaceError",
    "SymmetricParams",
    "SymmetricWitness",
    "UndefinedConditionalError",
    "ValidationReport",
    "build_operator",
    "build_space",
    "check_conjugacy",
    "check_ghz_inequalities",
    "check_monotonicity",
    "check_noise_threshold",
    "closed_form",
    "conditional_expectation",
    "construct_symmetric_joint",
    "errors",
    "evaluate",
    "event_space",
    "expectation",
    "expectation_value",
    "feasibility",
    "ghz_expectations",
    "ghz_operators",
    "ghz_state_alternate",
    "ghz_state_mermin",
    "ghz_sum",
    "ghz_symmetric_scenario",
    "make_scenario",
    "margin",
    "measures",
    "mermin_assignment_check",
    "moment_coefficients",
    "numerics",
    "oracle_grid_agreement",
    "parse_and_evaluate",
    "parse_value",
    "quantum",
    "sign_event",
    "signed_atom_sum",
    "simplex",
    "singlet_correlation",
    "solve",
    "solve_bell_conditionals",
    "solve_lower_ghz_witness",
    "solve_robust",
    "solve_upper_bell_conditionals",
    "solve_upper_ghz_witness",
    "uniform_grid",
    "validate",
    "verify_certificate",
]


def __getattr__(name: str):
    if name in _ON_DEMAND:
        return _import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
