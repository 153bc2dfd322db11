from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import contextuality_kit as ck


def test_public_surface_importable():
    for name in (
        "build_space",
        "sign_event",
        "moment_coefficients",
        "parse_value",
        "evaluate",
        "validate",
        "expectation",
        "signed_atom_sum",
        "conditional_expectation",
        "check_monotonicity",
        "check_conjugacy",
        "solve",
        "solve_robust",
        "margin",
        "verify_certificate",
        "oracle_grid_agreement",
        "ghz_sum",
        "check_ghz_inequalities",
        "construct_symmetric_joint",
        "check_noise_threshold",
        "mermin_assignment_check",
        "solve_bell_conditionals",
        "solve_upper_bell_conditionals",
        "solve_lower_ghz_witness",
        "solve_upper_ghz_witness",
        "build_operator",
        "expectation_value",
        "singlet_correlation",
    ):
        assert callable(getattr(ck, name)), name
    assert ck.__version__


#: The package's public names, closed-form and quantum ones included.
PUBLIC_NAMES = [
    "AssignmentEnumeration", "AtomMeasure", "BellMoments", "CertificateError",
    "ConditionalMomentValue", "DEFAULT_BRACKET_TOLERANCE", "EvaluationError", "EventMask",
    "EventSpace", "ExpressionError", "FeasibilityOutcome", "GhzMoments", "GhzWitness",
    "KitError", "MeasureError", "MomentConstraint", "NoWitnessError", "PartialSetFunction",
    "ScalarInterval", "Scenario", "ScenarioError", "SizeLimitError", "SpaceError",
    "SymmetricParams", "SymmetricWitness", "UndefinedConditionalError", "ValidationReport",
    "build_operator", "build_space", "check_conjugacy", "check_ghz_inequalities",
    "check_monotonicity", "check_noise_threshold", "closed_form", "conditional_expectation",
    "construct_symmetric_joint", "errors", "evaluate", "event_space", "expectation",
    "expectation_value", "feasibility", "ghz_expectations", "ghz_operators",
    "ghz_state_alternate", "ghz_state_mermin", "ghz_sum", "ghz_symmetric_scenario",
    "make_scenario", "margin", "measures", "mermin_assignment_check", "moment_coefficients",
    "numerics", "oracle_grid_agreement", "parse_and_evaluate", "parse_value", "quantum",
    "sign_event", "signed_atom_sum", "simplex", "singlet_correlation", "solve",
    "solve_bell_conditionals", "solve_lower_ghz_witness", "solve_robust",
    "solve_upper_bell_conditionals", "solve_upper_ghz_witness", "uniform_grid", "validate",
    "verify_certificate",
]


def test_public_names_resolve():
    assert ck.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(ck, name) is not None, name
        assert name in dir(ck), name
    assert ck.GhzMoments is ck.closed_form.GhzMoments
    assert ck.singlet_correlation is ck.quantum.singlet_correlation
    namespace: dict = {}
    exec("from contextuality_kit import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ck.no_such_name


def test_uniform_grid_needs_two_steps():
    with pytest.raises(ValueError):
        ck.uniform_grid(1)


def test_uniform_grid_is_bounded():
    from contextuality_kit.feasibility import MAX_GRID_STEPS

    assert MAX_GRID_STEPS == 401
    assert len(ck.uniform_grid(MAX_GRID_STEPS)) == MAX_GRID_STEPS**2
    with pytest.raises(ValueError, match="at most 401 steps"):
        ck.uniform_grid(MAX_GRID_STEPS + 1)


def test_five_variable_space_scales():
    scenario = ck.make_scenario(
        ["V1", "V2", "V3", "V4", "V5"],
        [
            (["V1"], "eq", Fraction(1, 3)),
            (["V2", "V3"], "eq", Fraction(-1, 2)),
            (["V1", "V4", "V5"], "eq", Fraction(1, 4)),
        ],
    )
    outcome = ck.solve(scenario)
    assert outcome.verdict == "feasible"
    assert ck.signed_atom_sum(outcome.witness, ["V2", "V3"]) == Fraction(-1, 2)


_pair_target = st.fractions(min_value=-1, max_value=1, max_denominator=8)


@settings(deadline=None, max_examples=25)
@given(_pair_target, _pair_target, _pair_target, _pair_target)
def test_four_variable_pairwise_soundness(e11, e12, e21, e22):
    # the CHSH-shaped scenario family on the generic engine
    scenario = ck.make_scenario(
        ["A1", "A2", "B1", "B2"],
        [
            (["A1", "B1"], "eq", e11),
            (["A1", "B2"], "eq", e12),
            (["A2", "B1"], "eq", e21),
            (["A2", "B2"], "eq", e22),
        ],
    )
    outcome = ck.solve(scenario)
    if outcome.verdict == "feasible":
        assert ck.validate(outcome.witness).passed
        for constraint in scenario.constraints:
            got = ck.signed_atom_sum(outcome.witness, constraint.subset)
            assert got == constraint.target.lo
    else:
        assert ck.verify_certificate(scenario, outcome.certificate)
        # CHSH bound: infeasibility implies some signed combination
        # exceeds 2 (complete facet description for this marginal family)
        sums = [
            abs(s1 * e11 + s2 * e12 + s3 * e21 + s4 * e22)
            for s1, s2, s3, s4 in (
                (1, 1, 1, -1),
                (1, 1, -1, 1),
                (1, -1, 1, 1),
                (-1, 1, 1, 1),
            )
        ]
        assert max(sums) > 2
