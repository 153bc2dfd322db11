"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here; everything not explicitly
toleranced is exact rational arithmetic.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import os
import random
import time
from fractions import Fraction

from contextuality_kit.closed_form import (
    NO_SOLUTION,
    SOLUTION,
    BellMoments,
    GhzMoments,
    SymmetricParams,
    check_ghz_inequalities,
    check_noise_threshold,
    construct_symmetric_joint,
    ghz_sum,
    mermin_assignment_check,
    solve_bell_conditionals,
    solve_lower_ghz_witness,
    solve_upper_bell_conditionals,
    solve_upper_ghz_witness,
)
from contextuality_kit.cli import load_scenario, scenario_dir
from contextuality_kit.event_space import build_space, moment_coefficients, sign_event
from contextuality_kit.feasibility import (
    FEASIBLE,
    INFEASIBLE,
    make_scenario,
    margin,
    oracle_grid_agreement,
    solve,
    solve_robust,
    uniform_grid,
    verify_certificate,
)
from contextuality_kit.measures import LOWER_ATOMS, AtomMeasure, signed_atom_sum, validate
from contextuality_kit.set_functions import check_conjugacy
from contextuality_kit.numerics import parse_and_evaluate
from contextuality_kit.quantum import (
    ghz_expectations,
    ghz_operators,
    ghz_state_alternate,
    ghz_state_mermin,
    singlet_correlation,
)
from dense_simplex import feasible_at

QTOL = 1e-12


def record(number: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def bundled(name: str) -> str:
    return str(scenario_dir() / name)


def sqrt3_bracket(tolerance: Fraction) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(1), Fraction(2)
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if mid * mid <= 3:
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_criterion_1_ghz_infeasibility():
    scenario, _ = load_scenario(bundled("ghz.json"))
    outcome = solve_robust(scenario)
    certificate_ok = outcome.certificate is not None and verify_certificate(
        scenario, outcome.certificate
    )
    statistic = ghz_sum(GhzMoments.of(1, 1, 1, -1))
    ok = outcome.verdict == INFEASIBLE and certificate_ok and statistic == 4
    record(1, ok, "GHZ scenario infeasible, certificate re-verifies, signed sum 4")


def test_criterion_2_epsilon_threshold():
    ok = True
    for eps in (Fraction(0), Fraction(1, 4), Fraction(2, 5), Fraction(49, 100)):
        result = check_noise_threshold(eps)
        degraded = make_scenario(
            ["A", "B", "C"],
            [
                (["A"], "eq", 1 - eps),
                (["B"], "eq", 1 - eps),
                (["C"], "eq", 1 - eps),
                (["A", "B", "C"], "eq", -1 + eps),
            ],
        )
        ok = ok and not result.feasible and solve(degraded).verdict == INFEASIBLE
    for eps in (Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        result = check_noise_threshold(eps)
        degraded = make_scenario(
            ["A", "B", "C"],
            [
                (["A"], "eq", 1 - eps),
                (["B"], "eq", 1 - eps),
                (["C"], "eq", 1 - eps),
                (["A", "B", "C"], "eq", -1 + eps),
            ],
        )
        ok = ok and result.feasible and solve(degraded).verdict == FEASIBLE
    scenario, _ = load_scenario(bundled("ghz.json"))
    ok = ok and margin(scenario) == Fraction(1, 2)
    record(2, ok, "noise threshold at 1/2 on both sides; margin of the exact scenario is 1/2")


def _fuzz_point_agrees(values) -> bool:
    moments = GhzMoments(*values)
    scenario = make_scenario(
        ["A", "B", "C"],
        [
            (["A"], "eq", moments.eA),
            (["B"], "eq", moments.eB),
            (["C"], "eq", moments.eC),
            (["A", "B", "C"], "eq", moments.eABC),
        ],
    )
    lp_ok = feasible_at(scenario)
    return lp_ok == check_ghz_inequalities(moments).passed


def test_criterion_3_inequalities_match_lp_on_grid_and_fuzz():
    started = time.perf_counter()
    workers = min(2, os.cpu_count() or 1)
    grid_report = oracle_grid_agreement(uniform_grid(201))
    rng = random.Random(20260810)
    cases = [
        tuple(Fraction(rng.randint(-64, 64), 64) for _ in range(4))
        for _ in range(10_000)
    ]
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            agreements = pool.map(_fuzz_point_agrees, cases, chunksize=256)
    else:
        agreements = [_fuzz_point_agrees(c) for c in cases]
    fuzz_mismatches = agreements.count(False)
    elapsed = time.perf_counter() - started
    ok = (
        grid_report.total == 201 * 201
        and grid_report.agree
        and fuzz_mismatches == 0
        and elapsed < 60.0
    )
    record(
        3,
        ok,
        f"LP == closed form on 40401-point grid and 10000 fuzz cases in {elapsed:.1f}s",
    )


def test_criterion_4_converse_construction():
    rng = random.Random(42)
    ok = True
    produced = 0
    while produced < 1_000:
        p = Fraction(rng.randint(0, 240), 240)
        q = Fraction(rng.randint(0, 240), 240)
        if not 0 <= 3 * p - q <= 2:
            continue
        produced += 1
        witness, measure = construct_symmetric_joint(SymmetricParams(p, q))
        ok = ok and validate(measure).passed
        for subset in (["A"], ["B"], ["C"]):
            ok = ok and signed_atom_sum(measure, subset) == 2 * p - 1
        ok = ok and signed_atom_sum(measure, ["A", "B", "C"]) == 2 * q - 1
    for q in (Fraction(0), Fraction(1, 7), Fraction(1, 2), Fraction(1)):
        w_low, _ = construct_symmetric_joint(SymmetricParams(q / 3, q))
        ok = ok and (w_low.x, w_low.y, w_low.z, w_low.w) == (0, q / 3, 0, 1 - q)
        w_high, _ = construct_symmetric_joint(SymmetricParams((q + 2) / 3, q))
        ok = ok and (w_high.x, w_high.y, w_high.z, w_high.w) == ((1 - q) / 3, 0, q, 0)
    record(4, ok, "1000 random in-region constructions exact; both boundary witnesses exact")


def test_criterion_5_bell_system():
    root3_half = parse_and_evaluate("-sqrt(3)/2")
    singlet = BellMoments.of(root3_half, root3_half, Fraction(-1, 2))
    outcome_singlet = solve_bell_conditionals(singlet)
    ok = outcome_singlet.status == NO_SOLUTION
    outcome_perfect = solve_bell_conditionals(BellMoments.of(-1, -1, -1))
    ok = ok and outcome_perfect.status == NO_SOLUTION

    scenario, _ = load_scenario(bundled("bell.json"))
    lo3, hi3 = sqrt3_bracket(Fraction(1, 10**15))
    reference = (lo3 - Fraction(1, 2)) / 3
    tolerance = Fraction(1, 10**9)
    ok = ok and abs(margin(scenario) - reference) <= tolerance

    outcome_zero = solve_bell_conditionals(BellMoments.of(0, 0, 0))
    ok = ok and outcome_zero.status == SOLUTION
    ok = ok and [c.value for c in outcome_zero.conditionals] == [0] * 6
    record(5, ok, "no solution anywhere in the brackets for both hard inputs; least margin over the bracket ~ (sqrt(3)-1/2)/3; zeros solve")


def test_criterion_6_upper_relaxation():
    root3_half = parse_and_evaluate("-sqrt(3)/2")
    moments = BellMoments.of(root3_half, root3_half, Fraction(-1, 2))
    solution = solve_upper_bell_conditionals(moments)
    values = [c.value for c in solution.conditionals]
    ok = len(values) == 6
    exy, exz, eyz = root3_half.lo, root3_half.lo, Fraction(-1, 2)
    ok = ok and 2 * exy >= values[0] + values[1]
    ok = ok and 2 * exz >= values[2] + values[3]
    ok = ok and 2 * eyz >= values[4] + values[5]
    ok = ok and values[0] == values[4] and values[1] == values[5]
    ok = ok and all(r.satisfied for r in solution.trace)
    ok = ok and solution.atom_uppers.total() >= 1
    record(6, ok, "upper conditionals substitute exactly into every inequality and symmetry")


def test_criterion_7_lower_witness():
    witness = solve_lower_ghz_witness()
    space = witness.atom_measure.space
    values = witness.atom_measure.values
    coeffs = moment_coefficients(space, ["A", "B", "C"])
    ok = all(r.satisfied for r in witness.trace)
    # constraint system re-checked directly
    for v in space.variables:
        plus = sign_event(space, v, 1)
        ok = ok and sum(values[a] for a in plus.atoms()) <= 1
    ok = ok and sum(c * x for c, x in zip(coeffs, values)) == -1
    ok = ok and sum(values) <= 1
    ok = ok and all(values[a] == 0 for a in space.atoms() if coeffs[a] == 1)
    ok = ok and sum(values[a] for a in space.atoms() if coeffs[a] == -1) == 1
    # the printed solution passes the validator independently
    printed = AtomMeasure.from_dict(
        build_space(["A", "B", "C"]),
        {"-++": Fraction(1, 3), "+-+": Fraction(1, 3), "++-": Fraction(1, 3)},
        kind=LOWER_ATOMS,
    )
    ok = ok and validate(printed).passed
    for v in ("A", "B", "C"):
        ok = ok and witness.set_function.event_level_single_expectation(v) == 1
    ok = ok and signed_atom_sum(witness.atom_measure, ["A", "B", "C"]) == -1
    record(7, ok, "lower witness satisfies the full constraint system; printed solution validates")


def test_criterion_8_upper_witness_and_conjugacy():
    upper = solve_upper_ghz_witness()
    lower = solve_lower_ghz_witness()
    ok = validate(upper.set_function).passed and validate(upper.atom_measure).passed
    for v in ("A", "B", "C"):
        ok = ok and upper.set_function.event_level_single_expectation(v) == 1
    ok = ok and signed_atom_sum(upper.atom_measure, ["A", "B", "C"]) == -1
    conjugacy = check_conjugacy(upper.set_function, lower.set_function)
    ok = ok and len(conjugacy.violations) >= 1
    record(8, ok, "upper witness validates and reproduces the targets; conjugacy fails somewhere")


def test_criterion_9_mermin_enumeration():
    result = mermin_assignment_check()
    ok = (
        result.total == 64
        and result.satisfying == 0
        and result.product_identity_holds == 64
    )
    record(9, ok, "0 of 64 assignments satisfy the predictions; product identity 64/64")


def test_criterion_10_quantum_layer():
    ops = ghz_operators()
    ok = True
    for basis in range(8):
        image, turns = basis, 0
        for name in ("C", "B", "A"):
            image, step = ops[name].apply(image)
            turns += step
        d_image, d_turns = ops["D"].apply(basis)
        ok = ok and image == d_image and (turns - d_turns) % 4 == 2
    ok = ok and tuple(ghz_expectations(ghz_state_mermin()).values()) == (1, 1, 1, -1)
    for state in (ghz_state_mermin(), ghz_state_alternate()):
        values = ghz_expectations(state)
        ok = ok and values["A"] * values["B"] * values["C"] == -values["D"]
    ok = ok and abs(singlet_correlation(math.radians(30)) + math.sqrt(3) / 2) <= QTOL
    ok = ok and abs(singlet_correlation(math.radians(60)) + 0.5) <= QTOL
    record(10, ok, "operator identity, state expectations, and singlet angles all verify")


def test_criterion_11_chsh_demo():
    scenario, _ = load_scenario(bundled("chsh.json"))
    quantum_outcome = solve_robust(scenario)
    ok = quantum_outcome.verdict == INFEASIBLE
    classical, _ = load_scenario(bundled("chsh-classical.json"))
    ok = ok and solve_robust(classical).verdict == FEASIBLE
    record(11, ok, "CHSH at 2*sqrt(2) infeasible; reduced to signed sum 2 feasible")
