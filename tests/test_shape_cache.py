"""The margin LP's shape, kept once per process, changes no decision.

``feasibility._shape`` keeps each document shape's masks, relaxed rows,
atom oracle (with its ``simplex.Layout`` and the crash's bitsets),
columns and costs, keyed on the variables and each constraint's subset
and relation.  A decision on a kept shape must give the outcome, and
every ``LpResult``, that it gives on a shape built for it alone; and no
decision may change what the cache holds.
"""

import json
from pathlib import Path

import pytest

from contextuality_kit import feasibility, simplex
from contextuality_kit.cli import scenario_from_document
from test_simplex_reference import exchangeable_document, reference

SCENARIOS = Path(feasibility.__file__).parent / "scenarios"


def _documents():
    """The 64 ``wide-moments`` documents of seed 4242 (two shapes, alternating) and the 11 bundled ones."""
    wide = [
        reference.wide_document(4242, n, planted, k)
        for k in range(32)
        for n, planted in ((5, True), (6, False))
    ]
    bundled = [json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))]
    return wide + bundled


def _renamed(document):
    """The document over other variable names, in the same order: the same masks, another shape."""
    names = {v: f"R{v}" for v in document["variables"]}
    return {
        **document,
        "variables": [names[v] for v in document["variables"]],
        "constraints": [{**c, "moment": [names[v] for v in c["moment"]]} for c in document["constraints"]],
    }


def _decided(scenario):
    """The outcome and every optimal LpResult of its decision, with every field read."""
    results = []
    solve, settle = simplex.solve_from_basis, simplex.settle

    def solved(*args):
        results.append(solve(*args))
        return results[-1]

    def settled(start, rhs):
        got = settle(start, rhs)
        if got is not None:
            results.append(got)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "solve_from_basis", solved)
        patch.setattr(simplex, "settle", settled)
        outcome = feasibility.solve(scenario)
    return outcome, [r._values() for r in results]


def test_a_kept_shape_changes_no_outcome_or_lp_result():
    """Each document decided cold (the cache cleared first), then all of them warm, shapes interleaved."""
    documents = _documents()
    documents += [_renamed(documents[1]), exchangeable_document(5)]
    scenarios = [scenario_from_document(d) for d in documents]
    cold = []
    for scenario in scenarios:
        feasibility._shape.cache_clear()
        cold.append(_decided(scenario))
    feasibility._shape.cache_clear()
    warm = [_decided(scenario) for scenario in scenarios]
    kept = feasibility._shape.cache_info()
    assert kept.misses == kept.currsize and kept.hits >= 63  # two wide shapes, 64 + 1 decisions
    for (want, want_results), (got, got_results) in zip(cold, warm):
        assert got == want
        assert got_results == want_results and got_results


def test_renamed_variables_get_their_own_shape():
    """Same masks, other names: its own cache entry, and a witness over its own space."""
    document = reference.wide_document(4242, 6, False)
    scenario, renamed = scenario_from_document(document), scenario_from_document(_renamed(document))
    feasibility._shape.cache_clear()
    want, want_results = _decided(scenario)
    got, got_results = _decided(renamed)
    assert feasibility._shape.cache_info().currsize == 2
    assert feasibility._MomentLp(scenario).atoms is not feasibility._MomentLp(renamed).atoms
    assert got.witness.space == renamed.space != want.witness.space
    assert got.witness.values == want.witness.values
    assert (got.verdict, got.margin) == (want.verdict, want.margin)
    assert got_results == want_results


def _frozen(value):
    """A copy of a kept value to compare later: the oracle and its layout as dicts of their fields."""
    if isinstance(value, simplex.WalshAtoms):
        return {name: _frozen(getattr(value, name)) for name in value.__slots__}
    if isinstance(value, simplex.Layout):
        return {name: _frozen(v) for name, v in vars(value).items()}
    if isinstance(value, dict):
        return {k: _frozen(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, *map(_frozen, value)]
    return value


def test_a_decision_changes_nothing_it_shares():
    """The kept shape and its layout, after the first decision built the crash's bitsets, stay as they were.

    A feasible, a planted and a bracketed document of one shape, each
    decided twice; the shape is the one object every decision looks up.
    """
    feasible, planted = reference.wide_document(7, 5, False), reference.wide_document(7, 5, True)
    scenarios = [scenario_from_document(d) for d in (feasible, planted, exchangeable_document(5))]
    feasibility._shape.cache_clear()
    feasibility.solve(scenarios[0])
    (shape,) = {id(feasibility._MomentLp(s).atoms): feasibility._MomentLp(s) for s in scenarios}.values()
    kept = [shape.masks, shape.rows_of, shape.t_sign, shape.atoms, shape.columns, shape.costs]
    assert shape.atoms.layout is not None and shape.atoms.plus
    before = _frozen(kept)
    for scenario in scenarios * 2:
        lp = feasibility._MomentLp(scenario)
        assert [lp.masks, lp.rows_of, lp.t_sign, lp.atoms, lp.columns, lp.costs] == kept
        assert all(a is b for a, b in zip([lp.masks, lp.atoms, lp.columns], [kept[0], kept[3], kept[4]]))
        feasibility.solve(scenario)
    assert _frozen(kept) == before
