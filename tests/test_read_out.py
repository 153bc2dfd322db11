"""The margin LP's read-out, formed on first read, against the eager one it replaced.

``simplex._RevisedLp.result`` reads out only x_B and the objective; an
``LpResult`` forms ``x``, ``duals`` and ``inverse`` from the optimum's
kept integers the first time each is read.  ``dense_simplex.eager_result``
is the read-out as it was, every field formed at once: each lazily
formed field, and the integers ``simplex.as_integers`` reads before
any is formed, must be its values
exactly, and the result must compare, hash, print and pickle as the
eager one does.  ``settle`` chains over bracketed check points start
from both read-outs side by side.  A decision's outcome, and a result
whose fields are not yet formed, keep no LP alive.
"""

import gc
import pickle
import weakref
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import dense_simplex
from contextuality_kit import feasibility, simplex, sweep
from contextuality_kit.cli import scenario_from_document
from contextuality_kit.feasibility import EQ, make_scenario
from test_feasibility import bracketed_scenarios, relaxed_scenarios
from test_simplex_reference import (
    _wide_scenarios,
    exchangeable_document,
    explicit_lps,
    mixed_wide_scenarios,
    reference,
)

_result, _settle = simplex._RevisedLp.result, simplex.settle


@contextmanager
def read_outs_paired():
    """Pair each optimal result with its eager twin; yields the (lazy, eager) pairs.

    ``_RevisedLp.result`` also runs ``dense_simplex.eager_result`` on the
    same rows, and ``settle`` also settles the eager twin of its start,
    so each link of a chain of settles is paired too.
    """
    pairs, twins = [], {}

    def paired(got, want):
        pairs.append((got, want))
        twins[id(got)] = want
        return got

    def result(lp, pivots):
        want = dense_simplex.eager_result(lp, pivots)
        return paired(_result(lp, pivots), want)

    def settle(start, rhs):
        got, want = _settle(start, rhs), _settle(twins[id(start)], rhs)
        assert (got is None) == (want is None)
        return got if got is None else paired(got, want)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex._RevisedLp, "result", result)
        patch.setattr(simplex, "settle", settle)
        yield pairs


def assert_same_read_out(got, want):
    """``got``, read and formed field by field, is the eager ``want``."""
    for field in ("x", "duals"):
        ints, d = simplex.as_integers(got, field)
        assert d > 0 and [Fraction(v, d) for v in ints] == getattr(want, field)
    assert got.inverse == want.inverse
    assert got.x == want.x
    assert got.duals == want.duals
    assert got == want and repr(got) == repr(want)
    assert pickle.loads(pickle.dumps(got)) == want
    assert _hashed(got) == _hashed(want)


def _hashed(result):
    """The hash of ``result``, or the message of its TypeError: its x and duals are lists."""
    try:
        return hash(result)
    except TypeError as error:
        return str(error)


def assert_paired(pairs):
    assert pairs
    for got, want in pairs:
        assert_same_read_out(got, want)


@settings(deadline=None, max_examples=100)
@given(st.one_of(relaxed_scenarios(), _wide_scenarios, mixed_wide_scenarios()))
@example(scenario_from_document(reference.wide_document(3, 6, True)))
@example(make_scenario(["A", "B"], [(["A"], EQ, 0), (["B"], EQ, 0)]))
def test_read_out_on_first_read_is_the_eager_one(scenario):
    """Wide, relaxed and mixed ``eq``/``le``/``ge`` scenarios."""
    with read_outs_paired() as pairs:
        feasibility.solve(scenario)
    assert_paired(pairs)


@settings(deadline=None, max_examples=200)
@given(explicit_lps())
def test_explicit_lp_read_out_on_first_read_is_the_eager_one(lp):
    with read_outs_paired() as pairs:
        try:
            simplex.solve_from_basis(*lp)
        except ValueError:
            return  # a singular or primal-infeasible start: no read-out
    for got, want in pairs:
        assert_same_read_out(got, want)


@settings(deadline=None, max_examples=60)
@given(bracketed_scenarios())
@example(scenario_from_document(exchangeable_document(4)))
def test_settle_chains_start_from_the_read_out_formed_on_first_read(scenario):
    """Each settled check point, from a lazily read result, is the one settled from the eager one."""
    with read_outs_paired() as pairs:
        feasibility.solve(scenario)
    assert_paired(pairs)


def test_settle_chains_are_met():
    """The bracketed exchangeable documents settle their check points, in chains."""
    for n in (4, 5):
        with read_outs_paired() as pairs:
            feasibility.solve(scenario_from_document(exchangeable_document(n)))
        assert len(pairs) > 2
        assert_paired(pairs)


@pytest.mark.parametrize(
    "read",
    [repr, _hashed, lambda r: pickle.loads(pickle.dumps(r)), lambda r: r == r, simplex.settle],
    ids=["repr", "hash", "pickle", "eq", "settle"],
)
def test_a_result_read_first_as_a_record_is_the_eager_one(read):
    """Equality, hash, repr, pickle and ``settle`` each work on a result with no field formed."""
    scenario = scenario_from_document(exchangeable_document(4))
    lp = feasibility._MomentLp(scenario)
    with read_outs_paired() as pairs:
        feasibility._margin_lp(lp, feasibility._box(scenario))
    ((got, want),) = pairs
    # The first check point the box's basis settles.
    rhs = next(
        rhs
        for bounds in feasibility._check_points(scenario)
        for rhs in [[Fraction(1)] + [bounds[k - 1][s > 0] for k, s in zip(lp.rows_of[1:], lp.t_sign[1:])]]
        if _settle(want, rhs) is not None
    )
    assert all(type(object.__getattribute__(got, f)) is simplex._ReadOut for f in ("x", "duals", "inverse"))
    if read is simplex.settle:
        settled = read(got, rhs)
        assert settled is not None and settled == read(want, rhs)
    else:
        assert read(got) == read(want)
    assert_same_read_out(got, want)


def test_a_decision_forms_no_inverse():
    """``solve`` on a wide document reads no B⁻¹, and x and the duals only as integers."""
    with read_outs_paired() as pairs:
        for planted in (False, True):
            feasibility.solve(scenario_from_document(reference.wide_document(7, 6, planted)))
    assert len(pairs) == 2
    for got, _ in pairs:
        for field in ("x", "duals", "inverse"):
            assert type(object.__getattribute__(got, field)) is simplex._ReadOut, field


def test_eager_results_are_read_as_given():
    """``sweep``'s results and hand-built ones hold their fields as given."""
    wide = scenario_from_document(reference.wide_document(7, 5, False))
    rows, targets, relations = feasibility._standard_rows(wide)
    standard, _ = dense_simplex.to_standard_form(rows, relations)
    cold = sweep.solve_lp(standard, [t.lo for t in targets])
    assert cold.status == simplex.OPTIMAL and cold.inverse
    assert pickle.loads(pickle.dumps(cold)) == cold
    assert _hashed(cold) == _hashed(pickle.loads(pickle.dumps(cold)))
    assert sweep.solve_many(feasibility._ghz_rows(), [(1, 0, 0, 0, 0), (1, 1, 1, 1, -1)]) == [
        simplex.OPTIMAL,
        simplex.INFEASIBLE,
    ]
    x, duals = [Fraction(1, 3), Fraction(2, 5)], [Fraction(-1, 2), Fraction(0)]
    built = simplex.LpResult(simplex.OPTIMAL, x, Fraction(1), duals, basis=(0, 1))
    assert built.x is x and built.duals is duals
    assert simplex.as_integers(built, "x") == ([5, 6], 15)
    assert simplex.as_integers(built, "duals") == ([-1, 0], 2)


@pytest.mark.parametrize("n", [4, 5, 6, 8])
def test_settle_forms_what_the_eager_settle_did(n):
    """Every field of each settled check point, against ``dense_simplex.eager_settle``.

    The exchangeable documents (n = 8 is CI's bracketed one) settle
    their check points from the box optimum's basis.  A settled result
    forms no x until it is read, and then reads as the eager one does.
    """
    settled = []

    def settle(start, rhs):
        got = _settle(start, rhs)
        if got is not None:
            assert type(object.__getattribute__(got, "x")) is simplex._ReadOut
            settled.append((got, dense_simplex.eager_settle(start, rhs)))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "settle", settle)
        outcome = feasibility.solve(scenario_from_document(exchangeable_document(n)))
    assert outcome.verdict == feasibility.FEASIBLE and settled
    for got, want in settled:
        assert got._values() == want._values()
        assert got == want and repr(got) == repr(want)


def _tracked(monkeypatch):
    """Track every ``_RevisedLp`` and ``WalshAtoms`` made from here on; returns their weak references.

    The kept shapes are dropped first, so each decision's oracle is made
    and tracked.
    """
    feasibility._shape.cache_clear()
    made = []

    class TrackedLp(simplex._RevisedLp):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    class TrackedAtoms(simplex.WalshAtoms):
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(simplex, "_RevisedLp", TrackedLp)
    monkeypatch.setattr(simplex, "WalshAtoms", TrackedAtoms)
    return made


def test_an_outcome_keeps_no_lp_alive(monkeypatch):
    """A returned outcome holds its evidence, not the LP or its atom oracle.

    The oracles of the shapes kept for later decisions are held by that
    cache alone (``feasibility._shape``): once it is cleared, none is alive.
    """
    made = _tracked(monkeypatch)
    documents = [
        reference.wide_document(7, 6, False),
        reference.wide_document(7, 5, True),
        exchangeable_document(4),
    ]
    outcomes = [feasibility.solve(scenario_from_document(d)) for d in documents]
    feasibility._shape.cache_clear()
    gc.collect()
    assert [o.verdict for o in outcomes] == [feasibility.FEASIBLE, feasibility.INFEASIBLE, feasibility.FEASIBLE]
    assert len(made) > 6 and all(ref() is None for ref in made)


def test_a_result_formed_on_first_read_keeps_only_its_rows(monkeypatch):
    """A result whose fields are not formed keeps no LP alive, and still forms them."""
    made = _tracked(monkeypatch)
    scenario = scenario_from_document(reference.wide_document(7, 6, False))
    with read_outs_paired() as pairs:
        feasibility._margin_lp(feasibility._MomentLp(scenario), feasibility._box(scenario))
    ((got, want),) = pairs
    feasibility._shape.cache_clear()
    gc.collect()
    assert made and all(ref() is None for ref in made)
    assert type(object.__getattribute__(got, "inverse")) is simplex._ReadOut
    assert_same_read_out(got, want)
