"""Small checks of the benchmark's own inputs, known answers and metric names."""

import itertools
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def largest_chsh_sum(document):
    """Lower bound of the largest CHSH sum (one term negated) over all 4-cycles of pairs."""
    pairs = {
        frozenset(c["moment"]): reference.target_bounds(c["value"])
        for c in document["constraints"]
        if len(c["moment"]) == 2
    }
    best = None
    for a, b, c, d in itertools.permutations(document["variables"], 4):
        cycle = [pairs[frozenset(e)] for e in ((a, b), (a, d), (c, b), (c, d))]
        for negated in range(4):
            total = sum(-hi if k == negated else lo for k, (lo, hi) in enumerate(cycle))
            best = total if best is None else max(best, total)
    return best


def test_generators_are_deterministic_per_seed():
    for n, planted in run.WIDE_KINDS:
        assert reference.wide_document(3, n, planted, 1) == reference.wide_document(3, n, planted, 1)
        assert reference.wide_document(3, n, planted, 1) != reference.wide_document(4, n, planted, 1)


def test_planted_documents_violate_chsh_and_feasible_ones_do_not():
    for seed in range(4):
        for n in (4, 5, 6):
            assert largest_chsh_sum(reference.wide_document(seed, n, True)) > 2
            assert largest_chsh_sum(reference.wide_document(seed, n, False)) <= 2


def test_evidence_checks_accept_proofs_and_reject_non_proofs():
    # E(A) = 1 and E(AB) = -1 force B = -1 surely, so E(B) = 1 is impossible.
    document = {
        "variables": ["A", "B"],
        "constraints": [
            {"moment": ["A"], "relation": "eq", "value": "1"},
            {"moment": ["A", "B"], "relation": "eq", "value": "-1"},
        ],
    }
    assert reference.witness_holds(document, [Fraction(0), Fraction(1), Fraction(0), Fraction(0)])
    assert not reference.witness_holds(document, [Fraction(1), Fraction(0), Fraction(0), Fraction(0)])
    impossible = dict(document, constraints=document["constraints"] + [
        {"moment": ["B"], "relation": "eq", "value": "1"},
    ])
    # -1 + A - AB + B is <= 0 on every atom, while the targets give -1 + 1 + 1 + 1 = 2 > 0.
    assert reference.certificate_holds(impossible, [Fraction(-1), Fraction(1), Fraction(-1), Fraction(1)])
    assert not reference.certificate_holds(impossible, [Fraction(0), Fraction(1), Fraction(0), Fraction(0)])


def test_sqrt_brackets_contain_the_value():
    lo, hi = reference.target_bounds("-sqrt(2)/2")
    assert lo < hi < 0 and lo * lo * 2 > 1 > hi * hi * 2


def test_metric_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    produced = set(run.layer_metrics(Tracer(), 1))
    assert produced <= {m["name"] for m in spec["per_layer"]}


def test_tail_leaves_ten_samples_beyond_or_takes_the_slowest():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
