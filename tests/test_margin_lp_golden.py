"""Golden pivot paths of the margin LP.

``tests/golden/margin_lp_paths.json`` holds, for each document below,
every optimal margin LP of its decision in the order they are solved:
the ones ``simplex.solve_from_basis`` solves and the ones
``simplex.settle`` settles from a kept basis.  Each entry records the
pivots, the objective, the basis and one SHA-256 of x, the duals and
the inverse.  A change that claims the same pivots and read-outs must
leave the file alone.  ``PYTHONPATH=src python tests/test_margin_lp_golden.py``
rewrites it from the current code.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from contextuality_kit import feasibility, simplex
from contextuality_kit.cli import scenario_from_document
from test_simplex_reference import exchangeable_document

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import reference  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "margin_lp_paths.json"

#: Wide documents of seed 7, feasible and planted, and the bracketed
#: feasible documents whose check points are settled from a kept basis.
DOCUMENTS = {
    **{
        f"wide-7-{n}-{'planted' if planted else 'feasible'}": reference.wide_document(7, n, planted)
        for n in range(5, 11)
        for planted in (False, True)
    },
    **{f"exchangeable-{n}": exchangeable_document(n) for n in (5, 6)},
}


def _entry(source, result):
    inverse = [[line, scale] for line, scale in result.inverse]
    text = json.dumps([[str(v) for v in result.x], [str(v) for v in result.duals], inverse])
    return {
        "source": source,
        "status": result.status,
        "pivots": result.pivots,
        "objective": str(result.objective),
        "basis": list(result.basis),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def margin_lp_path(document):
    """Every optimal margin LP of the document's decision, as golden entries."""
    entries = []
    solve, settle = simplex.solve_from_basis, simplex.settle

    def solved(*args):
        result = solve(*args)
        entries.append(_entry("solve_from_basis", result))
        return result

    def settled(result, rhs):
        got = settle(result, rhs)
        if got is not None:
            entries.append(_entry("settle", got))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "solve_from_basis", solved)
        patch.setattr(simplex, "settle", settled)
        feasibility.solve(scenario_from_document(document))
    return entries


def test_golden_covers_every_document():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(DOCUMENTS)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_margin_lp_path_is_the_golden_one(name):
    assert margin_lp_path(DOCUMENTS[name]) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    paths = {name: margin_lp_path(document) for name, document in sorted(DOCUMENTS.items())}
    GOLDEN.write_text(json.dumps(paths, indent=1, sort_keys=True) + "\n")
