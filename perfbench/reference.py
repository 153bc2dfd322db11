"""Seeded inputs and the known answers the benchmark checks them against.

Nothing here imports the kit: every expected verdict and every evidence
check is computed from the ±1 characters with the benchmark's own exact
arithmetic, so a wrong verdict in the kit cannot hide behind its own
closed forms.

Atom indexing follows the kit's documented serialization: the first
variable is the most significant bit and a '+' sign is bit value 0.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from math import isqrt

#: Expected exit code of ``check --format json`` per bundled scenario;
#: 0 is a feasible verdict, 1 an infeasible one.
CLI_EXPECTED_EXIT = {
    "ghz": 1,
    "bell": 1,
    "bell-perfect": 1,
    "chsh": 1,
    "ghz-epsilon-1-4": 1,
    "ghz-epsilon-2-5": 1,
    "ghz-epsilon-49-100": 1,
    "chsh-classical": 0,
    "ghz-epsilon-1-2": 0,
    "ghz-epsilon-3-4": 0,
    "ghz-epsilon-1": 0,
}
VERDICT_OF_EXIT = {0: "feasible", 1: "infeasible"}

#: Width of the benchmark's own brackets for irrational targets.
_BRACKET_BITS = 128
#: Slack allowed when a witness meets an irrational target: the kit
#: decides at its own bracket endpoint, at most 10^-12 from the value.
_IRRATIONAL_SLACK = Fraction(1, 10**12)
_SQRT_TEXT = re.compile(r"^(-?)sqrt\((\d+)\)/(\d+)$")


def ghz_rule(p: Fraction, q: Fraction) -> bool:
    """Symmetric GHZ point (singles 2p-1, triple 2q-1) has a joint law."""
    return 0 <= 3 * p - q <= 2


def character(atom: int, mask: int) -> int:
    """Value (+1 or -1) of the product moment with bit mask ``mask`` at ``atom``."""
    return -1 if bin(atom & mask).count("1") & 1 else 1


def subset_mask(variables: list[str], subset) -> int:
    n = len(variables)
    mask = 0
    for name in subset:
        mask |= 1 << (n - 1 - variables.index(name))
    return mask


def atom_of_signature(signature: str) -> int:
    atom = 0
    for ch in signature:
        if ch not in "+-":
            raise ValueError(f"bad sign character {ch!r}")
        atom = (atom << 1) | (ch == "-")
    return atom


def target_bounds(text: str) -> tuple[Fraction, Fraction]:
    """Exact rational bracket [lo, hi] of a target written as text.

    Accepts a rational (``3/4``, ``0``) or ``[-]sqrt(k)/d``, the only
    irrational form the benchmark's inputs use; anything else raises.
    """
    match = _SQRT_TEXT.match(text)
    if not match:
        value = Fraction(text)
        return value, value
    sign, k, d = match.group(1), int(match.group(2)), int(match.group(3))
    scale = 1 << _BRACKET_BITS
    root = isqrt(k * scale * scale)
    lo = Fraction(root, scale * d)
    hi = lo if root * root == k * scale * scale else Fraction(root + 1, scale * d)
    return (-hi, -lo) if sign else (lo, hi)


def wide_document(seed: int, n: int, planted: bool, index: int = 0) -> dict:
    """Singles-plus-pairs scenario document over n variables.

    Targets are the moments of a random rational distribution on all
    2^n atoms, so the document is feasible by construction.  When
    ``planted``, four pair targets on a random 4-cycle a-b, a-d, c-b, c-d
    are overwritten with sqrt(2)/2, one of them negated: the CHSH sum
    over that cycle is then 2*sqrt(2) > 2, so no joint law exists.
    """
    if planted and n < 4:
        raise ValueError("a planted CHSH cycle needs at least 4 variables")
    rng = random.Random(f"wide-{seed}-{index}-{n}-{int(planted)}")
    names = [f"V{i}" for i in range(n)]
    weights = [rng.randint(1, 9) for _ in range(1 << n)]
    total = sum(weights)

    def moment(mask: int) -> Fraction:
        return Fraction(sum(w * character(a, mask) for a, w in enumerate(weights)), total)

    subsets = [(i,) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    values = {s: str(moment(sum(1 << (n - 1 - i) for i in s))) for s in subsets}
    if planted:
        a, b, c, d = rng.sample(range(n), 4)
        cycle = [tuple(sorted(pair)) for pair in ((a, b), (a, d), (c, b), (c, d))]
        negated = rng.randrange(4)
        for k, pair in enumerate(cycle):
            values[pair] = "-sqrt(2)/2" if k == negated else "sqrt(2)/2"
    return {
        "title": f"wide moments n={n} {'planted CHSH' if planted else 'feasible'}",
        "kind": "standard",
        "variables": names,
        "constraints": [
            {"moment": [names[i] for i in s], "relation": "eq", "value": values[s]}
            for s in subsets
        ],
    }


def _constraint_masks(document: dict):
    names = document["variables"]
    out = []
    for c in document["constraints"]:
        if c["relation"] != "eq":
            raise ValueError(f"unsupported relation {c['relation']!r}")
        out.append((subset_mask(names, c["moment"]), target_bounds(str(c["value"]))))
    return out


def witness_holds(document: dict, values: list[Fraction]) -> bool:
    """A witness is a distribution on the atoms that meets every target."""
    n_atoms = 1 << len(document["variables"])
    if len(values) != n_atoms or any(v < 0 for v in values) or sum(values) != 1:
        return False
    for mask, (lo, hi) in _constraint_masks(document):
        got = sum(v * character(a, mask) for a, v in enumerate(values) if v)
        slack = 0 if lo == hi else _IRRATIONAL_SLACK
        if not lo - slack <= got <= hi + slack:
            return False
    return True


def certificate_holds(document: dict, multipliers: list[Fraction]) -> bool:
    """Farkas check for the real targets, not only for one bracket end.

    Row 0 is the normalization; the others follow the constraint order.
    The combined coefficient must be <= 0 on every atom, and the combined
    right-hand side must stay > 0 over the whole bracket of every target.
    """
    rows = _constraint_masks(document)
    if len(multipliers) != len(rows) + 1:
        return False
    y0, ys = multipliers[0], multipliers[1:]
    n_atoms = 1 << len(document["variables"])
    for atom in range(n_atoms):
        combined = y0 + sum(y * character(atom, mask) for y, (mask, _) in zip(ys, rows) if y)
        if combined > 0:
            return False
    least_rhs = y0 + sum(y * (lo if y > 0 else hi) for y, (_, (lo, hi)) in zip(ys, rows))
    return least_rhs > 0
