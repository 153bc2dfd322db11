"""Benchmark of the kit: exact verdicts per second, as a user meets them.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-check --seed 1 --seconds 20 --trace 0

Workloads (one closed-loop client, one decision at a time, no pools):

* ``cli-check``: one ``check --format json`` process per bundled
  scenario.  Interpreter start, imports and argparse dominate; the LP
  costs a few ms.
* ``ghz-sweep``: ``oracle_grid_agreement(row, workers=1)`` over seeded
  rows of ``uniform_grid(61)``; tiny n=3 phase-1 LPs that share one
  matrix.
* ``wide-moments``: seeded singles-plus-pairs documents, planted CHSH
  violations at n = 5 and feasible ones at n = 6; the dense 2^n
  tableau and the margin LP dominate.

A run decides its items round-robin, each round in a seeded order,
until ``--seconds`` have passed.  Every decision is timed against a
calibration run beside it (``calibration_s``) and reported in baseline
milliseconds; an item's time is the median over its repeats.

Every verdict is checked, outside the timed region, against an answer
the benchmark computes itself (``reference.py``), and every witness and
certificate is re-verified from the ±1 characters.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload once untraced and once with spans around the kit's public
functions (``spans.py``), and prints per-layer metrics, the tracing
overhead and the n = 3..12 scaling curve.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Spans are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from spans import Tracer  # noqa: E402

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5
#: Fresh processes per side for the import-time differences.
IMPORT_PROBES = 5
#: Wall-clock budget of one scaling-curve point, in seconds.
SCALING_BUDGET_S = 20.0
SCALING_NS = range(3, 13)
#: ``uniform_grid(GHZ_STEPS)`` is the sweep's grid; each seed decides
#: GHZ_ROWS of its rows, one ``oracle_grid_agreement`` batch per row.
GHZ_STEPS = 61
GHZ_ROWS = 32
#: (n, planted) of the documents in one wide-moments pair: the planted
#: half at n=5 and the feasible half at n=6 cost about the same, so the
#: timing samples form one cluster.  A planted n=6 document costs about
#: six times as much, and its pivot count varies twice as much from one
#: seed to the next, so a run could not average enough of them; the
#: traced scaling curve still decides one at every n.
WIDE_KINDS = ((5, True), (6, False))
#: Pairs of wide-moments documents generated per seed.
WIDE_PAIRS = 32
CHILD_TIMEOUT_S = 120

CLI_MAIN = "from contextuality_kit.cli import main; main()"


def _child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def _bench_call(code: str) -> list[str]:
    """Command that runs ``code`` in a fresh interpreter with this package importable."""
    return [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(HERE)!r}); {code}"]


# A workload builds its ``items`` in ``setup``; ``decide`` runs one item
# through the kit and returns its evidence, ``points`` is the number of
# verdicts in an item and ``check`` counts the failed ones.


class CliCheck:
    """One ``check --format json`` process per bundled scenario."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        scenario_dir = root / "src" / "contextuality_kit" / "scenarios"
        self.paths = {name: scenario_dir / f"{name}.json" for name in reference.CLI_EXPECTED_EXIT}
        self.documents = {}

    def setup(self) -> None:
        for name, path in self.paths.items():
            with open(path, encoding="utf-8") as fh:
                self.documents[name] = json.load(fh)
        self.items = sorted(self.paths)
        self.decide("ghz")

    def argv(self, name: str) -> list[str]:
        return ["check", "--scenario", str(self.paths[name]), "--format", "json"]

    def command(self, name: str) -> list[str]:
        return [sys.executable, "-c", CLI_MAIN, *self.argv(name)]

    def decide(self, name: str):
        proc = subprocess.run(
            self.command(name), env=_child_env(self.root), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def points(self, _name) -> int:
        return 1

    def check(self, name: str, evidence) -> int:
        """Number of failed decisions in ``evidence`` (0 or 1)."""
        code, stdout = evidence
        expected = reference.CLI_EXPECTED_EXIT[name]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return 1
        if code != expected or report.get("verdict") != reference.VERDICT_OF_EXIT[expected]:
            return 1
        document = self.documents[name]
        if expected == 0:
            atoms = report["witness"]["atoms"]
            values = [Fraction(0)] * (1 << len(document["variables"]))
            for signature, value in atoms.items():
                values[reference.atom_of_signature(signature)] = Fraction(value)
            return int(not reference.witness_holds(document, values))
        multipliers = [Fraction(v) for v in report["certificate"]["multipliers"]]
        return int(not reference.certificate_holds(document, multipliers))


class GhzSweep:
    """Rows of the symmetric GHZ grid, LP against the closed form."""

    def __init__(self, root: Path, seed: int):
        self.rows = sorted(random.Random(f"ghz-{seed}").sample(range(GHZ_STEPS), GHZ_ROWS))

    def setup(self) -> None:
        from contextuality_kit import feasibility

        self.feasibility = feasibility
        grid = feasibility.uniform_grid(GHZ_STEPS)
        self.items = [tuple(grid[r * GHZ_STEPS:(r + 1) * GHZ_STEPS]) for r in self.rows]
        self.rule_misses = self._rule_misses()
        self.decide(self.items[0])

    def decide(self, row):
        report = self.feasibility.oracle_grid_agreement(row, workers=1)
        return report.total, report.mismatches

    def points(self, row) -> int:
        return len(row)

    def _rule_misses(self) -> set:
        """Points where the kit's closed form disagrees with the benchmark's rule."""
        from contextuality_kit.closed_form import GhzMoments, check_ghz_inequalities

        misses = set()
        for row in self.items:
            for p, q in row:
                e, t = 2 * p - 1, 2 * q - 1
                if check_ghz_inequalities(GhzMoments(e, e, e, t)).passed != reference.ghz_rule(p, q):
                    misses.add((p, q))
        return misses

    def check(self, row, evidence) -> int:
        # The LP agreed with the closed form at every point not listed as
        # a mismatch, so a point fails when it is listed or when the
        # closed form itself misses the benchmark's rule there.
        total, mismatches = evidence
        if total != len(row):
            return len(row)
        return len((self.rule_misses & set(row)) | {(m.p, m.q) for m in mismatches})


class WideMoments:
    """Singles-plus-pairs documents at n = 5 and 6, decided in-process."""

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from contextuality_kit import cli, feasibility

        self.cli, self.feasibility = cli, feasibility
        self.items = [
            (planted, reference.wide_document(self.seed, n, planted, k))
            for k in range(WIDE_PAIRS)
            for n, planted in WIDE_KINDS
        ]
        self.decide(self.items[0])

    def decide(self, item):
        _, document = item
        return self.feasibility.solve_robust(self.cli.scenario_from_document(document))

    def points(self, _item) -> int:
        return 1

    def check(self, item, outcome) -> int:
        planted, document = item
        return int(not wide_outcome_holds(document, planted, outcome))


def wide_outcome_holds(document: dict, planted: bool, outcome) -> bool:
    """The verdict is the one known by construction, and its evidence re-verifies."""
    if planted:
        return outcome.verdict == "infeasible" and reference.certificate_holds(document, list(outcome.certificate))
    return outcome.verdict == "feasible" and reference.witness_holds(document, list(outcome.witness.values))


WORKLOADS = {"cli-check": CliCheck, "ghz-sweep": GhzSweep, "wide-moments": WideMoments}


#: Scale from calibration units back to milliseconds: about the
#: calibration's fastest time on the baseline host (a shared 2-vCPU Xeon
#: VM, Python 3.11).
CALIBRATION_BASELINE_MS = 4.5
_CALIBRATION_RNG = random.Random("calibration")
#: The calibration's fixed rational matrix.
CALIBRATION_MATRIX = [
    [Fraction(_CALIBRATION_RNG.randint(-9, 9), _CALIBRATION_RNG.randint(1, 9)) for _ in range(14)]
    for _ in range(10)
]


def calibration_s() -> float:
    """Time of one exact Gauss-Jordan elimination of ``CALIBRATION_MATRIX``.

    The benchmark's own code, so no change to the kit moves it; rational
    row operations like the kit's, so a slow host slows it about as much.
    The cyclic garbage collector is off while it runs, so the kit's heap
    does not enter its time.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        rows = [row[:] for row in CALIBRATION_MATRIX]
        for k, pivot_row in enumerate(rows):
            if pivot_row[k]:
                inv = 1 / pivot_row[k]
                rows[k] = pivot_row = [v * inv for v in pivot_row]
                for i, row in enumerate(rows):
                    if i != k and row[k]:
                        factor = row[k]
                        rows[i] = [a - factor * b for a, b in zip(row, pivot_row)]
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Pass:
    """Timed decisions of one workload's items, then the check of their verdicts.

    The baseline host is a shared VM whose speed drifts by a third and
    more, in bursts of a second and in spells that outlast a 30 s run:
    over six 15 s ``ghz-sweep`` runs (seeds 1-6), the median of each
    row's fastest repeat moved by 31% (quartile spread over median).  So
    every decision is timed against the calibrations run just before
    and just after it, and its time is kept in calibration units; over
    the same six runs that moved by 3%.  An item's time is the median
    over its repeats.
    """

    def __init__(self, workload):
        self.workload = workload
        self.samples: list[list[float]] = [[] for _ in workload.items]
        self.decisions = 0
        self.failed = 0
        self.decide_s = 0.0  # raw seconds spent in ``decide``
        self.calibrations: list[float] = []
        self._last_calibration = calibration_s()
        self._done = []

    def decide(self, index: int, tracer: Tracer | None = None) -> None:
        item = self.workload.items[index]
        if tracer is not None:
            tracer.decision = self.decisions
        t0 = time.perf_counter()
        try:
            evidence = self.workload.decide(item)
        except Exception as err:  # a crash is a failed decision, not a crashed benchmark
            print(f"decision crashed: {err!r}", file=sys.stderr)
            evidence = err
        dt = time.perf_counter() - t0
        calibration = calibration_s()
        self.samples[index].append(dt / ((self._last_calibration + calibration) / 2))
        self._last_calibration = calibration
        self.calibrations.append(calibration)
        self.decide_s += dt
        self.decisions += self.workload.points(item)
        self._done.append((item, evidence))

    def check(self) -> None:
        """Check every verdict decided so far; outside the timed region."""
        for item, evidence in self._done:
            if isinstance(evidence, Exception):
                self.failed += self.workload.points(item)
                continue
            try:
                self.failed += self.workload.check(item, evidence)
            except (KeyError, IndexError, TypeError, ValueError, AttributeError) as err:
                print(f"unreadable evidence: {err!r}", file=sys.stderr)
                self.failed += self.workload.points(item)
        self._done = []

    def _item_times(self) -> list[tuple[float, int]]:
        """(time in baseline seconds, verdicts) of every item decided at least once."""
        scale = CALIBRATION_BASELINE_MS / 1000
        return [
            (scale * statistics.median(samples), self.workload.points(item))
            for samples, item in zip(self.samples, self.workload.items)
            if samples
        ]

    def per_decision(self) -> list[float]:
        """Time per verdict of every item, in baseline seconds."""
        return [t / k for t, k in self._item_times()]

    def rate(self) -> float:
        """Verdicts per baseline second, each item at its median time."""
        times = self._item_times()
        return sum(k for _, k in times) / sum(t for t, _ in times)


def rounds(n_items: int, seed: int):
    """Item indices for ever: every item once per round, each round in a seeded order."""
    rng = random.Random(f"order-{seed}")
    while True:
        order = list(range(n_items))
        rng.shuffle(order)
        yield from order


def measure(workload, seconds: float, seed: int) -> Pass:
    """Decide items round-robin until ``seconds`` have passed; then check every verdict."""
    result = Pass(workload)
    order = rounds(len(workload.items), seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        result.decide(next(order))
    result.check()
    return result


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With fewer than 21 samples that percentile would be at or below the
    median, so the slowest sample is reported instead.
    """
    ordered = sorted(samples)
    index = len(ordered) - 11 if len(ordered) >= 21 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _timed_child(cmd: list[str], root: Path) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=_child_env(root), check=True, capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def probe_setup(workload_name: str, seed: int) -> None:
    """Body of a ``setup_s`` probe: the workload's set-up in a fresh process."""
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    WORKLOADS[workload_name](root, seed).setup()


def scaled_setup_s(probe: list[str], root: Path) -> tuple[float, float]:
    """(baseline seconds, unscaled seconds) of one set-up probe, timed against calibrations."""
    before = calibration_s()
    wall = _timed_child(probe, root)
    after = calibration_s()
    return CALIBRATION_BASELINE_MS / 1000 * wall / ((before + after) / 2), wall


def end_to_end(name: str, root: Path, seed: int, seconds: float) -> tuple[dict, Pass]:
    probe = _bench_call(f"import run; run.probe_setup({name!r}, {seed})")
    probes = [scaled_setup_s(probe, root) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(scaled for scaled, _ in probes)
    workload = WORKLOADS[name](root, seed)
    workload.setup()
    result = measure(workload, seconds, seed)
    usage = resource.RUSAGE_CHILDREN if name == "cli-check" else resource.RUSAGE_SELF
    samples = result.per_decision()
    tail_s, tail_pct = tail(samples)
    rounds_done = result.decisions / sum(workload.points(item) for item in workload.items)
    print(f"# {name}: {result.decisions} decisions, {rounds_done:.1f} rounds over "
          f"{len(workload.items)} items; tail = p{tail_pct:.0f} of {len(samples)} samples")
    print(f"# unscaled: {result.decisions / result.decide_s:.6g} decisions per second of "
          f"decide; calibration median {1000 * statistics.median(result.calibrations):.4g} ms, "
          f"baseline {CALIBRATION_BASELINE_MS} ms; set-up median "
          f"{statistics.median(wall for _, wall in probes):.4g} s")
    metrics = {
        "setup_s": (setup_s, "s"),
        "decisions_per_s": (result.rate(), "1/s"),
        "decision_p50_ms": (1000 * statistics.median(samples), "ms"),
        "decision_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
    }
    return metrics, result


# --- traced run ---------------------------------------------------------------

LAYERS = ("cli", "numerics", "feasibility", "simplex", "measures", "closed_form", "event_space")


class TracedCliCheck(CliCheck):
    """``cli-check`` whose child processes record spans into files."""

    def __init__(self, root: Path, seed: int, out_dir: Path):
        super().__init__(root, seed)
        self.spans_file = out_dir / "child-spans.json"

    def setup(self) -> None:
        self.tracer = Tracer()
        super().setup()
        self.tracer = Tracer()  # drops the warm-up's spans

    def command(self, name: str) -> list[str]:
        call = f"spans.traced_cli({str(self.spans_file)!r}, {self.argv(name)!r})"
        return _bench_call(f"import spans; sys.exit({call})")

    def decide(self, name: str):
        evidence = super().decide(name)
        with open(self.spans_file, encoding="utf-8") as fh:
            self.tracer.absorb(json.load(fh), self.tracer.decision)
        self.spans_file.unlink()
        return evidence


def import_probes(root: Path) -> dict:
    bare = statistics.median(
        _timed_child([sys.executable, "-c", "pass"], root) for _ in range(IMPORT_PROBES)
    )
    cli_import = statistics.median(
        _timed_child([sys.executable, "-c", "import contextuality_kit.cli"], root)
        for _ in range(IMPORT_PROBES)
    )
    quantum = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import contextuality_kit.cli"],
            env=_child_env(root), capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        micros = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "contextuality_kit.quantum":
                micros = int(fields[1])
        quantum.append(micros / 1000)
    return {
        "cli.import_ms": (1000 * (cli_import - bare), "ms"),
        "quantum.import_ms": (statistics.median(quantum), "ms"),
    }


def scaling_point(n: int, planted: bool, seed: int) -> None:
    """Body of one scaling-curve child: decide one document, print simplex time."""
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from contextuality_kit import cli, feasibility

    document = reference.wide_document(seed, n, planted)
    tracer = Tracer(keep=0)
    with tracer.installed():
        outcome = feasibility.solve_robust(cli.scenario_from_document(document))
    simplex_s = sum(tracer.by_name.get(k, [0, 0.0])[1] for k in ("simplex.phase1", "simplex.margin_lp"))
    print(json.dumps({"simplex_ms": 1000 * simplex_s, "ok": wide_outcome_holds(document, planted, outcome)}))


def scaling_curve(root: Path, seed: int) -> tuple[dict, int, int]:
    """Simplex time per n for both halves; stops a half at its first over-budget n.

    Points not measured (over budget, beyond it, or planted n=3, which
    has no CHSH 4-cycle) read -1.
    """
    metrics, attempted, failed = {}, 0, 0
    for half, planted in (("feasible", False), ("planted", True)):
        max_n = 0
        over = False
        for n in SCALING_NS:
            key = f"scaling.{half}.n{n:02d}.simplex_ms"
            metrics[key] = (-1.0, "ms")
            if over or (planted and n < 4):
                continue
            cmd = _bench_call(f"import run; run.scaling_point({n}, {planted}, {seed})")
            try:
                proc = subprocess.run(
                    cmd, env=_child_env(root), capture_output=True, text=True, timeout=SCALING_BUDGET_S,
                )
            except subprocess.TimeoutExpired:
                print(f"# scaling {half} n={n}: over budget ({SCALING_BUDGET_S:.0f} s)")
                over = True
                continue
            attempted += 1
            try:
                point = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                point = {"ok": False}
            if proc.returncode != 0 or not point["ok"]:
                failed += 1
                continue
            metrics[key] = (point["simplex_ms"], "ms")
            max_n = n
            print(f"# scaling {half} n={n}: simplex {point['simplex_ms']:.1f} ms")
        metrics[f"scaling.{half}.max_n"] = (max_n, "count")
    return metrics, attempted, failed


def layer_metrics(tracer: Tracer, decisions: int) -> dict:
    """Per-decision counts and times from the aggregated spans."""
    by_name = tracer.by_name

    def calls(name):
        return by_name.get(name, [0])[0] / decisions

    def total_ms(name):
        return 1000 * by_name.get(name, [0, 0.0])[1] / decisions

    metrics = {}
    for layer in LAYERS:
        names = [k for k in by_name if k.split(".", 1)[0] == layer]
        metrics[f"{layer}.calls"] = (sum(by_name[k][0] for k in names) / decisions, "count")
        metrics[f"{layer}.total_ms"] = (1000 * tracer.layer_total.get(layer, 0.0) / decisions, "ms")
        metrics[f"{layer}.self_ms"] = (1000 * sum(by_name[k][2] for k in names) / decisions, "ms")
    phase1, margin_lp = total_ms("simplex.phase1"), total_ms("simplex.margin_lp")
    metrics.update({
        "simplex.phase1.calls": (calls("simplex.phase1"), "count"),
        "simplex.phase1_ms": (phase1, "ms"),
        "simplex.margin_lp.calls": (calls("simplex.margin_lp"), "count"),
        "simplex.margin_lp_ms": (margin_lp, "ms"),
        "simplex.margin_lp_share": (margin_lp / (phase1 + margin_lp) if phase1 + margin_lp else 0.0, "ratio"),
        "simplex.tableau_cells": (tracer.tableau_cells / decisions, "count"),
        "feasibility.solve.calls_per_decision": (calls("feasibility.solve"), "count"),
        "feasibility.verify_certificate_ms": (total_ms("feasibility.verify_certificate"), "ms"),
        "measures.validate_ms": (total_ms("measures.validate"), "ms"),
        "numerics.parse_and_evaluate.calls": (calls("numerics.parse_and_evaluate"), "count"),
        "numerics.parse_and_evaluate_ms": (total_ms("numerics.parse_and_evaluate"), "ms"),
        "cli.load_scenario_ms": (total_ms("cli.load_scenario"), "ms"),
        "cli.run_self_ms": (1000 * by_name.get("cli.run", [0, 0.0, 0.0])[2] / decisions, "ms"),
        "closed_form.check_ghz_inequalities_ms": (total_ms("closed_form.check_ghz_inequalities"), "ms"),
    })
    return metrics


def per_layer(name: str, root: Path, seed: int, seconds: float) -> tuple[dict, int, int]:
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    metrics = import_probes(root)
    # The two passes alternate item by item over the same inputs, so
    # both see the same host speed.
    plain = WORKLOADS[name](root, seed)
    plain.setup()
    if name == "cli-check":
        workload = TracedCliCheck(root, seed, out_dir)
        workload.setup()
        tracer = workload.tracer
        install = contextlib.nullcontext
    else:
        workload = WORKLOADS[name](root, seed)
        workload.setup()
        tracer = Tracer()
        install = tracer.installed
    untraced, traced = Pass(plain), Pass(workload)
    order = rounds(len(plain.items), seed)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        index = next(order)
        untraced.decide(index)
        with install():
            traced.decide(index, tracer)
    untraced.check()
    traced.check()
    metrics.update(layer_metrics(tracer, traced.decisions))
    metrics["trace.overhead_ratio"] = (untraced.rate() / traced.rate() - 1, "ratio")
    metrics["trace.decisions"] = (traced.decisions, "count")
    tracer.write(out_dir / f"spans-{name}-seed{seed}.json")
    curve, curve_attempted, curve_failed = scaling_curve(root, seed)
    metrics.update(curve)
    attempted = untraced.decisions + traced.decisions + curve_attempted
    failed = untraced.failed + traced.failed + curve_failed
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "contextuality_kit" / "__init__.py").is_file():
        print(f"no kit sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    # One CPU for this process and every child it starts, so that the
    # calibration and the decision it gauges see the same vCPU's speed.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.trace:
        metrics, attempted, failed = per_layer(args.workload, root, args.seed, args.seconds)
    else:
        metrics, result = end_to_end(args.workload, root, args.seed, args.seconds)
        attempted, failed = result.decisions, result.failed
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
