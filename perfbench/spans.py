"""Span recorder for the traced run.

The kit is not instrumented.  Instead its public functions are replaced,
for the duration of a traced pass, by wrappers installed at the module
attribute each caller looks up: several modules import a function by
name, so one function can need more than one wrapper.  Spans nest
through a stack (the kit is single-threaded on the decision path), so a
span's self time is its duration minus the durations of its direct
children.  Aggregates are kept for every span; the raw spans are kept
up to a cap and written out when the benchmark ends.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

#: (module of the kit, attribute, span name).  The first dotted part of
#: the span name is the layer; ``simplex.solve_lp`` is split into
#: ``simplex.phase1`` (``costs=None``) and ``simplex.margin_lp``.
WRAP_POINTS = (
    ("simplex", "solve_lp", "simplex.solve_lp"),
    ("feasibility", "solve_robust", "feasibility.solve_robust"),
    ("feasibility", "solve", "feasibility.solve"),
    ("feasibility", "margin", "feasibility.margin"),
    ("feasibility", "verify_certificate", "feasibility.verify_certificate"),
    ("feasibility", "oracle_grid_agreement", "feasibility.oracle_grid_agreement"),
    ("feasibility", "validate", "measures.validate"),
    ("feasibility", "moment_coefficients", "event_space.moment_coefficients"),
    ("measures", "moment_coefficients", "event_space.moment_coefficients"),
    ("cli", "run", "cli.run"),
    ("cli", "load_scenario", "cli.load_scenario"),
    ("cli", "scenario_from_document", "cli.scenario_from_document"),
    ("cli", "parse_and_evaluate", "numerics.parse_and_evaluate"),
    ("cli", "solve_robust", "feasibility.solve_robust"),
    ("cli", "verify_certificate", "feasibility.verify_certificate"),
    ("closed_form", "check_ghz_inequalities", "closed_form.check_ghz_inequalities"),
)

SPAN_FIELDS = ("id", "name", "start_s", "end_s", "parent", "decision")


class Tracer:
    """Spans and per-name aggregates for one process."""

    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.decision = None
        self.spans: list[list] = []
        self.dropped = 0
        # name -> [calls, total_s, self_s]
        self.by_name: dict[str, list] = {}
        # layer -> time covered by its outermost spans, in seconds
        self.layer_total: dict[str, float] = {}
        self.tableau_cells = 0
        self._stack: list[list] = []  # [id, name, start, child_s]
        self._open_in_layer: dict[str, int] = {}
        self._next_id = 0

    def _open(self, name: str) -> None:
        self._next_id += 1
        layer = name.split(".", 1)[0]
        self._open_in_layer[layer] = self._open_in_layer.get(layer, 0) + 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child_s = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        entry = self.by_name.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_s
        layer = name.split(".", 1)[0]
        self._open_in_layer[layer] -= 1
        if not self._open_in_layer[layer]:
            self.layer_total[layer] = self.layer_total.get(layer, 0.0) + duration
        if len(self.spans) < self.keep:
            self.spans.append(
                [span_id, name, start, end, parent[0] if parent else None, self.decision]
            )
        else:
            self.dropped += 1

    def _wrap(self, fn, name: str):
        if name == "simplex.solve_lp":
            return self._wrap_solve_lp(fn)

        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    def _wrap_solve_lp(self, fn):
        def traced(costs, rows, rhs, n_vars=None):
            m = len(rows)
            width = n_vars if n_vars is not None else len(rows[0])
            self.tableau_cells += (m + 1) * (width + m + 1)
            self._open("simplex.phase1" if costs is None else "simplex.margin_lp")
            try:
                return fn(costs, rows, rhs, n_vars)
            finally:
                self._close()

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper on the kit's modules; restore on exit."""
        saved = []
        try:
            for module_name, attr, name in WRAP_POINTS:
                module = importlib.import_module(f"contextuality_kit.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def state(self) -> dict:
        return {
            "by_name": self.by_name,
            "layer_total": self.layer_total,
            "tableau_cells": self.tableau_cells,
            "spans": self.spans,
            "dropped": self.dropped,
            "next_id": self._next_id,
        }

    def absorb(self, state: dict, decision) -> None:
        """Merge the state of a traced child process as one decision."""
        for name, (calls, total, self_s) in state["by_name"].items():
            entry = self.by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for layer, total in state["layer_total"].items():
            self.layer_total[layer] = self.layer_total.get(layer, 0.0) + total
        self.tableau_cells += state["tableau_cells"]
        self.dropped += state["dropped"]
        offset = self._next_id
        self._next_id += state["next_id"]
        for span_id, name, start, end, parent, _ in state["spans"]:
            if len(self.spans) < self.keep:
                parent = parent + offset if parent is not None else None
                self.spans.append([span_id + offset, name, start, end, parent, decision])
            else:
                self.dropped += 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "dropped": self.dropped, "spans": self.spans}, fh)


def traced_cli(out_path: str, argv: list[str]) -> int:
    """Run the CLI once with every wrapper installed; dump the tracer state."""
    from contextuality_kit import cli

    tracer = Tracer()
    with tracer.installed():
        code = cli.run(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.state(), fh)
    return code
