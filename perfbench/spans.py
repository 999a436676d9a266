"""In-memory span recorder and the probes that attach it to tamedbsde's
public functions from outside the library.

A span is one call into a layer: its name, start, end, the id of the span
that caused it and a few attributes computed from the call's arguments and
result (rows, points, iterations).  The parent is the span open on the same
thread when the call started; a call that starts on a thread with nothing
open (a scheme-pool worker) gets the study span as its parent, so every span
of one study hangs under one root.

Nothing under src/ knows about this module: `probes()` swaps the library's
module attributes and TamedDriver methods for timing wrappers and puts the
originals back on exit.  With tracing off nothing is swapped.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

STUDY = "study"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; `write` dumps them once the run is over."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def study(self):
        """Root span around one study call; yields its id."""
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        self._root = sid
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = None
            self.spans.append(Span(sid, None, STUDY, threading.get_ident(), start, end))

    def wrap(self, name: str, fn, attrs=None):
        """`fn` with a span named `name` around every call.  `attrs(args,
        kwargs, result)` is evaluated after the span has ended."""
        rec = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else rec._root
            stack.append(sid)
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result) if done and attrs is not None else {}
                rec.spans.append(Span(sid, parent, name, threading.get_ident(), start, end, extra))

        return probe

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "thread", "name", "start_s", "end_s", "attrs"])
            for s in sorted(self.spans, key=lambda s: s.id):
                out.writerow([s.id, "" if s.parent is None else s.parent, s.thread, s.name,
                              repr(s.start), repr(s.end), json.dumps(s.attrs, sort_keys=True)])


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _kind(scheme) -> str:
    return "implicit" if scheme.kind == "implicit" else "explicit"


@contextlib.contextmanager
def probes(rec: Recorder):
    """Install timing wrappers around the public functions of each layer.

    Functions are swapped in the namespace they are looked up from: the
    study functions in `experiments` import their callees by name, the
    regression helpers call `design_matrix` and `fit_least_squares` through
    their own module, and driver evaluations go through TamedDriver methods.
    """
    from tamedbsde import backward, drivers, experiments, regression, trees

    driver = drivers.TamedDriver
    targets = [
        (experiments, "sample_increments", "grids.sample_increments",
         lambda a, k, r: {"draws": int(r.dW.size)}),
        (experiments, "aggregate_to_grid", "experiments.aggregate_to_grid", None),
        (experiments, "euler_simulate", "forward.euler_simulate", None),
        (regression, "design_matrix", "regression.design_matrix",
         lambda a, k, r: {"bytes": int(r.shape[0]) * int(r.shape[1]) * 8}),
        (regression, "fit_least_squares", "regression.fit_least_squares", None),
        (backward, "predict", "regression.predict", None),
        (driver, "__call__", "drivers.eval",
         lambda a, k, r: {"points": int(np.size(_arg(a, k, 2, "y")))}),
        (driver, "tamed_y_part", "drivers.eval",
         lambda a, k, r: {"points": int(np.size(_arg(a, k, 1, "y")))}),
        (driver, "y_slope", "drivers.eval",
         lambda a, k, r: {"points": int(np.size(_arg(a, k, 1, "y")))}),
        (experiments, "derive_constants", "drivers.constants", None),
        (backward, "derive_constants", "drivers.constants", None),
        (experiments, "verify_assumptions", "drivers.constants", None),
        (experiments, "run_backward", "backward.run_backward",
         lambda a, k, r: {"kind": _kind(_arg(a, k, 0, "scheme")),
                          "steps": int(_arg(a, k, 2, "ensemble").grid.steps),
                          "iters": int(np.sum(r.diagnostics.implicit_iterations))}),
        (experiments, "tree_exact_run", "backward.tree_exact_run",
         lambda a, k, r: {"kind": _kind(_arg(a, k, 0, "scheme")),
                          "iters": int(np.sum(r.implicit_iterations))}),
        (trees, "build_tree", "trees.build_tree",
         lambda a, k, r: {"nodes": int(sum(level.size for level in r.levels))}),
        (experiments, "emit_csv", "experiments.emit_csv",
         lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    ]
    saved = []
    try:
        for owner, attr, name, attrs in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, rec.wrap(name, original, attrs))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# (metric, unit) in report order; the unit is part of the contract with
# BENCHMARK.json's per_layer list.
LAYER_METRICS = (
    ("grids.sample_s", "s"), ("grids.draws", "count"),
    ("experiments.aggregate_s", "s"),
    ("forward.euler_s", "s"),
    ("regression.design_s", "s"), ("regression.design_builds", "count"),
    ("regression.design_bytes", "B"),
    ("regression.lstsq_s", "s"), ("regression.fits", "count"),
    ("regression.predict_s", "s"),
    ("drivers.eval_s", "s"), ("drivers.evals", "count"), ("drivers.eval_points", "count"),
    ("drivers.constants_s", "s"),
    ("backward.run_s.explicit", "s"), ("backward.run_s.implicit", "s"),
    ("backward.self_s", "s"), ("backward.implicit_iters", "count"),
    ("backward.tree_run_s.explicit", "s"), ("backward.tree_run_s.implicit", "s"),
    ("trees.build_s", "s"), ("trees.nodes", "count"),
    ("experiments.emit_s", "s"), ("experiments.csv_bytes", "B"),
    ("experiments.pool_busy_frac", "frac"),
    ("trace.busy_s", "s"), ("trace.spans", "count"), ("trace.overhead_s", "s"),
)


def layer_metrics(spans: list[Span], threads: int, untraced_study_s: float) -> dict[str, float]:
    """Per-layer totals of one traced study.

    Self time is a span's duration minus its children's; children of one
    span run on its thread one after another, so they never overlap.  Driver
    evaluations count only calls from outside the drivers layer (a
    TamedDriver.__call__ evaluates tamed_y_part inside its own span).
    """
    by_id = {s.id: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.seconds
    (study,) = [s for s in spans if s.name == STUDY]

    def named(name, **match):
        return [s for s in spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in match.items())]

    def total(items) -> float:
        return float(sum(s.seconds for s in items))

    def own(items) -> float:
        return float(sum(s.seconds - child_s[s.id] for s in items))

    def attr_sum(items, key) -> int:
        return int(sum(s.attrs.get(key, 0) for s in items))

    def from_outside(s: Span) -> bool:
        parent = by_id.get(s.parent)
        return parent is None or not parent.name.startswith("drivers.")

    evals = [s for s in named("drivers.eval") if from_outside(s)]
    constants = [s for s in named("drivers.constants") if from_outside(s)]
    designs = named("regression.design_matrix")
    runs = named("backward.run_backward")
    emits = named("experiments.emit_csv")
    return {
        "grids.sample_s": total(named("grids.sample_increments")),
        "grids.draws": attr_sum(named("grids.sample_increments"), "draws"),
        "experiments.aggregate_s": total(named("experiments.aggregate_to_grid")),
        "forward.euler_s": total(named("forward.euler_simulate")),
        "regression.design_s": total(designs),
        "regression.design_builds": len(designs),
        "regression.design_bytes": attr_sum(designs, "bytes"),
        "regression.lstsq_s": total(named("regression.fit_least_squares")),
        "regression.fits": len(named("regression.fit_least_squares")),
        "regression.predict_s": own(named("regression.predict")),
        "drivers.eval_s": total(evals),
        "drivers.evals": len(evals),
        "drivers.eval_points": attr_sum(evals, "points"),
        "drivers.constants_s": total(constants),
        "backward.run_s.explicit": total(named("backward.run_backward", kind="explicit")),
        "backward.run_s.implicit": total(named("backward.run_backward", kind="implicit")),
        "backward.self_s": own(runs),
        "backward.implicit_iters": attr_sum(runs + named("backward.tree_exact_run"), "iters"),
        "backward.tree_run_s.explicit": total(named("backward.tree_exact_run", kind="explicit")),
        "backward.tree_run_s.implicit": total(named("backward.tree_exact_run", kind="implicit")),
        "trees.build_s": total(named("trees.build_tree")),
        "trees.nodes": attr_sum(named("trees.build_tree"), "nodes"),
        "experiments.emit_s": total(emits),
        "experiments.csv_bytes": attr_sum(emits, "bytes"),
        "experiments.pool_busy_frac": total(runs) / (threads * study.seconds),
        "trace.busy_s": total(s for s in spans if s.parent == study.id),
        "trace.spans": len(spans),
        "trace.overhead_s": study.seconds - untraced_study_s,
    }


def expected_design_counts(spans: list[Span]) -> tuple[int, int]:
    """(design builds, fits) the seed-commit regression path makes: two
    projections per (scheme, step), each one fit and two design builds (one
    for the fit, one for the prediction)."""
    pairs = sum(s.attrs.get("steps", 0) for s in spans if s.name == "backward.run_backward")
    return 4 * pairs, 2 * pairs
