"""The benchmark's workloads: how each one runs its study and how its output
is checked.

Every study writes its CSV through `experiments.emit_csv`, and the checks
read what was written, so a run is judged on what a user of the CLI gets.
A check works per scheme run (one scheme at one N): each run is attempted
once per study and fails when its rows are missing, fail the workload's own
test, or differ from the first study of the benchmark run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable

from tamedbsde import experiments
from tamedbsde.backward import EXPLICIT_UNTAMED

HERE = os.path.dirname(os.path.abspath(__file__))
TREE_REFERENCE = os.path.join(HERE, "tree_reference.json")
TREE_RTOL = 1e-10


@dataclass
class Outcome:
    """Output text and own-check verdict of every scheme run of one study."""

    expected: list[str]
    texts: dict[str, str] = field(default_factory=dict)
    bad: set[str] = field(default_factory=set)

    def failures(self, reference: "Outcome | None") -> set[str]:
        failed = {key for key in self.expected if key not in self.texts or key in self.bad}
        if reference is not None:
            failed |= {key for key in self.expected
                       if self.texts.get(key) != reference.texts.get(key)}
        return failed


def scheme_runs(cfg) -> list[str]:
    """Keys of the scheme runs one study of `cfg` makes: one per (scheme, N)."""
    return [f"{run.label}/N={n}" for run in cfg.schemes for n in cfg.grids]


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _finite(text: str) -> bool:
    return math.isfinite(float(text))


def convergence_outcome(cfg, path: str) -> Outcome:
    """Rows of a convergence CSV.  Untamed explicit rows must come back
    exploded with error=inf (explosion is data); every other row must be
    finite and not exploded."""
    untamed = {run.label for run in cfg.schemes if run.scheme.kind == EXPLICIT_UNTAMED}
    out = Outcome(expected=scheme_runs(cfg))
    lines = _read_lines(path)
    if not lines or lines[0] != experiments.CONVERGENCE_HEADER:
        return out
    for line in lines[1:]:
        scheme, n, _h, error, _wall, exploded, _seed = line.split(",")
        key = f"{scheme}/N={n}"
        out.texts[key] = line
        if scheme in untamed:
            ok = exploded == "true" and error == "inf"
        else:
            ok = exploded == "false" and _finite(error)
        if not ok:
            out.bad.add(key)
    return out


def _extrema_outcome(out: Outcome, path: str, suffix: str, steps: int) -> dict[str, float]:
    """Group positivity-style rows by scheme; each scheme needs N+1 finite
    rows.  Returns each scheme's value at step 0 (the root of a tree run)."""
    roots = {}
    lines = _read_lines(path)
    if not lines or lines[0] != experiments.EXTREMA_HEADER:
        return roots
    rows: dict[str, list[str]] = {}
    for line in lines[1:]:
        rows.setdefault(line.split(",", 1)[0] + suffix, []).append(line)
    for key, group in rows.items():
        out.texts[key] = "\n".join(group)
        fields = [line.split(",") for line in group]
        finite = all(_finite(v) for f in fields for v in f[3:5])
        if len(group) != steps + 1 or not finite:
            out.bad.add(key)
        roots.update({key: float(f[3]) for f in fields if f[1] == "0"})
    return roots


def converge_study(cfg, out_dir: str) -> str:
    path = os.path.join(out_dir, "lsmc_converge.csv")
    experiments.emit_csv(experiments.convergence_study(cfg), path)
    return path


def wide_study(cfg, out_dir: str) -> str:
    path = os.path.join(out_dir, "lsmc_wide.csv")
    experiments.emit_csv(experiments.positivity_study(cfg), path)
    return path


def wide_outcome(cfg, path: str) -> Outcome:
    n = cfg.grids[0]
    out = Outcome(expected=scheme_runs(cfg))
    _extrema_outcome(out, path, f"/N={n}", n)
    return out


def tree_study(cfg, out_dir: str) -> list[tuple[int, str]]:
    """One tree-oracle study per N of the ladder."""
    written = []
    for n in cfg.grids:
        path = os.path.join(out_dir, f"tree_ladder_N{n}.csv")
        experiments.emit_csv(experiments.tree_oracle_study(replace(cfg, grids=[n])), path)
        written.append((n, path))
    return written


def tree_outcome(cfg, written) -> Outcome:
    """Root values u(0, x0), as written with 12 significant digits, must
    match the stored reference to TREE_RTOL."""
    with open(TREE_REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    out = Outcome(expected=scheme_runs(cfg))
    for n, path in written:
        for key, value in _extrema_outcome(out, path, f"/N={n}", n).items():
            want = reference[key.split("/")[0]][str(n)]
            if not abs(value - want) <= TREE_RTOL * abs(want):
                out.bad.add(key)
    return out


def design_bytes(cfg) -> int:
    """Computed size of one design matrix (rows x K x 8 B).  A one-path
    config is a tree run, which builds none: 0."""
    return cfg.paths * cfg.basis_size * 8 if cfg.paths > 1 else 0


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    # study(cfg, out_dir) is one complete study call, CSV emission
    # included; outcome(cfg, study_result) checks what it wrote
    study: Callable
    outcome: Callable
    # the study has a scheme pool (the convergence study): it is timed with
    # one thread; the fresh-process and traced studies run nproc threads
    pooled: bool
    # the perfbench/yardstick.py work that is most like the study's own
    yardstick: str

    def config_path(self) -> str:
        return os.path.join(HERE, "configs", self.config)

    def prepare(self, cfg, seed: int, threads: int):
        cfg.seed = seed
        cfg.threads = threads if self.pooled else 1
        return cfg


WORKLOADS = {
    w.name: w for w in (
        Workload("lsmc_converge", "lsmc_converge.cfg", converge_study, convergence_outcome,
                 pooled=True, yardstick="regression"),
        Workload("lsmc_wide", "lsmc_wide.cfg", wide_study, wide_outcome, pooled=False,
                 yardstick="regression"),
        Workload("tree_ladder", "tree_ladder.cfg", tree_study, tree_outcome, pooled=False,
                 yardstick="calls"),
    )
}

# read in place; perfbench/run.py sets its seed from --seed
EXPLOSION_DEMO = os.path.join(os.path.dirname(HERE), "scripts", "explosion_demo.cfg")
