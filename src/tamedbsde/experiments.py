"""Experiment drivers: convergence study against a fine-grid proxy,
positivity study, taming verification across the step ladder, and the
exact-tree oracle run; all emit deterministic CSV.

Brownian paths are simulated once on the finest grid and aggregated to each
coarser one, so every scheme/grid pair sees the same underlying noise and
the proxy can be evaluated at coarse grid points without interpolation.
"""

from __future__ import annotations

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .backward import (
    IMPLICIT,
    EXPLICIT_TAMED,
    SchemeOutput,
    positivity_report,
    run_backward,  # noqa: F401  (unused; the benchmark's trace probes look it up here)
    run_backward_group,
    step_size_condition,
    tree_exact_run,
)
from .config import ConfigError, ExperimentConfig, SchemeRun
from .drivers import INNER_PROJ, TamedDriver, derive_constants, verify_assumptions
from .forward import euler_simulate, terminal_values
from .grids import (
    IncrementBatch,
    NoiseModel,
    PartitionGrid,
    RADEMACHER,
    build_grid,
    increments_from_dw,
    sample_increments,
)
from .regression import BasisSpec


def aggregate_to_grid(batch: IncrementBatch, fine: PartitionGrid, coarse: PartitionGrid,
                      model: NoiseModel) -> IncrementBatch:
    """Sum fine-grid Brownian increments over each coarse interval and
    re-derive H at the coarse step size."""
    if fine.steps % coarse.steps:
        raise ValueError(f"grids are not nested: {coarse.steps} does not divide {fine.steps}")
    if model.kind == RADEMACHER:
        raise ValueError("rademacher increments do not aggregate across grids")
    stride = fine.steps // coarse.steps
    m, _, d = batch.dW.shape
    return increments_from_dw(model, batch.dW.reshape(m, coarse.steps, stride, d).sum(axis=2), coarse.h)


@dataclass(frozen=True)
class ErrorRow:
    scheme: str
    steps: int
    h: float
    error: float
    wallclock_ms: float
    exploded: bool
    seed: int


@dataclass
class ErrorReport:
    rows: list[ErrorRow]
    proxy_labels: list[str]
    seed: int


@dataclass(frozen=True)
class ExtremaRow:
    scheme: str
    index: int
    t: float
    min_y: float
    max_y: float


@dataclass
class PositivityStudyReport:
    rows: list[ExtremaRow]
    conditions: list[tuple[str, float, bool]]  # (label, h*L^h_y condition value, ok)
    backend: str = "regression"


@dataclass(frozen=True)
class TamingRow:
    taming: str
    steps: int
    h: float
    radius: float
    k_t: float
    k_y: float
    l_y: float
    k_y_sq_h: float
    l_y_sq_h: float
    empirical: bool
    checks: dict


@dataclass
class TamingReport:
    rows: list[TamingRow]

    def witness_growth(self) -> dict[str, bool]:
        """Per taming: does the growth witness (K^h_y)^2 h blow up along the
        ladder?  A bounded schedule keeps it essentially flat; a violating
        exponent makes it grow without bound."""
        first: dict[str, float] = {}
        last: dict[str, float] = {}
        for row in self.rows:
            first.setdefault(row.taming, row.k_y_sq_h)
            last[row.taming] = row.k_y_sq_h
        return {label: last[label] > 4.0 * max(first[label], 1e-300) for label in first}


def _tamed(cfg: ExperimentConfig, run: SchemeRun, h: float) -> TamedDriver:
    return TamedDriver(base=cfg.driver, taming=run.taming, h=h)


def _build_ensembles(cfg: ExperimentConfig):
    """(grid, batch, ensemble, xi) per configured N, from one fine-grid simulation."""
    fine = build_grid(cfg.horizon, cfg.grids[-1])
    fine_batch = sample_increments(fine, cfg.paths, 1, cfg.seed, cfg.noise)
    out = {}
    for n in cfg.grids:
        grid = build_grid(cfg.horizon, n)
        batch = fine_batch if n == cfg.grids[-1] else aggregate_to_grid(fine_batch, fine, grid, cfg.noise)
        ensemble = euler_simulate(cfg.sde, grid, batch)
        xi = terminal_values(cfg.terminal, ensemble)
        out[n] = (grid, batch, ensemble, xi)
    return out


def _run_grid(cfg: ExperimentConfig, runs: list[SchemeRun], grid, batch, ensemble, xi,
              basis) -> list[SchemeOutput]:
    """All `runs` on one grid, in lockstep on one design per step."""
    members = [(run.scheme, _tamed(cfg, run, grid.h)) for run in runs]
    return run_backward_group(members, ensemble, xi, batch, basis)


def _proxy_runs(cfg: ExperimentConfig) -> list[SchemeRun]:
    implicit = next((s for s in cfg.schemes if s.scheme.kind == IMPLICIT), None)
    inner = next((s for s in cfg.schemes
                  if s.scheme.kind == EXPLICIT_TAMED and s.taming.kind == INNER_PROJ), None)
    chosen = [s for s in (implicit, inner) if s is not None]
    if not chosen:
        raise ConfigError(
            "convergence proxy needs an implicit scheme or an inner-projection explicit scheme")
    return chosen


def _error_against(proxy: np.ndarray, output: SchemeOutput, stride: int) -> float:
    if output.exploded:
        return math.inf
    diff = output.Y - proxy[:, ::stride]
    rms = np.sqrt(np.mean(diff**2, axis=0))
    err = float(np.max(rms))
    return err if math.isfinite(err) else math.inf


def convergence_study(cfg: ExperimentConfig) -> ErrorReport:
    """Run every configured scheme on every grid and measure the distance
    max_i E[|Y_i - Y^proxy_i|^2]^(1/2) against the fine-grid proxy (the
    average of the implicit and inner-tamed outputs at the largest N).

    The schemes of one grid run as one lockstep group.  The finest grid runs
    first, and only the proxy is kept from it; with threads > 1 the pool
    runs the coarser grids' groups.  The groups do not depend on the thread
    count, so neither do the results."""
    basis = BasisSpec(size=cfg.basis_size, standardize=cfg.basis_standardize)
    per_grid = _build_ensembles(cfg)
    finest = cfg.grids[-1]
    proxy_schemes = _proxy_runs(cfg)

    outputs = _run_grid(cfg, cfg.schemes, *per_grid[finest], basis)
    by_label = dict(zip((run.label for run in cfg.schemes), outputs))
    for run in proxy_schemes:
        if by_label[run.label].exploded:
            raise RuntimeError(f"proxy scheme {run.label!r} exploded on the finest grid")
    proxy = np.mean([by_label[run.label].Y for run in proxy_schemes], axis=0)

    def grid_rows(n: int, outputs: list[SchemeOutput]) -> list[ErrorRow]:
        h = per_grid[n][0].h
        return [ErrorRow(run.label, n, h, _error_against(proxy, output, finest // n),
                         output.wallclock_ms, output.exploded, cfg.seed)
                for run, output in zip(cfg.schemes, outputs)]

    rows = grid_rows(finest, outputs)
    del outputs, by_label

    def job(n: int) -> list[ErrorRow]:
        return grid_rows(n, _run_grid(cfg, cfg.schemes, *per_grid[n], basis))

    coarse = cfg.grids[:-1]
    if cfg.threads > 1:
        # give back the pages the finest group freed: glibc keeps 20-30 MB of them
        # in some heap layouts, and the pool's threads allocate in other arenas
        libc = ctypes.CDLL(None) if os.name == "posix" else None
        getattr(libc, "malloc_trim", lambda pad: 0)(0)
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            groups = list(pool.map(job, coarse))
    else:
        groups = [job(n) for n in coarse]
    rows += [row for group in groups for row in group]

    rows.sort(key=lambda row: (row.scheme, row.steps))
    return ErrorReport(rows=rows, proxy_labels=[s.label for s in proxy_schemes], seed=cfg.seed)


def _extrema_rows(label: str, report, times) -> list[ExtremaRow]:
    n = len(report.per_step_min) - 1
    return [ExtremaRow(label, i, float(times[i]),
                       float(report.per_step_min[i]), float(report.per_step_max[i]))
            for i in range(n, -1, -1)]


def positivity_study(cfg: ExperimentConfig) -> PositivityStudyReport:
    """Per-step empirical extrema of Y for each scheme at the single
    configured N (regression backend), plus the step condition h * L^h_y."""
    if len(cfg.grids) != 1:
        raise ConfigError("positivity study expects exactly one grid size")
    n = cfg.grids[0]
    grid = build_grid(cfg.horizon, n)
    batch = sample_increments(grid, cfg.paths, 1, cfg.seed, cfg.noise)
    ensemble = euler_simulate(cfg.sde, grid, batch)
    xi = terminal_values(cfg.terminal, ensemble)
    basis = BasisSpec(size=cfg.basis_size, standardize=cfg.basis_standardize)

    runs = sorted(cfg.schemes, key=lambda s: s.label)
    outputs = _run_grid(cfg, runs, grid, batch, ensemble, xi, basis)
    rows: list[ExtremaRow] = []
    conditions = []
    for run, output in zip(runs, outputs):
        rows += _extrema_rows(run.label, positivity_report(output), grid.times)
        cond = grid.h * derive_constants(_tamed(cfg, run, grid.h)).l_y
        conditions.append((run.label, cond, cond < 1.0))
    return PositivityStudyReport(rows=rows, conditions=conditions, backend="regression")


def tree_oracle_study(cfg: ExperimentConfig) -> PositivityStudyReport:
    """Exact-tree counterpart of the positivity study (Rademacher noise,
    half/half conditional expectations, no regression error)."""
    from .trees import build_tree

    if len(cfg.grids) != 1:
        raise ConfigError("tree oracle expects exactly one grid size")
    grid = build_grid(cfg.horizon, cfg.grids[0])
    tree = build_tree(cfg.sde, grid)
    rows: list[ExtremaRow] = []
    conditions = []
    for run in sorted(cfg.schemes, key=lambda s: s.label):
        tamed = _tamed(cfg, run, grid.h)
        output = tree_exact_run(run.scheme, tamed, tree, cfg.terminal)
        rows += _extrema_rows(run.label, positivity_report(output), grid.times)
        cond = step_size_condition(run.scheme, tamed, 1.0 / math.sqrt(grid.h))
        conditions.append((run.label, cond, cond < 1.0))
    return PositivityStudyReport(rows=rows, conditions=conditions, backend="tree")


def verify_taming_study(cfg: ExperimentConfig) -> TamingReport:
    """Assumption checks and boundedness witnesses for every configured
    taming across the whole N ladder."""
    tamings: list[tuple[str, object]] = []
    seen = set()
    for run in cfg.schemes:
        key = (run.taming.kind, run.taming.r0, run.taming.exponent)
        if key not in seen:
            seen.add(key)
            tamings.append((run.label, run.taming))
    if cfg.default_taming is not None:
        key = (cfg.default_taming.kind, cfg.default_taming.r0, cfg.default_taming.exponent)
        if key not in seen:
            tamings.append(("default", cfg.default_taming))

    rows: list[TamingRow] = []
    for label, taming in sorted(tamings, key=lambda item: item[0]):
        for n in cfg.grids:
            h = cfg.horizon / n
            tamed = TamedDriver(base=cfg.driver, taming=taming, h=h)
            cons = derive_constants(tamed)
            report = verify_assumptions(tamed, cfg.probe)
            rows.append(TamingRow(
                taming=label, steps=n, h=h, radius=cons.radius,
                k_t=cons.k_t, k_y=cons.k_y, l_y=cons.l_y,
                k_y_sq_h=cons.k_y_sq_h, l_y_sq_h=cons.l_y_sq_h,
                empirical=cons.empirical,
                checks={name: ch.passed for name, ch in report.checks.items()},
            ))
    return TamingReport(rows=rows)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.12g}"
    return str(value)


CONVERGENCE_HEADER = "scheme,N,h,error,wallclock_ms,exploded,seed"
EXTREMA_HEADER = "scheme,i,t,min_Y,max_Y"
TAMING_HEADER = ("taming,N,h,radius,K_h_t,K_h_y,L_h_y,K_h_y_sq_h,L_h_y_sq_h,empirical,"
                 "domination,growth,monotone_growth,lipschitz_y,monotonicity,residual,all_pass")
CHECK_ORDER = ("domination", "growth", "monotone_growth", "lipschitz_y", "monotonicity", "residual")


def _timings_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.timings{ext or '.csv'}"


def emit_csv(report, path: str, inline_timing: bool = False) -> None:
    """Write a report as CSV with 12-significant-digit values.

    Convergence reports keep the byte-reproducibility contract by default:
    measured wallclock goes to a `<name>.timings.csv` sidecar and the inline
    wallclock_ms column reads 0 unless inline timing was requested (live
    timings in the primary file forfeit byte-identity across reruns).
    """
    lines = []
    if isinstance(report, ErrorReport):
        lines.append(CONVERGENCE_HEADER)
        for row in report.rows:
            wall = row.wallclock_ms if inline_timing else 0.0
            lines.append(",".join([
                row.scheme, _fmt(row.steps), _fmt(row.h), _fmt(row.error),
                _fmt(wall), _fmt(row.exploded), _fmt(row.seed)]))
        _write_lines(path, lines)
        timing_lines = [CONVERGENCE_HEADER]
        for row in report.rows:
            timing_lines.append(",".join([
                row.scheme, _fmt(row.steps), _fmt(row.h), _fmt(row.error),
                _fmt(row.wallclock_ms), _fmt(row.exploded), _fmt(row.seed)]))
        _write_lines(_timings_path(path), timing_lines)
    elif isinstance(report, PositivityStudyReport):
        lines.append(EXTREMA_HEADER)
        for row in report.rows:
            lines.append(",".join([
                row.scheme, _fmt(row.index), _fmt(row.t), _fmt(row.min_y), _fmt(row.max_y)]))
        _write_lines(path, lines)
    elif isinstance(report, TamingReport):
        lines.append(TAMING_HEADER)
        for row in report.rows:
            checks = [row.checks.get(name, False) for name in CHECK_ORDER]
            lines.append(",".join(
                [row.taming, _fmt(row.steps), _fmt(row.h), _fmt(row.radius),
                 _fmt(row.k_t), _fmt(row.k_y), _fmt(row.l_y),
                 _fmt(row.k_y_sq_h), _fmt(row.l_y_sq_h), _fmt(row.empirical)]
                + [_fmt(c) for c in checks] + [_fmt(all(checks))]))
        _write_lines(path, lines)
    else:
        raise TypeError(f"no CSV writer for report type {type(report).__name__}")


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
