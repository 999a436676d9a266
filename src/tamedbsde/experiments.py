"""Experiment drivers: convergence study against a fine-grid proxy, the
extrema study of Y (the positivity study on paths and the tree oracle on
the exact tree, one study with two backends) and taming verification
across the step ladder; all emit deterministic CSV.  The studies that run
schemes admit each at each N in `_members` and go through `backward.sweep`,
where an exploded scheme leaves its block at its first bad step, so a study
sees only finite levels below the terminal one and masks no level itself.

Brownian paths are simulated once on the finest grid and aggregated to each
coarser one, so every scheme/grid pair sees the same underlying noise and
the proxy can be evaluated at coarse grid points without interpolation.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .backward import (
    IMPLICIT,
    ArrayRows,
    EXPLICIT_TAMED,
    LsmcOperator,
    run_backward,  # noqa: F401  (unused; the benchmark's trace probes look it up here)
    scheme_driver,
    step_size_condition,
    sweep,
    tree_exact_run,  # noqa: F401  (unused; the benchmark's trace probes look it up here)
)
from .config import ConfigError, ExperimentConfig, SchemeRun
from .drivers import (
    INNER_PROJ,
    DerivedConstants,
    TamedDriver,
    TamingSpec,
    checked_constants,
    derive_constants,  # noqa: F401  (unused; the benchmark's trace probes look it up here)
    verify_assumptions,
)
from .forward import euler_rows, euler_simulate, terminal_values
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
from .trees import TreeOperator, check_steps, terminal_level


def _sum_to_grids(dW: np.ndarray, fine: PartitionGrid, coarse: list[PartitionGrid],
                  model: NoiseModel) -> list[np.ndarray]:
    """Fine-grid Brownian increments summed over the intervals of each coarse
    grid, as C-ordered (levels, paths) arrays.  dW holds fine rows of whole
    coarse levels: all of them, or those of a run of levels.

    Level j of a grid with stride s adds the fine rows j*s .. j*s + s - 1
    one after another, in row order, so any run of whole coarse levels sums
    from its own fine rows to the same bits.
    """
    for grid in coarse:
        if fine.steps % grid.steps:
            raise ValueError(f"grids are not nested: {grid.steps} does not divide {fine.steps}")
        if model.kind == RADEMACHER:
            raise ValueError("rademacher increments do not aggregate across grids")
    dW = np.ascontiguousarray(dW)
    return [dW.reshape(-1, fine.steps // grid.steps, dW.shape[1]).sum(axis=1) for grid in coarse]


def aggregate_to_grid(batch: IncrementBatch, fine: PartitionGrid, coarse: PartitionGrid,
                      model: NoiseModel) -> IncrementBatch:
    """Sum fine-grid Brownian increments over each coarse interval and
    re-derive H at the coarse step size (see `_sum_to_grids` for the
    summation order)."""
    (summed,) = _sum_to_grids(batch.dW, fine, [coarse], model)
    return increments_from_dw(model, summed, coarse.h)


@dataclass(frozen=True)
class ErrorRow:
    scheme: str
    steps: int
    h: float
    error: float
    wallclock_ms: float
    exploded: bool


@dataclass
class ErrorReport:
    rows: list[ErrorRow]
    proxy_labels: list[str]
    seed: int


@dataclass
class PositivityStudyReport:
    """Per-step extrema of Y: row k of the (schemes, N+1) `mins` and `maxs`
    belongs to `labels[k]`, column i to time `times[i]`; NaN where the
    scheme had exploded."""

    labels: list[str]
    times: np.ndarray
    mins: np.ndarray
    maxs: np.ndarray
    conditions: list[tuple[str, float, bool]]  # (label, step condition value, ok)


@dataclass(frozen=True)
class TamingRow:
    """One taming at one N: the constants its AssumptionReport derived and
    the pass/fail of each of its checks."""

    taming: str
    steps: int
    constants: DerivedConstants
    checks: dict[str, bool]


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
            first.setdefault(row.taming, row.constants.k_y_sq_h)
            last[row.taming] = row.constants.k_y_sq_h
        return {label: last[label] > 4.0 * max(first[label], 1e-300) for label in first}


def _checked(label: str, n: int, check, *args):
    """check(*args), whose ValueError (see checked_constants) rejects a
    scheme's taming at N steps: a ConfigError naming the scheme and N."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"scheme {label!r}, N={n}: {exc}") from None


def _members(cfg: ExperimentConfig, runs: list[SchemeRun], grid: PartitionGrid,
             required=()) -> tuple[list[tuple], list[DerivedConstants]]:
    """The sweep members of `runs` at the grid's N and their constants: the
    one admission of a configured scheme into a study that runs it.  Each
    runs the driver its scheme runs (scheme_driver), which must pass
    checked_constants (else a ConfigError "scheme 'x', N=n: ..."), labelled
    "scheme 'x' (N=n)", or "proxy scheme ..." if one of `required`."""
    n, members, constants = grid.steps, [], []
    for run in runs:
        driver = scheme_driver(run.scheme, TamedDriver(cfg.driver, run.taming, grid.h))
        constants.append(_checked(run.label, n, checked_constants, driver))
        proxy = run in required
        label = f"{'proxy scheme' if proxy else 'scheme'} {run.label!r} (N={n})"
        members.append((run.scheme, driver, label, proxy))
    return members, constants


class _SegmentRows:
    """Row source of one grid of the convergence study (see
    backward.LsmcOperator) that keeps only X checkpoints: X at the start of
    each segment of `span` = ceil(sqrt(N/2)) of the grid's levels, which
    balances the checkpoints, about N / span rows, against one segment of X
    and H, about 2 span rows.

    Segment k holds levels a = k * span .. b - 1, b = min(a + span, N).  Its
    rebuild sums the grid's dW rows a .. b - 1 from their fine rows
    (`_sum_to_grids`; the finest grid reads them as they are), derives H
    from them (`increments_from_dw`) and runs Euler from the checkpoint X_a
    (`euler_rows`): the rows of a full run, to the bit.  The sweep rebuilds
    a segment when it asks for one of its levels and drops it when it asks
    for a level of the next one.

    The constructor runs the grid forward once, segment by segment, keeping
    the checkpoints, the terminal values `xi` = g(X_N) and the last segment,
    which the sweep reads first.  It raises what a full run raises:
    ForwardBlowupError, or ValueError for a Lambda below the floor or a
    grid that does not nest in the finest one.
    """

    def __init__(self, cfg: ExperimentConfig, fine: PartitionGrid, grid: PartitionGrid,
                 dW: np.ndarray):
        self.sde, self.noise, self.fine, self.grid, self.dW = cfg.sde, cfg.noise, fine, grid, dW
        self.span = math.ceil(math.sqrt(grid.steps / 2))
        self.checkpoints = [np.full(dW.shape[1], cfg.sde.x0)]
        self.X = self.H = None
        for k in range(math.ceil(grid.steps / self.span)):
            self._load(k)
            self.checkpoints.append(self.X[-1].copy())
        self.xi = cfg.terminal(self.checkpoints.pop())

    def _load(self, k: int) -> None:
        """Rebuild segment k, X_a .. X_b and H_{a+1} .. H_b, in place of the
        one loaded before, which is dropped first."""
        self.X = self.H = None
        n, a = self.grid.steps, k * self.span
        b = min(a + self.span, n)
        stride = self.fine.steps // n
        dW = self.dW[a * stride:b * stride]
        if n != self.fine.steps:
            (dW,) = _sum_to_grids(dW, self.fine, [self.grid], self.noise)
        self.H = increments_from_dw(self.noise, dW, self.grid.h).H
        self.X = np.empty((b - a + 1, dW.shape[1]))
        self.X[0] = self.checkpoints[k]
        euler_rows(self.sde, self.X, dW, self.grid.h, a, n)
        self.segment = k

    def __call__(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        k = i // self.span
        if k != self.segment:
            self._load(k)
        return self.X[i - k * self.span], self.H[i - k * self.span]


# paths per sample_increments call of the convergence study: the H it
# derives next to each block's dW is dropped at once, so the fine H is never
# held whole
SAMPLE_BLOCK = 4096


def _grid_paths(cfg: ExperimentConfig, grids: list[PartitionGrid]) -> list[_SegmentRows]:
    """The row source of each grid, finest first, from one fine-grid sample
    of dW, drawn a block of paths at a time and kept for the sweep.  Each
    grid's checkpoints and terminal values are made before the first
    backward step (see _SegmentRows)."""
    fine = grids[0]
    dW = np.empty((fine.steps, cfg.paths))
    for a in range(0, cfg.paths, SAMPLE_BLOCK):
        b = min(a + SAMPLE_BLOCK, cfg.paths)
        dW[:, a:b] = sample_increments(fine, cfg.paths, cfg.seed, cfg.noise, (a, b)).dW
    return [_SegmentRows(cfg, fine, grid, dW) for grid in grids]


def _proxy_runs(cfg: ExperimentConfig) -> list[SchemeRun]:
    implicit = next((s for s in cfg.schemes if s.scheme.kind == IMPLICIT), None)
    inner = next((s for s in cfg.schemes
                  if s.scheme.kind == EXPLICIT_TAMED and s.taming.kind == INNER_PROJ), None)
    chosen = [s for s in (implicit, inner) if s is not None]
    if not chosen:
        raise ConfigError(
            "convergence proxy needs an implicit scheme or an inner-projection explicit scheme "
            "(scheme.<n>.kind = implicit, or explicit_tamed with scheme.<n>.taming = inner_proj)")
    return chosen


def convergence_study(cfg: ExperimentConfig) -> ErrorReport:
    """Run every configured scheme on every grid and measure the distance
    max_i E[|Y_i - Y^proxy_i|^2]^(1/2) against the fine-grid proxy (the
    average of the implicit and inner-tamed outputs at the largest N).

    The schemes of one grid run as one lockstep group, and all groups run
    in one backward sweep over fine time (`sweep`), finest first at each
    fine step.  The proxy level and every grid's squared errors at that
    level are reduced as soon as the level is reached, so no scheme keeps
    more than one level of Y between its steps, and none of Z.  Each grid
    reads its X and H from its row source (_SegmentRows), which holds one
    segment of them at a time next to the fine dW.  Every scheme is admitted
    at every N before a path is sampled; an exploding proxy scheme raises.
    """
    if cfg.noise.kind == RADEMACHER and len(cfg.grids) > 1:
        raise ConfigError(f"noise kind {RADEMACHER!r} does not aggregate across grids; "
                          "the convergence study needs exactly one grid size with it")
    basis = BasisSpec(size=cfg.basis_size)
    proxy_runs = _proxy_runs(cfg)
    proxy_index = [cfg.schemes.index(run) for run in proxy_runs]
    grids = [build_grid(cfg.horizon, n) for n in reversed(cfg.grids)]
    members = [_members(cfg, cfg.schemes, grid, proxy_runs if g == 0 else ())[0]
               for g, grid in enumerate(grids)]
    groups = [(LsmcOperator(basis, rows, grid), rows.xi, group)
              for grid, rows, group in zip(grids, _grid_paths(cfg, grids), members)]
    mse = [np.empty((len(cfg.schemes), grid.steps + 1)) for grid in grids]
    proxy = None

    def reduce_level(g: int, i: int, blocks: list) -> None:
        """Mean squared errors of grid g's level i against proxy level
        i * stride.  The finest grid comes first at each fine step and makes
        the proxy level, summed in place from zero and divided: the
        arithmetic of np.mean over the stacked proxy outputs, without the
        stack.  On paths each block is one scheme, its level row 0."""
        nonlocal proxy
        levels = {block.members[0]: block.y[0] for block in blocks}
        if g == 0:
            proxy = np.zeros(cfg.paths)
            for k in proxy_index:
                proxy += levels[k]
            proxy /= len(proxy_index)
        for k, y in levels.items():
            mse[g][k, i] = np.mean((y - proxy) ** 2)

    rows = []
    for grid, outputs, errors in zip(grids, sweep(groups, reduce_level), mse):
        for run, out, level_mse in zip(cfg.schemes, outputs, errors):
            err = math.inf if out.exploded else float(np.max(np.sqrt(level_mse)))
            rows.append(ErrorRow(run.label, grid.steps, grid.h, err, out.wallclock_ms, out.exploded))
    rows.sort(key=lambda row: (row.scheme, row.steps))
    return ErrorReport(rows=rows, proxy_labels=[s.label for s in proxy_runs], seed=cfg.seed)


def _extrema_study(cfg: ExperimentConfig, backend: str) -> PositivityStudyReport:
    """Per-step extrema of Y for each scheme at the single configured N, and
    each scheme's step condition, step_size_condition at |H| = 0 on
    Monte-Carlo paths (`backend` "regression"; that is h * L^h_y) and at
    |H| = 1/sqrt(h) on the exact Rademacher tree ("tree").

    A tree beyond its cap is rejected first, then every scheme is admitted
    (_members) before any sampling, tree or sweep.
    The schemes run as one lockstep group through `sweep`, whose callback
    reduces each row of each block level to its min and max, so Z lives only
    while its step runs.  On paths the study holds X, H and a level or two
    of Y per scheme; on the tree, whose forward levels are streamed to the
    terminal one, the rows of one base driver share a block: O(N) values.
    A scheme that exploded leaves its block at its first bad step, so its
    extrema keep their NaN prefill from there down."""
    if len(cfg.grids) != 1:
        study = "tree oracle" if backend == "tree" else "positivity study"
        raise ConfigError(f"{study} expects exactly one grid size, got grids = "
                          f"{','.join(map(str, cfg.grids))}")
    n = cfg.grids[0]
    if backend == "tree":
        # the tree's cap comes first: no time grid is made for an N beyond it
        try:
            check_steps(cfg.sde, n)
        except ValueError as exc:
            raise ConfigError(f"N={n}: {exc}") from None
    grid = build_grid(cfg.horizon, n)
    runs = sorted(cfg.schemes, key=lambda s: s.label)
    members, constants = _members(cfg, runs, grid)
    if backend == "tree":
        op, xi = TreeOperator(grid, cfg.sde), cfg.terminal(terminal_level(cfg.sde, grid))
        abs_h = op.abs_h
    else:
        batch = sample_increments(grid, cfg.paths, cfg.seed, cfg.noise)
        ensemble = euler_simulate(cfg.sde, grid, batch)
        # the ensemble holds the batch: dropping both drops dW
        op = LsmcOperator(BasisSpec(size=cfg.basis_size), ArrayRows(ensemble.X, batch.H), grid)
        xi = terminal_values(cfg.terminal, ensemble)
        del batch, ensemble
        abs_h = 0.0
    conditions = [step_size_condition(run.scheme, cons, abs_h) for run, cons in zip(runs, constants)]
    mins, maxs = np.full((2, len(runs), n + 1), np.nan)

    def reduce_level(_, i: int, blocks: list) -> None:
        for block in blocks:
            mins[block.members, i], maxs[block.members, i] = block.y.min(axis=1), block.y.max(axis=1)

    sweep([(op, xi, members)], reduce_level)
    return PositivityStudyReport([run.label for run in runs], grid.times, mins, maxs,
                                 [(run.label, c, c < 1.0) for run, c in zip(runs, conditions)])


def positivity_study(cfg: ExperimentConfig) -> PositivityStudyReport:
    """The extrema study on Monte-Carlo paths (see _extrema_study)."""
    return _extrema_study(cfg, "regression")


def tree_oracle_study(cfg: ExperimentConfig) -> PositivityStudyReport:
    """The extrema study on the exact Rademacher tree: half/half
    conditional expectations, no regression error (see _extrema_study)."""
    return _extrema_study(cfg, "tree")


def verify_taming_study(cfg: ExperimentConfig) -> TamingReport:
    """Assumption checks and boundedness witnesses for every configured
    taming across the whole N ladder."""
    # the first label of each distinct taming
    tamings: dict[TamingSpec, str] = {}
    for run in cfg.schemes:
        tamings.setdefault(run.taming, run.label)

    rows: list[TamingRow] = []
    for taming, label in sorted(tamings.items(), key=lambda item: item[1]):
        for n in cfg.grids:
            tamed = TamedDriver(base=cfg.driver, taming=taming, h=cfg.horizon / n)
            report = _checked(label, n, verify_assumptions, tamed, cfg.probe)
            rows.append(TamingRow(label, n, report.constants,
                                  {name: ch.passed for name, ch in report.checks.items()}))
    return TamingReport(rows=rows)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"  # also "inf", "-inf" and "nan"


CONVERGENCE_HEADER = "scheme,N,h,error,wallclock_ms,exploded,seed"
EXTREMA_HEADER = "scheme,i,t,min_Y,max_Y"
TAMING_HEADER = ("taming,N,h,radius,K_h_t,K_h_y,L_h_y,K_h_y_sq_h,L_h_y_sq_h,empirical,"
                 "domination,growth,monotone_growth,lipschitz_y,monotonicity,residual,all_pass")
CHECK_ORDER = ("domination", "growth", "monotone_growth", "lipschitz_y", "monotonicity", "residual")


def _timings_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.timings{ext or '.csv'}"


def emit_csv(report, path: str) -> None:
    """Write a report as CSV with 12-significant-digit values.

    Convergence reports keep the byte-reproducibility contract: measured
    wallclock goes to a `<name>.timings.csv` sidecar and the primary file's
    wallclock_ms column reads 0.  Extrema are written from the report's
    arrays, one scheme at a time, without row objects.
    """
    lines = []
    if isinstance(report, ErrorReport):
        for target, timed in ((path, False), (_timings_path(path), True)):
            _write_lines(target, [CONVERGENCE_HEADER] + [
                ",".join([row.scheme, _fmt(row.steps), _fmt(row.h), _fmt(row.error),
                          _fmt(row.wallclock_ms if timed else 0.0), _fmt(row.exploded),
                          _fmt(report.seed)])
                for row in report.rows])
    elif isinstance(report, PositivityStudyReport):
        _write_lines(path, _extrema_lines(report))
    elif isinstance(report, TamingReport):
        lines.append(TAMING_HEADER)
        for row in report.rows:
            cons = row.constants
            checks = [row.checks.get(name, False) for name in CHECK_ORDER]
            lines.append(",".join(
                [row.taming, _fmt(row.steps), _fmt(cons.h), _fmt(cons.radius),
                 _fmt(cons.k_t), _fmt(cons.k_y), _fmt(cons.l_y),
                 _fmt(cons.k_y_sq_h), _fmt(cons.l_y_sq_h), _fmt(cons.empirical)]
                + [_fmt(c) for c in checks] + [_fmt(all(checks))]))
        _write_lines(path, lines)
    else:
        raise TypeError(f"no CSV writer for report type {type(report).__name__}")


def _extrema_lines(report: PositivityStudyReport) -> Iterator[str]:
    """The header, then each scheme's lines (step N first) as one string,
    made from its row of the arrays.  The fields are str, int and float:
    _fmt's formats, without its dispatch."""
    yield EXTREMA_HEADER
    times = report.times.tolist()
    steps = range(len(times) - 1, -1, -1)
    # each "i,t" stamp is formatted once, for every scheme
    stamps = [(i, f"{i},{times[i]:.12g}") for i in steps]
    for label, lo, hi in zip(report.labels, report.mins, report.maxs):
        lo, hi = lo.tolist(), hi.tolist()
        yield "\n".join(f"{label},{stamp},{lo[i]:.12g},{hi[i]:.12g}" for i, stamp in stamps)


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """Write the lines, each ended by a newline, to a temporary file in the
    target directory, then rename it over `path`: a write that fails
    leaves the old file as it was and removes the temporary one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
