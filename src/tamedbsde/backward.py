"""Backward recursions for the schemes, on Monte-Carlo paths or exact trees.

Every scheme computes Z first and explicitly,

    Z_i = E_i[ (Y_{i+1} + (1-theta') f^h(t_i, Y_{i+1}, 0) h) H_{i+1} ],

then the Y update: the explicit kinds set
Y_i = E_i[ Y_{i+1} + f^h(t_i, Y_{i+1}, Z_i) h ], the implicit kind sets
Y_i = E_i[Y_{i+1}] + f^h(t_i, Y_i, Z_i) h and solves for Y_i per path.
One loop runs it over a conditional-expectation operator: `children(v)`
aligns a level-(i+1) array with level i, and `mean(kids)` and
`mean_h(kids)` return E_i[v] and E_i[v H_{i+1}] of kids = children(v), each
with the (rank, smallest singular value) of its projection.  The operator
is Hermite least squares on Monte-Carlo paths, per-prefix averaging on
enumerated tree paths or the child average on tree levels; the schemes on
one path ensemble run in lockstep and share each step's operator, and the
groups of nested grids can run in one sweep over fine time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .drivers import NONE, TamedDriver, TamingSpec, derive_constants
from .forward import PathEnsemble, TerminalSpec
from .grids import IncrementBatch
# Nothing here calls predict; it stays bound as backward.predict because the
# benchmark's trace probes (perfbench/spans.py) look it up by that name.
from .regression import BasisSpec, predict, sample_design  # noqa: F401
from .trees import TreeModel

EXPLICIT_TAMED = "explicit_tamed"
EXPLICIT_UNTAMED = "explicit_untamed"
IMPLICIT = "implicit"
SCHEME_KINDS = (EXPLICIT_TAMED, EXPLICIT_UNTAMED, IMPLICIT)

# the implicit solve's residual tolerance, relative to 1 + |y|, and its
# iteration cap
IMPLICIT_TOL = 1e-12
IMPLICIT_MAX_ITER = 50


@dataclass(frozen=True)
class SchemeSpec:
    """Scheme kind and the theta' weight in the Z target."""

    kind: str
    theta_prime: float = 1.0

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}; expected one of {SCHEME_KINDS}")
        if not 0.0 <= self.theta_prime <= 1.0:
            raise ValueError("theta_prime must lie in [0, 1]")


@dataclass(frozen=True)
class ExactTreeBasis:
    """Marker basis: project on per-prefix indicators of enumerated tree paths.

    Exact conditional expectation for ensembles produced by
    trees.enumerate_tree_paths (paths sharing a level-i node form contiguous
    blocks of size 2^(N-i)).
    """

    steps: int


@dataclass
class SchemeDiagnostics:
    z_fit_rank: np.ndarray
    z_fit_sv: np.ndarray
    y_fit_rank: np.ndarray
    y_fit_sv: np.ndarray
    implicit_iterations: np.ndarray


@dataclass
class SchemeOutput:
    """Per-path output: Y is (N+1, paths) and Z is (N, paths), row i
    holding Y_i and Z_i of every path, C-ordered as the recursion writes
    them; wallclock_ms is the scheme's share of its backward pass (see
    run_backward_group)."""

    Y: np.ndarray
    Z: np.ndarray
    diagnostics: SchemeDiagnostics
    exploded: bool = False
    first_bad_step: int | None = None
    wallclock_ms: float = 0.0


@dataclass
class TreeSchemeOutput:
    """Per-node output on the tree: ragged level arrays (None for a run
    that streamed its levels, see tree_exact_run)."""

    tree: TreeModel
    Y: list | None
    Z: list | None
    implicit_iterations: np.ndarray
    exploded: bool = False
    first_bad_step: int | None = None

    @property
    def root_value(self) -> float:
        return float(self.Y[0][0])


def check_implicit_guard(h: float, m_y: float) -> None:
    """The implicit solve needs h max(0, M_y) < 1 for a unique root; raises
    ValueError otherwise."""
    guard = h * max(0.0, m_y)
    if guard >= 1.0:
        raise ValueError(f"implicit step guard violated: h*max(0, M_y) = {guard:.4g} >= 1")


class ImplicitSolverError(RuntimeError):
    def __init__(self, path: int, step: int, scheme: str | None = None):
        self.path, self.step, self.scheme = path, step, scheme
        where = f"{scheme}: " if scheme else ""
        super().__init__(f"{where}implicit solve did not converge at path {path}, step {step}")


class SchemeExplodedError(RuntimeError):
    """A scheme whose output is required (the convergence proxy) exploded."""


def _solve_implicit(driver: TamedDriver, c, z, h: float, step: int,
                    scheme: str | None = None) -> tuple[np.ndarray, int]:
    """Solve y = c + f^h(y, z) h elementwise.

    Every iteration takes the safeguarded Newton step
    y - r / max(1 - h f^h'(y), 0.1) from the current iterate, r being the
    residual y - c - h f^h(y); a step that grows the residual is halved.
    Under the step guard h max(0, M_y) < 1 the map y -> y - h f^h(y) is
    strictly increasing, so the root is unique.

    Polished acceptance: a path whose residual meets the tolerance
    |r| <= IMPLICIT_TOL (1 + |y|) is frozen at the Newton update of that
    iterate, which the iteration computes anyway (at the iterate itself
    where the update is not finite).  The residual is convex for the usual
    drivers, so Newton approaches the root from one side; freezing the
    iterate would leave its stopping error in y, and that error adds up
    over the levels of a long run.

    The residual at the candidate carries into the next iteration; f^h is
    evaluated again only where the step was halved.  Paths still outside
    the tolerance after IMPLICIT_MAX_ITER iterations raise
    ImplicitSolverError, which names the lowest of them.
    """
    ctil = c + h * driver.base.z_coeff * np.asarray(z, dtype=float)
    y = ctil.copy()
    live = np.ones(y.size, dtype=bool)
    res = y - ctil - h * driver.tamed_y_part(y)
    abs_res = np.abs(res)
    for iterations in range(1, IMPLICIT_MAX_ITER + 1):
        # the Newton update of every iterate, built in place
        newton = np.multiply(h, driver.y_slope(y))
        np.subtract(1.0, newton, out=newton)
        np.maximum(newton, 0.1, out=newton)
        np.divide(res, newton, out=newton)
        np.subtract(y, newton, out=newton)
        threshold = np.abs(y)
        threshold += 1.0
        threshold *= IMPLICIT_TOL
        done = abs_res <= threshold
        done &= live
        if done.any():
            np.copyto(y, newton, where=done & np.isfinite(newton))
            live ^= done
            if not live.any():
                break
        # halve steps that made the residual worse; the residual carries into
        # the next iteration and is recomputed only where the step was halved
        np.subtract(newton, ctil, out=res)
        res -= h * driver.tamed_y_part(newton)
        abs_next = np.abs(res)
        worse = abs_next > abs_res
        worse &= live
        abs_res = abs_next
        if worse.any():
            newton[worse] = 0.5 * (y[worse] + newton[worse])
            res[worse] = newton[worse] - ctil[worse] - h * driver.tamed_y_part(newton[worse])
            abs_res[worse] = np.abs(res[worse])
        np.copyto(y, newton, where=live)
    else:
        # out of iterations: the live paths keep their last iterate, and
        # those outside the tolerance fail
        bad = live & (abs_res > IMPLICIT_TOL * (1.0 + np.abs(y)))
        if bad.any():
            raise ImplicitSolverError(int(np.argmax(bad)), step, scheme)
    return y, iterations


_NO_FIT = (0, math.nan)


class _LsmcOperator:
    """Hermite least squares on paths, each its own child: one design and
    factorization of X_i per step serve every scheme of a lockstep group.
    A non-finite target (the scheme exploded) projects to NaN, with no fit.
    Row i of X holds X_i, row i of H holds H_{i+1}."""

    def __init__(self, basis: BasisSpec | None, X: np.ndarray, H: np.ndarray):
        self.basis = basis
        self.X = X
        self.H = H
        self.step = None
        self.design = None

    def begin_step(self, step: int) -> None:
        self.step = step
        self.design = sample_design(self.basis, self.X[step])

    def end_step(self) -> None:
        self.design = None

    @staticmethod
    def children(v):
        return v

    def mean(self, kids):
        if not np.isfinite(kids).all():
            return np.full(kids.shape, np.nan), _NO_FIT
        return self._project(kids)

    def mean_h(self, kids):
        return self.mean(kids * self.H[self.step])

    def _project(self, target):
        fit = self.design.fit(target)
        return self.design.fitted(fit), (fit.rank, fit.smallest_singular_value)


class _PrefixOperator(_LsmcOperator):
    """Exact projection on per-prefix indicators of enumerated tree paths."""

    def begin_step(self, step: int) -> None:
        self.step = step

    def _project(self, target):
        groups = 2**self.step
        block = target.size // groups
        return np.repeat(target.reshape(groups, block).mean(axis=1), block), (groups, 1.0)


class _TreeOperator:
    """Exact child averages on a tree level: children(v) is the (2, nodes)
    view of the down and up child of every level-i node."""

    def __init__(self, tree: TreeModel):
        self.recombining = tree.recombining
        self.two_sqrt_h = 2.0 * math.sqrt(tree.grid.h)

    def begin_step(self, step: int) -> None:
        pass

    def end_step(self) -> None:
        pass

    def children(self, v):
        if self.recombining:
            # node j's children are j and j+1: overlapping windows of the
            # contiguous level (as_strided is slower)
            return np.ndarray((2, v.size - 1), buffer=v, strides=(v.strides[0], v.strides[0]))
        return v.reshape(-1, 2).T

    @staticmethod
    def mean(kids):
        return 0.5 * (kids[0] + kids[1]), _NO_FIT

    def mean_h(self, kids):
        return (kids[1] - kids[0]) / self.two_sqrt_h, _NO_FIT


def _path_operator(basis: BasisSpec | ExactTreeBasis, ensemble: PathEnsemble,
                   batch: IncrementBatch) -> _LsmcOperator:
    X, H = ensemble.X, batch.H
    if not isinstance(basis, ExactTreeBasis):
        return _LsmcOperator(basis, X, H)
    if X.shape[1] != 2**basis.steps:
        raise ValueError(f"exact tree basis expects 2^{basis.steps} paths, got {X.shape[1]}")
    return _PrefixOperator(None, X, H)


class _SchemeRun:
    """One scheme in the backward recursion.  `Y[j]` and `Z[j]` are level j
    of its storage (the terminal level stored on entry); a level it never
    reaches, because it exploded first, is left as it was.  `label` names the
    scheme in error messages; a `required` run raises SchemeExplodedError
    where it explodes."""

    def __init__(self, scheme: SchemeSpec, tamed: TamedDriver, grid, Y, Z,
                 label: str | None = None, required: bool = False):
        if not math.isclose(tamed.h, grid.h, rel_tol=1e-9):
            raise ValueError(f"driver was tamed at h={tamed.h}, grid has h={grid.h}")
        if scheme.kind == EXPLICIT_UNTAMED and tamed.taming.kind != NONE:
            tamed = replace(tamed, taming=TamingSpec(kind=NONE))
        if scheme.kind == IMPLICIT:
            check_implicit_guard(grid.h, tamed.base.constants.m_y)
        self.scheme = scheme
        self.driver = tamed
        self.Y, self.Z = Y, Z
        self.label, self.required = label, required
        n = grid.steps
        self.z_fits = [_NO_FIT] * n
        self.y_fits = [_NO_FIT] * n
        self.iterations = np.zeros(n, dtype=int)
        self.first_bad = None
        self.seconds = 0.0

    def advance(self, i: int, h: float, op) -> None:
        """Z_i, then Y_i; a non-finite Z_i or Y_i marks the scheme exploded
        at i and stores nothing.  The tamed y-part at Y_{i+1} is evaluated
        once, for the Z target (its z-part added as TamedDriver.__call__
        adds it) and the explicit Y target."""
        scheme, driver = self.scheme, self.driver
        z_coeff = driver.base.z_coeff
        y_next = self.Y[i + 1]
        p = driver.tamed_y_part(y_next)
        z, self.z_fits[i] = op.mean_h(
            op.children(y_next + (1.0 - scheme.theta_prime) * (p + z_coeff * 0.0) * h))
        if np.isfinite(z).all():
            if scheme.kind == IMPLICIT:
                c, self.y_fits[i] = op.mean(op.children(y_next))
                y, self.iterations[i] = _solve_implicit(driver, c, z, h, i, self.label)
            else:
                y, self.y_fits[i] = op.mean(op.children(y_next) + (op.children(p) + z_coeff * z) * h)
            if np.isfinite(y).all():
                self.Z[i], self.Y[i] = z, y
                return
        self.first_bad = i
        if self.required:
            bad = ~np.isfinite(y_next + p * h)  # where the driver term overflowed, if anywhere
            where = f", path {int(np.argmax(bad))}" if bad.any() else ""
            raise SchemeExplodedError(f"{self.label} exploded at step {i}{where}")


def _backward(groups: list[tuple[object, list[_SchemeRun], object]], reached=None) -> None:
    """The backward recursion of lockstep groups on nested grids, in one
    sweep over fine time.

    `groups` holds (operator, runs, grid) per grid, finest first.  At fine
    index j every group whose stride (fine steps over its steps) divides j
    takes its step i = j / stride, finest first, then calls `reached(g, i)`
    if given.  A step's `begin_step` (on paths, the design and its
    factorization) comes before the runs' turns and `end_step` releases it
    after, so a run's targets live only during its own turn; a run's
    `seconds` is its own time plus an equal share of each `begin_step`
    among the runs still going.  An exploded run leaves the lockstep with
    its partial data: explosion of the untamed explicit scheme is an
    experimental observable, not an error.
    """
    steps = groups[0][2].steps
    strides = [steps // grid.steps for _, _, grid in groups]
    running = [runs for _, runs, _ in groups]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps - 1, -1, -1):
            for g, (op, _, grid) in enumerate(groups):
                if j % strides[g] or not running[g]:
                    continue
                i = j // strides[g]
                start = time.perf_counter()
                op.begin_step(i)
                shared = (time.perf_counter() - start) / len(running[g])
                for run in running[g]:
                    start = time.perf_counter()
                    run.advance(i, grid.h, op)
                    run.seconds += time.perf_counter() - start + shared
                op.end_step()
                running[g] = [run for run in running[g] if run.first_bad is None]
                if reached is not None:
                    reached(g, i)


def _output(run: _SchemeRun, Y, Z) -> SchemeOutput:
    z_rank, z_sv = map(np.array, zip(*run.z_fits))
    y_rank, y_sv = map(np.array, zip(*run.y_fits))
    diag = SchemeDiagnostics(z_fit_rank=z_rank, z_fit_sv=z_sv, y_fit_rank=y_rank,
                             y_fit_sv=y_sv, implicit_iterations=run.iterations)
    return SchemeOutput(Y=Y, Z=Z, diagnostics=diag, exploded=run.first_bad is not None,
                        first_bad_step=run.first_bad, wallclock_ms=run.seconds * 1e3)


def run_backward_group(members: list[tuple[SchemeSpec, TamedDriver]], ensemble: PathEnsemble,
                       xi: np.ndarray, batch: IncrementBatch,
                       basis: BasisSpec | ExactTreeBasis,
                       labels: list[str] | None = None) -> list[SchemeOutput]:
    """Backward recursion of several (scheme, driver) pairs over one path
    ensemble, in lockstep.

    At each step the design of X_i is built and factored once, and every
    scheme still running takes its Z projection, then its Y projection,
    from it.  Each target is projected on its own, so a scheme's output
    does not depend on the rest of the group or its order.  An exploding
    scheme's rows from its first bad step down are NaN.  `labels` name the
    members in error messages.
    """
    grid = ensemble.grid
    n = grid.steps
    paths = ensemble.X.shape[1]
    if batch.dW.shape != (n, paths):
        raise ValueError(f"increment batch shape {batch.dW.shape} does not match ({n}, {paths})")
    if xi.shape != (paths,):
        raise ValueError(f"terminal values have shape {xi.shape}, expected ({paths},)")
    runs = []
    for k, (scheme, tamed) in enumerate(members):
        Y = np.empty((n + 1, paths))
        Y[n] = xi
        runs.append(_SchemeRun(scheme, tamed, grid, Y, np.empty((n, paths)),
                               labels[k] if labels else None))
    _backward([(_path_operator(basis, ensemble, batch), runs, grid)])

    for run in runs:
        if run.first_bad is not None:
            # the levels it never reached
            run.Y[:run.first_bad + 1] = np.nan
            run.Z[:run.first_bad + 1] = np.nan
    return [_output(run, run.Y, run.Z) for run in runs]


def stream_backward(groups: list[tuple], basis: BasisSpec, reached) -> list[list[SchemeOutput]]:
    """Backward recursion of one lockstep group per grid, all grids in one
    sweep over fine time (see `_backward`), keeping no level a later step
    does not read: one level of Y per scheme between its steps, no Z.

    `groups` holds (grid, X, H, xi, members) per grid, the grids nested and
    finest first: X and H as in PathEnsemble.X and IncrementBatch.H, xi the
    terminal values and members (scheme, driver, label, required) tuples; a
    required member raises SchemeExplodedError where it explodes.  Each time
    grid g reaches level i, `reached(g, i, levels)` gets Y_i of every member,
    None for a member that has exploded; the terminal levels come first,
    finest grid first.  The outputs carry each member's diagnostics,
    explosion step and wallclock, with Y and Z None.
    """
    sweep = []
    for g, (grid, X, H, xi, members) in enumerate(groups):
        n = grid.steps
        runs = [_SchemeRun(scheme, tamed, grid, [None] * n + [xi], [None] * n, label, required)
                for scheme, tamed, label, required in members]
        sweep.append((_LsmcOperator(basis, X, H), runs, grid))
        reached(g, n, [xi] * len(runs))

    def levels(g, i):
        runs = sweep[g][1]
        reached(g, i, [run.Y[i] if run.first_bad is None else None for run in runs])
        for run in runs:
            run.Y[i + 1] = run.Z[i] = None

    _backward(sweep, levels)
    return [[_output(run, None, None) for run in runs] for _, runs, _ in sweep]


def run_backward(scheme: SchemeSpec, tamed: TamedDriver, ensemble: PathEnsemble,
                 xi: np.ndarray, batch: IncrementBatch,
                 basis: BasisSpec | ExactTreeBasis) -> SchemeOutput:
    """Backward recursion of one scheme over a path ensemble: the group of
    one of `run_backward_group`."""
    return run_backward_group([(scheme, tamed)], ensemble, xi, batch, basis)[0]


def tree_exact_run(scheme: SchemeSpec, tamed: TamedDriver, tree: TreeModel,
                   terminal: TerminalSpec, label: str | None = None,
                   reached=None) -> TreeSchemeOutput:
    """Same recursion with E_i computed as the exact half/half child average;
    `label` names the scheme in error messages.

    With `reached`, the run streams its levels instead of keeping them:
    `reached(i, y)` gets Y_i as soon as it is computed, the terminal level
    first and no level past an explosion, and the output's Y and Z are None.
    """
    n = tree.steps
    xi = np.asarray(terminal(tree.levels[n]), dtype=float)
    run = _SchemeRun(scheme, tamed, tree.grid, [None] * n + [xi], [None] * n, label)
    level = None
    if reached is not None:
        reached(n, xi)

        def level(_, i):
            if run.first_bad is None:
                reached(i, run.Y[i])
            run.Y[i + 1] = run.Z[i] = None

    _backward([(_TreeOperator(tree), [run], tree.grid)], level)

    def filled(levels):
        return [np.full(tree.node_count(j), np.nan) if v is None else v for j, v in enumerate(levels)]

    Y, Z = (None, None) if reached is not None else (filled(run.Y), filled(run.Z))
    return TreeSchemeOutput(tree=tree, Y=Y, Z=Z,
                            implicit_iterations=run.iterations,
                            exploded=run.first_bad is not None, first_bad_step=run.first_bad)


@dataclass
class ZetaDiagnostic:
    """zeta_i, the gap D_i = Z_i - zeta_i, and its L2 norms E|D_i|^2 h;
    zeta and D are (N, paths) on paths and lists of levels on a tree."""

    zeta: np.ndarray | list
    D: np.ndarray | list
    norms: np.ndarray


def zeta_diagnostic(output, tamed: TamedDriver, *, ensemble: PathEnsemble | None = None,
                    batch: IncrementBatch | None = None,
                    basis: BasisSpec | ExactTreeBasis | None = None) -> ZetaDiagnostic:
    """Martingale-representation coefficient of each step and its gap to Z.

    zeta_i = E_i[(Y_{i+1} + f^h(t_i, Y_{i+1}, Z_i) h) H_{i+1}]; the gap
    D_i = Z_i - zeta_i measures how far the practical Z target is from the
    theoretically natural one.  Requires a completed (non-exploded) run.
    """
    if output.exploded:
        raise ValueError("zeta diagnostic needs a run that completed without explosion")
    on_tree = isinstance(output, TreeSchemeOutput)
    if on_tree:
        grid, op = output.tree.grid, _TreeOperator(output.tree)
    else:
        if ensemble is None or batch is None or basis is None:
            raise ValueError("path-ensemble zeta diagnostic needs ensemble, batch and basis")
        grid, op = ensemble.grid, _path_operator(basis, ensemble, batch)
    Y, Z = output.Y, output.Z

    h, z_coeff = grid.h, tamed.base.z_coeff
    zeta, D = [], []
    for i in range(grid.steps):
        op.begin_step(i)
        # one tamed y-part per level; the z-part is added as TamedDriver.__call__ adds it
        kids_p = op.children(tamed.tamed_y_part(Y[i + 1]))
        zeta.append(op.mean_h(op.children(Y[i + 1]) + (kids_p + z_coeff * Z[i]) * h)[0])
        op.end_step()
        D.append(Z[i] - zeta[i])
    if on_tree:
        weights = output.tree.level_weights
        norms = np.array([float(np.sum(weights(i) * d**2) * h) for i, d in enumerate(D)])
    else:
        # the axis-0 mean of a path-major copy adds the paths up in order for
        # N >= 2 and pairwise for N = 1: no single row-wise sum gives both
        norms = np.mean(np.stack(D, axis=1) ** 2, axis=0) * h
        zeta, D = np.stack(zeta), np.stack(D)
    return ZetaDiagnostic(zeta=zeta, D=D, norms=norms)


def step_size_condition(scheme: SchemeSpec, tamed: TamedDriver, abs_h_increment: float) -> float:
    """Value of the comparison step condition
    h (L^h_y + L^h_z |H| + (1-theta') h L^h_z |H| L^h_y); below 1 every
    linearization factor stays positive."""
    cons = derive_constants(tamed)
    h = tamed.h
    lz_h = cons.l_z * abs_h_increment
    return h * (cons.l_y + lz_h + (1.0 - scheme.theta_prime) * h * lz_h * cons.l_y)


@dataclass
class ComparisonReport:
    condition_value: float
    condition_ok: bool
    terminal_margin: float
    driver_margin: float
    inputs_ordered: bool
    output_margin: float
    outputs_ordered: bool
    violations: int
    min_b_factor: float
    b_factor_min_per_step: np.ndarray
    output_1: TreeSchemeOutput = field(repr=False, default=None)
    output_2: TreeSchemeOutput = field(repr=False, default=None)


def comparison_check(scheme: SchemeSpec, tamed1: TamedDriver, terminal1: TerminalSpec,
                     tamed2: TamedDriver, terminal2: TerminalSpec,
                     tree: TreeModel, tol: float = 1e-12) -> ComparisonReport:
    """Run both instances on the same tree and check the order relations.

    Requires z-free drivers (gamma = 0 branch) or theta' = 1, and an
    explicit scheme kind.  Reports whether the inputs were ordered
    (xi^1 >= xi^2 and f^{h,1} >= f^{h,2} at the sampled nodes), whether the
    outputs came out ordered at every node, the per-step linearization
    factors B and the step-size condition.
    """
    if scheme.kind == IMPLICIT:
        raise ValueError("the discrete comparison check applies to the explicit scheme kinds")
    z_free = tamed1.base.z_coeff == 0.0 and tamed2.base.z_coeff == 0.0
    if not z_free and scheme.theta_prime != 1.0:
        raise ValueError("comparison needs z-free drivers or theta' = 1")

    out1 = tree_exact_run(scheme, tamed1, tree, terminal1)
    out2 = tree_exact_run(scheme, tamed2, tree, terminal2)
    if out1.exploded or out2.exploded:
        raise ValueError("comparison check needs non-exploded runs")

    grid = tree.grid
    h = grid.h
    sqrt_h = math.sqrt(h)
    n = grid.steps
    op = _TreeOperator(tree)
    c1, c2 = tamed1.base.z_coeff, tamed2.base.z_coeff

    terminal_margin = float(np.min(out1.Y[n] - out2.Y[n]))

    driver_margin = np.inf
    b_min = np.empty(n)
    sign = np.array([[-1.0], [1.0]])  # the H sign of the down and up child
    for i in range(n):
        # one tamed y-part per driver and level, split into (down, up)
        # children; the z-part is added as TamedDriver.__call__ adds it
        y1, y2 = op.children(out1.Y[i + 1]), op.children(out2.Y[i + 1])
        p1_y1 = op.children(tamed1.tamed_y_part(out1.Y[i + 1]))
        p1_y2 = op.children(tamed1.tamed_y_part(out2.Y[i + 1]))
        p2_y2 = op.children(tamed2.tamed_y_part(out2.Y[i + 1]))
        z1, z2 = out1.Z[i], out2.Z[i]
        diff = (p1_y2 + c1 * z2) - (p2_y2 + c2 * z2)
        driver_margin = min(driver_margin, float(np.min(diff[0])), float(np.min(diff[1])))
        dy = y1 - y2
        num = (p1_y1 + c1 * z1) - (p1_y2 + c1 * z1)
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = np.where(dy != 0.0, num / np.where(dy != 0.0, dy, 1.0), 0.0)
        if z_free:
            b = 1.0 + h * beta
        else:
            gamma = np.where(z1 - z2 != 0.0, c1, 0.0)
            num_hat = (p1_y1 + c1 * 0.0) - (p1_y2 + c1 * 0.0)
            beta_hat = np.where(dy != 0.0, num_hat / np.where(dy != 0.0, dy, 1.0), 0.0)
            b = 1.0 + h * beta + h * gamma * (1.0 + (1.0 - scheme.theta_prime) * h * beta_hat) \
                * sign / sqrt_h
        b_min[i] = min(np.min(b[0]), np.min(b[1]))

    deltas = [out1.Y[i] - out2.Y[i] for i in range(n + 1)]
    output_margin = float(min(np.min(d) for d in deltas))
    scale = max(1.0, max(float(np.max(np.abs(out1.Y[n]))), float(np.max(np.abs(out2.Y[n])))))
    violations = int(sum(int(np.sum(d < -tol * scale)) for d in deltas))

    condition = step_size_condition(scheme, tamed1, 1.0 / sqrt_h)
    return ComparisonReport(
        condition_value=condition, condition_ok=condition < 1.0,
        terminal_margin=terminal_margin, driver_margin=driver_margin,
        inputs_ordered=terminal_margin >= -tol * scale and driver_margin >= -tol * scale,
        output_margin=output_margin, outputs_ordered=violations == 0,
        violations=violations,
        min_b_factor=float(b_min.min()) if n else 1.0, b_factor_min_per_step=b_min,
        output_1=out1, output_2=out2,
    )


@dataclass
class PositivityReport:
    per_step_min: np.ndarray
    per_step_max: np.ndarray

    @property
    def global_min(self) -> float:
        return float(np.min(self.per_step_min))


def path_extrema(level: np.ndarray) -> tuple[float, float]:
    """(min, max) of one level of Y over paths, folded path by path in
    order: the bits of the axis-0 reductions over a path-major array, which
    also fixes which of -0.0 and +0.0 a tie gives (a reduction over the
    contiguous row can give the other one)."""
    return np.minimum.accumulate(level)[-1], np.maximum.accumulate(level)[-1]


def positivity_report(output) -> PositivityReport:
    """Exact per-step extrema of Y, over paths or over tree nodes."""
    if isinstance(output, TreeSchemeOutput):
        mins = np.array([np.min(level) for level in output.Y])
        maxs = np.array([np.max(level) for level in output.Y])
    else:
        mins, maxs = map(np.array, zip(*map(path_extrema, output.Y)))
    return PositivityReport(per_step_min=mins, per_step_max=maxs)
