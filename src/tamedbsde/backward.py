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
one path ensemble run in lockstep and share each step's operator.
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


@dataclass(frozen=True)
class SchemeSpec:
    """Scheme kind, the theta' weight in the Z target, and implicit-solver knobs."""

    kind: str
    theta_prime: float = 1.0
    implicit_tol: float = 1e-12
    implicit_max_iter: int = 50

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
    max_abs_y: np.ndarray
    min_y: np.ndarray
    z_fit_rank: np.ndarray
    z_fit_sv: np.ndarray
    y_fit_rank: np.ndarray
    y_fit_sv: np.ndarray
    implicit_iterations: np.ndarray


@dataclass
class SchemeOutput:
    """Per-path output: Y is (paths, N+1), Z is (paths, N, 1); wallclock_ms
    is the scheme's share of its backward pass (see run_backward_group)."""

    Y: np.ndarray
    Z: np.ndarray
    diagnostics: SchemeDiagnostics
    exploded: bool = False
    first_bad_step: int | None = None
    wallclock_ms: float = 0.0


@dataclass
class TreeSchemeOutput:
    """Per-node output on the tree: ragged level arrays."""

    tree: TreeModel
    Y: list
    Z: list
    implicit_iterations: np.ndarray
    exploded: bool = False
    first_bad_step: int | None = None

    @property
    def root_value(self) -> float:
        return float(self.Y[0][0])


class ImplicitSolverError(RuntimeError):
    def __init__(self, path: int, step: int):
        self.path = path
        self.step = step
        super().__init__(f"implicit solve did not converge at path {path}, step {step}")


def _solve_implicit(driver: TamedDriver, t: float, c, z, h: float,
                    tol: float, max_iter: int, step: int) -> tuple[np.ndarray, int]:
    """Solve y = c + f^h(t, y, z) h elementwise.

    Damped fixed-point iteration while the local contraction factor
    h |d f^h/dy| stays below 1/2, Newton otherwise; Newton steps that grow
    the residual are halved.  Under the step guard h max(0, M_y) < 1 the map
    y -> y - h f^h(y) is strictly increasing, so the root is unique.

    A path's y is frozen once its residual meets the tolerance (the same y
    gives the same residual), so each iteration works on the still
    unconverged paths only.  f^h at the candidate carries into the next
    iteration; it is evaluated again only where the step was halved.
    """
    ctil = c + h * driver.base.z_coeff * np.asarray(z, dtype=float)
    y = ctil.copy()
    active = np.arange(y.size)
    ya, ca = y, ctil
    fy = driver.tamed_y_part(ya)
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        res = ya - ca - h * fy
        pending = ~(np.abs(res) <= tol * (1.0 + np.abs(ya)))
        if not pending.all():
            y[active] = ya
            if not pending.any():
                break
            active, ya, ca, fy, res = active[pending], ya[pending], ca[pending], fy[pending], res[pending]
        slope = driver.y_slope(ya)
        kappa = h * np.abs(slope)
        fp_next = ca + h * fy
        dg = np.maximum(1.0 - h * slope, 0.1)
        newton_next = ya - res / dg
        y_next = np.where(kappa <= 0.5, fp_next, newton_next)
        fy = driver.tamed_y_part(y_next)
        # halve steps that made the residual worse
        worse = np.abs(y_next - ca - h * fy) > np.abs(res)
        ya = np.where(worse, 0.5 * (ya + y_next), y_next)
        if worse.any():
            fy[worse] = driver.tamed_y_part(ya[worse])
    else:
        y[active] = ya
        res = ya - ca - h * fy
        bad = np.abs(res) > tol * (1.0 + np.abs(ya))
        if bad.any():
            raise ImplicitSolverError(int(active[np.argmax(bad)]), step)
    return y, iterations


_NO_FIT = (0, math.nan)


class _LsmcOperator:
    """Hermite least squares on paths, each its own child: one design and
    factorization of X_i per step serve every scheme of a lockstep group.
    A non-finite target (the scheme exploded) projects to NaN, with no fit."""

    def __init__(self, basis: BasisSpec | None, X: np.ndarray, H: np.ndarray):
        self.basis = basis
        self.X = X
        self.H = H  # H[:, i] holds H_{i+1}
        self.step = None
        self.design = None

    def begin_step(self, step: int) -> None:
        self.step = step
        self.design = None  # release the previous step's design before building the next
        self.design = sample_design(self.basis, self.X[:, step])

    @staticmethod
    def children(v):
        return v

    def mean(self, kids):
        if not np.isfinite(kids).all():
            return np.full(kids.shape, np.nan), _NO_FIT
        return self._project(kids)

    def mean_h(self, kids):
        return self.mean(kids * self.H[:, self.step])

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
    X, H = ensemble.X, batch.H[:, :, 0]
    if not isinstance(basis, ExactTreeBasis):
        return _LsmcOperator(basis, X, H)
    if X.shape[0] != 2**basis.steps:
        raise ValueError(f"exact tree basis expects 2^{basis.steps} paths, got {X.shape[0]}")
    return _PrefixOperator(None, X, H)


class _PathLevels:
    """Y as (paths, N+1), NaN until stored: level j is column j, and storing
    a level records its extrema."""

    def __init__(self, xi: np.ndarray, n: int):
        self.array = np.full((xi.shape[0], n + 1), np.nan)
        self.max_abs = np.full(n + 1, np.nan)
        self.min = np.full(n + 1, np.nan)
        self[n] = xi

    def __getitem__(self, j: int) -> np.ndarray:
        return self.array[:, j]

    def __setitem__(self, j: int, y: np.ndarray) -> None:
        self.array[:, j] = y
        self.max_abs[j], self.min[j] = np.max(np.abs(y)), np.min(y)


class _SchemeRun:
    """One scheme in the backward recursion.  `Y[j]` and `Z[j]` are level j
    of its storage (the terminal level stored on entry); a level it never
    reaches, because it exploded first, keeps its initial content."""

    def __init__(self, scheme: SchemeSpec, tamed: TamedDriver, grid, Y, Z):
        if not math.isclose(tamed.h, grid.h, rel_tol=1e-9):
            raise ValueError(f"driver was tamed at h={tamed.h}, grid has h={grid.h}")
        if scheme.kind == EXPLICIT_UNTAMED and tamed.taming.kind != NONE:
            tamed = replace(tamed, taming=TamingSpec(kind=NONE))
        if scheme.kind == IMPLICIT:
            # the implicit solve needs h max(0, M_y) < 1 for a unique root
            guard = grid.h * max(0.0, tamed.base.constants.m_y)
            if guard >= 1.0:
                raise ValueError(f"implicit step guard violated: h*max(0, M_y) = {guard:.4g} >= 1")
        self.scheme = scheme
        self.driver = tamed
        self.Y, self.Z = Y, Z
        n = grid.steps
        self.z_fits = [_NO_FIT] * n
        self.y_fits = [_NO_FIT] * n
        self.iterations = np.zeros(n, dtype=int)
        self.first_bad = None
        self.seconds = 0.0

    def advance(self, i: int, t: float, h: float, op) -> None:
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
                y, self.iterations[i] = _solve_implicit(
                    driver, t, c, z, h, scheme.implicit_tol, scheme.implicit_max_iter, i)
            else:
                y, self.y_fits[i] = op.mean(op.children(y_next) + (op.children(p) + z_coeff * z) * h)
            if np.isfinite(y).all():
                self.Z[i], self.Y[i] = z, y
                return
        self.first_bad = i


def _backward(runs: list[_SchemeRun], op, grid) -> None:
    """The backward recursion of every run over one operator, in lockstep.

    Each step's `begin_step` (on paths, the design and its factorization)
    comes before the runs' turns, so a run's targets live only during its
    own turn; a run's `seconds` is its own time plus an equal share of each
    `begin_step` among the runs still going.  An exploded run leaves the
    lockstep with its partial data: explosion of the untamed explicit
    scheme is an experimental observable, not an error.
    """
    running = runs
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.steps - 1, -1, -1):
            if not running:
                break
            t = grid.times[i]
            start = time.perf_counter()
            op.begin_step(i)
            shared = (time.perf_counter() - start) / len(running)
            for run in running:
                start = time.perf_counter()
                run.advance(i, t, grid.h, op)
                run.seconds += time.perf_counter() - start + shared
            running = [run for run in running if run.first_bad is None]


def run_backward_group(members: list[tuple[SchemeSpec, TamedDriver]], ensemble: PathEnsemble,
                       xi: np.ndarray, batch: IncrementBatch,
                       basis: BasisSpec | ExactTreeBasis) -> list[SchemeOutput]:
    """Backward recursion of several (scheme, driver) pairs over one path
    ensemble, in lockstep.

    At each step the design of X_i is built and factored once, and every
    scheme still running takes its Z projection, then its Y projection,
    from it.  Each target is projected on its own, so a scheme's output
    does not depend on the rest of the group or its order.  An exploding
    scheme's columns from its first bad step down are NaN.
    """
    grid = ensemble.grid
    n = grid.steps
    paths = ensemble.X.shape[0]
    if batch.dW.shape != (paths, n, 1):
        raise ValueError(f"increment batch shape {batch.dW.shape} does not match ({paths}, {n}, 1)")
    if xi.shape != (paths,):
        raise ValueError(f"terminal values have shape {xi.shape}, expected ({paths},)")
    # Z level j is column j of a (paths, N) array, written through its transpose
    runs = [_SchemeRun(scheme, tamed, grid, _PathLevels(xi, n), np.full((paths, n), np.nan).T)
            for scheme, tamed in members]
    _backward(runs, _path_operator(basis, ensemble, batch), grid)

    outputs = []
    for run in runs:
        z_rank, z_sv = map(np.array, zip(*run.z_fits))
        y_rank, y_sv = map(np.array, zip(*run.y_fits))
        diag = SchemeDiagnostics(max_abs_y=run.Y.max_abs, min_y=run.Y.min, z_fit_rank=z_rank,
                                 z_fit_sv=z_sv, y_fit_rank=y_rank, y_fit_sv=y_sv,
                                 implicit_iterations=run.iterations)
        outputs.append(SchemeOutput(Y=run.Y.array, Z=run.Z.T[:, :, None], diagnostics=diag,
                                    exploded=run.first_bad is not None, first_bad_step=run.first_bad,
                                    wallclock_ms=run.seconds * 1e3))
    return outputs


def run_backward(scheme: SchemeSpec, tamed: TamedDriver, ensemble: PathEnsemble,
                 xi: np.ndarray, batch: IncrementBatch,
                 basis: BasisSpec | ExactTreeBasis) -> SchemeOutput:
    """Backward recursion of one scheme over a path ensemble: the group of
    one of `run_backward_group`."""
    return run_backward_group([(scheme, tamed)], ensemble, xi, batch, basis)[0]


def tree_exact_run(scheme: SchemeSpec, tamed: TamedDriver, tree: TreeModel,
                   terminal: TerminalSpec) -> TreeSchemeOutput:
    """Same recursion with E_i computed as the exact half/half child average."""
    n = tree.steps
    run = _SchemeRun(scheme, tamed, tree.grid,
                     [None] * n + [np.asarray(terminal(tree.levels[n]), dtype=float)], [None] * n)
    _backward([run], _TreeOperator(tree), tree.grid)

    def filled(levels):
        return [np.full(tree.node_count(j), np.nan) if v is None else v for j, v in enumerate(levels)]

    return TreeSchemeOutput(tree=tree, Y=filled(run.Y), Z=filled(run.Z),
                            implicit_iterations=run.iterations,
                            exploded=run.first_bad is not None, first_bad_step=run.first_bad)


@dataclass
class ZetaDiagnostic:
    """zeta_i, the gap D_i = Z_i - zeta_i, and its L2 norms E|D_i|^2 h."""

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
        grid, op, Y, Z = output.tree.grid, _TreeOperator(output.tree), output.Y, output.Z
    else:
        if ensemble is None or batch is None or basis is None:
            raise ValueError("path-ensemble zeta diagnostic needs ensemble, batch and basis")
        grid, op = ensemble.grid, _path_operator(basis, ensemble, batch)
        Y, Z = output.Y.T, output.Z[:, :, 0].T

    h, z_coeff = grid.h, tamed.base.z_coeff
    zeta, D = [], []
    for i in range(grid.steps):
        op.begin_step(i)
        # one tamed y-part per level; the z-part is added as TamedDriver.__call__ adds it
        kids_p = op.children(tamed.tamed_y_part(Y[i + 1]))
        zeta.append(op.mean_h(op.children(Y[i + 1]) + (kids_p + z_coeff * Z[i]) * h)[0])
        D.append(Z[i] - zeta[i])
    if on_tree:
        weights = output.tree.level_weights
        norms = np.array([float(np.sum(weights(i) * d**2) * h) for i, d in enumerate(D)])
    else:
        zeta, D = np.stack(zeta, axis=1), np.stack(D, axis=1)
        norms = np.mean(D**2, axis=0) * h
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


def positivity_report(output) -> PositivityReport:
    """Exact per-step extrema of Y, over paths or over tree nodes."""
    if isinstance(output, TreeSchemeOutput):
        mins = np.array([np.min(level) for level in output.Y])
        maxs = np.array([np.max(level) for level in output.Y])
    else:
        mins = np.min(output.Y, axis=0)
        maxs = np.max(output.Y, axis=0)
    return PositivityReport(per_step_min=mins, per_step_max=maxs)
