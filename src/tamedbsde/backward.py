"""Backward recursions for the schemes, on Monte-Carlo paths or exact trees.

Every scheme computes Z first and explicitly,

    Z_i = E_i[ (Y_{i+1} + (1-theta') f^h(t_i, Y_{i+1}, 0) h) H_{i+1} ],

then the Y update: the explicit kinds set
Y_i = E_i[ Y_{i+1} + f^h(t_i, Y_{i+1}, Z_i) h ], the implicit kind sets
Y_i = E_i[Y_{i+1}] + f^h(t_i, Y_i, Z_i) h and solves for Y_i per path.
Conditional expectations come either from the Hermite regression layer or,
on enumerated tree paths, from exact per-prefix averaging.  Several schemes
on one path ensemble run backward in lockstep and share each step's
projector.
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
    unconverged paths only.
    """
    c = np.asarray(c, dtype=float)
    ctil = c + h * driver.base.z_coeff * np.asarray(z, dtype=float)
    y = ctil.copy()
    active = np.arange(y.size)
    ya, ca = y, ctil
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        fy = driver.tamed_y_part(ya)
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
        # halve steps that made the residual worse
        res_next = y_next - ca - h * driver.tamed_y_part(y_next)
        worse = np.abs(res_next) > np.abs(res)
        ya = np.where(worse, 0.5 * (ya + y_next), y_next)
    else:
        y[active] = ya
        res = ya - ca - h * driver.tamed_y_part(ya)
        bad = np.abs(res) > tol * (1.0 + np.abs(ya))
        if bad.any():
            raise ImplicitSolverError(int(active[np.argmax(bad)]), step)
    return y, iterations


class _LsmcProjector:
    """Hermite least squares on the step's state: one design and one
    factorization per step, shared by every fit and fitted value of the
    step (of every scheme of a lockstep group)."""

    def __init__(self, basis: BasisSpec):
        self.basis = basis
        self.design = None

    def begin_step(self, step: int, x) -> None:
        self.design = None  # release the previous step's design before building the next
        self.design = sample_design(self.basis, x)

    def project(self, targets):
        fit = self.design.fit(targets)
        return self.design.fitted(fit), fit.rank, fit.smallest_singular_value


class _PrefixProjector:
    """Exact projection on per-prefix indicators of enumerated tree paths."""

    def __init__(self, steps: int, paths: int):
        if paths != 2**steps:
            raise ValueError(f"exact tree basis expects 2^{steps} paths, got {paths}")
        self.steps = steps
        self.paths = paths
        self.step = None

    def begin_step(self, step: int, x) -> None:
        self.step = step

    def project(self, targets):
        groups = 2**self.step
        block = self.paths // groups
        means = np.asarray(targets, dtype=float).reshape(groups, block).mean(axis=1)
        return np.repeat(means, block), groups, 1.0


def _effective_driver(scheme: SchemeSpec, tamed: TamedDriver) -> TamedDriver:
    if scheme.kind == EXPLICIT_UNTAMED and tamed.taming.kind != NONE:
        return replace(tamed, taming=TamingSpec(kind=NONE))
    return tamed


def _check_implicit_guard(scheme: SchemeSpec, driver: TamedDriver, h: float) -> None:
    """The implicit solve needs h max(0, M_y) < 1 for a unique root."""
    if scheme.kind == IMPLICIT:
        guard = h * max(0.0, driver.base.constants.m_y)
        if guard >= 1.0:
            raise ValueError(f"implicit step guard violated: h*max(0, M_y) = {guard:.4g} >= 1")


class _SchemeRecursion:
    """One scheme's arrays, explosion status and own time during a backward
    pass; the step's conditional expectations come from a shared projector."""

    def __init__(self, scheme: SchemeSpec, driver: TamedDriver, xi: np.ndarray, n: int):
        paths = xi.shape[0]
        self.scheme = scheme
        self.driver = driver
        self.Y = np.full((paths, n + 1), np.nan)
        self.Z = np.full((paths, n, 1), np.nan)
        self.diag = SchemeDiagnostics(
            max_abs_y=np.full(n + 1, np.nan), min_y=np.full(n + 1, np.nan),
            z_fit_rank=np.zeros(n, dtype=int), z_fit_sv=np.full(n, np.nan),
            y_fit_rank=np.zeros(n, dtype=int), y_fit_sv=np.full(n, np.nan),
            implicit_iterations=np.zeros(n, dtype=int),
        )
        self.Y[:, n] = xi
        self.diag.max_abs_y[n] = np.max(np.abs(xi))
        self.diag.min_y[n] = np.min(xi)
        self.first_bad = None
        self.seconds = 0.0

    def advance(self, i: int, t: float, h: float, projector, h_inc: np.ndarray) -> bool:
        """Z_i, then Y_i, projected with the step's shared projector.

        The tamed y-part at Y_{i+1} is evaluated once, for the Z target
        (Y_{i+1} + (1-theta') f^h(t_i, Y_{i+1}, 0) h) H_{i+1} and the explicit
        Y target.  A non-finite target or Y_i marks the scheme exploded at i.
        Returns whether the projector was used (the Z target was finite).
        """
        scheme, driver, diag = self.scheme, self.driver, self.diag
        y_next = self.Y[:, i + 1]
        p = driver.tamed_y_part(y_next)
        f_at_zero = p + driver.base.z_coeff * 0.0
        z_target = (y_next + (1.0 - scheme.theta_prime) * f_at_zero * h) * h_inc
        if not np.all(np.isfinite(z_target)):
            self.first_bad = i
            return False
        z_i, diag.z_fit_rank[i], diag.z_fit_sv[i] = projector.project(z_target)
        self.Z[:, i, 0] = z_i

        if scheme.kind == IMPLICIT:
            c, diag.y_fit_rank[i], diag.y_fit_sv[i] = projector.project(y_next)
            y_i, diag.implicit_iterations[i] = _solve_implicit(
                driver, t, c, z_i, h, scheme.implicit_tol, scheme.implicit_max_iter, i)
        else:
            y_target = y_next + (p + driver.base.z_coeff * z_i) * h
            if not np.all(np.isfinite(y_target)):
                self.first_bad = i
                return True
            y_i, diag.y_fit_rank[i], diag.y_fit_sv[i] = projector.project(y_target)

        if not np.all(np.isfinite(y_i)):
            self.first_bad = i
            return True
        self.Y[:, i] = y_i
        diag.max_abs_y[i] = np.max(np.abs(y_i))
        diag.min_y[i] = np.min(y_i)
        return True

    def output(self) -> SchemeOutput:
        return SchemeOutput(Y=self.Y, Z=self.Z, diagnostics=self.diag,
                            exploded=self.first_bad is not None, first_bad_step=self.first_bad,
                            wallclock_ms=self.seconds * 1e3)


def run_backward_group(members: list[tuple[SchemeSpec, TamedDriver]], ensemble: PathEnsemble,
                       xi: np.ndarray, batch: IncrementBatch,
                       basis: BasisSpec | ExactTreeBasis) -> list[SchemeOutput]:
    """Backward recursion of several (scheme, driver) pairs over one path
    ensemble, in lockstep.

    At each step the design of X_i is built and factored once, and every
    scheme still running takes its Z projection, then its Y projection,
    from it.  The design comes first, so a scheme's targets and tamed
    y-part live only during its own turn.  Each target is projected on its own, so a scheme's output does
    not depend on the rest of the group or its order.  An exploding scheme
    (non-finite target or prediction) is flagged, its remaining columns are
    NaN, the first bad step index is recorded and it leaves the group; the
    caller gets partial data rather than an exception, because explosion of
    the untamed explicit scheme is an experimental observable.

    A scheme's `wallclock_ms` is its own time (targets, driver calls,
    projections, implicit solve) plus an equal share of each step's design
    and factorization among the schemes that used it.
    """
    grid = ensemble.grid
    n = grid.steps
    paths = ensemble.X.shape[0]
    if batch.dW.shape != (paths, n, 1):
        raise ValueError(f"increment batch shape {batch.dW.shape} does not match ({paths}, {n}, 1)")
    if xi.shape != (paths,):
        raise ValueError(f"terminal values have shape {xi.shape}, expected ({paths},)")
    runs = []
    for scheme, tamed in members:
        if not math.isclose(tamed.h, grid.h, rel_tol=1e-9):
            raise ValueError(f"driver was tamed at h={tamed.h}, grid has h={grid.h}")
        driver = _effective_driver(scheme, tamed)
        _check_implicit_guard(scheme, driver, grid.h)
        runs.append(_SchemeRecursion(scheme, driver, xi, n))

    if isinstance(basis, ExactTreeBasis):
        projector = _PrefixProjector(basis.steps, paths)
    else:
        projector = _LsmcProjector(basis)

    h = grid.h
    H = batch.H[:, :, 0]
    running = runs
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1, -1, -1):
            if not running:
                break
            t = grid.times[i]
            start = time.perf_counter()
            projector.begin_step(i, ensemble.X[:, i])
            design_s = time.perf_counter() - start
            used = []
            for run in running:
                start = time.perf_counter()
                if run.advance(i, t, h, projector, H[:, i]):
                    used.append(run)
                run.seconds += time.perf_counter() - start
            for run in used:
                run.seconds += design_s / len(used)
            running = [run for run in used if run.first_bad is None]

    return [run.output() for run in runs]


def run_backward(scheme: SchemeSpec, tamed: TamedDriver, ensemble: PathEnsemble,
                 xi: np.ndarray, batch: IncrementBatch,
                 basis: BasisSpec | ExactTreeBasis) -> SchemeOutput:
    """Backward recursion of one scheme over a path ensemble: the group of
    one of `run_backward_group`."""
    return run_backward_group([(scheme, tamed)], ensemble, xi, batch, basis)[0]


def _tree_children(tree: TreeModel, values: np.ndarray):
    """(down, up) child values aligned with the parent level."""
    if tree.recombining:
        return values[:-1], values[1:]
    resh = values.reshape(-1, 2)
    return resh[:, 0], resh[:, 1]


def tree_exact_run(scheme: SchemeSpec, tamed: TamedDriver, tree: TreeModel,
                   terminal: TerminalSpec) -> TreeSchemeOutput:
    """Same recursion with E_i computed as the exact half/half child average."""
    grid = tree.grid
    n = grid.steps
    if not math.isclose(tamed.h, grid.h, rel_tol=1e-9):
        raise ValueError(f"driver was tamed at h={tamed.h}, grid has h={grid.h}")
    driver = _effective_driver(scheme, tamed)
    _check_implicit_guard(scheme, driver, grid.h)

    h = grid.h
    sqrt_h = math.sqrt(h)
    theta = scheme.theta_prime
    z_coeff = driver.base.z_coeff

    Y: list = [None] * (n + 1)
    Z: list = [None] * n
    iters_used = np.zeros(n, dtype=int)
    Y[n] = np.asarray(terminal(tree.levels[n]), dtype=float)

    exploded = False
    first_bad = None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1, -1, -1):
            t = grid.times[i]
            down, up = _tree_children(tree, Y[i + 1])
            # one tamed y-part per level; the z-part of f^h is linear and is
            # added as TamedDriver.__call__ adds it (z_coeff * 0.0 included)
            p_down, p_up = _tree_children(tree, driver.tamed_y_part(Y[i + 1]))
            f_down = p_down + z_coeff * 0.0
            f_up = p_up + z_coeff * 0.0
            z = ((up + (1.0 - theta) * f_up * h) - (down + (1.0 - theta) * f_down * h)) / (2.0 * sqrt_h)
            if scheme.kind == IMPLICIT:
                c = 0.5 * (down + up)
                y, iters_used[i] = _solve_implicit(
                    driver, t, c, z, h, scheme.implicit_tol, scheme.implicit_max_iter, i)
            else:
                y = 0.5 * ((down + (p_down + z_coeff * z) * h) + (up + (p_up + z_coeff * z) * h))
            if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
                exploded, first_bad = True, i
                for j in range(i, -1, -1):
                    Y[j] = np.full(tree.node_count(j), np.nan)
                    Z[j] = np.full(tree.node_count(j), np.nan)
                break
            Z[i] = z
            Y[i] = y

    return TreeSchemeOutput(tree=tree, Y=Y, Z=Z, implicit_iterations=iters_used,
                            exploded=exploded, first_bad_step=first_bad)


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

    if isinstance(output, TreeSchemeOutput):
        tree = output.tree
        h = tree.grid.h
        sqrt_h = math.sqrt(h)
        zeta, D, norms = [], [], np.empty(tree.steps)
        for i in range(tree.steps):
            t = tree.grid.times[i]
            down, up = _tree_children(tree, output.Y[i + 1])
            z_i = output.Z[i]
            targ_down = down + tamed(t, down, z_i) * h
            targ_up = up + tamed(t, up, z_i) * h
            zeta_i = (targ_up - targ_down) / (2.0 * sqrt_h)
            d_i = z_i - zeta_i
            zeta.append(zeta_i)
            D.append(d_i)
            w = tree.level_weights(i)
            norms[i] = float(np.sum(w * d_i**2) * h)
        return ZetaDiagnostic(zeta=zeta, D=D, norms=norms)

    if ensemble is None or batch is None or basis is None:
        raise ValueError("path-ensemble zeta diagnostic needs ensemble, batch and basis")
    grid = ensemble.grid
    n = grid.steps
    paths = ensemble.X.shape[0]
    projector = (_PrefixProjector(basis.steps, paths) if isinstance(basis, ExactTreeBasis)
                 else _LsmcProjector(basis))
    H = batch.H[:, :, 0]
    zeta = np.empty((paths, n))
    for i in range(n):
        t = grid.times[i]
        y_next = output.Y[:, i + 1]
        target = (y_next + tamed(t, y_next, output.Z[:, i, 0]) * grid.h) * H[:, i]
        projector.begin_step(i, ensemble.X[:, i])
        zeta[:, i], _, _ = projector.project(target)
    D = output.Z[:, :, 0] - zeta
    norms = np.mean(D**2, axis=0) * grid.h
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

    terminal_margin = float(np.min(out1.Y[n] - out2.Y[n]))

    driver_margin = np.inf
    b_min = np.empty(n)
    for i in range(n):
        t = grid.times[i]
        y2_down, y2_up = _tree_children(tree, out2.Y[i + 1])
        z2 = out2.Z[i]
        diff_down = tamed1(t, y2_down, z2) - tamed2(t, y2_down, z2)
        diff_up = tamed1(t, y2_up, z2) - tamed2(t, y2_up, z2)
        driver_margin = min(driver_margin, float(np.min(diff_down)), float(np.min(diff_up)))

        y1_down, y1_up = _tree_children(tree, out1.Y[i + 1])
        z1 = out1.Z[i]
        betas = []
        for y1c, y2c, hsign in ((y1_down, y2_down, -1.0), (y1_up, y2_up, 1.0)):
            dy = y1c - y2c
            num = tamed1(t, y1c, z1) - tamed1(t, y2c, z1)
            with np.errstate(divide="ignore", invalid="ignore"):
                beta = np.where(dy != 0.0, num / np.where(dy != 0.0, dy, 1.0), 0.0)
            if z_free:
                b = 1.0 + h * beta
            else:
                dz = z1 - z2
                gamma = np.where(dz != 0.0, tamed1.base.z_coeff, 0.0)
                num_hat = tamed1(t, y1c, 0.0) - tamed1(t, y2c, 0.0)
                beta_hat = np.where(dy != 0.0, num_hat / np.where(dy != 0.0, dy, 1.0), 0.0)
                b = 1.0 + h * beta + h * gamma * (1.0 + (1.0 - scheme.theta_prime) * h * beta_hat) \
                    * hsign / sqrt_h
            betas.append(np.min(b))
        b_min[i] = min(betas)

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
