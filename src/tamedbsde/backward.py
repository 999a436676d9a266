"""Backward recursions for the schemes, on Monte-Carlo paths or exact trees.

Every scheme computes Z first and explicitly,

    Z_i = E_i[ (Y_{i+1} + (1-theta') f^h(Y_{i+1}, 0) h) H_{i+1} ],

then the Y update: the explicit kinds set
Y_i = E_i[ Y_{i+1} + f^h(Y_{i+1}, Z_i) h ], the implicit kind sets
Y_i = E_i[Y_{i+1}] + f^h(Y_i, Z_i) h and solves for Y_i per path.
One loop runs it over a conditional-expectation operator: `children(v)`
aligns a level-(i+1) array with level i, and `mean(kids)` and
`mean_h(kids)` return E_i[v] and E_i[v H_{i+1}] of kids = children(v).  The
operator is Hermite least squares on Monte-Carlo paths (which records each
step's fit rank), per-prefix averaging on enumerated tree paths or the child
average on tree levels (`trees.TreeOperator`, which owns the tree's layout).
The schemes on one path ensemble run in lockstep
and share each step's operator, and the groups of nested grids run in one
sweep over fine time (`sweep`), which hands each level to a callback: the
stored outputs of run_backward_group and tree_group_run, or the level-by-level
comparison of two tree instances (comparison_check).  Every level is a
C-ordered (rows, nodes) block: each scheme alone on paths, the schemes of
one base driver together on a tree, where one y-part, Z target and child
average per level serve every row before the implicit rows are solved.
A row whose Y or Z stops being finite leaves its block there, so a
callback sees only finite levels below the terminal one; the sweep returns
each member's SchemeOutput, where its first bad step is recorded.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .drivers import NONE, DerivedConstants, TamedDriver, TamingBlock, TamingSpec, derive_constants
from .forward import PathEnsemble, TerminalSpec
from .regression import BasisSpec, sample_design
# Nothing here calls predict; it stays bound as backward.predict because the
# benchmark's trace probes (perfbench/spans.py) look it up by that name.
from .regression import predict  # noqa: F401
from .trees import TreeModel, TreeOperator

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
    blocks of size 2^(N-i)); N is the ensemble's number of steps.
    """


@dataclass
class SchemeOutput:
    """One scheme's N+1 levels of Y and N of Z, level i at index i: C-ordered
    (N+1, paths) and (N, paths) arrays on paths, lists of ragged levels on a
    tree, None as `sweep` returns it; NaN from `first_bad_step` down if it
    exploded.  `wallclock_ms` is its share of the backward pass (see
    sweep)."""

    Y: np.ndarray | list | None
    Z: np.ndarray | list | None
    implicit_iterations: np.ndarray
    first_bad_step: int | None = None
    wallclock_ms: float = 0.0

    @property
    def exploded(self) -> bool:
        return self.first_bad_step is not None

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


class DesignError(RuntimeError):
    """The regression design of a step cannot be factored: the basis
    overflows at the step's states."""


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

    Until the first path is frozen every path is live, and the loop does no
    mask work: the candidate buffer becomes the iterate.
    """
    ctil = c + h * driver.base.z_coeff * np.asarray(z, dtype=float)
    y = ctil.copy()
    res = y - ctil - h * driver.tamed_y_part(y)
    abs_res = np.abs(res)
    # the Newton update, the threshold and the masks live in buffers of
    # this call, written in place each iteration; `live` is None while
    # every path is live
    newton, threshold = np.empty_like(y), np.empty_like(y)
    done, worse = np.empty(y.shape, dtype=bool), np.empty(y.shape, dtype=bool)
    live = None
    for iterations in range(1, IMPLICIT_MAX_ITER + 1):
        np.multiply(h, driver.y_slope(y), out=newton)
        np.subtract(1.0, newton, out=newton)
        np.maximum(newton, 0.1, out=newton)
        np.divide(res, newton, out=newton)
        np.subtract(y, newton, out=newton)
        np.abs(y, out=threshold)
        threshold += 1.0
        threshold *= IMPLICIT_TOL
        np.less_equal(abs_res, threshold, out=done)
        if live is not None:
            done &= live
        if np.count_nonzero(done):
            np.copyto(y, newton, where=done & np.isfinite(newton))
            if live is None:
                live = ~done
            else:
                live ^= done
            if not np.count_nonzero(live):
                break
        # halve steps that made the residual worse; the residual carries into
        # the next iteration and is recomputed only where the step was halved
        np.subtract(newton, ctil, out=res)
        res -= h * driver.tamed_y_part(newton)
        abs_next = np.abs(res)
        np.greater(abs_next, abs_res, out=worse)
        if live is not None:
            worse &= live
        abs_res = abs_next
        if np.count_nonzero(worse):
            newton[worse] = 0.5 * (y[worse] + newton[worse])
            res[worse] = newton[worse] - ctil[worse] - h * driver.tamed_y_part(newton[worse])
            abs_res[worse] = np.abs(res[worse])
        if live is None:
            y, newton = newton, y
        else:
            np.copyto(y, newton, where=live)
    else:
        # out of iterations: the live paths keep their last iterate, and
        # those outside the tolerance fail
        bad = abs_res > IMPLICIT_TOL * (1.0 + np.abs(y))
        if live is not None:
            bad &= live
        if bad.any():
            raise ImplicitSolverError(int(np.argmax(bad)), step, scheme)
    return y, iterations


@dataclass(frozen=True)
class ArrayRows:
    """The row source of full arrays: X as PathEnsemble.X and H as
    IncrementBatch.H, step i reading row i of each."""

    X: np.ndarray
    H: np.ndarray

    def __call__(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        return self.X[step], self.H[step]


class LsmcOperator:
    """Hermite least squares on paths, each its own child: one design and
    factorization of X_i per step serve every scheme of a lockstep group,
    each scheme a block of one whose (1, paths) targets are fitted on their
    own.  A non-finite target (the scheme exploded) projects to NaN, with no
    fit.  `begin_step(i)` reads X_i and H_{i+1} from the row source `rows`,
    a callable i -> (X_i, H_{i+1}) such as ArrayRows, of the paths on
    `grid`, and records step i's design rank and smallest singular value in
    `fit_rank[i]` and `fit_sv[i]` (0 and NaN at a step not taken)."""

    # each scheme is fitted on its own: blocks of one row
    row_blocks = False

    def __init__(self, basis: BasisSpec | None, rows, grid):
        self.basis = basis
        self.rows = rows
        self.grid = grid
        self.step = self.h_row = self.design = None
        self.fit_rank = np.zeros(grid.steps, dtype=int)
        self.fit_sv = np.full(grid.steps, np.nan)

    def begin_step(self, step: int) -> None:
        self.step = step
        x, self.h_row = self.rows(step)
        try:
            self.design = sample_design(self.basis, x)
        except ValueError as exc:
            raise DesignError(f"N={self.grid.steps}, step {step}: {exc}") from exc
        factors = self.design.factors
        self.fit_rank[step], self.fit_sv[step] = factors.rank, factors.smallest_singular_value

    def end_step(self) -> None:
        self.design = self.h_row = None

    @staticmethod
    def children(v):
        return v

    def mean(self, kids):
        if not np.isfinite(kids).all():
            return np.full(kids.shape, np.nan)
        return self._project(kids)

    def mean_h(self, kids):
        return self.mean(kids * self.h_row)

    def _project(self, target):
        fit = self.design.fit(target[0])
        return self.design.fitted(fit)[None]


class _PrefixOperator(LsmcOperator):
    """Exact projection on per-prefix indicators of enumerated tree paths:
    step i's fit has rank 2^i and smallest singular value 1."""

    def begin_step(self, step: int) -> None:
        self.step = step
        _, self.h_row = self.rows(step)
        self.fit_rank[step], self.fit_sv[step] = 2**step, 1.0

    def _project(self, target):
        groups = 2**self.step
        block = target.size // groups
        return np.repeat(target.reshape(groups, block).mean(axis=1), block)[None]


def _path_operator(basis: BasisSpec | ExactTreeBasis, ensemble: PathEnsemble) -> LsmcOperator:
    """The operator of `basis` on the ensemble's X and its own increments H,
    whose shape is checked against X (an ensemble built by hand can hold
    increments of another shape)."""
    X, H = ensemble.X, ensemble.increments.H
    n, paths = ensemble.grid.steps, X.shape[1]
    if H.shape != (n, paths):
        raise ValueError(f"ensemble increments have shape {H.shape}, expected ({n}, {paths})")
    if not isinstance(basis, ExactTreeBasis):
        return LsmcOperator(basis, ArrayRows(X, H), ensemble.grid)
    if paths != 2**n:
        raise ValueError(f"exact tree basis expects 2^{n} paths, got {paths}")
    return _PrefixOperator(None, ArrayRows(X, H), ensemble.grid)


def scheme_driver(scheme: SchemeSpec, tamed: TamedDriver) -> TamedDriver:
    """The driver `scheme` runs when given `tamed`: the untamed explicit
    kind drops the taming, every other kind runs `tamed` as it is."""
    if scheme.kind == EXPLICIT_UNTAMED and tamed.taming.kind != NONE:
        return replace(tamed, taming=TamingSpec(kind=NONE))
    return tamed


class _SchemeRun:
    """A block of a group's members in the backward recursion, advanced
    together: the rows of C-ordered (rows, nodes) levels, tamed together
    (TamingBlock), the members sharing a base driver.  `members` are the
    indices in the group of the block's rows, `drivers` the driver each row
    runs (scheme_driver), and `y`, `z` and `p` are the latest Y_i and Z_i
    the block took and the tamed y-part at the Y_{i+1} it left (`y` the
    terminal level on entry).  `group` holds the group's (scheme, driver,
    label, required) members, `outputs` their SchemeOutputs, in which the
    block writes each row's implicit iteration counts.  A row whose Z_i or
    Y_i is not finite leaves the block at step i, its member's output
    recording i as its first bad step, so the block's levels below the
    terminal one are finite; a required member raises SchemeExplodedError
    there, naming the path.  A member's label names it in error
    messages."""

    def __init__(self, group: list[tuple], rows: list[int], grid, xi: np.ndarray,
                 outputs: list[SchemeOutput]):
        for k in rows:
            scheme, tamed, _, _ = group[k]
            if not math.isclose(tamed.h, grid.h, rel_tol=1e-9):
                raise ValueError(f"driver was tamed at h={tamed.h}, grid has h={grid.h}")
            if scheme.kind == IMPLICIT:
                check_implicit_guard(grid.h, tamed.base.constants.m_y)
        self.group, self.outputs = group, outputs
        self.y = np.repeat(xi[None], len(rows), axis=0)
        self.z = self.p = None
        self._take(rows)

    def _take(self, rows: list[int]) -> None:
        """Make the group's members `rows` the block's rows; a block with
        none left leaves the lockstep."""
        self.members = rows
        if not rows:
            return
        schemes = [self.group[k][0] for k in rows]
        self.drivers = [scheme_driver(scheme, self.group[k][1]) for scheme, k in zip(schemes, rows)]
        self.driver = TamingBlock(self.drivers)
        self.weight = np.array([1.0 - scheme.theta_prime for scheme in schemes])[:, None]
        # the rows solved implicitly, one by one; the rest take the explicit Y
        self.implicit = [row for row, scheme in enumerate(schemes) if scheme.kind == IMPLICIT]
        self.explicit = len(self.implicit) < len(rows)

    def advance(self, i: int, h: float, op) -> None:
        """Z_i, then Y_i, of every row, from Y_{i+1} in `y`.  The tamed
        y-part at Y_{i+1} is evaluated once, for the Z target (its z-part
        added as TamedDriver.__call__ adds it) and the explicit Y target,
        which is taken only when the block has explicit rows: a z-free
        driver's explicit Y target is Y_{i+1} + f^h h on the parent level,
        averaged once; a z-dependent driver adds its z-part at each child.
        Each implicit row is then solved from its own E_i[Y_{i+1}] where
        its Z_i is finite; elsewhere the row leaves, whatever its Y_i
        holds."""
        driver = self.driver
        z_coeff = driver.base.z_coeff
        y_next = self.y
        p = driver.tamed_y_part(y_next)
        z = op.mean_h(op.children(y_next + self.weight * (p + z_coeff * 0.0) * h))
        z_finite = np.isfinite(z).all()
        if not self.explicit:
            y = np.empty(z.shape)
        elif z_coeff == 0.0:
            # the per-child form's bits: p + 0.0 * z is p but where p is
            # -0.0 and z is +0.0 or positive, and then y + (+-0.0) * h
            # differs only where y is -0.0 too; a row whose Z_i is not
            # finite leaves either way
            y = op.mean(op.children(y_next + p * h))
        else:
            # Z_i belongs to the level-i node: no rounding moves its part
            # to the parent level
            y = op.mean(op.children(y_next) + (op.children(p) + z_coeff * z) * h)
        for row in self.implicit:
            if z_finite or np.isfinite(z[row]).all():
                (c,) = op.mean(op.children(y_next[row:row + 1]))
                k = self.members[row]
                y[row], self.outputs[k].implicit_iterations[i] = _solve_implicit(
                    self.drivers[row], c, z[row], h, i, self.group[k][2])
        if z_finite and np.isfinite(y).all():
            self.z, self.y, self.p = z, y, p
            return
        # some row exploded: it leaves, the rest stay
        finite = np.isfinite(z).all(axis=1) & np.isfinite(y).all(axis=1)
        for row in np.flatnonzero(~finite):
            k = self.members[row]
            self.outputs[k].first_bad_step = i
            _, _, label, required = self.group[k]
            if required:
                # where the driver term overflowed, if anywhere
                bad = ~np.isfinite(y_next[row] + p[row] * h)
                where = f", path {int(np.argmax(bad))}" if bad.any() else ""
                raise SchemeExplodedError(f"{label} exploded at step {i}{where}")
        keep = np.flatnonzero(finite)
        self.z, self.y, self.p = z[keep], y[keep], p[keep]
        self._take([self.members[row] for row in keep])


def sweep(groups: list[tuple], reached) -> list[list[SchemeOutput]]:
    """The backward recursion of lockstep groups on nested grids, in one
    sweep over fine time: every run of the schemes goes through it.

    `groups` holds (op, xi, members) per grid, finest first: op the grid's
    conditional-expectation operator (LsmcOperator or TreeOperator; the
    grid is op.grid), xi the terminal values and members (scheme, driver,
    label, required) tuples; a label names its member in error messages,
    and a required member raises SchemeExplodedError where it explodes.
    Where the operator takes blocks of rows (op.row_blocks, on a tree) the
    members of one base driver, explicit and implicit, run as the rows of
    one block, in member order; elsewhere each member is a block of one.

    `reached(g, i, blocks)` gets the terminal levels first, finest grid
    first, then every level i of grid g as it is reached, with the blocks
    still in the lockstep: `block.members` are the indices in the group of
    its rows, `block.y` is Y_i, `block.z` is Z_i and `block.p` the tamed
    y-part at the Y_{i+1} it left (both None at the terminal level), each
    a C-ordered (rows, nodes) array whose row r belongs to member
    block.members[r].  A member whose Y_i or Z_i is not finite has left
    its block at step i, and a block with no rows left leaves the
    lockstep: so every level a callback gets below the terminal one is
    finite, and no caller masks a level.  The terminal level is xi as
    given, finite or not.  After each call the sweep drops every Z_i and
    y-part, so a block keeps one level of Y between its steps, and none
    once it leaves or the sweep returns.  Steps and callbacks run with
    overflow and invalid-value warnings off.

    At fine index j every group whose stride (fine steps over its steps)
    divides j takes its step i = j / stride, finest first; ValueError
    rejects, before any step, groups whose N do not all divide the first
    group's.  Groups may share a grid (and its operator): those step in
    list order at each fine index, so when group g reaches level i every
    earlier group on its grid has reached it too, which the comparison
    check relies on.  A step's
    `begin_step` (on paths, the row source's read, the design and its
    factorization) comes before the blocks' turns and `end_step` releases
    it after, so a block's targets live only during its own turn.
    Explosion of the untamed explicit scheme is an experimental
    observable, not an error.

    Returns, per group, each member's SchemeOutput with Y = Z = None: its
    first bad step (None if it did not explode), its implicit iteration
    counts and `wallclock_ms`, the time of its block's steps while the
    member was in it, with an equal share of each `begin_step` among the
    blocks still going.
    """
    steps = groups[0][0].grid.steps
    ns = [op.grid.steps for op, _, _ in groups]
    if any(steps % n for n in ns):
        raise ValueError("the grids of a sweep must come finest first, each N dividing the "
                         f"first one's, got N = {', '.join(map(str, ns))}")
    running, outputs = [], []
    strides = [steps // n for n in ns]
    with np.errstate(over="ignore", invalid="ignore"):
        for g, (op, xi, members) in enumerate(groups):
            blocks: dict[object, list[int]] = {}
            for k, (_, tamed, _, _) in enumerate(members):
                blocks.setdefault(tamed.base if op.row_blocks else k, []).append(k)
            outputs.append([SchemeOutput(None, None, np.zeros(op.grid.steps, dtype=int))
                            for _ in members])
            running.append([_SchemeRun(members, rows, op.grid, xi, outputs[g])
                            for rows in blocks.values()])
            reached(g, op.grid.steps, running[g])
        for j in range(steps - 1, -1, -1):
            for g, (op, _, _) in enumerate(groups):
                if j % strides[g] or not running[g]:
                    continue
                i = j // strides[g]
                start = time.perf_counter()
                op.begin_step(i)
                shared = (time.perf_counter() - start) / len(running[g])
                for run in running[g]:
                    # the members before the step: one that leaves in it is charged for it
                    rows, start = run.members, time.perf_counter()
                    run.advance(i, op.grid.h, op)
                    ms = (time.perf_counter() - start + shared) * 1e3
                    for k in rows:
                        outputs[g][k].wallclock_ms += ms
                op.end_step()
                running[g] = [run for run in running[g] if run.members]
                reached(g, i, running[g])
                for run in running[g]:
                    run.z = run.p = None
    return outputs


def _stored(op, xi: np.ndarray, members: list[tuple[SchemeSpec, TamedDriver]],
            levels) -> list[SchemeOutput]:
    """The sweep of one group with every member's levels kept: Y[k] and
    Z[k] are member k's N+1 and N levels, made NaN by `levels(n)` (an
    (n, nodes) array or a list of n level arrays), each filled when the
    sweep reaches it.  A member that exploded leaves its block at its first
    bad step, so its levels from there down keep their NaN.  Returns each
    member's output from the sweep, with its levels attached."""
    n = op.grid.steps
    Y = [levels(n + 1) for _ in members]
    Z = [levels(n) for _ in members]

    def store(_, i, blocks):
        for block in blocks:
            for row, k in enumerate(block.members):
                Y[k][i][...] = block.y[row]
                if block.z is not None:
                    Z[k][i][...] = block.z[row]

    (outputs,) = sweep([(op, xi, [(scheme, tamed, None, False) for scheme, tamed in members])], store)
    for out, y, z in zip(outputs, Y, Z):
        out.Y, out.Z = y, z
    return outputs


def run_backward_group(members: list[tuple[SchemeSpec, TamedDriver]], ensemble: PathEnsemble,
                       xi: np.ndarray, basis: BasisSpec | ExactTreeBasis) -> list[SchemeOutput]:
    """Backward recursion of several (scheme, driver) pairs over one path
    ensemble, in lockstep.

    At each step the design of X_i is built and factored once, and every
    scheme still running takes its Z projection, then its Y projection,
    from it.  Each target is projected on its own, so a scheme's output
    does not depend on the rest of the group or its order.  An exploding
    scheme's rows from its first bad step down are NaN.
    """
    paths = ensemble.X.shape[1]
    op = _path_operator(basis, ensemble)
    if xi.shape != (paths,):
        raise ValueError(f"terminal values have shape {xi.shape}, expected ({paths},)")
    return _stored(op, xi, members, lambda n: np.full((n, paths), np.nan))


def run_backward(scheme: SchemeSpec, tamed: TamedDriver, ensemble: PathEnsemble,
                 xi: np.ndarray, basis: BasisSpec | ExactTreeBasis) -> SchemeOutput:
    """Backward recursion of one scheme over a path ensemble: the group of
    one of `run_backward_group`."""
    return run_backward_group([(scheme, tamed)], ensemble, xi, basis)[0]


def tree_group_run(members: list[tuple[SchemeSpec, TamedDriver]], tree: TreeModel,
                   terminal: TerminalSpec) -> list[SchemeOutput]:
    """Backward recursion of several (scheme, driver) pairs on one tree, in
    one sweep, with E_i computed as the exact half/half child average.

    The members that share a base driver, explicit and implicit, run as
    one block, the rows of (rows, nodes) levels in member order: the block
    takes its y-part, Z target and child averages once per level, and each
    implicit row is then solved on its own.  Every operation is elementwise
    along the rows, so a member's output does not depend on the rest of the
    group or its order.  An exploding member's levels from its first bad
    step down are NaN.
    """
    return _stored(TreeOperator(tree.grid, tree.sde), terminal(tree.levels[tree.steps]),
                   members, lambda n: [np.full(tree.node_count(j), np.nan) for j in range(n)])


def tree_exact_run(scheme: SchemeSpec, tamed: TamedDriver, tree: TreeModel,
                   terminal: TerminalSpec) -> SchemeOutput:
    """Backward recursion of one scheme on a tree: the group of one of
    `tree_group_run`."""
    return tree_group_run([(scheme, tamed)], tree, terminal)[0]


def step_size_condition(scheme: SchemeSpec, cons: DerivedConstants, abs_h_increment: float) -> float:
    """Value of the comparison step condition
    h (L^h_y + L^h_z |H| + (1-theta') h L^h_z |H| L^h_y) of the constants
    a tamed driver derives (derive_constants); below 1 every linearization
    factor stays positive."""
    h = cons.h
    lz_h = cons.l_z * abs_h_increment
    return h * (cons.l_y + lz_h + (1.0 - scheme.theta_prime) * h * lz_h * cons.l_y)


# the relative tolerance of the comparison check's order relations: a
# margin counts as ordered down to -COMPARISON_TOL * max(1, max |xi^1|, max |xi^2|)
COMPARISON_TOL = 1e-12


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


def comparison_check(scheme: SchemeSpec, tamed1: TamedDriver, terminal1: TerminalSpec,
                     tamed2: TamedDriver, terminal2: TerminalSpec,
                     tree: TreeModel) -> ComparisonReport:
    """Run both instances on the same tree and check the order relations.

    Requires an explicit scheme kind, and z-free drivers or theta' = 1.
    Then Delta Y_i = E_i[Delta Y_{i+1} B_{i+1}] + h E_i[f^{h,1} - f^{h,2}]
    at (Y^2_{i+1}, Z^2_i), with the one linearization factor
    B = 1 + h beta + h gamma H_{i+1}: beta the difference quotient of
    f^{h,1} in y (0 where Delta Y_{i+1} = 0) and gamma its z coefficient
    where Z^1_i != Z^2_i, else 0 (so 0 for z-free drivers).  Reports
    whether the inputs were ordered (xi^1 >= xi^2 and f^{h,1} >= f^{h,2}
    at the sampled nodes), whether the outputs came out ordered at every
    node, the per-step minimum of B and the step-size condition.

    The instances run as two groups of one `sweep` on the tree's grid, and
    the margins, B factors and step condition use the drivers the sweep
    runs (scheme_driver: untamed for the untamed kind).  When instance 2
    reaches level i, instance 1 has just reached it too, and the callback
    takes step i's margins and B factors from the Y_{i+1} each instance
    left, its y-part there and the Y_i and Z_i they took; so the check
    holds O(N) values and no stored run.
    """
    if scheme.kind == IMPLICIT:
        raise ValueError("the discrete comparison check applies to the explicit scheme kinds")
    driver1, driver2 = scheme_driver(scheme, tamed1), scheme_driver(scheme, tamed2)
    z_free = driver1.base.z_coeff == 0.0 and driver2.base.z_coeff == 0.0
    if not z_free and scheme.theta_prime != 1.0:
        raise ValueError("comparison needs z-free drivers or theta' = 1")

    h, n = tree.grid.h, tree.steps
    op = TreeOperator(tree.grid, tree.sde)
    c1, c2 = driver1.base.z_coeff, driver2.base.z_coeff
    xi1, xi2 = terminal1(tree.levels[n]), terminal2(tree.levels[n])
    scale = max(1.0, max(float(np.max(np.abs(xi1))), float(np.max(np.abs(xi2)))))
    floor = -COMPARISON_TOL * scale  # the least margin that counts as ordered

    # per step the least driver margin and B, per level min(Y^1_i - Y^2_i)
    driver_min = np.empty(n)
    b_min = np.empty(n)
    delta_min = np.empty(n + 1)
    violations = 0
    taken = [None, None]  # the (1, nodes) Y_i, Z_i and y-part at Y_{i+1} each instance took last
    below = [None, None]  # the Y_{i+1} each instance left
    sign = op.child_signs[:, None, None]  # broadcast over the rows and nodes of a level

    def compare(g: int, i: int, blocks: list) -> None:
        nonlocal violations
        if not blocks:
            raise ValueError("comparison check needs non-exploded runs")
        block = blocks[0]
        taken[g] = block.y, block.z, block.p
        if g == 0:
            return
        (y1_i, z1, p1), (y2_i, z2, p2) = taken
        if i < n:
            # each instance's y-part at the level it left, as its sweep
            # took it, and f^{h,1}'s at instance 2's, split into (down, up)
            # children; the z-part is added as TamedDriver.__call__ adds it
            y1, y2 = op.children(below[0]), op.children(below[1])
            p1_y1, p2_y2 = op.children(p1), op.children(p2)
            p1_y2 = op.children(driver1.tamed_y_part(below[1]))
            driver_min[i] = np.min((p1_y2 + c1 * z2) - (p2_y2 + c2 * z2))
            dy = y1 - y2
            num = (p1_y1 + c1 * z1) - (p1_y2 + c1 * z1)
            beta = np.where(dy != 0.0, num / np.where(dy != 0.0, dy, 1.0), 0.0)
            gamma = np.where(z1 - z2 != 0.0, c1, 0.0)
            b_min[i] = np.min(1.0 + h * beta + h * gamma * sign / op.sqrt_h)
        delta = y1_i - y2_i
        delta_min[i] = np.min(delta)
        violations += int(np.sum(delta < floor))
        below[:] = y1_i, y2_i

    sweep([(op, xi, [(scheme, driver, None, False)]) for xi, driver in ((xi1, driver1), (xi2, driver2))],
          compare)

    terminal_margin = float(delta_min[n])
    driver_margin = float(driver_min.min(initial=np.inf))
    output_margin = float(delta_min.min())
    condition = step_size_condition(scheme, derive_constants(driver1), op.abs_h)
    return ComparisonReport(
        condition_value=condition, condition_ok=condition < 1.0,
        terminal_margin=terminal_margin, driver_margin=driver_margin,
        inputs_ordered=terminal_margin >= floor and driver_margin >= floor,
        output_margin=output_margin, outputs_ordered=violations == 0,
        violations=violations,
        min_b_factor=float(b_min.min()) if n else 1.0, b_factor_min_per_step=b_min,
    )
