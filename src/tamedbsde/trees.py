"""Binary Rademacher tree of forward states: the exact-expectation backend.

Increments are +-sqrt(h) with probability 1/2 each, so H = dW/h = +-1/sqrt(h)
and the second-moment factor is exactly 1.  When both drift slope and
diffusion slope vanish the state depends only on the number of up moves and
the tree recombines (i+1 nodes at level i); otherwise every sign prefix is a
distinct node (2^i nodes, capped).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .forward import PathEnsemble, SdeSpec, check_states, euler_simulate
from .grids import RADEMACHER, NoiseModel, PartitionGrid, increments_from_dw

MAX_STEPS_BRANCHING = 14
MAX_STEPS_RECOMBINING = 2000


@dataclass(frozen=True)
class TreeModel:
    """Forward-state values per level; children of node j are 2j (down) and
    2j+1 (up) in branching mode, j (down) and j+1 (up) when recombining."""

    grid: PartitionGrid
    sde: SdeSpec
    recombining: bool
    levels: tuple[np.ndarray, ...]

    @property
    def steps(self) -> int:
        return self.grid.steps

    def node_count(self, level: int) -> int:
        return self.levels[level].size

    def level_weights(self, level: int) -> np.ndarray:
        """Node probabilities at a level: uniform, or the binomial weights
        C(level, k) / 2^level, each the correctly rounded quotient of exact
        integers (the coefficients by the multiplicative recurrence, which
        costs far less than one math.comb per node)."""
        if not self.recombining:
            return np.full(2**level, 0.5**level)
        denom, coeff, weights = 1 << level, 1, []
        for k in range(level + 1):
            weights.append(coeff / denom)
            coeff = coeff * (level - k) // (k + 1)
        return np.array(weights)


def recombines(sde: SdeSpec) -> bool:
    """Whether the tree of `sde` recombines: constant drift and diffusion."""
    return sde.diff_slope == 0.0 and sde.drift_slope == 0.0


def tree_levels(sde: SdeSpec, grid: PartitionGrid) -> Iterator[np.ndarray]:
    """The forward states of levels 0..N, one level at a time: Euler
    dynamics driven by +-sqrt(h) signs.  A level is computed from the one
    before only, so a caller that drops each level holds two at a time.

    Recombination needs constant drift and diffusion (state-dependent drift
    makes up-down and down-up differ even with constant sigma).  Raises
    ValueError, before the first level, when N exceeds the tree's cap, and
    ForwardBlowupError by the rule of the paths (check_states) at the first
    level with a state that is non-finite or beyond the overflow limit,
    naming the node index as the path and the level as the step.
    """
    recombining = recombines(sde)
    n = grid.steps
    cap = MAX_STEPS_RECOMBINING if recombining else MAX_STEPS_BRANCHING
    if n > cap:
        raise ValueError(
            f"tree with {n} steps exceeds the {'recombining' if recombining else 'branching'} cap {cap}"
        )
    sqrt_h = math.sqrt(grid.h)
    x = np.array([sde.x0])
    yield x
    for level in range(1, n + 1):
        # x + b(x) h + sigma(x) (+-sqrt(h)) with each part evaluated once:
        # m + s (-sqrt(h)) equals m - s sqrt(h) bit for bit
        mean = x + sde.drift(x) * grid.h
        step = sde.diffusion(x) * sqrt_h
        up = mean + step
        if recombining:
            # every down node but the first is the up node of its neighbour
            x = np.concatenate([mean[:1] - step[:1], up])
        else:
            x = np.empty(2 * x.size)
            x[0::2] = mean - step
            x[1::2] = up
        check_states(x, level, n)
        yield x


# tree_levels' callers: an overflowing state is non-finite for check_states
# (an errstate inside the generator would stay set in its caller)
@np.errstate(over="ignore", invalid="ignore")
def build_tree(sde: SdeSpec, grid: PartitionGrid) -> TreeModel:
    """Every level of `tree_levels`, stored."""
    return TreeModel(grid=grid, sde=sde, recombining=recombines(sde),
                     levels=tuple(tree_levels(sde, grid)))


@np.errstate(over="ignore", invalid="ignore")  # as build_tree
def terminal_level(sde: SdeSpec, grid: PartitionGrid) -> np.ndarray:
    """Level N of `tree_levels`, with the bits of build_tree's, computed
    while holding two levels at a time."""
    for x in tree_levels(sde, grid):
        pass
    return x


def enumerate_tree_paths(tree: TreeModel) -> PathEnsemble:
    """All 2^N sign paths of the tree as an equally-weighted path ensemble.

    Path p at step i sits at node index p >> (N - i) in branching mode, so
    paths sharing a level-i node are contiguous blocks of size 2^(N-i); the
    exact-projection basis relies on that layout.  tree_levels' update
    has the bits of euler_simulate's Euler update, so the path values agree
    bitwise with the node values.
    """
    n = tree.steps
    if n > MAX_STEPS_BRANCHING:
        raise ValueError(f"enumerating 2^{n} paths exceeds the cap 2^{MAX_STEPS_BRANCHING}")
    paths = 2**n
    sqrt_h = math.sqrt(tree.grid.h)
    p = np.arange(paths, dtype=np.int64)
    signs = np.empty((n, paths))
    for i in range(n):
        signs[i] = np.where((p >> (n - 1 - i)) & 1, 1.0, -1.0)
    batch = increments_from_dw(NoiseModel(kind=RADEMACHER), signs * sqrt_h, tree.grid.h)
    return euler_simulate(tree.sde, tree.grid, batch)


def path_node_index(tree: TreeModel, level: int) -> np.ndarray:
    """Node index of every enumerated path at a level (branching layout)."""
    n = tree.steps
    p = np.arange(2**n, dtype=np.int64)
    return (p >> (n - level)).astype(np.int64) if level > 0 else np.zeros(2**n, dtype=np.int64)
