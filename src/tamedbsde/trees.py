"""Binary Rademacher tree of forward states: the exact-expectation backend.

Increments are +-sqrt(h) with probability 1/2 each, so H = dW/h = +-1/sqrt(h)
and the second-moment factor is exactly 1.  When both drift slope and
diffusion slope vanish the state depends only on the number of up moves and
the tree recombines (i+1 nodes at level i); otherwise every sign prefix is a
distinct node (2^i nodes, capped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .forward import PathEnsemble, SdeSpec, euler_simulate
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
        """Node probabilities at a level (uniform or binomial)."""
        if not self.recombining:
            return np.full(2**level, 0.5**level)
        k = np.arange(level + 1)
        return np.exp(gammaln(level + 1) - gammaln(k + 1) - gammaln(level - k + 1) - level * math.log(2.0))


def build_tree(sde: SdeSpec, grid: PartitionGrid) -> TreeModel:
    """Forward Euler dynamics driven by +-sqrt(h) signs.

    Recombination needs constant drift and diffusion (state-dependent drift
    makes up-down and down-up differ even with constant sigma).
    """
    recombining = sde.diff_slope == 0.0 and sde.drift_slope == 0.0
    n = grid.steps
    cap = MAX_STEPS_RECOMBINING if recombining else MAX_STEPS_BRANCHING
    if n > cap:
        raise ValueError(
            f"tree with {n} steps exceeds the {'recombining' if recombining else 'branching'} cap {cap}"
        )
    sqrt_h = math.sqrt(grid.h)
    levels = [np.array([sde.x0])]
    for _ in range(n):
        x = levels[-1]
        down = x + sde.drift(x) * grid.h + sde.diffusion(x) * (-sqrt_h)
        up = x + sde.drift(x) * grid.h + sde.diffusion(x) * sqrt_h
        if recombining:
            nxt = np.concatenate([down[:1], up])
        else:
            nxt = np.empty(2 * x.size)
            nxt[0::2] = down
            nxt[1::2] = up
        levels.append(nxt)
    return TreeModel(grid=grid, sde=sde, recombining=recombining, levels=tuple(levels))


def enumerate_tree_paths(tree: TreeModel) -> PathEnsemble:
    """All 2^N sign paths of the tree as an equally-weighted path ensemble.

    Path p at step i sits at node index p >> (N - i) in branching mode, so
    paths sharing a level-i node are contiguous blocks of size 2^(N-i); the
    exact-projection basis relies on that layout.  The Euler update of
    euler_simulate is the expression build_tree uses, so the path values
    agree bitwise with the node values.
    """
    n = tree.steps
    if n > MAX_STEPS_BRANCHING:
        raise ValueError(f"enumerating 2^{n} paths exceeds the cap 2^{MAX_STEPS_BRANCHING}")
    paths = 2**n
    sqrt_h = math.sqrt(tree.grid.h)
    p = np.arange(paths, dtype=np.int64)
    signs = np.empty((paths, n))
    for i in range(n):
        signs[:, i] = np.where((p >> (n - 1 - i)) & 1, 1.0, -1.0)
    dW = (signs * sqrt_h)[:, :, None]
    batch = increments_from_dw(NoiseModel(kind=RADEMACHER), dW, tree.grid.h)
    return euler_simulate(tree.sde, tree.grid, batch)


def path_node_index(tree: TreeModel, level: int) -> np.ndarray:
    """Node index of every enumerated path at a level (branching layout)."""
    n = tree.steps
    p = np.arange(2**n, dtype=np.int64)
    return (p >> (n - level)).astype(np.int64) if level > 0 else np.zeros(2**n, dtype=np.int64)
