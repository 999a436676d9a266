"""Euler simulation of the scalar forward SDE and terminal values g(X_N)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .drivers import horner, polynomial_terms
from .grids import IncrementBatch, PartitionGrid

# Any |X| beyond this is treated as a blow-up so that explosion shows up as
# a diagnostic instead of silent NaN propagation.
OVERFLOW_LIMIT = 1e12


class ForwardBlowupError(RuntimeError):
    """Forward state left the finite range; records the offending path/step."""

    def __init__(self, path: int, step: int, value: float, steps: int | None = None):
        self.path = path
        self.step = step
        of = "" if steps is None else f" of N={steps}"
        super().__init__(
            f"forward state non-finite or beyond {OVERFLOW_LIMIT:.0e} "
            f"at path {path}, step {step}{of} (value {value!r})"
        )


def check_states(x: np.ndarray, step: int, steps: int) -> None:
    """The blow-up rule of the forward states, on paths and on the tree:
    raises ForwardBlowupError naming the lowest index of x (a path, or a
    tree node) whose state at `step` of an N = `steps` grid is non-finite or
    beyond the overflow limit."""
    # NaN fails the comparison, so this also catches non-finite states
    bad = ~(np.abs(x) <= OVERFLOW_LIMIT)
    if bad.any():
        p = int(np.argmax(bad))
        raise ForwardBlowupError(p, step, float(x[p]), steps)


@dataclass(frozen=True)
class SdeSpec:
    """Scalar SDE dX = (b0 + b1 X) dt + (s0 + s1 X) dW, started at x0."""

    x0: float = 0.0
    drift_const: float = 0.0
    drift_slope: float = 0.0
    diff_const: float = 1.0
    diff_slope: float = 0.0

    def __post_init__(self):
        for name in ("x0", "drift_const", "drift_slope", "diff_const", "diff_slope"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"SdeSpec.{name} must be finite")

    def drift(self, x):
        return self.drift_const + self.drift_slope * x

    def diffusion(self, x):
        return self.diff_const + self.diff_slope * x


@dataclass(frozen=True)
class TerminalSpec:
    """Terminal map g as a polynomial, coefficients ascending (degree <= 4)."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0 or len(self.coeffs) > 5:
            raise ValueError("terminal polynomial must have degree between 0 and 4")

    @cached_property
    def terms(self) -> tuple[np.float64, ...]:
        return polynomial_terms(self.coeffs)

    # an overflowing terminal value is data: the sweep decides what it means
    @np.errstate(over="ignore", invalid="ignore")
    def __call__(self, x):
        return horner(self.terms, x)


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated forward states X, (steps+1, paths), with their increments:
    row i holds X_i of every path, a contiguous row of the C-ordered array
    euler_simulate writes."""

    X: np.ndarray
    increments: IncrementBatch
    grid: PartitionGrid


def euler_simulate(sde: SdeSpec, grid: PartitionGrid, batch: IncrementBatch) -> PathEnsemble:
    """Euler scheme X_{i+1} = X_i + b(X_i) h + sigma(X_i) dW_{i+1}, one row
    of X per step (see `euler_rows`).

    Raises ForwardBlowupError naming the first offending step, and its
    lowest offending path, if a state becomes non-finite or exceeds the
    overflow limit.
    """
    steps, paths = batch.dW.shape
    if steps != grid.steps:
        raise ValueError(f"increment batch has {steps} steps, grid has {grid.steps}")

    X = np.empty((steps + 1, paths), dtype=float)
    X[0] = sde.x0
    euler_rows(sde, X, batch.dW, grid.h, 0, steps)
    return PathEnsemble(X=X, increments=batch, grid=grid)


# a state that overflows comes out non-finite, which check_states reports
@np.errstate(over="ignore", invalid="ignore")
def euler_rows(sde: SdeSpec, X: np.ndarray, dW: np.ndarray, h: float, first: int,
               steps: int) -> None:
    """Fill rows 1.. of X from row 0 by the Euler update, in place: X[k] is
    X_{first+k} of an N = `steps` grid and dW[k] is dW_{first+k+1}.  Each
    row depends only on the row before it and its increments, so a run
    restarted from a stored row gives that row's successors to the bit.

    Raises ForwardBlowupError (check_states) naming the absolute step of
    the first offending row and its lowest offending path.
    """
    for k, dw in enumerate(dW):
        x = X[k]
        X[k + 1] = x + sde.drift(x) * h + sde.diffusion(x) * dw
        check_states(X[k + 1], first + k + 1, steps)


def terminal_values(terminal: TerminalSpec, ensemble: PathEnsemble) -> np.ndarray:
    """xi_m = g(X_{m,N}) for every path m."""
    return np.asarray(terminal(ensemble.X[-1]), dtype=float)
