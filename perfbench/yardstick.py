"""Fixed pieces of work that measure the host, not the program.

The benchmark runs on a few cores of a shared host whose speed drifts with
the other tenants' load, with CPU time rising as much as wall time.  run.py
times a yardstick between the studies and scales the studies' typical time
by the yardstick's reference time over its typical time, so that a drift
of the host cancels while a change in the program's own time passes
through one for one.  The speed of each core changes from one second to
the next on its own, so the yardstick runs on the thread that runs the
studies, between them, never beside them on another core.

Other tenants slow some kinds of work more than others, so each workload
has the yardstick that does the kind of work it spends its time in:
`calls` for the tree recursion, `regression` for the regression
Monte-Carlo studies.  Nothing here calls tamedbsde, so no change to the
library can move a yardstick.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_rng = np.random.default_rng(20261017)
_SMALL = _rng.standard_normal(600)
_WIDE = _rng.standard_normal(40_000)
_NARROW = _rng.standard_normal(5_000)


def _calls() -> None:
    """Many numpy calls on small arrays and a plain interpreter loop: the
    work of the tree recursion, of driver evaluation and of imports."""
    x = _SMALL
    for _ in range(5000):
        y = ((x * 0.3 - 1.0) * x + 2.0) * x
        y = np.where(np.abs(y) > 1.0, 0.5 * (x + y), y)
        x = 0.5 * (x + np.tanh(y))
    total = 0.0
    for i in range(400_000):
        total += (i * 0.5) % 7.0


def _hermite(x: np.ndarray, k: int) -> np.ndarray:
    cols = [np.ones_like(x), x]
    for j in range(2, k):
        cols.append(x * cols[-1] - (j - 1) * cols[-2])
    return np.column_stack(cols[:k])


def _regression() -> None:
    """Least squares on Hermite design matrices of 40k x 12, larger than
    L2, and of 5k x 6: the work of the regression Monte-Carlo studies."""
    for _ in range(6):
        np.linalg.lstsq(_hermite(_WIDE, 12), _WIDE, rcond=None)
    for _ in range(75):
        np.linalg.lstsq(_hermite(_NARROW, 6), _NARROW, rcond=None)


@dataclass(frozen=True)
class Yardstick:
    work: Callable[[], None]
    # about the work's time on the reference host in a quiet stretch
    # (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6, one OpenBLAS thread), so
    # that a scaled time reads as seconds on that host
    reference_s: float

    def time(self) -> float:
        """Seconds the work takes now."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start


YARDSTICKS = {
    "calls": Yardstick(_calls, 0.11),
    "regression": Yardstick(_regression, 0.095),
}
# set-up is imports: module code run by the interpreter
SETUP_YARDSTICK = YARDSTICKS["calls"]


def typical(samples: list[float]) -> float:
    """Mean of the samples without the fastest and the slowest (the plain
    mean of fewer than three).

    run.py takes this of the study times and of the yardstick times alike.
    The host's speed changes within a study, so a study time is an average
    over the host's states; a yardstick run is short and catches one state.
    The means of both follow the host's average speed over the loop, and
    leaving out the two extremes keeps one long pause from weighing in."""
    ordered = sorted(samples)
    return statistics.mean(ordered[1:-1] or ordered)
