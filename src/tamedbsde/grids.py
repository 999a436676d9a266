"""Uniform time grids and seeded martingale-increment generation.

Brownian increments are produced by a counter-based scheme (Philox keyed by
the seed) so that the draw for (path, step) is a pure function of
(seed, path, step).  Disjoint path blocks can therefore be generated
independently on concurrent workers and always assemble into the same
batch.  Gaussian variates use the inverse-CDF transform (scipy's `ndtri`;
fixed choice, bit-exact reproducibility is promised within one build only).
scipy is imported at the first Gaussian draw, not with this module: the
truncation closed forms use the standard library and Rademacher draws need
no inverse CDF, so tree, taming-check and config runs never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GAUSSIAN = "gaussian"
TRUNCATED = "truncated_gaussian"
RADEMACHER = "rademacher"
_KINDS = (GAUSSIAN, TRUNCATED, RADEMACHER)

# Hard floor on the second-moment factor of the increments; batches whose
# truncation pushes Lambda below it are rejected rather than silently used.
LAMBDA_FLOOR = 0.5


@dataclass(frozen=True)
class PartitionGrid:
    """Uniform partition of [0, T] into N steps of size h = T/N."""

    horizon: float
    steps: int
    h: float
    times: np.ndarray


def check_horizon(horizon: float) -> None:
    """Raises ValueError unless the horizon is positive and finite."""
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")


def build_grid(horizon: float, steps: int) -> PartitionGrid:
    """Uniform grid with t_i = i * horizon / steps."""
    check_horizon(horizon)
    if int(steps) != steps or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps}")
    steps = int(steps)
    times = np.linspace(0.0, float(horizon), steps + 1)
    return PartitionGrid(float(horizon), steps, float(horizon) / steps, times)


@dataclass(frozen=True)
class NoiseModel:
    """How the per-step martingale increments H approximate dW/h.

    kind:
        "gaussian"            H = dW / h (no truncation, Lambda = 1)
        "truncated_gaussian"  dW clipped at +-R(h), H = clip/h
        "rademacher"          dW = +-sqrt(h) signs, H = dW / h
    radius0:
        base radius R0 for the truncated kind; with the log schedule (on by
        default) the effective radius is R0 * sqrt(h * (1 + ln(1/h))) for
        h < 1, without it R0 itself.
    """

    kind: str = GAUSSIAN
    radius0: float = 2.0
    use_log_schedule: bool = True

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == TRUNCATED and not self.radius0 > 0.0:
            raise ValueError("truncated_gaussian noise needs radius0 > 0")


@dataclass(frozen=True)
class IncrementBatch:
    """Brownian increments dW and martingale increments H on one grid.

    dW and H are (steps, paths): row i holds the increments dW_{i+1} and
    H_{i+1} of every path, a contiguous row in the C-ordered arrays this
    package makes.  lam is the second-moment factor Lambda with
    E[(H h)^2] = Lambda * h.
    """

    dW: np.ndarray
    H: np.ndarray
    lam: float


def _normal_pdf_sf(rho: float) -> tuple[float, float]:
    """Standard-normal density and upper tail at rho, from the standard
    library: exp(-rho^2/2)/sqrt(2 pi) and erfc(rho/sqrt(2))/2."""
    return math.exp(-rho * rho / 2.0) / math.sqrt(2.0 * math.pi), 0.5 * math.erfc(rho / math.sqrt(2.0))


def truncation_radius(model: NoiseModel, h: float) -> float:
    """Effective clipping radius R(h) for a truncated noise model.

    With the log schedule, R(h) = R0 * sqrt(h * (1 + ln(1/h))) for h < 1
    and R0 * sqrt(h) otherwise; this keeps the increment-approximation gap
    bounded across refinements provided R0 >= 2.  Without the schedule the
    fixed radius R0 is used for every h.
    """
    if model.kind != TRUNCATED:
        raise ValueError(f"truncation_radius is only defined for truncated noise, got {model.kind!r}")
    if not h > 0.0:
        raise ValueError("h must be positive")
    if not model.use_log_schedule:
        return float(model.radius0)
    if h < 1.0:
        return model.radius0 * math.sqrt(h * (1.0 + math.log(1.0 / h)))
    return model.radius0 * math.sqrt(h)


def lambda_of_truncation(radius: float, h: float) -> float:
    """Second-moment factor E[clip(X, -R, R)^2] / h for X ~ Normal(0, h).

    Closed form in terms of the standard-normal cdf/pdf; always in (0, 1].
    """
    if not radius > 0.0 or not h > 0.0:
        raise ValueError("radius and h must be positive")
    rho = radius / math.sqrt(h)
    pdf, sf = _normal_pdf_sf(rho)
    # E[G^2 1_{|G|<=rho}] + rho^2 P(|G|>rho) for standard normal G
    return math.erf(rho / math.sqrt(2.0)) - 2.0 * rho * pdf + 2.0 * rho * rho * sf


def truncation_l2_gap(radius: float, h: float) -> float:
    """E[|dW/h - H|^2] for the clipped-increment model.

    This is the quantity whose uniform-in-h boundedness the log radius
    schedule is designed to guarantee; no specific bound is asserted here,
    callers inspect the value.
    """
    if not radius > 0.0 or not h > 0.0:
        raise ValueError("radius and h must be positive")
    rho = radius / math.sqrt(h)
    pdf, sf = _normal_pdf_sf(rho)
    return 2.0 * ((1.0 + rho * rho) * sf - rho * pdf) / h


def _raw_uint64(seed: int, start: int, count: int) -> np.ndarray:
    """uint64 numbers start..start+count-1 of the Philox stream keyed by seed.

    Philox emits blocks of four 64-bit words; the j-th word of the stream is
    a pure function of (seed, j), which is what makes per-(path, step) draws
    reproducible for any generation order.
    """
    first_block = start // 4
    offset = start - 4 * first_block
    bg = np.random.Philox(key=seed, counter=first_block)
    raw = bg.random_raw(offset + count)
    return raw[offset:]


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    raw = _raw_uint64(seed, start, count)
    # strictly inside (0, 1): 53-bit mantissa shifted to cell centers
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def sample_increments(
    grid: PartitionGrid,
    paths: int,
    seed: int,
    model: NoiseModel,
    path_range: tuple[int, int] | None = None,
) -> IncrementBatch:
    """Seeded increments for `paths` forward paths on `grid`.

    The draw for (path p, step i) is word p*N + i of the Philox stream
    keyed by the seed, so a call restricted to path_range=(a, b) returns
    exactly columns a..b-1 of the full batch.

    Raises ValueError when a truncated model's Lambda falls below 1/2 at
    this step size (see increments_from_dw).
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    lo, hi = (0, paths) if path_range is None else path_range
    if not (0 <= lo <= hi <= paths):
        raise ValueError(f"invalid path_range {path_range} for {paths} paths")

    n = grid.steps
    sqrt_h = math.sqrt(grid.h)

    # the stream runs path-major; it is drawn in blocks of paths of about
    # 2^16 words, each moved to level-major storage within the cache
    dW = np.empty((n, hi - lo))
    size = max(1, (1 << 16) // n)
    for a in range(0, hi - lo, size):
        b = min(a + size, hi - lo)
        count, start = (b - a) * n, (lo + a) * n
        if model.kind == RADEMACHER:
            raw = _raw_uint64(int(seed), start, count)
            block = np.where(raw >> np.uint64(63), 1.0, -1.0) * sqrt_h
        else:
            from scipy.special import ndtri  # here, so runs that draw no Gaussian never load scipy

            block = ndtri(_uniforms(int(seed), start, count)) * sqrt_h
        dW[:, a:b] = block.reshape(b - a, n).T
    return increments_from_dw(model, dW, grid.h)


def truncation_lambda(model: NoiseModel, h: float) -> tuple[float, float]:
    """(R(h), Lambda) of a truncated noise model at step size h.

    Raises ValueError when Lambda falls below LAMBDA_FLOOR.
    """
    radius = truncation_radius(model, h)
    lam = lambda_of_truncation(radius, h)
    if lam < LAMBDA_FLOOR:
        raise ValueError(
            f"truncation radius {radius:.6g} at h={h:.6g} gives Lambda={lam:.4f} < 1/2; "
            "increase radius0 or use the log schedule"
        )
    return radius, lam


def increments_from_dw(model: NoiseModel, dW: np.ndarray, h: float) -> IncrementBatch:
    """H and Lambda of Brownian increments dW at step size h: H = dW / h and
    Lambda = 1, or for truncated noise dW clipped at R(h) over h and the
    closed-form Lambda (see truncation_lambda).  H is computed elementwise,
    so it keeps the memory layout of dW."""
    if model.kind != TRUNCATED:
        return IncrementBatch(dW=dW, H=dW / h, lam=1.0)
    radius, lam = truncation_lambda(model, h)
    return IncrementBatch(dW=dW, H=np.clip(dW, -radius, radius) / h, lam=lam)
