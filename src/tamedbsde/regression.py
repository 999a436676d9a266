"""Least-squares projection on a probabilists'-Hermite basis of the state.

One fit approximates one conditional expectation E_i[target | X_i = x].
The sample is standardized (centered and scaled) before evaluating the
basis by default; the variance of X grows with t_i and raw high-degree
Hermite columns become badly conditioned without it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RCOND = 1e-10


@dataclass(frozen=True)
class BasisSpec:
    """First `size` probabilists' Hermite polynomials He_0 .. He_{size-1}."""

    size: int
    standardize: bool = True

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("basis size must be >= 1")


@dataclass(frozen=True)
class RegressionFit:
    coeffs: np.ndarray
    basis: BasisSpec
    center: float
    scale: float
    rank: int
    smallest_singular_value: float


def hermite_matrix(x: np.ndarray, size: int) -> np.ndarray:
    """Columns He_0(x) .. He_{size-1}(x) via the three-term recurrence,
    run on 1-D temporaries rather than on strided columns of the output."""
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, size), dtype=float)
    out[:, 0] = 1.0
    if size > 1:
        out[:, 1] = x
    prev, cur = 1.0, x
    for k in range(2, size):
        prev, cur = cur, x * cur - (k - 1) * prev
        out[:, k] = cur
    return out


def standardization(basis: BasisSpec, x: np.ndarray) -> tuple[float, float]:
    """(center, scale) for the sample; a degenerate sample falls back to
    centering only (scale 1)."""
    if not basis.standardize:
        return 0.0, 1.0
    x = np.asarray(x, dtype=float)
    center = float(x.mean()) if x.size else 0.0
    scale = float(x.std()) if x.size else 1.0
    if scale <= 0.0 or not np.isfinite(scale):
        scale = 1.0
    return center, scale


def design_matrix(basis: BasisSpec, x, center: float | None = None, scale: float | None = None) -> np.ndarray:
    """M x K matrix of basis values at (standardized) x.

    When center/scale are omitted they are computed from x itself; pass the
    values stored in a fit to evaluate the basis consistently elsewhere.
    """
    x = np.asarray(x, dtype=float)
    if center is None or scale is None:
        center, scale = standardization(basis, x)
    return hermite_matrix((x - center) / scale, basis.size)


def fit_least_squares(design: np.ndarray, targets, basis: BasisSpec | None = None,
                      center: float = 0.0, scale: float = 1.0) -> RegressionFit:
    """Minimum-norm least squares with small singular values discarded.

    Raises ValueError naming the first non-finite design/target entry.
    """
    targets = np.asarray(targets, dtype=float)
    if design.shape[0] != targets.shape[0]:
        raise ValueError(f"design has {design.shape[0]} rows, targets {targets.shape[0]}")
    bad = ~np.isfinite(design)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"non-finite design entry at row {i}, column {j}")
    bad = ~np.isfinite(targets)
    if bad.any():
        raise ValueError(f"non-finite target at index {int(np.argmax(bad))}")

    coeffs, _, rank, sv = np.linalg.lstsq(design, targets, rcond=RCOND)
    retained = sv[sv > RCOND * sv[0]] if sv.size else sv
    smallest = float(retained[-1]) if retained.size else 0.0
    if basis is None:
        basis = BasisSpec(size=design.shape[1], standardize=False)
    return RegressionFit(coeffs=coeffs, basis=basis, center=center, scale=scale,
                         rank=int(rank), smallest_singular_value=smallest)


@dataclass(frozen=True)
class SampleDesign:
    """The design matrix of one sample with its standardization.

    Built once per sample; every fit on the sample and every fitted value
    at the sample's own points reuse the same C-ordered matrix, so fitted
    values equal `predict(fit, basis, x)` bit for bit without a rebuild.
    """

    basis: BasisSpec
    center: float
    scale: float
    matrix: np.ndarray

    def fit(self, targets) -> RegressionFit:
        return fit_least_squares(self.matrix, targets, basis=self.basis,
                                 center=self.center, scale=self.scale)

    def fitted(self, fit: RegressionFit) -> np.ndarray:
        """Fitted values at the sample points of a fit made on this design."""
        return self.matrix @ fit.coeffs


def sample_design(basis: BasisSpec, x) -> SampleDesign:
    """Standardize x and build its design matrix."""
    center, scale = standardization(basis, x)
    return SampleDesign(basis=basis, center=center, scale=scale,
                        matrix=design_matrix(basis, x, center, scale))


def fit_basis(basis: BasisSpec, x, targets) -> RegressionFit:
    """Standardize x, build the design matrix and fit in one step."""
    return sample_design(basis, x).fit(targets)


def predict(fit: RegressionFit, basis: BasisSpec, x) -> np.ndarray:
    """Fitted conditional-expectation values at x.

    The basis must be the one used for fitting; the standardization
    parameters travel inside the fit.
    """
    if basis != fit.basis:
        raise ValueError(f"basis mismatch: fit used {fit.basis}, got {basis}")
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        return np.empty(0, dtype=float)
    return design_matrix(basis, x, fit.center, fit.scale) @ fit.coeffs
