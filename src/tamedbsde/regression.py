"""Least-squares projection on a probabilists'-Hermite basis of the state.

One fit approximates one conditional expectation E_i[target | X_i = x].
Every fit goes through an rcond-truncated thin SVD of the design, so one
factorization of a sample serves any number of targets.
The sample is standardized (centered and scaled) before evaluating the
basis; the variance of X grows with t_i and raw high-degree
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


def standardization(x: np.ndarray) -> tuple[float, float]:
    """(center, scale) for the sample; a degenerate sample falls back to
    centering only (scale 1)."""
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
        center, scale = standardization(x)
    return hermite_matrix((x - center) / scale, basis.size)


@dataclass(frozen=True)
class Factorization:
    """Rcond-truncated thin SVD A = U_r diag(s_r) V_r^T of one design matrix.

    Only the r singular values above RCOND * s_0 and their vectors are kept,
    which is the rank and the minimum-norm solution `lstsq` uses.
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.s.size)

    @property
    def smallest_singular_value(self) -> float:
        return float(self.s[-1]) if self.s.size else 0.0

    def solve(self, targets: np.ndarray) -> np.ndarray:
        """Minimum-norm least-squares coefficients V_r ((U_r^T t) / s_r); a
        2-D target gets one column of coefficients per column."""
        return ((targets.T @ self.u) / self.s @ self.vt).T


def factorize(design: np.ndarray) -> Factorization:
    """Thin SVD of the design, truncated at RCOND relative to s_0.

    Raises ValueError naming the first non-finite design entry.
    """
    bad = ~np.isfinite(design)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"non-finite design entry at row {i}, column {j}")
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rank = int(np.count_nonzero(s > RCOND * s[0])) if s.size else 0
    return Factorization(u=u[:, :rank], s=s[:rank], vt=vt[:rank])


def fit_least_squares(design: np.ndarray, targets, basis: BasisSpec | None = None,
                      center: float = 0.0, scale: float = 1.0,
                      factors: Factorization | None = None) -> RegressionFit:
    """Minimum-norm least squares with small singular values discarded.

    `factors` is the design's factorization when the caller already has it;
    without it the design is factored here.  Raises ValueError naming the
    first non-finite design/target entry.
    """
    targets = np.asarray(targets, dtype=float)
    if design.shape[0] != targets.shape[0]:
        raise ValueError(f"design has {design.shape[0]} rows, targets {targets.shape[0]}")
    if factors is None:
        factors = factorize(design)
    bad = ~np.isfinite(targets)
    if bad.any():
        raise ValueError(f"non-finite target at index {int(np.argmax(bad))}")

    if basis is None:
        basis = BasisSpec(size=design.shape[1])
    return RegressionFit(coeffs=factors.solve(targets), basis=basis, center=center, scale=scale,
                         rank=factors.rank, smallest_singular_value=factors.smallest_singular_value)


@dataclass(frozen=True)
class SampleDesign:
    """The design matrix of one sample with its standardization and its
    factorization.

    Built once per sample; every fit on the sample reuses the one
    factorization, and every fitted value at the sample's own points the
    same C-ordered matrix, so fitted values equal `predict(fit, basis, x)`
    bit for bit without a rebuild.  Each target is projected on its own, so
    a fit does not depend on which other targets share the design.
    """

    basis: BasisSpec
    center: float
    scale: float
    matrix: np.ndarray
    factors: Factorization

    def fit(self, targets) -> RegressionFit:
        return fit_least_squares(self.matrix, targets, basis=self.basis,
                                 center=self.center, scale=self.scale, factors=self.factors)

    def fitted(self, fit: RegressionFit) -> np.ndarray:
        """Fitted values at the sample points of a fit made on this design."""
        return self.matrix @ fit.coeffs


def sample_design(basis: BasisSpec, x) -> SampleDesign:
    """Standardize x, build its design matrix and factor it."""
    center, scale = standardization(x)
    matrix = design_matrix(basis, x, center, scale)
    return SampleDesign(basis=basis, center=center, scale=scale, matrix=matrix,
                        factors=factorize(matrix))


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
