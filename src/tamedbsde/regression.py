"""Least-squares projection on a probabilists'-Hermite basis of the state.

One fit approximates one conditional expectation E_i[target | X_i = x].
Every fit goes through an `eigh` of the design's equilibrated K x K Gram
matrix (`Factorization`), so one factorization serves any number of targets.
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


def hermite_matrix(x: np.ndarray, size: int) -> np.ndarray:
    """C-ordered (size, M) rows He_0(x) .. He_{size-1}(x), each row written
    in place by the three-term recurrence from the two rows above it."""
    x = np.asarray(x, dtype=float)
    try:
        out = np.empty((size, x.size), dtype=float)
    except ValueError as exc:
        # numpy's "array is too big": the byte count overflows intp, an
        # allocation failure like any other
        raise MemoryError(str(exc)) from exc
    out[0] = 1.0
    if size > 1:
        out[1] = x
    for k in range(2, size):
        np.multiply(x, out[k - 1], out=out[k])
        out[k] -= (k - 1) * out[k - 2]
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


def design_matrix(basis: BasisSpec, x, center: float, scale: float) -> np.ndarray:
    """M x K matrix of basis values at x standardized by (center, scale), a
    transposed view: a sample's own `standardization`, or the values stored
    in a fit to evaluate the basis consistently elsewhere."""
    x = np.asarray(x, dtype=float)
    return hermite_matrix((x - center) / scale, basis.size).T


@dataclass(frozen=True)
class Factorization:
    """`eigh` of the equilibrated Gram matrix of a design D (K x M):
    diag(1/d) D D^T diag(1/d) = W diag(lam) W^T, d the row norms of D (0 read
    as 1).  The rank r counts the eigenvalues above RCOND * lam_max; only the
    K x r factor B = diag(1/d) W_r and lam_r are kept.  Coefficients are
    minimum-norm in the equilibrated coordinates diag(d) c, fitted values the
    least-squares projection either way.  The smallest singular value is the
    raw design's on the kept subspace, that of diag(sqrt(lam_r)) W_r^T diag(d)."""

    b: np.ndarray
    lam: np.ndarray
    smallest_singular_value: float

    @property
    def rank(self) -> int:
        return int(self.lam.size)

    def solve(self, design: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Coefficients B ((B^T (D t)) / lam) of one target t on its design."""
        return self.b @ ((self.b.T @ (design.T @ target)) / self.lam)


def factorize(design: np.ndarray) -> Factorization:
    """Factor the M x K design through its equilibrated Gram matrix.

    Raises ValueError naming the first non-finite design entry.
    """
    gram = design.T @ design
    if not np.isfinite(gram).all():
        bad = np.argwhere(~np.isfinite(design))
        where = f"entry at row {bad[0][0]}, column {bad[0][1]}" if bad.size else "Gram matrix (overflow)"
        raise ValueError(f"non-finite design {where}")
    d = np.sqrt(np.where(np.diag(gram) > 0.0, np.diag(gram), 1.0))
    lam, w = np.linalg.eigh(gram / np.outer(d, d))
    keep = lam > RCOND * lam[-1]
    s = np.linalg.svd(np.sqrt(lam[keep])[:, None] * w[:, keep].T * d, compute_uv=False)
    return Factorization(w[:, keep] / d[:, None], lam[keep], float(s[-1]) if s.size else 0.0)


def fit_least_squares(design: np.ndarray, targets, basis: BasisSpec, center: float, scale: float,
                      factors: Factorization) -> RegressionFit:
    """Least squares through the design's `Factorization` `factors`:
    eigenvalues of the equilibrated Gram matrix below RCOND * lam_max are
    discarded.  Raises ValueError naming the first non-finite target entry."""
    targets = np.asarray(targets, dtype=float)
    if design.shape[0] != targets.shape[0]:
        raise ValueError(f"design has {design.shape[0]} rows, targets {targets.shape[0]}")
    bad = ~np.isfinite(targets)
    if bad.any():
        raise ValueError(f"non-finite target at index {int(np.argmax(bad))}")
    return RegressionFit(coeffs=factors.solve(design, targets), basis=basis, center=center, scale=scale)


@dataclass(frozen=True)
class SampleDesign:
    """The design matrix of one sample with its standardization and its
    factorization.

    Built once per sample; every fit on the sample reuses the one
    factorization, and fitted values are coeffs @ matrix.T on the level-major
    array, as in `predict`, so they equal `predict(fit, basis, x)` bit for
    bit.  Each target is projected on its own, so a fit does not depend on
    which other targets share the design.
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
        return fit.coeffs @ self.matrix.T


def sample_design(basis: BasisSpec, x) -> SampleDesign:
    """Standardize x, build its design matrix and factor it."""
    center, scale = standardization(x)
    matrix = design_matrix(basis, x, center, scale)
    return SampleDesign(basis=basis, center=center, scale=scale, matrix=matrix,
                        factors=factorize(matrix))


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
    return fit.coeffs @ design_matrix(basis, x, fit.center, fit.scale).T
