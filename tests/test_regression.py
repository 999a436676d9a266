import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tamedbsde import (
    BasisSpec,
    SdeSpec,
    build_grid,
    design_matrix,
    fit_basis,
    fit_least_squares,
    predict,
)
from tamedbsde.regression import RCOND, hermite_matrix, sample_design
from tamedbsde.trees import build_tree, enumerate_tree_paths


def test_single_basis_function_is_constant_column():
    mat = design_matrix(BasisSpec(size=1), np.array([1.0, -2.0, 3.5]), 0.0, 1.0)
    np.testing.assert_array_equal(mat, np.ones((3, 1)))


def test_hermite_values_at_zero():
    mat = design_matrix(BasisSpec(size=3), np.array([0.0]), 0.0, 1.0)
    np.testing.assert_array_equal(mat[0], [1.0, 0.0, -1.0])


def _hermite_by_columns(x, size):
    # reference: the three-term recurrence reading its inputs back from the
    # output columns
    out = np.empty((x.size, size))
    out[:, 0] = 1.0
    if size > 1:
        out[:, 1] = x
    for k in range(2, size):
        out[:, k] = x * out[:, k - 1] - (k - 1) * out[:, k - 2]
    return out


def test_hermite_matrix_bitwise_matches_recurrence():
    # a strided column of a wider sample, scaled so high degrees span many
    # orders of magnitude
    x = np.random.default_rng(3).normal(scale=2.0, size=(301, 2))[:, 0]
    for size in range(1, 13):
        mat = hermite_matrix(x, size)
        assert mat.flags.c_contiguous
        assert np.array_equal(mat, _hermite_by_columns(x, size)), size


def test_hermite_linear_row():
    mat = design_matrix(BasisSpec(size=2), np.array([2.0]), 0.0, 1.0)
    np.testing.assert_array_equal(mat[0], [1.0, 2.0])


def test_constant_targets_reproduced():
    x = np.linspace(-1, 1, 50)
    fit = fit_basis(BasisSpec(size=4), x, np.full(50, 3.25))
    np.testing.assert_allclose(predict(fit, fit.basis, x), 3.25, rtol=1e-12)


def test_linear_targets_reproduced():
    x = np.linspace(-2, 5, 80)
    fit = fit_basis(BasisSpec(size=2), x, x)
    np.testing.assert_allclose(predict(fit, fit.basis, x), x, atol=1e-9)


def test_quadratic_in_span():
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    fit = fit_basis(BasisSpec(size=3), x, x**2)
    assert predict(fit, fit.basis, np.array([1.5]))[0] == pytest.approx(2.25, abs=1e-9)


def test_interpolation_when_square():
    x = np.array([-1.0, 0.0, 2.0])
    design = design_matrix(BasisSpec(size=3), x, 0.0, 1.0)
    fit = fit_least_squares(design, np.array([4.0, -1.0, 7.0]))
    np.testing.assert_allclose(design @ fit.coeffs, [4.0, -1.0, 7.0], atol=1e-10)


def test_prediction_requires_matching_basis():
    x = np.linspace(-1, 1, 10)
    fit = fit_basis(BasisSpec(size=2), x, x)
    with pytest.raises(ValueError, match="basis"):
        predict(fit, BasisSpec(size=3), x)


def test_empty_prediction():
    x = np.linspace(-1, 1, 10)
    fit = fit_basis(BasisSpec(size=2), x, x)
    assert predict(fit, fit.basis, np.array([])).size == 0


def test_non_finite_target_named():
    x = np.linspace(-1, 1, 5)
    y = x.copy()
    y[3] = np.nan
    with pytest.raises(ValueError, match="index 3"):
        fit_basis(BasisSpec(size=2), x, y)


def test_degenerate_sample_falls_back_to_centering():
    x = np.full(20, 2.0)
    fit = fit_basis(BasisSpec(size=3), x, np.full(20, 5.0))
    assert fit.scale == 1.0
    np.testing.assert_allclose(predict(fit, fit.basis, x), 5.0, rtol=1e-12)


@given(seed=st.integers(min_value=0, max_value=10_000), size=st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_projection_idempotent(seed, size):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=120)
    y = rng.normal(size=120)
    fit = fit_basis(BasisSpec(size=size), x, y)
    again = fit_basis(BasisSpec(size=size), x, predict(fit, fit.basis, x))
    np.testing.assert_allclose(again.coeffs, fit.coeffs, atol=1e-9)


def test_residual_orthogonality():
    rng = np.random.default_rng(1)
    x = rng.normal(size=500)
    y = np.sin(x) + 0.1 * rng.normal(size=500)
    center, scale = x.mean(), x.std()
    design = design_matrix(BasisSpec(size=5), x)
    fit = fit_least_squares(design, y, basis=BasisSpec(size=5), center=center, scale=scale)
    residual = y - design @ fit.coeffs
    assert np.linalg.norm(design.T @ residual) <= 1e-8 * np.linalg.norm(y)


def test_reproduces_tree_conditional_expectation():
    # on an enumerated Rademacher tree, E_i[X_{i+1}^2] = X_i^2 + h is a
    # quadratic in X_i; a basis with degree >= 2 recovers it exactly
    grid = build_grid(1.0, 10)
    tree = build_tree(SdeSpec(x0=0.2, diff_const=1.0), grid)
    ens = enumerate_tree_paths(tree)
    i = 6
    target = ens.X[i + 1] ** 2
    exact = ens.X[i] ** 2 + grid.h
    fit = fit_basis(BasisSpec(size=4), ens.X[i], target)
    np.testing.assert_allclose(predict(fit, fit.basis, ens.X[i]), exact, atol=1e-8)


def test_factorized_fit_agrees_with_lstsq():
    rng = np.random.default_rng(0)
    x = rng.normal(0.3, 1.25, size=40_000)
    design = sample_design(BasisSpec(size=12), x)
    eps = np.finfo(float).eps
    for target in (np.sin(x) + 0.1 * rng.normal(size=x.size), x**2,
                   np.tanh(x) + rng.normal(size=x.size)):
        coeffs, _, rank, sv = np.linalg.lstsq(design.matrix, target, rcond=RCOND)
        retained = sv[sv > RCOND * sv[0]]
        reference = design.matrix @ coeffs
        fit = design.fit(target)
        cond = retained[0] / retained[-1]
        assert np.max(np.abs(design.fitted(fit) - reference)) \
            <= 64 * cond * eps * np.max(np.abs(reference))
        assert fit.rank == rank == 12
        assert abs(fit.smallest_singular_value - retained[-1]) <= 64 * eps * sv[0]


def test_constant_sample_has_rank_one():
    design = sample_design(BasisSpec(size=6), np.full(200, 0.5))
    fit = design.fit(np.linspace(0.0, 1.0, 200))
    assert fit.rank == 1
    np.testing.assert_allclose(design.fitted(fit), 0.5, rtol=1e-12)


def test_non_finite_design_entry_named():
    design = design_matrix(BasisSpec(size=3), np.linspace(-1, 1, 6), 0.0, 1.0)
    design[4, 2] = np.inf
    with pytest.raises(ValueError, match="row 4, column 2"):
        fit_least_squares(design, np.zeros(6))
