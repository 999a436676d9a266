import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tamedbsde import (
    BasisSpec,
    SdeSpec,
    build_grid,
    design_matrix,
    euler_simulate,
    load_config,
    predict,
    sample_increments,
)
from tamedbsde.regression import RCOND, factorize, hermite_matrix, sample_design
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
        assert mat.shape == (size, x.size)
        assert mat.flags.c_contiguous
        assert np.array_equal(mat, _hermite_by_columns(x, size).T), size


def test_hermite_linear_row():
    mat = design_matrix(BasisSpec(size=2), np.array([2.0]), 0.0, 1.0)
    np.testing.assert_array_equal(mat[0], [1.0, 2.0])


def test_constant_targets_reproduced():
    x = np.linspace(-1, 1, 50)
    fit = sample_design(BasisSpec(size=4), x).fit(np.full(50, 3.25))
    np.testing.assert_allclose(predict(fit, fit.basis, x), 3.25, rtol=1e-12)


def test_linear_targets_reproduced():
    x = np.linspace(-2, 5, 80)
    fit = sample_design(BasisSpec(size=2), x).fit(x)
    np.testing.assert_allclose(predict(fit, fit.basis, x), x, atol=1e-9)


def test_quadratic_in_span():
    rng = np.random.default_rng(0)
    x = rng.normal(size=200)
    fit = sample_design(BasisSpec(size=3), x).fit(x**2)
    assert predict(fit, fit.basis, np.array([1.5]))[0] == pytest.approx(2.25, abs=1e-9)


def test_interpolation_when_square():
    design = sample_design(BasisSpec(size=3), np.array([-1.0, 0.0, 2.0]))
    fit = design.fit(np.array([4.0, -1.0, 7.0]))
    np.testing.assert_allclose(design.fitted(fit), [4.0, -1.0, 7.0], atol=1e-10)


def test_prediction_requires_matching_basis():
    x = np.linspace(-1, 1, 10)
    fit = sample_design(BasisSpec(size=2), x).fit(x)
    with pytest.raises(ValueError, match="basis"):
        predict(fit, BasisSpec(size=3), x)


def test_empty_prediction():
    x = np.linspace(-1, 1, 10)
    fit = sample_design(BasisSpec(size=2), x).fit(x)
    assert predict(fit, fit.basis, np.array([])).size == 0


def test_non_finite_target_named():
    x = np.linspace(-1, 1, 5)
    y = x.copy()
    y[3] = np.nan
    with pytest.raises(ValueError, match="index 3"):
        sample_design(BasisSpec(size=2), x).fit(y)


def test_degenerate_sample_falls_back_to_centering():
    x = np.full(20, 2.0)
    fit = sample_design(BasisSpec(size=3), x).fit(np.full(20, 5.0))
    assert fit.scale == 1.0
    np.testing.assert_allclose(predict(fit, fit.basis, x), 5.0, rtol=1e-12)


@given(seed=st.integers(min_value=0, max_value=10_000), size=st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_projection_idempotent(seed, size):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=120)
    y = rng.normal(size=120)
    fit = sample_design(BasisSpec(size=size), x).fit(y)
    again = sample_design(BasisSpec(size=size), x).fit(predict(fit, fit.basis, x))
    np.testing.assert_allclose(again.coeffs, fit.coeffs, atol=1e-9)


def test_residual_orthogonality():
    rng = np.random.default_rng(1)
    x = rng.normal(size=500)
    y = np.sin(x) + 0.1 * rng.normal(size=500)
    design = sample_design(BasisSpec(size=5), x)
    residual = y - design.fitted(design.fit(y))
    assert np.linalg.norm(design.matrix.T @ residual) <= 1e-8 * np.linalg.norm(y)


def test_reproduces_tree_conditional_expectation():
    # on an enumerated Rademacher tree, E_i[X_{i+1}^2] = X_i^2 + h is a
    # quadratic in X_i; a basis with degree >= 2 recovers it exactly
    grid = build_grid(1.0, 10)
    tree = build_tree(SdeSpec(x0=0.2, diff_const=1.0), grid)
    ens = enumerate_tree_paths(tree)
    i = 6
    target = ens.X[i + 1] ** 2
    exact = ens.X[i] ** 2 + grid.h
    fit = sample_design(BasisSpec(size=4), ens.X[i]).fit(target)
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
        factorize(design)


def _refined_fitted(design, target, corrections=4):
    # reference least-squares fitted values, independent of the Gram route:
    # a Householder QR solve, then corrections from residuals in long double
    q, r = np.linalg.qr(design)
    a, t = design.astype(np.longdouble), target.astype(np.longdouble)
    coeffs = np.zeros(design.shape[1], dtype=np.longdouble)
    for _ in range(corrections + 1):
        residual = (t - a @ coeffs).astype(float)
        coeffs += np.linalg.solve(r, q.T @ residual)
    return (a @ coeffs).astype(float)


def _assert_fits_reference(design, targets):
    for target in targets:
        reference = _refined_fitted(design.matrix, target)
        fitted = design.fitted(design.fit(target))
        assert np.max(np.abs(fitted - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_fits_match_refined_reference_on_benchmark_paths():
    # the X rows of the wide benchmark config (40k paths, K = 12), with a
    # Y-shaped target X_{i+1}^2 and a Z-shaped one X_{i+1}^2 H_{i+1}
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "configs", "lsmc_wide.cfg")
    cfg = load_config(path)
    grid = build_grid(cfg.horizon, cfg.grids[0])
    batch = sample_increments(grid, cfg.paths, cfg.seed, cfg.noise)
    X = euler_simulate(cfg.sde, grid, batch).X
    for i in (1, 4, 9):
        design = sample_design(BasisSpec(size=cfg.basis_size), X[i])
        nxt = X[i + 1] ** 2
        _assert_fits_reference(design, (nxt, nxt * batch.H[i]))


def test_fits_match_refined_reference_on_gaussian_sample():
    rng = np.random.default_rng(7)
    x = rng.normal(size=5_000)
    design = sample_design(BasisSpec(size=6), x)
    _assert_fits_reference(design, (np.sin(2 * x) + rng.normal(size=x.size), np.exp(x)))


@pytest.mark.parametrize("size", [6, 12])
@pytest.mark.parametrize("atoms", range(1, 8))
def test_few_atom_sample_rank(atoms, size):
    # X after atoms - 1 Rademacher steps takes exactly `atoms` values
    rng = np.random.default_rng(atoms)
    x = 0.3 + 0.25 * rng.choice([-1.0, 1.0], size=(atoms - 1, 4_000)).sum(axis=0)
    assert np.unique(x).size == atoms
    fit = sample_design(BasisSpec(size=size), x).fit(np.cos(x))
    assert fit.rank == min(atoms, size)


def test_sample_design_holds_no_paths_sized_factor():
    x = np.random.default_rng(5).normal(size=40_000)
    design_bytes = x.size * 12 * 8
    tracemalloc.start()
    try:
        design = sample_design(BasisSpec(size=12), x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert design.matrix.nbytes == design_bytes
    assert peak < 1.5 * design_bytes
