import math

import numpy as np
import pytest

from tamedbsde import (
    ForwardBlowupError,
    NoiseModel,
    SdeSpec,
    TerminalSpec,
    build_grid,
    euler_simulate,
    sample_increments,
    terminal_values,
)
from tamedbsde.grids import IncrementBatch


def _batch(grid, paths, seed=0):
    return sample_increments(grid, paths, seed, NoiseModel())


def test_pure_brownian_is_cumulative_sum():
    grid = build_grid(1.0, 16)
    batch = _batch(grid, 50)
    ens = euler_simulate(SdeSpec(x0=0.0, diff_const=1.0), grid, batch)
    np.testing.assert_allclose(ens.X[1:], np.cumsum(batch.dW, axis=0), atol=1e-14)


def test_deterministic_constant_path():
    grid = build_grid(1.0, 8)
    batch = _batch(grid, 10)
    ens = euler_simulate(SdeSpec(x0=3.0, diff_const=0.0), grid, batch)
    np.testing.assert_array_equal(ens.X, np.full((9, 10), 3.0))


def test_unit_drift_integrates_exactly():
    grid = build_grid(1.0, 4)
    batch = _batch(grid, 10)
    ens = euler_simulate(SdeSpec(x0=0.0, drift_const=1.0, diff_const=0.0), grid, batch)
    np.testing.assert_allclose(ens.X[-1], 1.0, atol=1e-14)


def test_affine_drift_matches_ode_flow():
    # sigma = 0: Euler on dx = (b0 + b1 x) dt converges at first order
    sde = SdeSpec(x0=1.0, drift_const=0.5, drift_slope=-2.0, diff_const=0.0)
    exact = lambda t: 0.25 + (1.0 - 0.25) * math.exp(-2.0 * t)
    errs = []
    for n in (32, 64, 128):
        grid = build_grid(1.0, n)
        ens = euler_simulate(sde, grid, _batch(grid, 1))
        errs.append(abs(ens.X[-1, 0] - exact(1.0)))
    assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)
    assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.15)


def test_dimension_mismatch():
    grid = build_grid(1.0, 8)
    batch = _batch(build_grid(1.0, 4), 10)
    with pytest.raises(ValueError, match="steps"):
        euler_simulate(SdeSpec(x0=0.0), grid, batch)


def test_overflow_names_path_and_step():
    grid = build_grid(1.0, 3)
    sde = SdeSpec(x0=1.0, drift_slope=90.0, diff_const=1e12)

    def first_blowup(cells, level_major):
        dW = np.zeros((6, 3))
        for path, step in cells:
            dW[path, step - 1] = 5.0  # drift_slope carries this path past the limit at `step`
        # the path-major array as a strided (steps, paths) view, or a contiguous copy
        dW = np.ascontiguousarray(dW.T) if level_major else dW.T
        batch = IncrementBatch(dW=dW, H=dW / grid.h, lam=1.0)
        with pytest.raises(ForwardBlowupError) as err:
            euler_simulate(sde, grid, batch)
        return err.value.path, err.value.step

    for level_major in (False, True):
        assert first_blowup([(2, 2)], level_major) == (2, 2)
        # two paths blow up at step 3, a third at step 2: the earliest step is named
        assert first_blowup([(4, 3), (1, 3), (5, 2)], level_major) == (5, 2)
        # two paths at the same step: the lowest of them is named
        assert first_blowup([(4, 3), (1, 3)], level_major) == (1, 3)


def test_terminal_identity_and_square():
    grid = build_grid(1.0, 4)
    ens = euler_simulate(SdeSpec(x0=0.0, diff_const=1.0), grid, _batch(grid, 20, seed=3))
    ident = terminal_values(TerminalSpec((0.0, 1.0)), ens)
    np.testing.assert_array_equal(ident, ens.X[-1])
    square = terminal_values(TerminalSpec((0.0, 0.0, 1.0)), ens)
    np.testing.assert_allclose(square, ens.X[-1] ** 2, rtol=1e-14)
    assert square[0] == pytest.approx(ens.X[-1, 0] ** 2)


def test_terminal_gaussian_mean():
    grid = build_grid(1.0, 8)
    m = 100_000
    ens = euler_simulate(SdeSpec(x0=0.0, diff_const=1.0), grid, _batch(grid, m, seed=8))
    xi = terminal_values(TerminalSpec((0.0, 1.0)), ens)
    assert abs(xi.mean()) < 5.0 / math.sqrt(m)


def test_terminal_law_moments():
    grid = build_grid(2.0, 16)
    m = 100_000
    ens = euler_simulate(SdeSpec(x0=0.7, diff_const=1.5), grid, _batch(grid, m, seed=15))
    x_n = ens.X[-1]
    assert x_n.mean() == pytest.approx(0.7, abs=5 * 1.5 * math.sqrt(2.0 / m))
    assert x_n.var() == pytest.approx(1.5**2 * 2.0, rel=0.05)
