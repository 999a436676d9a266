import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import norm

from tamedbsde import (
    NoiseModel,
    build_grid,
    lambda_of_truncation,
    sample_increments,
    truncation_l2_gap,
    truncation_radius,
)
from tamedbsde.grids import LAMBDA_FLOOR, TRUNCATED, truncation_lambda


# ---------------------------------------------------------------- oracles

def lambda_quadrature(radius, h):
    """Independent oracle: E[min(|x|, R)^2] / h for x ~ N(0, h) by quadrature."""
    integrand = lambda x: min(abs(x), radius) ** 2 * norm.pdf(x, scale=math.sqrt(h))
    value, _ = quad(integrand, -np.inf, np.inf, limit=200)
    return value / h


def gap_quadrature(radius, h):
    """Independent oracle: E[(x - clip(x, -R, R))^2] / h^2 by quadrature."""
    integrand = lambda x: (x - np.clip(x, -radius, radius)) ** 2 * norm.pdf(x, scale=math.sqrt(h))
    value, _ = quad(integrand, -np.inf, np.inf, limit=200)
    return value / h**2


# ---------------------------------------------------------------- grids

def test_build_grid_quarters():
    grid = build_grid(1.0, 4)
    np.testing.assert_allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)


def test_build_grid_degenerate():
    grid = build_grid(1.0, 1)
    np.testing.assert_allclose(grid.times, [0.0, 1.0], atol=0)


def test_build_grid_step_size():
    assert build_grid(2.0, 8).h == 0.25


@pytest.mark.parametrize("horizon,steps", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, -3)])
def test_build_grid_rejects_bad_arguments(horizon, steps):
    with pytest.raises(ValueError):
        build_grid(horizon, steps)


@given(steps=st.integers(min_value=1, max_value=500), horizon=st.floats(min_value=1e-3, max_value=100.0))
def test_grid_is_uniform(steps, horizon):
    grid = build_grid(horizon, steps)
    assert grid.times[0] == 0.0
    assert grid.times[-1] == horizon
    assert np.all(np.abs(np.diff(grid.times) - grid.h) <= 1e-12 * horizon)


# ---------------------------------------------------------------- truncation radius

def test_log_schedule_at_unit_step():
    model = NoiseModel(kind="truncated_gaussian", radius0=2.0, use_log_schedule=True)
    assert truncation_radius(model, 1.0) == pytest.approx(2.0, abs=1e-14)


def test_log_schedule_formula():
    model = NoiseModel(kind="truncated_gaussian", radius0=2.0, use_log_schedule=True)
    h = math.exp(-1.0)
    assert truncation_radius(model, h) == pytest.approx(2.0 * math.sqrt(h * 2.0), rel=1e-12)
    assert truncation_radius(model, h) == pytest.approx(1.71553, abs=1e-4)


def test_fixed_radius():
    model = NoiseModel(kind="truncated_gaussian", radius0=0.5, use_log_schedule=False)
    for h in (1.0, 0.1, 1e-3):
        assert truncation_radius(model, h) == 0.5


def test_radius_rejects_untruncated_kinds():
    with pytest.raises(ValueError):
        truncation_radius(NoiseModel(kind="gaussian"), 0.5)


# ---------------------------------------------------------------- Lambda

def test_lambda_no_truncation_limit():
    assert lambda_of_truncation(100.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_lambda_matches_quadrature_oracle():
    # frozen from the quadrature oracle above: E[min(|x|,1)^2] for x ~ N(0,1)
    assert lambda_quadrature(1.0, 1.0) == pytest.approx(0.5160585509617129, abs=1e-10)
    assert lambda_of_truncation(1.0, 1.0) == pytest.approx(0.5160585509617129, abs=1e-10)
    for radius, h in ((0.7, 1.0), (2.0, 0.5), (0.3, 0.125)):
        assert lambda_of_truncation(radius, h) == pytest.approx(lambda_quadrature(radius, h), abs=1e-8)


def test_tiny_radius_falls_below_floor():
    # frozen from the quadrature oracle: a radius of 0.01 retains almost no mass
    assert lambda_quadrature(0.01, 1.0) < 0.5
    assert lambda_of_truncation(0.01, 1.0) < 0.5
    grid = build_grid(1.0, 1)
    model = NoiseModel(kind="truncated_gaussian", radius0=0.01, use_log_schedule=False)
    with pytest.raises(ValueError, match="Lambda"):
        sample_increments(grid, 10, 0, model)


@given(st.floats(min_value=0.05, max_value=2.0), st.floats(min_value=0.05, max_value=1.0),
       st.floats(min_value=0.5, max_value=2.0))
@settings(max_examples=50)
def test_lambda_monotone_in_radius(r_small, growth, h):
    small = lambda_of_truncation(r_small, h)
    big = lambda_of_truncation(r_small + growth, h)
    assert big >= small
    if small < 1.0 - 1e-9:  # away from the saturated regime the gain is strict
        assert big > small


def lambda_and_gap_by_ndtr(radius, h):
    """Lambda and the increment gap as the closed forms were once written:
    the normal density and scipy.special.ndtr on a 0-d float64 array."""
    rho = radius / math.sqrt(h)
    x = np.asarray(rho, dtype=np.float64)
    pdf, sf = np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi), ndtr(-x)
    lam = math.erf(rho / math.sqrt(2.0)) - 2.0 * rho * pdf + 2.0 * rho * rho * sf
    gap = 2.0 * ((1.0 + rho * rho) * sf - rho * pdf) / h
    return float(lam), float(gap)


@pytest.mark.parametrize("h", [1.0, 2.0**-10])
def test_erfc_closed_forms_match_the_ndtr_form(h):
    # the gap carries a 1/h, so it is compared as the dimensionless gap * h
    for rho in np.logspace(-3, 1.6, 400):
        radius = rho * math.sqrt(h)
        lam, gap = lambda_and_gap_by_ndtr(radius, h)
        assert abs(lambda_of_truncation(radius, h) - lam) <= 1e-15
        assert abs(truncation_l2_gap(radius, h) * h - gap * h) <= 1e-15


@pytest.mark.parametrize("log_schedule", [False, True])
def test_lambda_floor_verdict_matches_the_ndtr_form(log_schedule):
    # Lambda = 1/2 at rho = R(h)/sqrt(h) = 0.9748577030725142 (root of the
    # ndtr form).  Across +-2% of it the verdict is the same; within 20 eps
    # (relative) of it the two forms, 2.3e-16 apart at most, may only part
    # where both Lambdas lie within one ulp of the floor (seen: 1/2 - 2^-54
    # by ndtr against exactly 1/2 by erfc, at most one radius per h).
    rho_star = 0.9748577030725142
    band = rho_star * (1.0 + np.linspace(-0.02, 0.02, 201))
    ulps = rho_star * (1.0 + np.arange(-20, 21) * np.finfo(float).eps)
    verdicts = []
    for h in (1.0, 0.1, 2.0**-7):
        unit = NoiseModel(kind=TRUNCATED, radius0=1.0, use_log_schedule=log_schedule)
        scale = truncation_radius(unit, h) / math.sqrt(h)
        for rho in np.concatenate([band, ulps]):
            model = NoiseModel(kind=TRUNCATED, radius0=rho / scale, use_log_schedule=log_schedule)
            radius = truncation_radius(model, h)
            rejected = lambda_and_gap_by_ndtr(radius, h)[0] < LAMBDA_FLOOR
            try:
                truncation_lambda(model, h)
                accepted = True
            except ValueError:
                accepted = False
            if accepted == rejected:
                assert rho in ulps, (h, rho)
                assert abs(lambda_of_truncation(radius, h) - LAMBDA_FLOOR) <= 2.0**-53, (h, rho)
                assert abs(lambda_and_gap_by_ndtr(radius, h)[0] - LAMBDA_FLOOR) <= 2.0**-53, (h, rho)
            verdicts.append(rejected)
    assert 0 < sum(verdicts) < len(verdicts)


# ---------------------------------------------------------------- increment gap (AH.3)

def test_gap_matches_quadrature_oracle():
    for radius, h in ((1.0, 1.0), (2.0, 1.0), (1.0, 0.25), (0.5, 0.0625)):
        assert truncation_l2_gap(radius, h) == pytest.approx(gap_quadrature(radius, h), abs=1e-8)


def test_gap_non_increasing_in_radius():
    radii = np.linspace(0.2, 5.0, 40)
    gaps = [truncation_l2_gap(r, 0.25) for r in radii]
    assert np.all(np.diff(gaps) <= 1e-15)


def test_gap_bounded_for_log_schedule():
    # no specific constant is asserted by the construction; the computed
    # values for R0 = 2 stay tiny across the whole ladder
    model = NoiseModel(kind="truncated_gaussian", radius0=2.0, use_log_schedule=True)
    gaps = []
    for k in range(1, 12):
        h = 2.0**-k
        gaps.append(truncation_l2_gap(truncation_radius(model, h), h))
    assert max(gaps) < 0.1


# ---------------------------------------------------------------- sampling

def test_gaussian_h_is_scaled_increment():
    grid = build_grid(1.0, 8)
    batch = sample_increments(grid, 100, 3, NoiseModel())
    np.testing.assert_allclose(batch.H, batch.dW / grid.h, rtol=0, atol=0)
    assert batch.lam == 1.0


def test_truncated_h_clamps():
    grid = build_grid(1.0, 1)
    model = NoiseModel(kind="truncated_gaussian", radius0=1.5, use_log_schedule=False)
    batch = sample_increments(grid, 50_000, 5, model)
    outside = np.abs(batch.dW) > 1.5
    assert outside.any()
    np.testing.assert_allclose(np.abs(batch.H[outside]) * grid.h, 1.5, rtol=0, atol=1e-15)
    inside = ~outside
    np.testing.assert_allclose(batch.H[inside] * grid.h, batch.dW[inside], rtol=0, atol=0)


def test_rademacher_signs():
    grid = build_grid(1.0, 16)
    batch = sample_increments(grid, 200, 9, NoiseModel(kind="rademacher"))
    sqrt_h = math.sqrt(grid.h)
    assert set(np.unique(batch.dW)) == {-sqrt_h, sqrt_h}
    np.testing.assert_allclose(batch.H, batch.dW / grid.h, atol=0)


def test_seeded_determinism():
    grid = build_grid(1.0, 32)
    model = NoiseModel()
    a = sample_increments(grid, 64, 1234, model)
    b = sample_increments(grid, 64, 1234, model)
    assert np.array_equal(a.dW, b.dW)
    c = sample_increments(grid, 64, 1235, model)
    assert not np.array_equal(a.dW, c.dW)


def test_path_block_slicing_matches_full_batch():
    # the draw for (path, step) is keyed by its counter index, so disjoint
    # blocks produced separately assemble into the full batch
    grid = build_grid(1.0, 10)
    model = NoiseModel()
    full = sample_increments(grid, 40, 77, model)
    parts = [sample_increments(grid, 40, 77, model, path_range=(a, b))
             for a, b in ((0, 13), (13, 30), (30, 40))]
    np.testing.assert_array_equal(np.concatenate([p.dW for p in parts], axis=1), full.dW)


def test_empirical_moments_of_h():
    grid = build_grid(1.0, 2)
    model = NoiseModel(kind="truncated_gaussian", radius0=2.0, use_log_schedule=True)
    m = 100_000
    batch = sample_increments(grid, m, 2024, model)
    hh = batch.H * grid.h
    assert abs(hh.mean()) < 5.0 * math.sqrt(grid.h / m)
    assert hh.var() == pytest.approx(batch.lam * grid.h, rel=0.05)
