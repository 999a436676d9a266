import functools
import json
import math
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gammaln

from tamedbsde import (
    BasisSpec,
    ExactTreeBasis,
    ForwardBlowupError,
    IncrementBatch,
    NoiseModel,
    PathEnsemble,
    SchemeSpec,
    SdeSpec,
    TamedDriver,
    TamingSpec,
    TerminalSpec,
    build_grid,
    build_tree,
    comparison_check,
    derive_constants,
    enumerate_tree_paths,
    euler_simulate,
    load_config,
    parse_config,
    polynomial_driver,
    run_backward,
    run_backward_group,
    sample_increments,
    terminal_values,
    tree_exact_run,
    tree_group_run,
    tree_oracle_study,
)
from tamedbsde import backward, regression
from tamedbsde.backward import step_size_condition
from tamedbsde.drivers import TamingBlock
from tamedbsde.regression import predict, sample_design
from tamedbsde.trees import MAX_STEPS_BRANCHING, MAX_STEPS_RECOMBINING, path_node_index, terminal_level

ZERO = polynomial_driver([0.0])
LINEAR = polynomial_driver([0.0, -1.0])
CUBIC = polynomial_driver([0.0, 0.0, 0.0, -1.0])
NO_TAMING = TamingSpec(kind="none")


def untamed(base, h):
    return TamedDriver(base, NO_TAMING, h)


# ---------------------------------------------------------------- tree structure

def test_recombining_levels():
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), build_grid(1.0, 6))
    assert tree.recombining
    assert [lvl.size for lvl in tree.levels] == [1, 2, 3, 4, 5, 6, 7]
    np.testing.assert_allclose(tree.level_weights(3), [1 / 8, 3 / 8, 3 / 8, 1 / 8])


def test_recombining_level_weights_are_exact_binomials():
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), build_grid(1.0, MAX_STEPS_RECOMBINING))
    eps = np.finfo(float).eps
    for level in (0, 1, 3, 10, 100, 500, MAX_STEPS_RECOMBINING):
        weights = tree.level_weights(level)
        assert weights.tolist() == [math.comb(level, k) / 2**level for k in range(level + 1)]
        # the gammaln form they replace rounds its log-weights to about
        # eps * gammaln(level + 1) absolute: 1e-13 relative up to level 100,
        # 3.6e-12 at level 2000, where the exact weights still sum to 1
        k = np.arange(level + 1)
        log_form = np.exp(gammaln(level + 1) - gammaln(k + 1) - gammaln(level - k + 1)
                          - level * math.log(2.0))
        tol = 1e-13 if level <= 100 else 4 * eps * gammaln(level + 1)
        kept = weights > 1e-300
        np.testing.assert_allclose(weights[kept], log_form[kept], rtol=tol, atol=0)
    assert abs(tree.level_weights(MAX_STEPS_RECOMBINING).sum() - 1.0) <= 1e-12


def test_branching_levels_and_cap():
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0, diff_slope=0.3), build_grid(1.0, 5))
    assert not tree.recombining
    assert [lvl.size for lvl in tree.levels] == [1, 2, 4, 8, 16, 32]
    with pytest.raises(ValueError, match="cap"):
        build_tree(SdeSpec(x0=0.0, diff_slope=0.3), build_grid(1.0, 15))


@pytest.mark.parametrize("sde, steps", [
    (SdeSpec(x0=0.5, drift_const=0.1, diff_const=1.0), 1),
    (SdeSpec(x0=0.5, drift_const=0.1, diff_const=1.0), 7),
    (SdeSpec(x0=0.5, drift_const=0.1, diff_const=1.0), MAX_STEPS_RECOMBINING),
    (SdeSpec(x0=0.1, drift_const=0.2, drift_slope=0.3, diff_const=0.7, diff_slope=0.1),
     MAX_STEPS_BRANCHING),
], ids=["recombining-1", "recombining-7", "recombining-cap", "branching-cap"])
def test_streamed_terminal_level_equals_the_stored_one_bitwise(sde, steps):
    grid = build_grid(1.0, steps)
    tree = build_tree(sde, grid)
    assert tree.recombining == (sde.drift_slope == 0.0)
    x_n = terminal_level(sde, grid)
    assert x_n.dtype == tree.levels[steps].dtype
    assert x_n.tobytes() == tree.levels[steps].tobytes()


@pytest.mark.parametrize("sde, node, level", [
    # node 0 of level 1 is 1e13 / 6 - sqrt(1/6)
    (SdeSpec(drift_const=1e13), 0, 1),
    # |x| grows by about 4e3 a level, past 1e12 at level 4; the down node 0 first
    (SdeSpec(x0=1.0, diff_slope=1e4), 0, 4),
    # an up move multiplies x by 4e3, a down move by about 0: the all-up
    # node 2^4 - 1 passes 1e12 first, at level 4
    (SdeSpec(x0=1.0, drift_slope=11994.0, diff_slope=2e3 * math.sqrt(6.0)), 15, 4),
], ids=["recombining", "branching", "branching-up"])
def test_tree_levels_apply_the_forward_blowup_rule(sde, node, level):
    grid = build_grid(1.0, 6)
    with pytest.raises(ForwardBlowupError, match=f" at path {node}, step {level} of N=6 "):
        terminal_level(sde, grid)
    with pytest.raises(ForwardBlowupError, match=f" at path {node}, step {level} of N=6 "):
        build_tree(sde, grid)


def test_state_dependent_drift_breaks_recombination():
    tree = build_tree(SdeSpec(x0=0.0, drift_slope=0.5, diff_const=1.0), build_grid(1.0, 3))
    assert not tree.recombining


def test_enumerated_paths_visit_tree_nodes():
    tree = build_tree(SdeSpec(x0=0.1, drift_const=0.2, diff_const=0.7, diff_slope=0.1),
                      build_grid(1.0, 6))
    ens = enumerate_tree_paths(tree)
    for level in range(7):
        idx = path_node_index(tree, level)
        np.testing.assert_array_equal(ens.X[level], tree.levels[level][idx])


# ---------------------------------------------------------------- backward recursion

def test_zero_driver_martingale_case():
    # f = 0, xi = X_N on the unit-diffusion tree: Y_i = X_i and Z_i = 1
    grid = build_grid(1.0, 8)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    out = tree_exact_run(SchemeSpec(kind="explicit_tamed"), untamed(ZERO, grid.h),
                         tree, TerminalSpec((0.0, 1.0)))
    for level in range(9):
        np.testing.assert_allclose(out.Y[level], tree.levels[level], atol=1e-12)
    for level in range(8):
        np.testing.assert_allclose(out.Z[level], 1.0, atol=1e-12)


def test_constant_terminal():
    grid = build_grid(1.0, 6)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    out = tree_exact_run(SchemeSpec(kind="implicit"), untamed(ZERO, grid.h),
                         tree, TerminalSpec((5.0,)))
    for level in range(7):
        np.testing.assert_allclose(out.Y[level], 5.0, atol=1e-12)
        if level < 6:
            np.testing.assert_allclose(out.Z[level], 0.0, atol=1e-12)


@pytest.mark.parametrize("steps", [1, 10, 100])
@pytest.mark.parametrize("theta_prime", [0.0, 1.0])
def test_linear_driver_closed_forms(steps, theta_prime):
    grid = build_grid(1.0, steps)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    driver = untamed(LINEAR, grid.h)
    term = TerminalSpec((1.0,))
    explicit = tree_exact_run(SchemeSpec(kind="explicit_tamed", theta_prime=theta_prime),
                              driver, tree, term)
    assert explicit.root_value == pytest.approx((1.0 - grid.h) ** steps, abs=1e-10)
    implicit = tree_exact_run(SchemeSpec(kind="implicit", theta_prime=theta_prime),
                              driver, tree, term)
    assert implicit.root_value == pytest.approx((1.0 + grid.h) ** (-steps), abs=1e-10)


def test_zero_driver_root_is_terminal_average():
    grid = build_grid(1.0, 5)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0, diff_slope=0.2), grid)
    term = TerminalSpec((0.0, 0.0, 1.0))
    out = tree_exact_run(SchemeSpec(kind="explicit_tamed"), untamed(ZERO, grid.h), tree, term)
    weights = tree.level_weights(5)
    assert out.root_value == pytest.approx(float(np.sum(weights * term(tree.levels[5]))), rel=1e-12)


def test_exact_basis_matches_tree_run():
    grid = build_grid(1.0, 8)
    tree = build_tree(SdeSpec(x0=0.3, drift_const=0.05, diff_const=0.5, diff_slope=0.2), grid)
    ens = enumerate_tree_paths(tree)
    term = TerminalSpec((0.0, 0.4))
    xi = terminal_values(term, ens)
    tamed = TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), grid.h)
    scheme = SchemeSpec(kind="explicit_tamed", theta_prime=0.5)
    mc = run_backward(scheme, tamed, ens, xi, ExactTreeBasis())
    tr = tree_exact_run(scheme, tamed, tree, term)
    for level in range(9):
        idx = path_node_index(tree, level)
        np.testing.assert_allclose(mc.Y[level], tr.Y[level][idx], atol=1e-8)


def test_regression_backend_closed_form():
    # constant terminal makes Y deterministic, so any basis is sufficient
    grid = build_grid(1.0, 10)
    batch = sample_increments(grid, 500, 4, NoiseModel())
    ens = euler_simulate(SdeSpec(x0=0.0, diff_const=0.8), grid, batch)
    xi = np.full(500, 1.0)
    out = run_backward(SchemeSpec(kind="explicit_tamed"), untamed(LINEAR, grid.h),
                       ens, xi, BasisSpec(size=3))
    np.testing.assert_allclose(out.Y[0], (1.0 - grid.h) ** 10, atol=1e-9)


def _wide_ensemble(steps, paths=3000):
    grid = build_grid(1.0, steps)
    batch = sample_increments(grid, paths, 31, NoiseModel())
    ens = euler_simulate(SdeSpec(x0=0.3, diff_const=1.25), grid, batch)
    xi = terminal_values(TerminalSpec((0.0, 0.0, 1.0)), ens)
    return grid, batch, ens, xi


@pytest.mark.parametrize("theta_prime", [1.0, 0.5])
def test_step_projection_bitwise_equals_fit_then_predict(theta_prime):
    grid, batch, ens, xi = _wide_ensemble(6)
    basis = BasisSpec(size=12)
    tamed = TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), grid.h)
    out = run_backward(SchemeSpec(kind="explicit_tamed", theta_prime=theta_prime),
                       tamed, ens, xi, basis)
    assert not out.exploded
    h = grid.h
    for i in range(grid.steps):
        x, y_next = ens.X[i], out.Y[i + 1]
        z_target = (y_next + (1.0 - theta_prime) * tamed(y_next, 0.0) * h) * batch.H[i]
        z_i = predict(sample_design(basis, x).fit(z_target), basis, x)
        assert np.array_equal(out.Z[i], z_i), i
        y_target = y_next + tamed(y_next, z_i) * h
        assert np.array_equal(out.Y[i], predict(sample_design(basis, x).fit(y_target), basis, x)), i


def test_one_design_build_per_step(monkeypatch):
    calls = {"design": 0, "fit": 0}
    design_matrix, fit_least_squares = regression.design_matrix, regression.fit_least_squares

    def counting_design(*args, **kwargs):
        calls["design"] += 1
        return design_matrix(*args, **kwargs)

    def counting_fit(*args, **kwargs):
        calls["fit"] += 1
        return fit_least_squares(*args, **kwargs)

    monkeypatch.setattr(regression, "design_matrix", counting_design)
    monkeypatch.setattr(regression, "fit_least_squares", counting_fit)
    steps = 7
    grid, batch, ens, xi = _wide_ensemble(steps, paths=500)
    out = run_backward(SchemeSpec(kind="implicit"), untamed(CUBIC, grid.h),
                       ens, xi, BasisSpec(size=6))
    assert not out.exploded
    # two projections (Z, then E_i[Y_{i+1}]) per step share one design
    assert calls == {"design": steps, "fit": 2 * steps}


def test_operator_records_each_steps_fit_rank_once():
    # K = 20 Hermite columns on 100 paths: the designs are rank-deficient,
    # and the operator records each step's rank and smallest singular value
    # from the design's factorization, which every fit of the step shares
    steps = 8
    grid, batch, ens, xi = _wide_ensemble(steps, paths=100)
    basis = BasisSpec(size=20)
    h = grid.h
    members = [(SchemeSpec(kind="implicit"), untamed(CUBIC, h), None, False),
               (SchemeSpec(kind="explicit_tamed"), TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), h),
                None, False)]
    op = backward.LsmcOperator(basis, backward.ArrayRows(ens.X, batch.H), grid)
    backward.sweep([(op, xi, members)], lambda g, i, blocks: None)
    factors = [sample_design(basis, ens.X[i]).factors for i in range(steps)]
    assert op.fit_rank.tolist() == [f.rank for f in factors]
    assert op.fit_sv.tobytes() == np.array([f.smallest_singular_value for f in factors]).tobytes()
    assert 1 < max(op.fit_rank) < basis.size


def _assert_same_output(a, b):
    assert np.array_equal(a.Y, b.Y, equal_nan=True)
    assert np.array_equal(a.Z, b.Z, equal_nan=True)
    assert np.array_equal(a.implicit_iterations, b.implicit_iterations)
    assert (a.exploded, a.first_bad_step) == (b.exploded, b.first_bad_step)


def test_group_membership_does_not_change_outputs(monkeypatch):
    steps = 8
    grid, batch, ens, xi = _wide_ensemble(steps, paths=1000)
    basis = BasisSpec(size=12)
    h = grid.h
    members = [
        (SchemeSpec(kind="implicit"), untamed(CUBIC, h)),
        (SchemeSpec(kind="explicit_tamed"), TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), h)),
        (SchemeSpec(kind="explicit_tamed", theta_prime=0.5),
         TamedDriver(CUBIC, TamingSpec(kind="mult_c"), h)),
        (SchemeSpec(kind="explicit_untamed"), untamed(CUBIC, h)),
    ]
    solo = [run_backward(scheme, tamed, ens, xi, basis) for scheme, tamed in members]
    # the untamed scheme explodes mid-run and leaves the group
    assert [out.exploded for out in solo] == [False, False, False, True]
    assert 0 < solo[-1].first_bad_step < steps - 1

    calls = {"design": 0, "factorize": 0}
    design_matrix, factorize = regression.design_matrix, regression.factorize

    def counting_design(*args, **kwargs):
        calls["design"] += 1
        return design_matrix(*args, **kwargs)

    def counting_factorize(*args, **kwargs):
        calls["factorize"] += 1
        return factorize(*args, **kwargs)

    monkeypatch.setattr(regression, "design_matrix", counting_design)
    monkeypatch.setattr(regression, "factorize", counting_factorize)
    group = run_backward_group(members, ens, xi, basis)
    assert calls == {"design": steps, "factorize": steps}
    reversed_group = run_backward_group(members[::-1], ens, xi, basis)[::-1]
    for alone, together, backwards in zip(solo, group, reversed_group):
        _assert_same_output(alone, together)
        _assert_same_output(alone, backwards)


@functools.cache
def _permutation_case():
    """A small lockstep group with an exploding member, and its outputs in
    the listed order."""
    steps = 8
    grid, batch, ens, xi = _wide_ensemble(steps, paths=300)
    basis = BasisSpec(size=6)
    h = grid.h
    members = [
        (SchemeSpec(kind="implicit"), untamed(CUBIC, h)),
        (SchemeSpec(kind="explicit_tamed"), TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), h)),
        (SchemeSpec(kind="explicit_tamed", theta_prime=0.5),
         TamedDriver(CUBIC, TamingSpec(kind="mult_c"), h)),
        (SchemeSpec(kind="explicit_untamed"), untamed(CUBIC, h)),
    ]
    reference = run_backward_group(members, ens, xi, basis)
    return members, (ens, xi, basis), reference


@settings(max_examples=24, deadline=None)
@given(st.permutations(range(4)))
def test_group_outputs_do_not_depend_on_member_order(order):
    members, inputs, reference = _permutation_case()
    assert [out.exploded for out in reference] == [False, False, False, True]
    outputs = run_backward_group([members[k] for k in order], *inputs)
    for k, out in zip(order, outputs):
        _assert_same_output(reference[k], out)


@functools.cache
def _path_permutation_case():
    """A lockstep group of five schemes, none exploding, on 3,000 paths, and
    its outputs."""
    grid, batch, ens, xi = _wide_ensemble(10)
    h = grid.h
    members = [(SchemeSpec(kind="implicit"), untamed(CUBIC, h))] + [
        (SchemeSpec(kind="explicit_tamed", theta_prime=theta), TamedDriver(CUBIC, TamingSpec(kind=kind), h))
        for kind, theta in (("inner_proj", 1.0), ("outer_proj", 1.0), ("mult_c", 0.5), ("mult_d", 0.0))]
    reference = run_backward_group(members, ens, xi, BasisSpec(size=6))
    return members, (ens, xi, batch), reference


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_group_outputs_follow_a_permutation_of_paths(seed):
    # sums over paths run in path order, so the outputs move by rounding
    # only: at most 3.5e-14 of a row's max |.| over 6 seeds
    members, (ens, xi, batch), reference = _path_permutation_case()
    assert not any(out.exploded for out in reference)
    perm = np.random.default_rng(seed).permutation(xi.size)
    shuffled_batch = IncrementBatch(dW=batch.dW[:, perm], H=batch.H[:, perm], lam=batch.lam)
    shuffled = PathEnsemble(X=ens.X[:, perm], increments=shuffled_batch, grid=ens.grid)
    outputs = run_backward_group(members, shuffled, xi[perm], BasisSpec(size=6))
    for ref, out in zip(reference, outputs):
        assert not out.exploded
        for want, got in zip([*ref.Y, *ref.Z], [*out.Y, *out.Z]):
            assert np.max(np.abs(got - want[perm])) <= 1e-12 * np.max(np.abs(want))


def test_terminal_column_is_exact():
    grid = build_grid(1.0, 4)
    batch = sample_increments(grid, 50, 6, NoiseModel())
    ens = euler_simulate(SdeSpec(x0=0.0), grid, batch)
    xi = terminal_values(TerminalSpec((0.0, 1.0)), ens)
    out = run_backward(SchemeSpec(kind="explicit_tamed"), untamed(ZERO, grid.h),
                       ens, xi, BasisSpec(size=3))
    np.testing.assert_array_equal(out.Y[-1], xi)


def test_explosion_is_flagged_not_raised():
    grid = build_grid(1.0, 64)
    batch = sample_increments(grid, 2000, 20240, NoiseModel())
    ens = euler_simulate(SdeSpec(x0=0.0, diff_const=1.0), grid, batch)
    xi = terminal_values(TerminalSpec((0.0, 0.0, 0.0, 1.0)), ens)
    out = run_backward(SchemeSpec(kind="explicit_untamed"), untamed(CUBIC, grid.h),
                       ens, xi, BasisSpec(size=6))
    assert out.exploded
    assert out.first_bad_step is not None
    # partial data: levels above the bad step are still populated
    assert np.all(np.isfinite(out.Y[-1]))
    assert np.all(np.isnan(out.Y[0]))


def test_exploded_levels_are_nan_and_reached_levels_are_not():
    grid = build_grid(1.0, 64)
    batch = sample_increments(grid, 2000, 20240, NoiseModel())
    ens = euler_simulate(SdeSpec(x0=0.0, diff_const=1.0), grid, batch)
    xi = terminal_values(TerminalSpec((0.0, 0.0, 0.0, 1.0)), ens)
    good, bad = run_backward_group(
        [(SchemeSpec(kind="explicit_tamed"), TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), grid.h)),
         (SchemeSpec(kind="explicit_untamed"), untamed(CUBIC, grid.h))],
        ens, xi, BasisSpec(size=6))
    assert not good.exploded and np.all(np.isfinite(good.Y)) and np.all(np.isfinite(good.Z))
    j = bad.first_bad_step
    assert bad.exploded and 0 < j < grid.steps - 1
    assert np.all(np.isnan(bad.Y[:j + 1])) and np.all(np.isnan(bad.Z[:j + 1]))
    assert np.all(np.isfinite(bad.Y[j + 1:])) and np.all(np.isfinite(bad.Z[j + 1:]))


def test_implicit_guard():
    grid = build_grid(1.0, 2)  # h = 0.5
    base = polynomial_driver([0.0, 3.0])  # M_y = 3, h*M_y = 1.5
    tree = build_tree(SdeSpec(x0=0.0), grid)
    with pytest.raises(ValueError, match="guard"):
        tree_exact_run(SchemeSpec(kind="implicit"), untamed(base, grid.h), tree, TerminalSpec((1.0,)))


def test_implicit_non_convergence_names_path_and_step(monkeypatch):
    from tamedbsde.backward import ImplicitSolverError

    grid = build_grid(1.0, 4)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    monkeypatch.setattr(backward, "IMPLICIT_MAX_ITER", 1)
    with pytest.raises(ImplicitSolverError) as err:
        tree_exact_run(SchemeSpec(kind="implicit"), untamed(CUBIC, grid.h), tree, TerminalSpec((2.0,)))
    assert err.value.step == 3
    assert "path" in str(err.value)


def _dense_solve_implicit(driver, c, z, h, tol, max_iter, step):
    """The implicit solve iterating on every path until all have converged,
    each path frozen at the Newton update of the iterate that met the
    tolerance (at the iterate where that update is not finite): the
    reference the solve must reproduce bit for bit."""
    from tamedbsde.backward import ImplicitSolverError

    ctil = c + h * driver.base.z_coeff * np.asarray(z, dtype=float)
    y = ctil.copy()
    live = np.ones(y.size, dtype=bool)
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        res = y - ctil - h * driver.tamed_y_part(y)
        newton = y - res / np.maximum(1.0 - h * driver.y_slope(y), 0.1)
        done = live & (np.abs(res) <= tol * (1.0 + np.abs(y)))
        y = np.where(done & np.isfinite(newton), newton, y)
        live &= ~done
        if not live.any():
            break
        res_next = newton - ctil - h * driver.tamed_y_part(newton)
        worse = np.abs(res_next) > np.abs(res)
        y = np.where(live, np.where(worse, 0.5 * (y + newton), newton), y)
    else:
        res = y - ctil - h * driver.tamed_y_part(y)
        bad = live & (np.abs(res) > tol * (1.0 + np.abs(y)))
        if bad.any():
            raise ImplicitSolverError(int(np.argmax(bad)), step)
    return y, iterations


def _implicit_inputs(paths=2000):
    rng = np.random.default_rng(5)
    c = rng.standard_normal(paths) * np.geomspace(0.01, 30.0, paths)
    z = rng.standard_normal(paths)
    # paths sitting on a root of y - y^3 + 0.5 z converge in the first iteration
    c[::7], z[::7] = 0.0, 0.0
    c[3::11], z[3::11] = 1.0, 0.0
    return c, z


@pytest.mark.parametrize("kind", ["none", "inner_proj", "outer_proj",
                                  "mult_a", "mult_b", "mult_c", "mult_d"])
def test_active_set_solve_bitwise_equals_dense(kind):
    from tamedbsde.backward import _solve_implicit

    h = 0.25
    driver = TamedDriver(polynomial_driver([0.0, 1.0, 0.0, -1.0], z_coeff=0.5),
                         TamingSpec(kind=kind), h)
    c, z = _implicit_inputs()
    with np.errstate(over="ignore", invalid="ignore"):
        y_ref, it_ref = _dense_solve_implicit(driver, c, z, h, 1e-12, 50, 3)
        y, it = _solve_implicit(driver, c, z, h, 3)
    assert it == it_ref > 1
    assert y.tobytes() == y_ref.tobytes()


@pytest.mark.parametrize("max_iter", [1, 2])
def test_starved_active_set_solve_names_dense_path(monkeypatch, max_iter):
    from tamedbsde.backward import ImplicitSolverError, _solve_implicit

    h = 0.25
    driver = TamedDriver(polynomial_driver([0.0, 1.0, 0.0, -1.0], z_coeff=0.5),
                         TamingSpec(kind="mult_b"), h)
    c, z = _implicit_inputs()
    c[0], z[0] = 0.0, 0.0  # path 0 converges at once
    monkeypatch.setattr(backward, "IMPLICIT_MAX_ITER", max_iter)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ImplicitSolverError) as ref:
            _dense_solve_implicit(driver, c, z, h, 1e-12, max_iter, 4)
        with pytest.raises(ImplicitSolverError) as err:
            _solve_implicit(driver, c, z, h, 4)
    assert ref.value.path > 0
    assert (err.value.path, err.value.step) == (ref.value.path, 4)


def test_implicit_solve_evaluates_the_driver_once_per_iteration(monkeypatch):
    from tamedbsde.backward import _solve_implicit

    calls = []
    tamed_y_part = TamedDriver.tamed_y_part

    def counting(self, y):
        calls.append(np.size(y))
        return tamed_y_part(self, y)

    monkeypatch.setattr(TamedDriver, "tamed_y_part", counting)
    h = 0.25
    # f = -y^3: the residual y + h y^3 - c is convex where it is positive,
    # so Newton from y = c falls monotonically and no step is halved
    driver = untamed(CUBIC, h)
    c = np.linspace(-6.0, 6.0, 101)
    y, it = _solve_implicit(driver, c, np.zeros_like(c), h, 0)
    np.testing.assert_allclose(y + h * y**3, c, rtol=1e-11, atol=1e-11)
    # f^h at the start, then once per further iteration at the candidate
    assert it > 5
    assert len(calls) == it


def test_implicit_solve_halves_a_step_that_grows_the_residual(monkeypatch):
    from tamedbsde.backward import _solve_implicit

    calls = []
    tamed_y_part = TamedDriver.tamed_y_part

    def counting(self, y):
        calls.append(np.size(y))
        return tamed_y_part(self, y)

    monkeypatch.setattr(TamedDriver, "tamed_y_part", counting)
    # Allen-Cahn f = y - y^3 (M_y = 1) at h = 0.95, just inside the guard:
    # the residual 0.05 y + 0.95 y^3 - c, from y = c, overshoots on three
    # of the five paths in the first iteration, whose steps are halved
    h = 0.95
    driver = untamed(polynomial_driver([0.0, 1.0, 0.0, -1.0]), h)
    backward.check_implicit_guard(h, driver.base.constants.m_y)
    c = np.array([0.5, -0.5, 0.1, 2.0, -3.0])
    y, it = _solve_implicit(driver, c, np.zeros_like(c), h, 0)
    roots = [np.roots([0.95, 0.0, 0.05, -ck]) for ck in c]
    roots = [r[np.abs(r.imag) < 1e-9].real for r in roots]
    assert all(r.size == 1 for r in roots)
    np.testing.assert_allclose(y, np.concatenate(roots), rtol=1e-13, atol=0.0)
    assert it == 7
    # the halving re-evaluates f^h on the halved paths only
    assert calls.count(3) == 1 and calls.count(5) == len(calls) - 1


def test_polished_acceptance_keeps_an_iterate_whose_newton_update_is_not_finite():
    from tamedbsde.backward import _solve_implicit

    # mult_a damps f^h to about -r at y = +-1e80, so y = c meets the
    # tolerance at once, but its slope overflows to NaN there: the solve
    # keeps the iterate instead of turning a finite value into NaN
    h = 0.25
    driver = TamedDriver(CUBIC, TamingSpec(kind="mult_a"), h)
    c = np.array([1e80, -1e80, 0.5])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(driver.y_slope(c[:2])).all()
        y, it = _solve_implicit(driver, c, np.zeros_like(c), h, 0)
    assert np.array_equal(y[:2], c[:2])
    assert np.isfinite(y).all() and it > 1


needs_long_double = pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                                       reason="long double is no wider than float64 here")


def _long_double_root(poly, h, c):
    """Root of y - c - h f(y), f = sum_k poly[k] y^k, by Newton in long
    double, from y = c."""
    coeffs = [np.longdouble(a) for a in poly]
    y = np.asarray(c, dtype=np.longdouble)
    for _ in range(200):
        f = sum(a * y**k for k, a in enumerate(coeffs))
        df = sum(k * a * y**(k - 1) for k, a in enumerate(coeffs) if k)
        step = (y - c - h * f) / (1.0 - h * df)
        y = y - step
        if np.all(np.abs(step) <= np.finfo(np.longdouble).eps * np.abs(y)):
            break
    return y


@pytest.mark.parametrize("poly, h, c", [
    ((0.0, 0.0, -1.0), 0.1, np.linspace(0.0, 3.0, 301)),
    ((0.0, 0.0, 0.0, -1.0), 0.125, np.linspace(-3.0, 3.0, 301)),
    ((0.0, 0.0, 0.0, -1.0), 0.001, np.linspace(-30.0, 30.0, 301)),
])
@needs_long_double
def test_implicit_solve_lands_on_the_long_double_root(poly, h, c):
    from tamedbsde.backward import _solve_implicit

    driver = untamed(polynomial_driver(list(poly)), h)
    y, it = _solve_implicit(driver, c, np.zeros_like(c), h, 0)
    root = _long_double_root(poly, h, c)
    # the root rounded to float64 is within eps/2 of it; allow one more ulp
    # for the solve's own rounding (the iterate the tolerance accepts is up
    # to ~tol away, thousands of ulps)
    bound = 2.0 * np.finfo(float).eps * np.abs(root)
    assert np.all(np.abs(y.astype(np.longdouble) - root) <= bound)
    assert it <= 6


def test_one_tamed_y_part_per_explicit_step(monkeypatch):
    calls = []
    tamed_y_part = TamingBlock.tamed_y_part

    def counting(self, y):
        calls.append(np.size(y))
        return tamed_y_part(self, y)

    monkeypatch.setattr(TamingBlock, "tamed_y_part", counting)
    steps = 8
    grid = build_grid(1.0, steps)
    driver = TamedDriver(CUBIC, TamingSpec(kind="mult_c"), grid.h)
    scheme = SchemeSpec(kind="explicit_tamed", theta_prime=0.5)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    tree_exact_run(scheme, driver, tree, TerminalSpec((0.0, 1.0)))
    assert len(calls) == steps

    calls.clear()
    grid, batch, ens, xi = _wide_ensemble(steps, paths=300)
    run_backward(scheme, TamedDriver(CUBIC, TamingSpec(kind="mult_c"), grid.h),
                 ens, xi, BasisSpec(size=4))
    assert calls == [300] * steps


def test_untamed_kind_overrides_taming():
    grid = build_grid(1.0, 4)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    term = TerminalSpec((0.0, 1.0))
    tamed = TamedDriver(CUBIC, TamingSpec(kind="inner_proj", r0=0.1, exponent=0.0), grid.h)
    untamed_run = tree_exact_run(SchemeSpec(kind="explicit_untamed"), tamed, tree, term)
    reference = tree_exact_run(SchemeSpec(kind="explicit_tamed"),
                               untamed(CUBIC, grid.h), tree, term)
    np.testing.assert_allclose(untamed_run.Y[0], reference.Y[0], atol=1e-14)


def _reference_tree_run(scheme, tamed, tree, terminal):
    """The hand-written tree recursion the shared backward loop replaced,
    with the dense implicit solve: the reference tree_exact_run must
    reproduce bit for bit."""
    driver = untamed(tamed.base, tamed.h) if scheme.kind == "explicit_untamed" else tamed
    grid = tree.grid
    n, h, theta = grid.steps, grid.h, scheme.theta_prime
    sqrt_h = math.sqrt(h)
    z_coeff = driver.base.z_coeff

    def children(values):
        if tree.recombining:
            return values[:-1], values[1:]
        resh = values.reshape(-1, 2)
        return resh[:, 0], resh[:, 1]

    Y, Z = [None] * (n + 1), [None] * n
    iterations = np.zeros(n, dtype=int)
    Y[n] = np.asarray(terminal(tree.levels[n]), dtype=float)
    exploded, first_bad = False, None
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1, -1, -1):
            down, up = children(Y[i + 1])
            p_down, p_up = children(driver.tamed_y_part(Y[i + 1]))
            f_down = p_down + z_coeff * 0.0
            f_up = p_up + z_coeff * 0.0
            z = ((up + (1.0 - theta) * f_up * h) - (down + (1.0 - theta) * f_down * h)) / (2.0 * sqrt_h)
            if scheme.kind == "implicit":
                y, iterations[i] = _dense_solve_implicit(
                    driver, 0.5 * (down + up), z, h, backward.IMPLICIT_TOL, backward.IMPLICIT_MAX_ITER, i)
            else:
                y = 0.5 * ((down + (p_down + z_coeff * z) * h) + (up + (p_up + z_coeff * z) * h))
            if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
                exploded, first_bad = True, i
                for j in range(i, -1, -1):
                    Y[j] = np.full(tree.node_count(j), np.nan)
                    Z[j] = np.full(tree.node_count(j), np.nan)
                break
            Z[i] = z
            Y[i] = y
    return Y, Z, iterations, exploded, first_bad


def _assert_tree_run_matches_reference(scheme, tamed, tree, terminal):
    out = tree_exact_run(scheme, tamed, tree, terminal)
    Y, Z, iterations, exploded, first_bad = _reference_tree_run(scheme, tamed, tree, terminal)
    assert [level.tobytes() for level in out.Y] == [level.tobytes() for level in Y]
    assert [level.tobytes() for level in out.Z] == [level.tobytes() for level in Z]
    assert out.implicit_iterations.tobytes() == iterations.tobytes()
    assert (out.exploded, out.first_bad_step) == (exploded, first_bad)
    return out


TREE_SDES = {
    "recombining": SdeSpec(x0=0.5, diff_const=1.0),
    "branching": SdeSpec(x0=0.2, drift_const=0.1, diff_const=0.8, diff_slope=0.3),
}


@pytest.mark.parametrize("layout", sorted(TREE_SDES))
@pytest.mark.parametrize("kind", ["none", "inner_proj", "outer_proj",
                                  "mult_a", "mult_b", "mult_c", "mult_d"])
@pytest.mark.parametrize("scheme_kind", ["explicit_tamed", "implicit"])
@pytest.mark.parametrize("theta_prime", [0.0, 0.5, 1.0])
def test_tree_run_bitwise_equals_reference_loop(layout, kind, scheme_kind, theta_prime):
    grid = build_grid(1.0, 9)
    tree = build_tree(TREE_SDES[layout], grid)
    assert tree.recombining == (layout == "recombining")
    driver = TamedDriver(polynomial_driver([0.0, 1.0, 0.0, -1.0], z_coeff=0.5),
                         TamingSpec(kind=kind), grid.h)
    scheme = SchemeSpec(kind=scheme_kind, theta_prime=theta_prime)
    out = _assert_tree_run_matches_reference(scheme, driver, tree, TerminalSpec((0.0, 1.0)))
    assert not out.exploded


@pytest.mark.parametrize("layout", sorted(TREE_SDES))
def test_exploding_tree_run_bitwise_equals_reference_loop(layout):
    grid = build_grid(1.0, 9)
    tree = build_tree(TREE_SDES[layout], grid)
    scheme = SchemeSpec(kind="explicit_untamed", theta_prime=0.5)
    tamed = TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), grid.h)
    out = _assert_tree_run_matches_reference(scheme, tamed, tree, TerminalSpec((0.0, 0.0, 0.0, 30.0)))
    assert out.exploded and 0 < out.first_bad_step < grid.steps - 1


def _tree_sweep(tree, terminal, members, reached):
    """The outputs of (scheme, driver) pairs swept on the tree, unlabelled
    and not required."""
    xi = np.asarray(terminal(tree.levels[tree.steps]), dtype=float)
    (outputs,) = backward.sweep([(backward.TreeOperator(tree.grid, tree.recombining), xi,
                                  [(scheme, tamed, None, False) for scheme, tamed in members])], reached)
    return outputs


@pytest.mark.parametrize("layout", sorted(TREE_SDES))
def test_streamed_tree_run_reports_the_stored_levels(layout):
    # the sweep reports each level it reaches (none past an explosion) and
    # returns the iteration counts and first bad step, with no level
    grid = build_grid(1.0, 9)
    tree = build_tree(TREE_SDES[layout], grid)
    tamed = TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), grid.h)
    for scheme, terminal in ((SchemeSpec(kind="implicit"), TerminalSpec((0.0, 1.0))),
                             (SchemeSpec(kind="explicit_untamed", theta_prime=0.5),
                              TerminalSpec((0.0, 0.0, 0.0, 30.0)))):
        stored = tree_exact_run(scheme, tamed, tree, terminal)
        seen = {}

        def reached(g, i, blocks):
            assert g == 0 and [block.members for block in blocks] in ([], [[0]])
            for block in blocks:
                seen[i] = block.y, block.z

        (out,) = _tree_sweep(tree, terminal, [(scheme, tamed)], reached)
        assert out.Y is None and out.Z is None
        last = stored.first_bad_step if stored.exploded else -1
        assert list(seen) == list(range(grid.steps, last, -1))
        assert all(seen[i][0].tobytes() == stored.Y[i].tobytes() for i in seen)
        assert seen[grid.steps][1] is None
        assert all(seen[i][1].tobytes() == stored.Z[i].tobytes() for i in seen if i < grid.steps)
        assert out.implicit_iterations.tobytes() == stored.implicit_iterations.tobytes()
        assert (out.exploded, out.first_bad_step) == (stored.exploded, stored.first_bad_step)
    assert stored.exploded and stored.first_bad_step > 0


EXPLODING_BLOCK = """
horizon = 1.0
seed = 0
sde.sigma = 2.0
terminal.coeffs = 0,0,0,1
driver.y_poly = 0,0,0,-1
driver.z_coeff = 0.5
driver.m_y = 0
grids = {steps}
paths = 1
basis.size = 1
scheme.1.label = implicit
scheme.1.kind = implicit
scheme.1.taming = none
scheme.2.label = inner
scheme.2.kind = explicit_tamed
scheme.2.taming = inner_proj
scheme.3.label = mult_b
scheme.3.kind = explicit_tamed
scheme.3.taming = mult_b
scheme.4.label = untamed
scheme.4.kind = explicit_untamed
scheme.4.taming = none
"""


@pytest.mark.parametrize("steps, first_bad", [(12, 7), (24, 19)])
def test_an_exploded_row_leaves_its_block_at_its_first_bad_step(steps, first_bad):
    # f = -y^3 + 0.5 z, g = x^3, sigma = 2: the untamed row of the one
    # block explodes at a step where some of its nodes are still finite; it
    # leaves the block there, and the rows beside it keep the block in the
    # sweep down to level 0, every level below the terminal one finite
    cfg = parse_config(EXPLODING_BLOCK.format(steps=steps))
    grid = build_grid(cfg.horizon, steps)
    tree = build_tree(cfg.sde, grid)
    assert tree.recombining
    seen = {}

    def reached(g, i, blocks):
        (block,) = blocks
        assert i == steps or (np.isfinite(block.y).all() and np.isfinite(block.z).all()), i
        seen[i] = block.members

    outputs = _tree_sweep(tree, cfg.terminal, [(run.scheme, TamedDriver(cfg.driver, run.taming, grid.h))
                                               for run in cfg.schemes], reached)
    assert [out.first_bad_step for out in outputs] == [None, None, None, first_bad]
    assert list(seen) == list(range(steps, -1, -1))
    assert all(seen[i] == ([0, 1, 2, 3] if i > first_bad else [0, 1, 2]) for i in seen)


def _tree_group_members(h):
    """The implicit scheme, the six tamings at mixed theta' and an untamed
    explicit scheme that explodes on the terminal 30 x^3, on one base driver."""
    base = polynomial_driver([0.0, 1.0, 0.0, -1.0], z_coeff=0.5)
    explicit = [("inner_proj", 0.5), ("mult_b", 1.0), ("outer_proj", 0.0), ("mult_d", 0.5),
                ("mult_a", 0.0), ("mult_c", 1.0)]
    return [(SchemeSpec(kind="implicit"), TamedDriver(base, NO_TAMING, h))] + [
        (SchemeSpec(kind="explicit_tamed", theta_prime=theta),
         TamedDriver(base, TamingSpec(kind=kind, r0=0.8), h)) for kind, theta in explicit
    ] + [(SchemeSpec(kind="explicit_untamed", theta_prime=0.5),
          TamedDriver(base, TamingSpec(kind="inner_proj"), h))]


@pytest.mark.parametrize("layout", sorted(TREE_SDES))
def test_tree_group_outputs_do_not_depend_on_member_order_or_blocks(layout):
    grid = build_grid(1.0, 9)
    tree = build_tree(TREE_SDES[layout], grid)
    terminal = TerminalSpec((0.0, 0.0, 0.0, 30.0))
    members = _tree_group_members(grid.h)
    # and a second implicit member of the base driver, tamed, at theta' = 1/2
    members.append((SchemeSpec(kind="implicit", theta_prime=0.5),
                    TamedDriver(members[0][1].base, TamingSpec(kind="inner_proj", r0=0.8), grid.h)))
    alone = [tree_exact_run(scheme, tamed, tree, terminal) for scheme, tamed in members]
    assert [out.exploded for out in alone] == [False] * 7 + [True, False]
    assert 0 < alone[7].first_bad_step < grid.steps - 1
    assert all(out.implicit_iterations.all() for out in (alone[0], alone[8]))

    def same(out, ref):
        assert [level.tobytes() for level in out.Y] == [level.tobytes() for level in ref.Y]
        assert [level.tobytes() for level in out.Z] == [level.tobytes() for level in ref.Z]
        assert out.implicit_iterations.tobytes() == ref.implicit_iterations.tobytes()
        assert (out.exploded, out.first_bad_step) == (ref.exploded, ref.first_bad_step)

    # every order of the whole group, and groups of a few members, where
    # the members share one block of rows: the two implicit ones alone, or
    # beside explicit rows
    for order in (range(9), range(8, -1, -1), [3, 7, 8, 0, 5, 1, 6, 2, 4], [4, 2], [7, 1],
                  [0, 6], [8, 0], [8, 7, 3, 0]):
        outputs = tree_group_run([members[k] for k in order], tree, terminal)
        for k, out in zip(order, outputs):
            same(out, alone[k])

    # swept: all nine members as the rows of one block, each level
    # reported; the exploding member leaves it at its first bad step (the
    # implicit rows never explode)
    seen = {}

    def reached(g, i, blocks):
        (block,) = blocks
        assert block.y.shape == (len(block.members), tree.node_count(i))
        seen[i] = dict(zip(block.members, block.y))

    outputs = _tree_sweep(tree, terminal, members, reached)
    assert list(seen) == list(range(grid.steps, -1, -1))
    for k, (out, ref) in enumerate(zip(outputs, alone)):
        assert out.Y is None and out.Z is None
        assert (out.exploded, out.first_bad_step) == (ref.exploded, ref.first_bad_step)
        assert out.implicit_iterations.tobytes() == ref.implicit_iterations.tobytes()
        last = ref.first_bad_step if ref.exploded else -1
        assert [i for i in seen if k in seen[i]] == list(range(grid.steps, last, -1))
        assert all(seen[i][k].tobytes() == ref.Y[i].tobytes() for i in range(grid.steps, last, -1))


def test_tree_group_takes_one_block_y_part_per_level(monkeypatch):
    # one (rows, nodes) y-part per level serves the Z and explicit Y targets
    # of every row, the implicit ones included; the implicit solves
    # evaluate their own drivers on (nodes,) arrays
    blocks, levels = [], []
    tamed_y_part = TamingBlock.tamed_y_part

    def counting(self, y):
        if np.ndim(y) == 2:
            blocks.append(self)
            levels.append(np.shape(y))
        return tamed_y_part(self, y)

    monkeypatch.setattr(TamingBlock, "tamed_y_part", counting)
    grid = build_grid(1.0, 9)
    tree = build_tree(TREE_SDES["recombining"], grid)
    outputs = tree_group_run(_tree_group_members(grid.h), tree, TerminalSpec((0.0, 1.0)))
    assert outputs[0].implicit_iterations.all() and not any(out.exploded for out in outputs)
    assert levels == [(8, tree.node_count(i + 1)) for i in range(grid.steps - 1, -1, -1)]
    assert all(block is blocks[0] for block in blocks)


def test_tree_group_rejects_a_driver_tamed_at_another_step():
    grid = build_grid(1.0, 9)
    tree = build_tree(TREE_SDES["recombining"], grid)
    members = [(SchemeSpec(kind="explicit_tamed"), TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), 0.5))]
    with pytest.raises(ValueError, match=f"driver was tamed at h=0.5, grid has h={grid.h}"):
        tree_group_run(members, tree, TerminalSpec((0.0, 1.0)))


def _sweep_checking_drops(op, xi, members, nodes):
    """Sweep one group, checking at each callback that every block's Y_i,
    Z_i and y-part at Y_{i+1} are C-ordered (rows, nodes(level)) arrays,
    and that no Z level or y-part of the callback before is alive, nor the
    last level of a block that left the lockstep there; and, once the sweep
    has returned, that no level is.  The callback holds weak references
    only.  Returns the outputs, the levels at which a block left and each
    level's block members as the callback saw them."""
    z_refs, y_refs, gone, left, seen = [], [], [], [], {}

    def reached(_, i, blocks):
        for block in blocks:
            rows = len(block.members)
            for level, at in ((block.y, i), (block.z, i), (block.p, i + 1)):
                assert level is None or (level.shape == (rows, nodes(at)) and level.flags.c_contiguous), i
        assert all(ref() is None for ref in z_refs + gone)
        z_refs[:] = [weakref.ref(level) for block in blocks for level in (block.z, block.p)
                     if level is not None]
        gone[:] = [ref for block, ref in y_refs if block() not in blocks]
        y_refs[:] = [(weakref.ref(block), weakref.ref(block.y)) for block in blocks]
        left.extend(i for _ in gone)
        seen[i] = [block.members for block in blocks]

    (outputs,) = backward.sweep([(op, xi, members)], reached)
    assert all(ref() is None for ref in z_refs + gone + [ref for _, ref in y_refs])
    assert all(out.Y is None and out.Z is None for out in outputs)
    return outputs, left, seen


def test_sweep_keeps_no_z_level_and_no_level_of_a_block_that_left():
    # after each callback the sweep drops every Z_i and y-part, and the last
    # Y level of a block whose rows have all exploded: a weak reference to one,
    # taken in one callback, is dead at the next, and none outlives the
    # sweep (a memory bound on the whole study would not see one leaked level)
    grid = build_grid(1.0, 64)
    batch = sample_increments(grid, 2000, 20240, NoiseModel())
    ens = euler_simulate(SdeSpec(x0=0.0, diff_const=1.0), grid, batch)
    xi = terminal_values(TerminalSpec((0.0, 0.0, 0.0, 1.0)), ens)
    members = [(SchemeSpec(kind="implicit"), untamed(CUBIC, grid.h), None, False),
               (SchemeSpec(kind="explicit_untamed"), untamed(CUBIC, grid.h), None, False)]
    op = backward.LsmcOperator(BasisSpec(size=6), backward.ArrayRows(ens.X, batch.H), grid)
    outputs, left, _ = _sweep_checking_drops(op, xi, members, lambda i: 2000)
    assert not outputs[0].exploded
    assert left == [outputs[1].first_bad_step] and left[0] > 0

    # on a tree: the implicit member and an untamed one of another base
    # driver, each a block; then the same two on the tree's enumerated
    # paths (per-prefix averages), and as rows of one block with a tamed
    # member of the exploding one's base driver
    terminal = TerminalSpec((0.0, 0.0, 0.0, 30.0))
    for sde in TREE_SDES.values():
        grid = build_grid(1.0, 9)
        tree = build_tree(sde, grid)
        group = _tree_group_members(grid.h)
        members = [(SchemeSpec(kind="implicit"), untamed(CUBIC, grid.h), None, False),
                   (*group[7], None, False)]
        xi = np.asarray(terminal(tree.levels[-1]), dtype=float)
        op = backward.TreeOperator(tree.grid, tree.recombining)
        outputs, left, _ = _sweep_checking_drops(op, xi, members, tree.node_count)
        assert not outputs[0].exploded
        assert left == [outputs[1].first_bad_step] and left[0] > 0

        ens = enumerate_tree_paths(tree)
        op = backward._path_operator(ExactTreeBasis(), ens)
        outputs, left, _ = _sweep_checking_drops(op, terminal_values(terminal, ens), members,
                                                 lambda i: 2**grid.steps)
        assert not outputs[0].exploded
        assert left == [outputs[1].first_bad_step] and left[0] > 0

        # the three share one block, which the exploding row leaves
        outputs, left, seen = _sweep_checking_drops(
            backward.TreeOperator(tree.grid, tree.recombining), xi,
            [(*member, None, False) for member in group[:2]] + members[1:], tree.node_count)
        first_bad = outputs[2].first_bad_step
        assert 0 < first_bad < grid.steps - 1 and left == []
        assert seen == {i: [[0, 1, 2] if i > first_bad else [0, 1]] for i in range(grid.steps, -1, -1)}


# ---------------------------------------------------------------- closed-form ODE reference

# A constant terminal value c and the x-free driver f = -y^3 make Z = 0 and
# every conditional expectation exact, so the BSDE is the ODE y' = y^3
# backward from y(T) = c: Y_0 = c / sqrt(1 + 2 c^2 T).  A scheme's root
# error is its pure time-discretization error.
ODE_LADDER = (8, 16, 32, 64, 128, 256)
ODE_SCHEMES = {
    "implicit": (SchemeSpec(kind="implicit"), "none"),
    "untamed": (SchemeSpec(kind="explicit_untamed"), "none"),
    "inner_proj": (SchemeSpec(kind="explicit_tamed"), "inner_proj"),
    "outer_proj": (SchemeSpec(kind="explicit_tamed"), "outer_proj"),
}
MULT_KINDS = ("mult_a", "mult_b", "mult_c", "mult_d")


def _ode_run(scheme, kind, c, steps):
    grid = build_grid(1.0, steps)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    return tree_exact_run(scheme, TamedDriver(CUBIC, TamingSpec(kind=kind), grid.h),
                          tree, TerminalSpec((c,)))


def _ode_errors(scheme, kind, c=1.0):
    exact = c / math.sqrt(1.0 + 2.0 * c * c)
    return np.array([_ode_run(scheme, kind, c, n).root_value - exact for n in ODE_LADDER])


def _slope(errors):
    return np.polyfit(np.log([1.0 / n for n in ODE_LADDER]), np.log(np.abs(errors)), 1)[0]


@pytest.mark.parametrize("name", sorted(ODE_SCHEMES))
def test_ode_reference_first_order(name):
    errors = _ode_errors(*ODE_SCHEMES[name])
    # first order in h: measured 0.98 (implicit) and 1.02 (the explicit ones)
    assert 0.9 <= _slope(errors) <= 1.1
    assert np.all(np.abs(errors[1:]) < np.abs(errors[:-1]))


def test_ode_reference_multiplicative_taming_bias():
    untamed_errors = _ode_errors(SchemeSpec(kind="explicit_untamed"), "none")
    # the explicit Euler step decays too much (Y_0 too low), the damping
    # of f too little (Y_0 too high), so at coarse h the two biases cancel
    # in part: mult_a and mult_c fall only from N = 16 on (+0.9 % from
    # N = 8 to 16).  At exponent 1/2 the slopes over the ladder are 0.28
    # (mult_a, mult_c) and 0.34 (mult_b, mult_d), well below 1.
    assert np.all(untamed_errors < 0.0)
    for kind in MULT_KINDS:
        errors = _ode_errors(SchemeSpec(kind="explicit_tamed"), kind)
        assert np.all(errors > 0.0), kind
        assert np.all(errors[2:] < errors[1:-1]), kind
        bias = errors - untamed_errors  # the taming's own share
        assert np.all(bias[1:] < bias[:-1]), kind
        assert 0.2 <= _slope(errors) <= 0.4, kind


@pytest.mark.parametrize("c, steps, explodes", [(6.0, 8, True), (6.0, 16, True), (5.0, 16, False)])
def test_ode_reference_explosion_threshold(c, steps, explodes):
    # y - h y^3 overshoots and grows without bound once h c^2 > 2
    assert (c * c / steps > 2.0) == explodes
    with np.errstate(over="ignore", invalid="ignore"):
        assert _ode_run(SchemeSpec(kind="explicit_untamed"), "none", c, steps).exploded == explodes
    assert not _ode_run(SchemeSpec(kind="implicit"), "none", c, steps).exploded
    for kind in ("inner_proj", "outer_proj") + MULT_KINDS:
        assert not _ode_run(SchemeSpec(kind="explicit_tamed"), kind, c, steps).exploded, kind


def _tree_ladder_implicit(steps):
    """The implicit run of the tree_ladder benchmark workload
    (perfbench/configs/tree_ladder.cfg: x0 = 0.5, sigma = 1, g(x) = x,
    f = -y^3), with its tree."""
    grid = build_grid(1.0, steps)
    tree = build_tree(SdeSpec(x0=0.5, diff_const=1.0), grid)
    return tree, tree_exact_run(SchemeSpec(kind="implicit"), untamed(CUBIC, grid.h), tree,
                                TerminalSpec((0.0, 1.0)))


@needs_long_double
def test_implicit_tree_run_matches_a_long_double_recursion():
    # the run at N = 250 against the same recursion in long double, each
    # level solved by Newton to long-double precision
    steps = 250
    tree, out = _tree_ladder_implicit(steps)
    h = np.longdouble(tree.grid.h)
    y = tree.levels[steps].astype(np.longdouble)  # g(x) = x
    for i in range(steps - 1, -1, -1):
        y = _long_double_root((0.0, 0.0, 0.0, -1.0), h, 0.5 * (y[:-1] + y[1:]))
        # a few ulps of rounding per level (child average and solve), damped
        # by the decaying driver; the tolerance-stopped solve left ~1e-10
        bound = 64 * np.finfo(float).eps * np.max(np.abs(y))
        assert np.max(np.abs(out.Y[i].astype(np.longdouble) - y)) <= bound, i


def test_implicit_tree_roots_match_the_benchmark_reference():
    # the roots the benchmark's tree check compares, to its 1e-10
    reference_path = os.path.join(os.path.dirname(__file__), "..", "perfbench",
                                  "tree_reference.json")
    with open(reference_path, encoding="utf-8") as fh:
        reference = json.load(fh)["implicit"]
    for steps in (250, 500, 1000):
        out = _tree_ladder_implicit(steps)[1]
        want = reference[str(steps)]
        assert abs(out.root_value - want) <= 1e-10 * abs(want), steps


def test_tree_oracle_roots_match_the_benchmark_reference():
    # all seven roots the benchmark's tree check compares, as the tree-oracle
    # CSV writes them (12 significant digits), to its 1e-10
    here = os.path.join(os.path.dirname(__file__), "..", "perfbench")
    with open(os.path.join(here, "tree_reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    cfg = load_config(os.path.join(here, "configs", "tree_ladder.cfg"))
    assert cfg.grids == [250, 500, 1000]
    for steps in cfg.grids:
        report = tree_oracle_study(replace(cfg, grids=[steps]))
        roots = {label: float(f"{lo[0]:.12g}") for label, lo in zip(report.labels, report.mins)}
        assert sorted(roots) == sorted(reference)
        for label, root in roots.items():
            want = reference[label][str(steps)]
            assert abs(root - want) <= 1e-10 * abs(want), (label, steps)


def _count_driver_calls(monkeypatch):
    # TamedDriver.__call__, and every tamed y-part: a block's, or a driver's
    # (TamedDriver.tamed_y_part tames through its block of one)
    calls = {"__call__": 0, "tamed_y_part": 0}
    for owner, name in ((TamedDriver, "__call__"), (TamingBlock, "tamed_y_part")):
        method = getattr(owner, name)

        def counting(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("z_coeff", [0.0, 0.5])
def test_comparison_evaluates_each_tamed_y_part_once_per_level(monkeypatch, z_coeff):
    steps = 16
    grid = build_grid(0.5, steps)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=0.7), grid)
    taming = TamingSpec(kind="inner_proj", r0=0.3)
    hi = TamedDriver(polynomial_driver([0.0, 0.0, 0.0, -1.0], z_coeff=z_coeff), taming, grid.h)
    lo = TamedDriver(polynomial_driver([-0.1, 0.0, 0.0, -1.0], z_coeff=z_coeff), taming, grid.h)
    term = TerminalSpec((0.0, 1.0))
    calls = _count_driver_calls(monkeypatch)
    comparison_check(SchemeSpec(kind="explicit_tamed"), hi, term, lo, term, tree)
    # the two instances' sweep groups (one per level each), whose y-parts
    # the check reuses, then f^{h,1} at the second instance's levels
    assert calls == {"__call__": 0, "tamed_y_part": 2 * steps + steps}


def test_comparison_of_the_untamed_kind_checks_the_drivers_it_runs():
    # the untamed kind runs the untamed drivers, so its margins, B factors
    # and step condition are theirs, whatever taming the drivers passed in
    # carry (the tamed drivers' would read condition 0.645 and min B 0.94
    # beside the 18 violations)
    grid = build_grid(1.0, 16)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    bases = CUBIC, polynomial_driver([-0.1, 0.0, 0.0, -1.0])
    terminals = TerminalSpec((0.0, 1.0)), TerminalSpec((-0.1, 1.0))
    scheme = SchemeSpec(kind="explicit_untamed")
    taming = TamingSpec(kind="inner_proj", r0=0.3)
    reports = [comparison_check(scheme, drivers[0], terminals[0], drivers[1], terminals[1], tree)
               for drivers in ([TamedDriver(base, taming, grid.h) for base in bases],
                               [untamed(base, grid.h) for base in bases])]
    tamed_report, untamed_report = (
        {key: np.asarray(value).tobytes() for key, value in vars(report).items()} for report in reports)
    assert tamed_report == untamed_report
    report = reports[0]
    assert report.violations == 18 and not report.condition_ok
    assert report.condition_value > 18.0 and report.min_b_factor < -2.0


# ---------------------------------------------------------------- storage layout

def test_path_storage_is_level_major(monkeypatch):
    from tamedbsde import backward
    from tamedbsde.experiments import aggregate_to_grid

    fine, coarse = build_grid(1.0, 16), build_grid(1.0, 4)
    model = NoiseModel()
    batch = sample_increments(fine, 300, 5, model)
    tree_paths = enumerate_tree_paths(build_tree(SdeSpec(x0=0.2, drift_slope=0.5), build_grid(1.0, 5)))
    for b in (batch, aggregate_to_grid(batch, fine, coarse, model), tree_paths.increments):
        assert b.dW.flags.c_contiguous and b.H.flags.c_contiguous
    ens = euler_simulate(SdeSpec(x0=0.3, diff_const=1.25), fine, batch)
    assert ens.X.flags.c_contiguous and tree_paths.X.flags.c_contiguous
    assert ens.increments is batch

    # the operator's levels are the ensemble's and the batch's, not copies
    op = backward._path_operator(BasisSpec(size=4), ens)
    assert np.shares_memory(op.rows.X, ens.X) and np.shares_memory(op.rows.H, batch.H)
    assert all(op.rows.X[i].flags.c_contiguous for i in range(fine.steps + 1))
    assert all(op.rows.H[i].flags.c_contiguous for i in range(fine.steps))

    # every row a step reads or writes is a contiguous 1-D array
    rows = []
    design, fit = backward.sample_design, regression.SampleDesign.fit
    y_part = TamedDriver.tamed_y_part
    monkeypatch.setattr(backward, "sample_design", lambda basis, x: rows.append(x) or design(basis, x))
    monkeypatch.setattr(regression.SampleDesign, "fit", lambda self, t: rows.append(t) or fit(self, t))
    monkeypatch.setattr(TamedDriver, "tamed_y_part", lambda self, y: rows.append(y) or y_part(self, y))
    xi = terminal_values(TerminalSpec((0.0, 0.0, 1.0)), ens)
    members = [(SchemeSpec(kind=kind), TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), fine.h))
               for kind in ("explicit_tamed", "implicit")]
    outs = run_backward_group(members, ens, xi, BasisSpec(size=4))
    assert len(rows) > 3 * fine.steps
    assert all(row.ndim == 1 and row.flags.c_contiguous for row in rows)
    for out in outs:
        assert out.Y.flags.c_contiguous and out.Z.flags.c_contiguous


# ---------------------------------------------------------------- qualitative checks

def test_comparison_identical_inputs():
    grid = build_grid(1.0, 6)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    tamed = TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), grid.h)
    term = TerminalSpec((0.0, 1.0))
    report = comparison_check(SchemeSpec(kind="explicit_tamed"), tamed, term, tamed, term, tree)
    assert report.outputs_ordered
    assert report.output_margin == pytest.approx(0.0, abs=1e-14)
    # identical outputs hit the 0/0 convention: beta = 0, so every B is 1
    assert report.min_b_factor == 1.0


def test_comparison_zero_driver_shift():
    grid = build_grid(1.0, 6)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    tamed = untamed(ZERO, grid.h)
    hi = TerminalSpec((1.0, 1.0))
    lo = TerminalSpec((0.0, 1.0))
    scheme = SchemeSpec(kind="explicit_tamed")
    report = comparison_check(scheme, tamed, hi, tamed, lo, tree)
    assert report.outputs_ordered
    assert report.output_margin == pytest.approx(1.0, abs=1e-12)
    out1, out2 = (tree_exact_run(scheme, tamed, tree, term) for term in (hi, lo))
    for d1, d2 in zip(out1.Y, out2.Y):
        np.testing.assert_allclose(d1 - d2, 1.0, atol=1e-12)


def test_comparison_shifted_driver():
    grid = build_grid(0.5, 6)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=0.7), grid)
    taming = TamingSpec(kind="inner_proj", r0=0.3)
    hi = TamedDriver(CUBIC, taming, grid.h)
    lo = TamedDriver(polynomial_driver([-0.1, 0.0, 0.0, -1.0]), taming, grid.h)
    term = TerminalSpec((0.0, 1.0))
    report = comparison_check(SchemeSpec(kind="explicit_tamed"), hi, term, lo, term, tree)
    assert report.condition_ok
    assert report.inputs_ordered
    assert report.outputs_ordered and report.violations == 0


def test_comparison_rejects_implicit_kind():
    grid = build_grid(1.0, 4)
    tree = build_tree(SdeSpec(x0=0.0), grid)
    tamed = untamed(ZERO, grid.h)
    term = TerminalSpec((1.0,))
    with pytest.raises(ValueError, match="explicit"):
        comparison_check(SchemeSpec(kind="implicit"), tamed, term, tamed, term, tree)


def test_comparison_rejects_z_driver_with_partial_theta():
    grid = build_grid(1.0, 4)
    tree = build_tree(SdeSpec(x0=0.0), grid)
    zdrv = untamed(polynomial_driver([0.0], z_coeff=0.5), grid.h)
    term = TerminalSpec((1.0,))
    with pytest.raises(ValueError, match="theta"):
        comparison_check(SchemeSpec(kind="explicit_tamed", theta_prime=0.5),
                         zdrv, term, zdrv, term, tree)


def test_comparison_rejects_an_exploding_instance():
    # the untamed kind explodes on the terminals 30 x^3 and 29 x^3: its
    # block leaves the sweep before level 0, which the check needs
    grid = build_grid(1.0, 9)
    tree = build_tree(TREE_SDES["recombining"], grid)
    tamed = TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), grid.h)
    with pytest.raises(ValueError, match="comparison check needs non-exploded runs"):
        comparison_check(SchemeSpec(kind="explicit_untamed"), tamed, TerminalSpec((0.0, 0.0, 0.0, 30.0)),
                         tamed, TerminalSpec((0.0, 0.0, 0.0, 29.0)), tree)


def test_comparison_peak_memory_is_a_few_levels():
    # the check holds per instance Y_{i+1}, Y_i and Z_i, the sweep's own
    # level, the three tamed y-parts and the step's (down, up) temporaries,
    # plus O(N) per-step minima, never a stored run: 64 levels of N + 1
    # nodes bound those; at N = 1000 the bound is 0.51 MB, where two stored
    # runs alone are 16 MB
    import tracemalloc

    steps = 1000
    grid = build_grid(1.0, steps)
    tree = build_tree(SdeSpec(x0=0.5, diff_const=1.0), grid)
    taming = TamingSpec(kind="inner_proj", r0=1.0, exponent=0.25)
    hi = TamedDriver(polynomial_driver([0.0, 0.0, 0.0, -1.0], z_coeff=0.5), taming, grid.h)
    lo = TamedDriver(polynomial_driver([-0.1, 0.0, 0.0, -1.0], z_coeff=0.5), taming, grid.h)
    term = TerminalSpec((0.0, 1.0))
    bound = 64 * (steps + 1) * 8
    assert tree.recombining and bound < 2**20
    tracemalloc.start()
    try:
        report = comparison_check(SchemeSpec(kind="explicit_tamed"), hi, term, lo, term, tree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.b_factor_min_per_step.shape == (steps,)
    assert peak < bound


def test_positivity_nonnegative_terminal_zero_driver():
    grid = build_grid(1.0, 8)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    out = tree_exact_run(SchemeSpec(kind="explicit_tamed"), untamed(ZERO, grid.h),
                         tree, TerminalSpec((0.0, 0.0, 1.0)))
    assert min(level.min() for level in out.Y) >= 0.0


def test_positivity_zero_solution():
    grid = build_grid(1.0, 8)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    out = tree_exact_run(SchemeSpec(kind="explicit_tamed"), untamed(CUBIC, grid.h),
                         tree, TerminalSpec((0.0,)))
    assert min(level.min() for level in out.Y) == 0.0
    assert max(level.max() for level in out.Y) == 0.0


def test_implicit_monotone_decay():
    # strictly decreasing driver with deterministic nonnegative terminal
    grid = build_grid(1.0, 12)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    out = tree_exact_run(SchemeSpec(kind="implicit"), untamed(CUBIC, grid.h),
                         tree, TerminalSpec((2.0,)))
    maxima = [float(np.max(level)) for level in out.Y]
    assert all(maxima[i] <= maxima[i + 1] + 1e-12 for i in range(12))


def test_pathwise_size_bound():
    # iterated one-step estimate: Y_i^2 + (1/4) E_i[sum_j Z_j^2 h] stays
    # below e^{c (T-t_i)} (max xi^2 + C (T-t_i)) with the derived constants
    for theta in (0.0, 1.0):
        for steps in (4, 8, 12):
            grid = build_grid(1.0, steps)
            tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
            tamed = TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), grid.h)
            term = TerminalSpec((0.0, 1.0))
            out = tree_exact_run(SchemeSpec(kind="explicit_tamed", theta_prime=theta),
                                 tamed, tree, term)
            cons = derive_constants(tamed)
            h = grid.h
            c = 2.0 * cons.mbar_y + (3.0 + 4.0 * theta**2) * cons.k_y**2 * h
            big_c = 2.0 * cons.mbar_t + (3.0 + 4.0 * theta**2) * cons.k_t**2 * h
            xi_sq_max = float(np.max(term(tree.levels[steps]) ** 2))
            acc = np.zeros(tree.levels[steps].size)
            for i in range(steps - 1, -1, -1):
                down, up = (acc[:-1], acc[1:]) if tree.recombining else (acc[0::2], acc[1::2])
                acc = 0.25 * out.Z[i] ** 2 * h + 0.5 * (down + up)
                remaining = 1.0 - grid.times[i]
                bound = math.exp(c * remaining) * (xi_sq_max + big_c * remaining)
                lhs = out.Y[i] ** 2 + acc
                assert np.all(lhs <= bound + 1e-9), (theta, steps, i)


def test_step_size_condition_value():
    grid = build_grid(1.0, 10)
    tamed = TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), grid.h)
    cons = derive_constants(tamed)
    value = step_size_condition(SchemeSpec(kind="explicit_tamed"), cons, 1.0 / math.sqrt(grid.h))
    assert value == pytest.approx(grid.h * cons.l_y)  # z-free driver
