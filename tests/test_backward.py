import math

import numpy as np
import pytest

from tamedbsde import (
    BasisSpec,
    ExactTreeBasis,
    NoiseModel,
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
    polynomial_driver,
    positivity_report,
    run_backward,
    run_backward_group,
    sample_increments,
    terminal_values,
    tree_exact_run,
    zeta_diagnostic,
)
from tamedbsde import regression
from tamedbsde.backward import step_size_condition
from tamedbsde.regression import fit_basis, predict
from tamedbsde.trees import path_node_index

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


def test_branching_levels_and_cap():
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0, diff_slope=0.3), build_grid(1.0, 5))
    assert not tree.recombining
    assert [lvl.size for lvl in tree.levels] == [1, 2, 4, 8, 16, 32]
    with pytest.raises(ValueError, match="cap"):
        build_tree(SdeSpec(x0=0.0, diff_slope=0.3), build_grid(1.0, 15))


def test_state_dependent_drift_breaks_recombination():
    tree = build_tree(SdeSpec(x0=0.0, drift_slope=0.5, diff_const=1.0), build_grid(1.0, 3))
    assert not tree.recombining


def test_enumerated_paths_visit_tree_nodes():
    tree = build_tree(SdeSpec(x0=0.1, drift_const=0.2, diff_const=0.7, diff_slope=0.1),
                      build_grid(1.0, 6))
    ens = enumerate_tree_paths(tree)
    for level in range(7):
        idx = path_node_index(tree, level)
        np.testing.assert_array_equal(ens.X[:, level], tree.levels[level][idx])


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
    mc = run_backward(scheme, tamed, ens, xi, ens.increments, ExactTreeBasis(steps=8))
    tr = tree_exact_run(scheme, tamed, tree, term)
    for level in range(9):
        idx = path_node_index(tree, level)
        np.testing.assert_allclose(mc.Y[:, level], tr.Y[level][idx], atol=1e-8)


def test_regression_backend_closed_form():
    # constant terminal makes Y deterministic, so any basis is sufficient
    grid = build_grid(1.0, 10)
    batch = sample_increments(grid, 500, 1, 4, NoiseModel())
    ens = euler_simulate(SdeSpec(x0=0.0, diff_const=0.8), grid, batch)
    xi = np.full(500, 1.0)
    out = run_backward(SchemeSpec(kind="explicit_tamed"), untamed(LINEAR, grid.h),
                       ens, xi, batch, BasisSpec(size=3))
    np.testing.assert_allclose(out.Y[:, 0], (1.0 - grid.h) ** 10, atol=1e-9)


def _wide_ensemble(steps, paths=3000):
    grid = build_grid(1.0, steps)
    batch = sample_increments(grid, paths, 1, 31, NoiseModel())
    ens = euler_simulate(SdeSpec(x0=0.3, diff_const=1.25), grid, batch)
    xi = terminal_values(TerminalSpec((0.0, 0.0, 1.0)), ens)
    return grid, batch, ens, xi


@pytest.mark.parametrize("theta_prime", [1.0, 0.5])
def test_step_projection_bitwise_equals_fit_then_predict(theta_prime):
    grid, batch, ens, xi = _wide_ensemble(6)
    basis = BasisSpec(size=12, standardize=True)
    tamed = TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), grid.h)
    out = run_backward(SchemeSpec(kind="explicit_tamed", theta_prime=theta_prime),
                       tamed, ens, xi, batch, basis)
    assert not out.exploded
    h = grid.h
    for i in range(grid.steps):
        t, x, y_next = grid.times[i], ens.X[:, i], out.Y[:, i + 1]
        z_target = (y_next + (1.0 - theta_prime) * tamed(t, y_next, 0.0) * h) * batch.H[:, i, 0]
        z_i = predict(fit_basis(basis, x, z_target), basis, x)
        assert np.array_equal(out.Z[:, i, 0], z_i), i
        y_target = y_next + tamed(t, y_next, z_i) * h
        assert np.array_equal(out.Y[:, i], predict(fit_basis(basis, x, y_target), basis, x)), i


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
                       ens, xi, batch, BasisSpec(size=6))
    assert not out.exploded
    # two projections (Z, then E_i[Y_{i+1}]) per step share one design
    assert calls == {"design": steps, "fit": 2 * steps}


def _assert_same_output(a, b):
    assert np.array_equal(a.Y, b.Y, equal_nan=True)
    assert np.array_equal(a.Z, b.Z, equal_nan=True)
    for name in ("max_abs_y", "min_y", "z_fit_rank", "z_fit_sv", "y_fit_rank", "y_fit_sv",
                 "implicit_iterations"):
        assert np.array_equal(getattr(a.diagnostics, name), getattr(b.diagnostics, name),
                              equal_nan=True), name
    assert (a.exploded, a.first_bad_step) == (b.exploded, b.first_bad_step)


def test_group_membership_does_not_change_outputs(monkeypatch):
    steps = 8
    grid, batch, ens, xi = _wide_ensemble(steps, paths=1000)
    basis = BasisSpec(size=12, standardize=True)
    h = grid.h
    members = [
        (SchemeSpec(kind="implicit"), untamed(CUBIC, h)),
        (SchemeSpec(kind="explicit_tamed"), TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), h)),
        (SchemeSpec(kind="explicit_tamed", theta_prime=0.5),
         TamedDriver(CUBIC, TamingSpec(kind="mult_c"), h)),
        (SchemeSpec(kind="explicit_untamed"), untamed(CUBIC, h)),
    ]
    solo = [run_backward(scheme, tamed, ens, xi, batch, basis) for scheme, tamed in members]
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
    group = run_backward_group(members, ens, xi, batch, basis)
    assert calls == {"design": steps, "factorize": steps}
    reversed_group = run_backward_group(members[::-1], ens, xi, batch, basis)[::-1]
    for alone, together, backwards in zip(solo, group, reversed_group):
        _assert_same_output(alone, together)
        _assert_same_output(alone, backwards)


def test_terminal_column_is_exact():
    grid = build_grid(1.0, 4)
    batch = sample_increments(grid, 50, 1, 6, NoiseModel())
    ens = euler_simulate(SdeSpec(x0=0.0), grid, batch)
    xi = terminal_values(TerminalSpec((0.0, 1.0)), ens)
    out = run_backward(SchemeSpec(kind="explicit_tamed"), untamed(ZERO, grid.h),
                       ens, xi, batch, BasisSpec(size=3))
    np.testing.assert_array_equal(out.Y[:, -1], xi)


def test_explosion_is_flagged_not_raised():
    grid = build_grid(1.0, 64)
    batch = sample_increments(grid, 2000, 1, 20240, NoiseModel())
    ens = euler_simulate(SdeSpec(x0=0.0, diff_const=1.0), grid, batch)
    xi = terminal_values(TerminalSpec((0.0, 0.0, 0.0, 1.0)), ens)
    out = run_backward(SchemeSpec(kind="explicit_untamed"), untamed(CUBIC, grid.h),
                       ens, xi, batch, BasisSpec(size=6))
    assert out.exploded
    assert out.first_bad_step is not None
    # partial data: columns above the bad step are still populated
    assert np.all(np.isfinite(out.Y[:, -1]))
    assert np.all(np.isnan(out.Y[:, 0]))


def test_implicit_guard():
    grid = build_grid(1.0, 2)  # h = 0.5
    base = polynomial_driver([0.0, 3.0])  # M_y = 3, h*M_y = 1.5
    tree = build_tree(SdeSpec(x0=0.0), grid)
    with pytest.raises(ValueError, match="guard"):
        tree_exact_run(SchemeSpec(kind="implicit"), untamed(base, grid.h), tree, TerminalSpec((1.0,)))


def test_implicit_non_convergence_names_path_and_step():
    from tamedbsde.backward import ImplicitSolverError

    grid = build_grid(1.0, 4)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    starved = SchemeSpec(kind="implicit", implicit_max_iter=1)
    with pytest.raises(ImplicitSolverError) as err:
        tree_exact_run(starved, untamed(CUBIC, grid.h), tree, TerminalSpec((2.0,)))
    assert err.value.step == 3
    assert "path" in str(err.value)


def _dense_solve_implicit(driver, c, z, h, tol, max_iter, step):
    """The implicit solve iterating on every path until all have converged:
    the reference the active-set solve must reproduce bit for bit."""
    from tamedbsde.backward import ImplicitSolverError

    ctil = c + h * driver.base.z_coeff * np.asarray(z, dtype=float)
    y = ctil.copy()
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        fy = driver.tamed_y_part(y)
        res = y - ctil - h * fy
        done = np.abs(res) <= tol * (1.0 + np.abs(y))
        if done.all():
            break
        slope = driver.y_slope(y)
        fp_next = ctil + h * fy
        newton_next = y - res / np.maximum(1.0 - h * slope, 0.1)
        y_next = np.where(h * np.abs(slope) <= 0.5, fp_next, newton_next)
        res_next = y_next - ctil - h * driver.tamed_y_part(y_next)
        worse = np.abs(res_next) > np.abs(res)
        y_next = np.where(worse, 0.5 * (y + y_next), y_next)
        y = np.where(done, y, y_next)
    else:
        res = y - ctil - h * driver.tamed_y_part(y)
        bad = np.abs(res) > tol * (1.0 + np.abs(y))
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
        y, it = _solve_implicit(driver, 0.0, c, z, h, 1e-12, 50, 3)
    assert it == it_ref > 1
    assert y.tobytes() == y_ref.tobytes()


@pytest.mark.parametrize("max_iter", [1, 2])
def test_starved_active_set_solve_names_dense_path(max_iter):
    from tamedbsde.backward import ImplicitSolverError, _solve_implicit

    h = 0.25
    driver = TamedDriver(polynomial_driver([0.0, 1.0, 0.0, -1.0], z_coeff=0.5),
                         TamingSpec(kind="mult_b"), h)
    c, z = _implicit_inputs()
    c[0], z[0] = 0.0, 0.0  # path 0 converges at once
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ImplicitSolverError) as ref:
            _dense_solve_implicit(driver, c, z, h, 1e-12, max_iter, 4)
        with pytest.raises(ImplicitSolverError) as err:
            _solve_implicit(driver, 0.0, c, z, h, 1e-12, max_iter, 4)
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
    # f = -y contracts (h |f'| <= 1/2): fixed-point steps, none of them halved
    driver = untamed(LINEAR, h)
    c = np.linspace(-3.0, 3.0, 101)
    y, it = _solve_implicit(driver, 0.0, c, np.zeros_like(c), h, 1e-12, 50, 0)
    np.testing.assert_allclose(y, c / (1.0 + h), rtol=1e-11, atol=1e-11)
    # f^h at the start, then once per further iteration at the candidate
    assert it > 5
    assert len(calls) == it


def test_one_tamed_y_part_per_explicit_step(monkeypatch):
    calls = []
    tamed_y_part = TamedDriver.tamed_y_part

    def counting(self, y):
        calls.append(np.size(y))
        return tamed_y_part(self, y)

    monkeypatch.setattr(TamedDriver, "tamed_y_part", counting)
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
                 ens, xi, batch, BasisSpec(size=4))
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
                    driver, 0.5 * (down + up), z, h, scheme.implicit_tol, scheme.implicit_max_iter, i)
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


def _count_driver_calls(monkeypatch):
    calls = {"__call__": 0, "tamed_y_part": 0}
    for name in calls:
        method = getattr(TamedDriver, name)

        def counting(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(TamedDriver, name, counting)
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
    # two tree runs (one per level each), then f^{h,1} at both outputs and
    # f^{h,2} at the second, once per level
    assert calls == {"__call__": 0, "tamed_y_part": 2 * steps + 3 * steps}


def test_tree_zeta_evaluates_the_tamed_y_part_once_per_level(monkeypatch):
    steps = 16
    grid = build_grid(1.0, steps)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    tamed = TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), grid.h)
    out = tree_exact_run(SchemeSpec(kind="explicit_tamed", theta_prime=0.5), tamed,
                         tree, TerminalSpec((0.0, 1.0)))
    calls = _count_driver_calls(monkeypatch)
    zeta_diagnostic(out, tamed)
    assert calls == {"__call__": 0, "tamed_y_part": steps}


# ---------------------------------------------------------------- zeta / D diagnostics

def test_d_vanishes_for_theta_zero_zfree():
    grid = build_grid(1.0, 8)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    tamed = TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), grid.h)
    out = tree_exact_run(SchemeSpec(kind="explicit_tamed", theta_prime=0.0), tamed,
                         tree, TerminalSpec((0.0, 1.0)))
    diag = zeta_diagnostic(out, tamed)
    assert max(np.max(np.abs(d)) for d in diag.D) < 1e-14


def test_d_vanishes_for_zero_driver():
    grid = build_grid(1.0, 8)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    tamed = untamed(ZERO, grid.h)
    for theta in (0.0, 0.5, 1.0):
        out = tree_exact_run(SchemeSpec(kind="explicit_tamed", theta_prime=theta), tamed,
                             tree, TerminalSpec((0.0, 1.0)))
        diag = zeta_diagnostic(out, tamed)
        assert max(np.max(np.abs(d)) for d in diag.D) < 1e-14


def test_d_for_theta_one_matches_direct_tree_value():
    norms_by_n = {}
    for steps in (4, 8, 16):
        grid = build_grid(1.0, steps)
        tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
        tamed = TamedDriver(CUBIC, TamingSpec(kind="inner_proj"), grid.h)
        out = tree_exact_run(SchemeSpec(kind="explicit_tamed", theta_prime=1.0), tamed,
                             tree, TerminalSpec((0.0, 1.0)))
        diag = zeta_diagnostic(out, tamed)
        sqrt_h = math.sqrt(grid.h)
        for i in range(steps):
            down, up = out.Y[i + 1][:-1], out.Y[i + 1][1:]
            t = grid.times[i]
            direct = -0.5 * (tamed(t, up, out.Z[i]) / sqrt_h
                             - tamed(t, down, out.Z[i]) / sqrt_h) * grid.h
            np.testing.assert_allclose(diag.D[i], direct, atol=1e-12)
        assert np.all(np.isfinite(diag.norms))
        norms_by_n[steps] = float(np.sum(diag.norms))
    assert norms_by_n[16] < norms_by_n[8] < norms_by_n[4]


def test_zeta_on_regression_backend():
    grid = build_grid(1.0, 6)
    batch = sample_increments(grid, 4000, 1, 12, NoiseModel())
    ens = euler_simulate(SdeSpec(x0=0.0, diff_const=1.0), grid, batch)
    xi = terminal_values(TerminalSpec((0.0, 1.0)), ens)
    tamed = untamed(ZERO, grid.h)
    basis = BasisSpec(size=4)
    out = run_backward(SchemeSpec(kind="explicit_tamed"), tamed, ens, xi, batch, basis)
    diag = zeta_diagnostic(out, tamed, ensemble=ens, batch=batch, basis=basis)
    assert np.max(np.abs(diag.D)) < 1e-10
    assert diag.norms.shape == (6,)


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
    report = comparison_check(SchemeSpec(kind="explicit_tamed"), tamed, hi, tamed, lo, tree)
    assert report.outputs_ordered
    for d1, d2 in zip(report.output_1.Y, report.output_2.Y):
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


def test_positivity_nonnegative_terminal_zero_driver():
    grid = build_grid(1.0, 8)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    out = tree_exact_run(SchemeSpec(kind="explicit_tamed"), untamed(ZERO, grid.h),
                         tree, TerminalSpec((0.0, 0.0, 1.0)))
    assert positivity_report(out).global_min >= 0.0


def test_positivity_zero_solution():
    grid = build_grid(1.0, 8)
    tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
    out = tree_exact_run(SchemeSpec(kind="explicit_tamed"), untamed(CUBIC, grid.h),
                         tree, TerminalSpec((0.0,)))
    report = positivity_report(out)
    assert report.global_min == 0.0
    assert np.max(report.per_step_max) == 0.0


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
    value = step_size_condition(SchemeSpec(kind="explicit_tamed"), tamed, 1.0 / math.sqrt(grid.h))
    assert value == pytest.approx(grid.h * cons.l_y)  # z-free driver
