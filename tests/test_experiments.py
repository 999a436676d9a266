import glob
import os

import numpy as np
import pytest

from tamedbsde import (
    ConfigError,
    IncrementBatch,
    NoiseModel,
    ProbePlan,
    SchemeRun,
    SchemeSpec,
    SdeSpec,
    TamedDriver,
    TamingSpec,
    TerminalSpec,
    aggregate_to_grid,
    build_grid,
    build_tree,
    convergence_study,
    emit_csv,
    euler_simulate,
    load_config,
    parse_config,
    polynomial_driver,
    positivity_study,
    run_backward_group,
    sample_increments,
    terminal_values,
    tree_exact_run,
    tree_oracle_study,
    verify_taming_study,
)
from tamedbsde.config import ExperimentConfig
from tamedbsde.experiments import ErrorReport, ErrorRow
from tamedbsde.regression import BasisSpec


def small_config(**overrides):
    base = dict(
        horizon=1.0,
        seed=11,
        sde=SdeSpec(x0=0.0, diff_const=1.0),
        terminal=TerminalSpec((0.0, 1.0)),
        driver=polynomial_driver([0.0, 0.0, 0.0, -1.0]),
        schemes=[
            SchemeRun("implicit", SchemeSpec(kind="implicit"), TamingSpec(kind="none")),
            SchemeRun("inner", SchemeSpec(kind="explicit_tamed"),
                      TamingSpec(kind="inner_proj", r0=1.0, exponent=0.25)),
        ],
        grids=[4, 8, 16],
        paths=2000,
        basis_size=4,
        noise=NoiseModel(),
        output_path="unused.csv",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- aggregation

def test_aggregation_sums_exactly():
    fine = build_grid(1.0, 64)
    coarse = build_grid(1.0, 8)
    model = NoiseModel()
    batch = sample_increments(fine, 500, 3, model)
    agg = aggregate_to_grid(batch, fine, coarse, model)
    sums = batch.dW.reshape(8, 8, 500).sum(axis=1)
    assert np.max(np.abs(agg.dW - sums)) <= 1e-12


def test_aggregation_rejects_non_nested():
    fine = build_grid(1.0, 64)
    model = NoiseModel()
    batch = sample_increments(fine, 10, 3, model)
    with pytest.raises(ValueError, match="nested"):
        aggregate_to_grid(batch, fine, build_grid(1.0, 7), model)


def test_aggregation_rejects_rademacher():
    fine = build_grid(1.0, 8)
    model = NoiseModel(kind="rademacher")
    batch = sample_increments(fine, 10, 3, model)
    with pytest.raises(ValueError, match="rademacher"):
        aggregate_to_grid(batch, fine, build_grid(1.0, 4), model)


def test_aggregation_rejects_lambda_below_floor():
    # a fixed radius that passes at h = 1/64 gives Lambda ~ 0.13 at h = 1/4
    fine = build_grid(1.0, 64)
    model = NoiseModel(kind="truncated_gaussian", radius0=0.2, use_log_schedule=False)
    batch = sample_increments(fine, 10, 3, model)
    with pytest.raises(ValueError, match="Lambda"):
        aggregate_to_grid(batch, fine, build_grid(1.0, 4), model)


def _row_order_sum(dW, stride):
    """Coarse increments from fine rows added one after another: level j is
    ((dW[j*stride] + dW[j*stride + 1]) + ...) + dW[j*stride + stride - 1]."""
    acc = dW[0::stride]
    for j in range(1, stride):
        acc = acc + dW[j::stride]
    return acc


@pytest.mark.parametrize("stride", [2, 8, 16, 256])
def test_aggregation_bitwise_equals_row_order_sum(stride):
    fine = build_grid(1.0, 256)
    coarse = build_grid(1.0, 256 // stride)
    model = NoiseModel()
    batch = sample_increments(fine, 700, 11, model)
    expected = _row_order_sum(batch.dW, stride)
    f_ordered = np.asfortranarray(batch.dW)
    for source in (batch, IncrementBatch(dW=f_ordered, H=f_ordered / fine.h, lam=1.0)):
        agg = aggregate_to_grid(source, fine, coarse, model)
        assert np.array_equal(agg.dW, expected)
        assert np.array_equal(agg.H, expected / coarse.h)
        assert agg.dW.flags.c_contiguous


def test_aggregation_of_a_level_segment_sums_only_its_fine_rows():
    # a run of whole coarse levels [a, b) rebuilt from fine rows
    # a*stride .. b*stride alone gives the same bytes as the full sum
    from tamedbsde.experiments import _sum_to_grids

    fine = build_grid(1.0, 64)
    model = NoiseModel()
    batch = sample_increments(fine, 300, 7, model)
    coarse = [build_grid(1.0, n) for n in (64, 32, 16, 8, 4, 2, 1)]
    for grid, full in zip(coarse, _sum_to_grids(batch.dW, fine, coarse, model)):
        stride = fine.steps // grid.steps
        for a in range(grid.steps):
            for b in range(a + 1, grid.steps + 1):
                rows = batch.dW[a * stride:b * stride]
                part = IncrementBatch(dW=rows, H=rows / fine.h, lam=1.0)
                (seg,) = _sum_to_grids(part.dW, build_grid((b - a) * stride * fine.h, (b - a) * stride),
                                       [build_grid((b - a) * grid.h, b - a)], model)
                assert seg.tobytes() == full[a:b].tobytes()


LADDER_SDE = SdeSpec(x0=0.3, drift_const=0.1, drift_slope=-0.5, diff_const=0.8, diff_slope=0.2)


@pytest.mark.parametrize("noise", [NoiseModel(),
                                   NoiseModel(kind="truncated_gaussian", radius0=2.0,
                                              use_log_schedule=True)],
                         ids=["gaussian", "truncated"])
def test_segment_rebuild_equals_full_run_rows_bitwise(monkeypatch, noise):
    # the study's row source of every grid, rebuilt segment by segment from
    # its checkpoints, gives euler_simulate's X_i and aggregate_to_grid's
    # H_{i+1} byte for byte; the spans are 1, 1, 2, 3, 4, 5, 7, so N = 5,
    # 10 and 80 are not multiples of theirs, and N = 1 is one step
    from tamedbsde import experiments

    monkeypatch.setattr(experiments, "SAMPLE_BLOCK", 128)  # 300 paths in three calls
    cfg = small_config(sde=LADDER_SDE, grids=[1, 2, 5, 10, 20, 40, 80], paths=300, noise=noise)
    grids = [build_grid(cfg.horizon, n) for n in reversed(cfg.grids)]
    fine = grids[0]
    batch = sample_increments(fine, cfg.paths, cfg.seed, noise)
    sources = experiments._grid_paths(cfg, grids)
    assert [rows.span for rows in sources] == [7, 5, 4, 3, 2, 1, 1]
    for grid, rows in zip(grids, sources):
        coarse = batch if grid is fine else aggregate_to_grid(batch, fine, grid, noise)
        ens = euler_simulate(cfg.sde, grid, coarse)
        assert rows.xi.tobytes() == terminal_values(cfg.terminal, ens).tobytes()
        assert len(rows.checkpoints) == -(-grid.steps // rows.span)
        for i in range(grid.steps - 1, -1, -1):
            x, h = rows(i)
            assert x.tobytes() == ens.X[i].tobytes()
            assert h.tobytes() == coarse.H[i].tobytes()
            # one segment of X and H is held at a time
            assert rows.X.shape[0] <= rows.span + 1 and rows.H.shape[0] <= rows.span


def test_checkpoint_pass_blowup_names_the_full_run_path_and_step():
    # multiplicative noise: paths leave the finite range at different
    # steps, on every grid; the checkpoint pass names the same first step,
    # lowest path and N as euler_simulate
    from tamedbsde.experiments import _SegmentRows
    from tamedbsde.forward import ForwardBlowupError

    sde = SdeSpec(x0=1.0, diff_const=0.0, diff_slope=60.0)
    cfg = small_config(sde=sde, grids=[10, 20, 80], paths=400)
    fine = build_grid(cfg.horizon, 80)
    batch = sample_increments(fine, cfg.paths, cfg.seed, cfg.noise)
    seen = set()
    for n in cfg.grids:
        grid = build_grid(cfg.horizon, n)
        coarse = batch if n == 80 else aggregate_to_grid(batch, fine, grid, cfg.noise)
        with pytest.raises(ForwardBlowupError) as full:
            euler_simulate(cfg.sde, grid, coarse)
        with pytest.raises(ForwardBlowupError) as segmented:
            _SegmentRows(cfg, fine, grid, batch.dW)
        assert (segmented.value.path, segmented.value.step) == (full.value.path, full.value.step)
        assert str(segmented.value) == str(full.value) and f"of N={n}" in str(full.value)
        seen.add((full.value.path, full.value.step))
    # the failures are not all at path 0 or in a first segment
    assert any(path > 0 for path, _ in seen) and max(step for _, step in seen) > 3


def test_error_reduction_bitwise_equals_row_mean():
    # each level's mean square, reduced row by row as the study streams the
    # levels, equals the axis-1 mean over the stored (levels, paths) arrays
    rng = np.random.default_rng(4)
    paths, n, stride = 20000, 8, 4
    for _ in range(5):
        Y = rng.standard_normal((n + 1, paths))
        proxy = rng.standard_normal((n * stride + 1, paths))
        expected = np.mean((Y - proxy[::stride]) ** 2, axis=1)
        for i in range(n + 1):
            assert np.mean((Y[i] - proxy[i * stride]) ** 2) == expected[i]


def _grid_outputs(cfg):
    """The study's groups rebuilt from public calls: every configured
    scheme on every grid, from one fine-grid sample, full Y kept."""
    basis = BasisSpec(size=cfg.basis_size)
    fine = build_grid(cfg.horizon, cfg.grids[-1])
    fine_batch = sample_increments(fine, cfg.paths, cfg.seed, cfg.noise)
    outputs = {}
    for n in cfg.grids:
        grid = build_grid(cfg.horizon, n)
        batch = fine_batch if n == fine.steps else aggregate_to_grid(fine_batch, fine, grid, cfg.noise)
        ens = euler_simulate(cfg.sde, grid, batch)
        xi = terminal_values(cfg.terminal, ens)
        members = [(run.scheme, TamedDriver(cfg.driver, run.taming, grid.h)) for run in cfg.schemes]
        outputs[n] = run_backward_group(members, ens, xi, basis)
    return outputs


def test_convergence_errors_bitwise_equal_row_order_formula():
    # the proxy is np.mean over the stacked finest outputs and the error an
    # axis-1 mean over the stored level rows
    cfg = small_config()
    outputs = _grid_outputs(cfg)
    finest = cfg.grids[-1]
    proxy = np.mean([out.Y for out in outputs[finest]], axis=0)
    expected = {}
    for n, group in outputs.items():
        for run, out in zip(cfg.schemes, group):
            diff = out.Y - proxy[::finest // n]
            expected[(run.label, n)] = float(np.max(np.sqrt(np.mean(diff**2, axis=1))))
    report = convergence_study(cfg)
    assert {(row.scheme, row.steps): row.error for row in report.rows} == expected


def test_aggregation_retruncates_at_coarse_radius():
    from tamedbsde import truncation_radius

    fine = build_grid(1.0, 64)
    coarse = build_grid(1.0, 4)
    model = NoiseModel(kind="truncated_gaussian", radius0=2.0, use_log_schedule=True)
    batch = sample_increments(fine, 2000, 9, model)
    agg = aggregate_to_grid(batch, fine, coarse, model)
    radius = truncation_radius(model, coarse.h)
    np.testing.assert_allclose(agg.H * coarse.h, np.clip(agg.dW, -radius, radius), atol=0)
    assert 0.5 <= agg.lam <= 1.0
    # the summed Brownian increments themselves are not clipped
    assert np.max(np.abs(agg.dW)) > radius or agg.dW.shape[1] < 100


# ---------------------------------------------------------------- convergence study

def test_zero_driver_noise_floor():
    cfg = small_config(driver=polynomial_driver([0.0]), grids=[4, 16, 64], paths=5000,
                       basis_size=5)
    report = convergence_study(cfg)
    errors = {}
    for row in report.rows:
        errors.setdefault(row.scheme, {})[row.steps] = row.error
    # all schemes coincide when f = 0; error is pure regression noise and
    # does not grow with N (it vanishes at the finest grid by construction)
    for label in ("implicit", "inner"):
        assert errors[label][64] <= errors[label][4] + 1e-12
        assert errors[label][4] < 0.05


def test_study_peak_memory_is_paths_plus_one_finest_y():
    # X and H of every grid bound what the study holds of the paths (it
    # keeps the fine dW and a few X rows per grid, see the test below); next
    # to them, all it needs is less than one scheme's full Y on the finest
    # grid (two live levels of Y per scheme, no Z, one proxy level, one design)
    import tracemalloc

    cfg = small_config(
        schemes=small_config().schemes + [
            SchemeRun("outer", SchemeSpec(kind="explicit_tamed"),
                      TamingSpec(kind="outer_proj", r0=1.5, exponent=0.5)),
            SchemeRun("mult_d", SchemeSpec(kind="explicit_tamed"),
                      TamingSpec(kind="mult_d", r0=1.0, exponent=0.5))],
        grids=[8, 16, 32, 64, 128], paths=20000, basis_size=6)
    row = cfg.paths * 8  # bytes of one level of one array
    x_and_h = sum((n + 1) + n for n in cfg.grids) * row
    finest_y = (cfg.grids[-1] + 1) * row
    tracemalloc.start()
    try:
        convergence_study(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x_and_h + finest_y


def test_study_peak_memory_is_fine_dw_checkpoints_and_one_segment_per_grid():
    # the study keeps the fine dW, and per grid the X checkpoints and one
    # segment of X and H (span = ceil(sqrt(N/2)) levels: X_a .. X_b and
    # H_{a+1} .. H_b); next to them, the allowance of the test above
    import math
    import tracemalloc

    cfg = small_config(
        schemes=small_config().schemes + [
            SchemeRun("outer", SchemeSpec(kind="explicit_tamed"),
                      TamingSpec(kind="outer_proj", r0=1.5, exponent=0.5)),
            SchemeRun("mult_d", SchemeSpec(kind="explicit_tamed"),
                      TamingSpec(kind="mult_d", r0=1.0, exponent=0.5))],
        grids=[8, 16, 32, 64, 128], paths=20000, basis_size=6)
    row = cfg.paths * 8  # bytes of one level of one array
    spans = {n: math.ceil(math.sqrt(n / 2)) for n in cfg.grids}
    fine_dw = cfg.grids[-1] * row
    per_grid = sum(math.ceil(n / spans[n]) + (spans[n] + 1) + spans[n] for n in cfg.grids) * row
    finest_y = (cfg.grids[-1] + 1) * row
    bound = fine_dw + per_grid + finest_y  # 128 + 96 + 129 rows
    tracemalloc.start()
    try:
        convergence_study(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_study_requires_proxy_scheme():
    cfg = small_config(schemes=[
        SchemeRun("outer", SchemeSpec(kind="explicit_tamed"), TamingSpec(kind="outer_proj"))])
    with pytest.raises(ConfigError, match="proxy"):
        convergence_study(cfg)


def test_exploded_rows_carry_infinite_error():
    cfg = small_config(
        terminal=TerminalSpec((0.0, 0.0, 0.0, 1.0)),
        schemes=[
            SchemeRun("implicit", SchemeSpec(kind="implicit"), TamingSpec(kind="none")),
            SchemeRun("inner", SchemeSpec(kind="explicit_tamed"), TamingSpec(kind="inner_proj")),
            SchemeRun("untamed", SchemeSpec(kind="explicit_untamed"), TamingSpec(kind="none")),
        ],
        grids=[8, 16, 32, 64], paths=4000, basis_size=6, seed=20240)
    report = convergence_study(cfg)
    untamed_rows = [row for row in report.rows if row.scheme == "untamed"]
    assert any(row.exploded for row in untamed_rows)
    assert all(row.error == float("inf") for row in untamed_rows if row.exploded)


def test_overflowing_terminal_values_explode_the_proxy_without_warnings():
    # g(x) = 1e300 x^4 overflows at most paths: the terminal levels' squared
    # errors are reduced inside the sweep's errstate (RuntimeWarnings are
    # errors here), and the proxy scheme explodes at its first step
    from tamedbsde.backward import SchemeExplodedError

    cfg = small_config(terminal=TerminalSpec((0.0, 0.0, 0.0, 0.0, 1e300)), grids=[4, 8], paths=500)
    with pytest.raises(SchemeExplodedError, match=r"proxy scheme '\w+' \(N=8\) exploded at step 7"):
        convergence_study(cfg)


# ---------------------------------------------------------------- positivity / taming studies

def test_positivity_constant_solution():
    cfg = small_config(
        driver=polynomial_driver([0.0]), terminal=TerminalSpec((1.0,)), grids=[10],
        schemes=[SchemeRun("inner", SchemeSpec(kind="explicit_tamed"), TamingSpec(kind="inner_proj"))])
    report = positivity_study(cfg)
    assert report.mins.shape == report.maxs.shape == (1, 11)
    assert np.allclose(report.mins, 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(report.maxs, 1.0, rtol=0.0, atol=1e-12)
    # column i is time t_i
    assert report.times.tolist() == build_grid(cfg.horizon, 10).times.tolist()


def test_positivity_requires_single_grid():
    with pytest.raises(ConfigError, match="one grid"):
        positivity_study(small_config(grids=[4, 8]))


def test_positivity_with_coarse_basis_is_report_only():
    # a basis this small approximates the conditional expectations poorly
    # and may well produce negative minima; that is data, not a failure
    cfg = small_config(
        grids=[10], paths=3000, basis_size=4,
        sde=SdeSpec(x0=0.0, diff_const=1.25),
        terminal=TerminalSpec((0.0, 0.0, 1.0)),
        driver=polynomial_driver([0.0, 0.0, -1.0]),
        schemes=[SchemeRun("inner", SchemeSpec(kind="explicit_tamed"),
                           TamingSpec(kind="inner_proj", r0=0.6))])
    report = positivity_study(cfg)
    assert report.mins.shape == (1, 11)
    assert np.isfinite(report.mins).all()


def test_tree_oracle_study_runs():
    cfg = small_config(
        grids=[10],
        sde=SdeSpec(x0=0.0, diff_const=1.25),
        terminal=TerminalSpec((0.0, 0.0, 1.0)),
        driver=polynomial_driver([0.0, 0.0, -1.0]),
        schemes=[SchemeRun("outer", SchemeSpec(kind="explicit_tamed"),
                           TamingSpec(kind="outer_proj", r0=1.5))])
    report = tree_oracle_study(cfg)
    assert report.mins.min() >= 0.0
    label, cond, ok = report.conditions[0]
    assert label == "outer" and ok and cond < 1.0


UNTAMED = SchemeRun("untamed", SchemeSpec(kind="explicit_untamed"), TamingSpec(kind="none"))


def test_extrema_studies_report_the_condition_of_the_driver_a_scheme_runs():
    # the untamed kind runs the untamed driver whatever taming its entry
    # names, so its step condition is the untamed driver's (the tamed
    # driver's would read 4.99 against 37.5 here)
    dressed = SchemeRun("dressed", SchemeSpec(kind="explicit_untamed"),
                        TamingSpec(kind="inner_proj", r0=1.0, exponent=0.25))
    cfg = small_config(grids=[8], paths=200, schemes=[UNTAMED, dressed])
    for study in (positivity_study, tree_oracle_study):
        (_, dressed_cond, _), (_, plain_cond, _) = study(cfg).conditions
        assert dressed_cond == plain_cond > 30.0, study.__name__


def _extrema_bits(report):
    return report.labels, report.times.tobytes(), report.mins.tobytes(), report.maxs.tobytes()


def _stored_extrema_bits(runs, outputs, times):
    """_extrema_bits of stored outputs, each level reduced by the axis-1
    min and max over the (N+1, paths) Y (over each level's nodes on a
    tree)."""
    mins, maxs = [], []
    for out in outputs:
        if isinstance(out.Y, list):
            mins.append([np.min(v) for v in out.Y])
            maxs.append([np.max(v) for v in out.Y])
        else:
            mins.append(np.min(out.Y, axis=1))
            maxs.append(np.max(out.Y, axis=1))
    return ([run.label for run in runs], np.asarray(times).tobytes(),
            np.array(mins).tobytes(), np.array(maxs).tobytes())


@pytest.mark.parametrize("noise", [NoiseModel(), NoiseModel(kind="truncated_gaussian", radius0=2.0,
                                                            use_log_schedule=False)],
                         ids=["gaussian", "truncated"])
def test_streamed_positivity_study_bitwise_equals_stored_outputs(noise):
    # the untamed scheme explodes mid-run: its levels from step 6 down are NaN
    cfg = small_config(terminal=TerminalSpec((0.0, 0.0, 0.0, 1.0)), grids=[12], noise=noise,
                       schemes=small_config().schemes + [UNTAMED])
    grid = build_grid(cfg.horizon, 12)
    batch = sample_increments(grid, cfg.paths, cfg.seed, cfg.noise)
    ens = euler_simulate(cfg.sde, grid, batch)
    runs = sorted(cfg.schemes, key=lambda run: run.label)
    members = [(run.scheme, TamedDriver(cfg.driver, run.taming, grid.h)) for run in runs]
    outputs = run_backward_group(members, ens, terminal_values(cfg.terminal, ens),
                                 BasisSpec(size=cfg.basis_size))
    assert [out.first_bad_step for out in outputs] == [None, None, 6]
    report = positivity_study(cfg)
    assert _extrema_bits(report) == _stored_extrema_bits(runs, outputs, grid.times)
    assert np.isnan(report.mins).sum() == 7


@pytest.mark.parametrize("sde", [SdeSpec(x0=0.5, diff_const=1.0),
                                 SdeSpec(x0=0.2, drift_slope=0.5, diff_const=0.8)],
                         ids=["recombining", "branching"])
def test_streamed_tree_oracle_study_bitwise_equals_stored_runs(sde):
    cfg = small_config(sde=sde, grids=[9], terminal=TerminalSpec((0.0, 0.0, 0.0, 30.0)),
                       schemes=small_config().schemes + [UNTAMED])
    grid = build_grid(cfg.horizon, 9)
    tree = build_tree(sde, grid)
    assert tree.recombining == (sde.drift_slope == 0.0)
    runs = sorted(cfg.schemes, key=lambda run: run.label)
    outputs = [tree_exact_run(run.scheme, TamedDriver(cfg.driver, run.taming, grid.h), tree, cfg.terminal)
               for run in runs]
    assert [out.exploded for out in outputs] == [False, False, True]
    assert 0 < outputs[-1].first_bad_step < grid.steps - 1
    report = tree_oracle_study(cfg)
    assert _extrema_bits(report) == _stored_extrema_bits(runs, outputs, grid.times)


def test_tree_oracle_peak_memory_is_the_extrema_and_a_few_levels():
    # the study holds the (schemes, N+1) mins and maxs and levels of at
    # most N+1 nodes, never the tree: two forward levels and their Euler
    # temporaries while the tree is streamed, then per block Y_{i+1}, the
    # tamed y-part, Z_i, Y_i and the step's temporaries (a children sum is
    # two levels).  Twelve levels of each scheme's row bound those; at
    # N = 1000 the bound is 0.78 MB, where the stored tree alone is 4 MB
    import tracemalloc
    from dataclasses import replace

    cfg = replace(load_config(os.path.join(ROOT, "perfbench", "configs", "tree_ladder.cfg")),
                  grids=[1000])
    n, schemes = cfg.grids[0], len(cfg.schemes)
    level = (n + 1) * 8  # bytes of the largest level of one row
    bound = (2 + 12) * schemes * level
    assert bound < 2**20
    tracemalloc.start()
    try:
        tree_oracle_study(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def _documented_extrema_csv(report):
    """`scheme,i,t,min_Y,max_Y` and one line per scheme and step, each
    scheme's from step N down to 0, the numbers with 12 significant digits."""
    n = report.times.size - 1
    return "".join(["scheme,i,t,min_Y,max_Y\n"] + [
        f"{label},{i},{report.times[i]:.12g},{report.mins[k, i]:.12g},{report.maxs[k, i]:.12g}\n"
        for k, label in enumerate(report.labels) for i in range(n, -1, -1)])


@pytest.mark.parametrize("study", [positivity_study, tree_oracle_study])
def test_extrema_csv_from_arrays_equals_the_documented_rows(tmp_path, study):
    # the untamed scheme explodes mid-run, so nan lines are written too
    cfg = small_config(sde=SdeSpec(x0=0.5, diff_const=1.0), grids=[9],
                       terminal=TerminalSpec((0.0, 0.0, 0.0, 30.0)),
                       schemes=small_config().schemes + [UNTAMED])
    report = study(cfg)
    path = tmp_path / "extrema.csv"
    emit_csv(report, str(path))
    text = path.read_bytes().decode("utf-8")
    assert text == _documented_extrema_csv(report)
    assert "nan" in text and report.mins.shape == report.maxs.shape == (3, 10)
    assert report.labels == ["implicit", "inner", "untamed"]


WIDE = """
horizon = 1.0
seed = 5
sde.sigma = 1.25
terminal.coeffs = 0,0,1
driver.y_poly = 0,0,-1
driver.m_y = 0
driver.l_y = 1
grids = 10
paths = 20000
basis.size = 12
scheme.1.label = implicit
scheme.1.kind = implicit
scheme.1.taming = none
scheme.2.label = inner
scheme.2.kind = explicit_tamed
scheme.2.taming = inner_proj
scheme.2.r0 = 0.6
scheme.3.label = outer
scheme.3.kind = explicit_tamed
scheme.3.taming = outer_proj
scheme.3.r0 = 1.5
scheme.4.label = mult_c
scheme.4.kind = explicit_tamed
scheme.4.taming = mult_c
scheme.4.r0 = 1.2
scheme.5.label = mult_d
scheme.5.kind = explicit_tamed
scheme.5.taming = mult_d
scheme.5.r0 = 1.0
"""


def test_positivity_peak_memory_is_paths_designs_and_two_levels():
    # X, dW and H (dW only until Euler has run); next to them, one step's
    # design, its SVD factor, LAPACK's copy and the fitted values, and two
    # live levels of Y per scheme, no Z
    import tracemalloc

    cfg = parse_config(WIDE)
    n, schemes = cfg.grids[0], len(cfg.schemes)
    row = cfg.paths * 8  # bytes of one level of one array
    bound = ((n + 1) + 2 * n + 4 * cfg.basis_size + 2 * schemes) * row
    tracemalloc.start()
    try:
        positivity_study(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_verify_taming_witness_behavior():
    cfg = small_config(grids=[8, 32, 128, 512, 2048], schemes=[
        SchemeRun("inner_critical", SchemeSpec(kind="explicit_tamed"),
                  TamingSpec(kind="inner_proj", r0=1.0)),
        SchemeRun("inner_bad", SchemeSpec(kind="explicit_tamed"),
                  TamingSpec(kind="inner_proj", r0=1.0, exponent=1.0)),
        SchemeRun("untamed", SchemeSpec(kind="explicit_untamed"), TamingSpec(kind="none")),
    ], probe=ProbePlan(y_max=30.0, samples=2500))
    report = verify_taming_study(cfg)
    rows = {label: [] for label in ("inner_critical", "inner_bad", "untamed")}
    for row in report.rows:
        rows[row.taming].append(row)
    critical = [row.constants.k_y_sq_h for row in rows["inner_critical"]]
    assert max(critical) - min(critical) < 1e-12
    bad = [row.constants.k_y_sq_h for row in rows["inner_bad"]]
    assert bad == sorted(bad) and bad[-1] > 10 * bad[0]
    flags = report.witness_growth()
    assert flags["inner_bad"] and not flags["inner_critical"]
    # the untamed driver carries no finite global Lipschitz constant
    assert all(not row.checks["lipschitz_y"] for row in rows["untamed"])
    assert all(row.checks["growth"] for row in rows["untamed"])


# ---------------------------------------------------------------- csv

def test_empty_report_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv(ErrorReport(rows=[], proxy_labels=[], seed=0), str(path))
    assert path.read_text() == "scheme,N,h,error,wallclock_ms,exploded,seed\n"


def test_single_row_two_lines(tmp_path):
    path = tmp_path / "one.csv"
    row = ErrorRow("inner", 8, 0.125, 0.0123456789012345, 17.5, False)
    emit_csv(ErrorReport(rows=[row], proxy_labels=["inner"], seed=42), str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "inner,8,0.125,0.0123456789012,0,false,42"


def test_exploded_row_uses_inf_literal(tmp_path):
    path = tmp_path / "inf.csv"
    row = ErrorRow("untamed", 8, 0.125, float("inf"), 1.0, True)
    emit_csv(ErrorReport(rows=[row], proxy_labels=[], seed=7), str(path))
    assert path.read_text().splitlines()[1] == "untamed,8,0.125,inf,0,true,7"


def test_rerun_is_byte_identical(tmp_path):
    cfg = small_config(paths=500, grids=[4, 8])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(convergence_study(cfg), str(a))
    emit_csv(convergence_study(cfg), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_timing_sidecar(tmp_path):
    cfg = small_config(paths=500, grids=[4, 8])
    out = tmp_path / "run.csv"
    emit_csv(convergence_study(cfg), str(out))
    sidecar = tmp_path / "run.timings.csv"
    assert sidecar.exists()
    walls = [float(line.split(",")[4]) for line in sidecar.read_text().splitlines()[1:]]
    assert all(w > 0.0 for w in walls)


# ---------------------------------------------------------------- config text format

GOOD = """
# example
horizon = 1.0
seed = 7
sde.sigma = 1.25
terminal.coeffs = 0,0,1
driver.y_poly = 0,0,-1
driver.m_y = 0
driver.l_y = 1
grids = 10
paths = 100
basis.size = 12
scheme.1.label = inner
scheme.1.kind = explicit_tamed
scheme.1.taming = inner_proj
scheme.1.r0 = 0.6
output = out.csv
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.sde.diff_const == 1.25
    assert cfg.driver.y_coeffs == (0.0, 0.0, -1.0)
    assert cfg.driver.constants.m_y == 0.0
    assert cfg.driver.constants.l_y == 1.0
    assert cfg.schemes[0].taming.kind == "inner_proj"
    assert cfg.schemes[0].taming.r0 == 0.6
    assert cfg.basis_size == 12


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(ROOT, "scripts", "*.cfg"))
                         + glob.glob(os.path.join(ROOT, "perfbench", "configs", "*.cfg")))


def test_shipped_configs_are_found():
    assert len(SHIPPED_CONFIGS) >= 7


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
def test_shipped_config_loads(path):
    assert load_config(path).schemes


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config(GOOD + "sde.rho = 3\n")


def test_non_nested_grids_rejected():
    with pytest.raises(ConfigError, match="nested"):
        parse_config(GOOD.replace("grids = 10", "grids = 6,8"))


def test_missing_scheme_rejected():
    text = "\n".join(line for line in GOOD.splitlines() if not line.startswith("scheme."))
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(text)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(GOOD + "seed = 8\n")
