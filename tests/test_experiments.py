import numpy as np
import pytest

from tamedbsde import (
    ConfigError,
    NoiseModel,
    ProbePlan,
    SchemeRun,
    SchemeSpec,
    SdeSpec,
    TamingSpec,
    TerminalSpec,
    aggregate_to_grid,
    build_grid,
    convergence_study,
    emit_csv,
    parse_config,
    polynomial_driver,
    positivity_study,
    sample_increments,
    tree_oracle_study,
    verify_taming_study,
)
from tamedbsde.config import ExperimentConfig
from tamedbsde.experiments import ErrorReport, ErrorRow


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
        basis_standardize=True,
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
    batch = sample_increments(fine, 500, 1, 3, model)
    agg = aggregate_to_grid(batch, fine, coarse, model)
    sums = batch.dW.reshape(500, 8, 8, 1).sum(axis=2)
    assert np.max(np.abs(agg.dW - sums)) <= 1e-12


def test_aggregation_rejects_non_nested():
    fine = build_grid(1.0, 64)
    model = NoiseModel()
    batch = sample_increments(fine, 10, 1, 3, model)
    with pytest.raises(ValueError, match="nested"):
        aggregate_to_grid(batch, fine, build_grid(1.0, 7), model)


def test_aggregation_rejects_rademacher():
    fine = build_grid(1.0, 8)
    model = NoiseModel(kind="rademacher")
    batch = sample_increments(fine, 10, 1, 3, model)
    with pytest.raises(ValueError, match="rademacher"):
        aggregate_to_grid(batch, fine, build_grid(1.0, 4), model)


def test_aggregation_rejects_lambda_below_floor():
    # a fixed radius that passes at h = 1/64 gives Lambda ~ 0.13 at h = 1/4
    fine = build_grid(1.0, 64)
    model = NoiseModel(kind="truncated_gaussian", radius0=0.2)
    batch = sample_increments(fine, 10, 1, 3, model)
    with pytest.raises(ValueError, match="Lambda"):
        aggregate_to_grid(batch, fine, build_grid(1.0, 4), model)


def test_aggregation_retruncates_at_coarse_radius():
    from tamedbsde import truncation_radius

    fine = build_grid(1.0, 64)
    coarse = build_grid(1.0, 4)
    model = NoiseModel(kind="truncated_gaussian", radius0=2.0, use_log_schedule=True)
    batch = sample_increments(fine, 2000, 1, 9, model)
    agg = aggregate_to_grid(batch, fine, coarse, model)
    radius = truncation_radius(model, coarse.h)
    np.testing.assert_allclose(agg.H * coarse.h, np.clip(agg.dW, -radius, radius), atol=0)
    assert 0.5 <= agg.lam <= 1.0
    # the summed Brownian increments themselves are not clipped
    assert np.max(np.abs(agg.dW)) > radius or agg.dW.shape[0] < 100


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


def test_study_is_deterministic_across_threads():
    r1 = convergence_study(small_config(threads=1))
    r8 = convergence_study(small_config(threads=8))
    assert [(a.scheme, a.steps, a.error) for a in r1.rows] == \
           [(b.scheme, b.steps, b.error) for b in r8.rows]


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


# ---------------------------------------------------------------- positivity / taming studies

def test_positivity_constant_solution():
    cfg = small_config(
        driver=polynomial_driver([0.0]), terminal=TerminalSpec((1.0,)), grids=[10],
        schemes=[SchemeRun("inner", SchemeSpec(kind="explicit_tamed"), TamingSpec(kind="inner_proj"))])
    report = positivity_study(cfg)
    assert all(row.min_y == pytest.approx(1.0, abs=1e-12) for row in report.rows)
    assert all(row.max_y == pytest.approx(1.0, abs=1e-12) for row in report.rows)
    # rows are ordered with i descending
    assert [row.index for row in report.rows] == list(range(10, -1, -1))


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
    assert len(report.rows) == 11
    assert all(np.isfinite(row.min_y) for row in report.rows)


def test_tree_oracle_study_runs():
    cfg = small_config(
        grids=[10],
        sde=SdeSpec(x0=0.0, diff_const=1.25),
        terminal=TerminalSpec((0.0, 0.0, 1.0)),
        driver=polynomial_driver([0.0, 0.0, -1.0]),
        schemes=[SchemeRun("outer", SchemeSpec(kind="explicit_tamed"),
                           TamingSpec(kind="outer_proj", r0=1.5))])
    report = tree_oracle_study(cfg)
    assert report.backend == "tree"
    assert min(row.min_y for row in report.rows) >= 0.0
    label, cond, ok = report.conditions[0]
    assert label == "outer" and ok and cond < 1.0


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
    critical = [row.k_y_sq_h for row in rows["inner_critical"]]
    assert max(critical) - min(critical) < 1e-12
    bad = [row.k_y_sq_h for row in rows["inner_bad"]]
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
    row = ErrorRow("inner", 8, 0.125, 0.0123456789012345, 17.5, False, 42)
    emit_csv(ErrorReport(rows=[row], proxy_labels=["inner"], seed=42), str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1] == "inner,8,0.125,0.0123456789012,0,false,42"


def test_exploded_row_uses_inf_literal(tmp_path):
    path = tmp_path / "inf.csv"
    row = ErrorRow("untamed", 8, 0.125, float("inf"), 1.0, True, 7)
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


def test_default_taming_section():
    text = GOOD.replace("scheme.1.taming = inner_proj\nscheme.1.r0 = 0.6\n",
                        "") + "taming.kind = mult_d\ntaming.r0 = 0.5\n"
    cfg = parse_config(text)
    assert cfg.schemes[0].taming.kind == "mult_d"
    assert cfg.schemes[0].taming.r0 == 0.5


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
