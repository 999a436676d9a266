"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the full module takes a couple of minutes at the pinned sizes.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from tamedbsde import (
    BasisSpec,
    ExactTreeBasis,
    NoiseModel,
    SchemeRun,
    SchemeSpec,
    SdeSpec,
    TamedDriver,
    TamingSpec,
    TerminalSpec,
    build_grid,
    build_tree,
    comparison_check,
    convergence_study,
    derive_constants,
    emit_csv,
    enumerate_tree_paths,
    euler_simulate,
    lambda_of_truncation,
    polynomial_driver,
    positivity_study,
    run_backward,
    sample_increments,
    terminal_values,
    tree_exact_run,
    tree_oracle_study,
    verify_assumptions,
)
from tamedbsde.backward import step_size_condition
from tamedbsde.cli import main
from tamedbsde.config import ExperimentConfig
from tamedbsde.drivers import DriverConstants, DriverSpec
from tamedbsde.experiments import aggregate_to_grid
from tamedbsde.grids import truncation_radius
from tamedbsde.trees import path_node_index, recombines

SEED = 20240

SCHEME_KINDS = ("explicit_tamed", "explicit_untamed", "implicit")
TAMING_KINDS = ("none", "inner_proj", "outer_proj", "mult_a", "mult_b", "mult_c", "mult_d")

CUBIC = polynomial_driver([0.0, 0.0, 0.0, -1.0])      # f(y) = -y^3
FHN = polynomial_driver([0.0, 1.0, 0.0, -1.0])        # f(y) = y - y^3

SECTION61_TAMINGS = {
    "inner": TamingSpec(kind="inner_proj", r0=1.0, exponent=0.25),
    "outer": TamingSpec(kind="outer_proj", r0=1.5, exponent=0.5),
    "mult_d": TamingSpec(kind="mult_d", r0=1.0, exponent=0.5),
}


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")


def test_criterion_1_oracle_equivalence():
    sde = SdeSpec(x0=0.3, drift_const=0.05, drift_slope=-0.1, diff_const=0.5, diff_slope=0.2)
    terminal = TerminalSpec((0.0, 0.4))
    driver = polynomial_driver([0.1, 0.5, 0.0, -1.0], z_coeff=0.5)
    start = time.perf_counter()
    worst = 0.0
    for steps in (4, 8, 12):
        grid = build_grid(1.0, steps)
        tree = build_tree(sde, grid)
        assert not recombines(tree.sde)
        ens = enumerate_tree_paths(tree)
        xi = terminal_values(terminal, ens)
        basis = ExactTreeBasis()
        node_idx = [path_node_index(tree, lvl) for lvl in range(steps + 1)]
        for kind in SCHEME_KINDS:
            for taming in TAMING_KINDS:
                for theta in (0.0, 0.5, 1.0):
                    scheme = SchemeSpec(kind=kind, theta_prime=theta)
                    tamed = TamedDriver(driver, TamingSpec(kind=taming), h=grid.h)
                    mc = run_backward(scheme, tamed, ens, xi, basis)
                    tr = tree_exact_run(scheme, tamed, tree, terminal)
                    assert not mc.exploded and not tr.exploded
                    for lvl in range(steps + 1):
                        diff = np.max(np.abs(mc.Y[lvl] - tr.Y[lvl][node_idx[lvl]]))
                        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, "oracle equivalence", ok)
    assert worst <= 1e-8
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def test_criterion_2_closed_form_recursions():
    driver = polynomial_driver([0.0, -1.0])
    term = TerminalSpec((1.0,))
    worst = 0.0
    for steps in (1, 10, 100):
        grid = build_grid(1.0, steps)
        tree = build_tree(SdeSpec(x0=0.0, diff_const=1.0), grid)
        tamed = TamedDriver(driver, TamingSpec(kind="none"), grid.h)
        explicit = tree_exact_run(SchemeSpec(kind="explicit_tamed"), tamed, tree, term)
        implicit = tree_exact_run(SchemeSpec(kind="implicit"), tamed, tree, term)
        worst = max(worst,
                    abs(explicit.root_value - (1.0 - grid.h) ** steps),
                    abs(implicit.root_value - (1.0 + grid.h) ** (-steps)))
    ok = worst <= 1e-10
    report(2, "closed-form recursions", ok)
    assert worst <= 1e-10


def _section61_config(**overrides):
    base = dict(
        horizon=1.0,
        seed=SEED,
        sde=SdeSpec(x0=0.0, diff_const=1.0),
        terminal=TerminalSpec((0.0, 1.0)),
        driver=CUBIC,
        schemes=[
            SchemeRun("implicit", SchemeSpec(kind="implicit"), TamingSpec(kind="none")),
            SchemeRun("inner", SchemeSpec(kind="explicit_tamed"), SECTION61_TAMINGS["inner"]),
            SchemeRun("outer", SchemeSpec(kind="explicit_tamed"), SECTION61_TAMINGS["outer"]),
            SchemeRun("mult_d", SchemeSpec(kind="explicit_tamed"), SECTION61_TAMINGS["mult_d"]),
        ],
        grids=[8, 16, 32, 64, 128, 256],
        paths=50_000,
        basis_size=6,
        noise=NoiseModel(),
        output_path="unused.csv",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.slow
def test_criterion_3_convergence_slopes():
    rep = convergence_study(_section61_config())
    err = {}
    for row in rep.rows:
        assert not row.exploded, row
        err.setdefault(row.scheme, {})[row.steps] = row.error

    slopes = {}
    for label in ("implicit", "inner", "outer"):
        ns = sorted(err[label])
        log_h = np.log([1.0 / n for n in ns])
        log_e = np.log([err[label][n] for n in ns])
        slopes[label] = float(np.polyfit(log_h, log_e, 1)[0])
    slopes_ok = all(0.35 <= s <= 1.3 for s in slopes.values())

    ratios_ok = True
    for n in (16, 32, 64, 128, 256):
        for label in ("inner", "outer"):
            ratios_ok &= err[label][n] <= 3.0 * err["implicit"][n]

    multd_ok = err["mult_d"][256] <= 0.5 * err["mult_d"][8]

    # soft check only: the explicit tamed schemes should not be slower than
    # the implicit one on the finest grid (timing is machine-dependent)
    wall = {row.scheme: row.wallclock_ms for row in rep.rows if row.steps == 256}
    for label in ("inner", "outer", "mult_d"):
        if wall[label] >= wall["implicit"]:
            print(f"ACCEPTANCE 3 soft timing check: {label} took {wall[label]:.0f}ms "
                  f">= implicit {wall['implicit']:.0f}ms at N=256")

    ok = slopes_ok and ratios_ok and multd_ok
    report(3, "convergence slopes", ok)
    assert slopes_ok, slopes
    assert ratios_ok, {n: (err["inner"][n] / err["implicit"][n],
                           err["outer"][n] / err["implicit"][n]) for n in (16, 32, 64, 128, 256)}
    assert multd_ok, (err["mult_d"][8], err["mult_d"][256])


@pytest.mark.slow
def test_criterion_4_non_explosion_moments():
    sde = SdeSpec(x0=0.0, diff_const=1.0)
    term = TerminalSpec((0.0, 1.0))
    noise = NoiseModel()
    basis = BasisSpec(size=6)
    fine = build_grid(1.0, 512)
    fine_batch = sample_increments(fine, 10_000, SEED, noise)
    worst_ratio = 0.0
    for taming in SECTION61_TAMINGS.values():
        mass = {}
        for steps in (8, 512):
            grid = build_grid(1.0, steps)
            batch = fine_batch if steps == 512 else aggregate_to_grid(fine_batch, fine, grid, noise)
            ens = euler_simulate(sde, grid, batch)
            xi = terminal_values(term, ens)
            out = run_backward(SchemeSpec(kind="explicit_tamed"),
                               TamedDriver(CUBIC, taming, grid.h), ens, xi, basis)
            assert not out.exploded
            mass[steps] = float(np.max(np.mean(out.Y**2, axis=1)))
        ratio = mass[512] / mass[8]
        worst_ratio = max(worst_ratio, ratio, 1.0 / ratio)
    ok = worst_ratio <= 2.0
    report(4, "non-explosion moments", ok)
    assert worst_ratio <= 2.0


def test_criterion_5_explosion_demonstration():
    # pinned fixture found once: seed 20240, N = 64 explodes reproducibly
    steps = 64
    grid = build_grid(1.0, steps)
    batch = sample_increments(grid, 10_000, SEED, NoiseModel())
    ens = euler_simulate(SdeSpec(x0=0.0, diff_const=1.0), grid, batch)
    xi = terminal_values(TerminalSpec((0.0, 0.0, 0.0, 1.0)), ens)
    out = run_backward(SchemeSpec(kind="explicit_untamed"),
                       TamedDriver(CUBIC, TamingSpec(kind="none"), grid.h),
                       ens, xi, BasisSpec(size=6))
    ok = out.exploded or float(np.nanmax(np.abs(out.Y))) > 1e3
    report(5, "explosion demonstration", ok)
    assert ok
    assert out.first_bad_step is not None


def _positivity_driver() -> DriverSpec:
    # f(y) = -y^2 is monotone on the domain [0, inf) the solution lives in:
    # declare M_y = 0 there, and the sharp local-Lipschitz factor L_y = 1
    cons = DriverConstants(k_t=0.0, k_y=1.0, k_z=0.0, m_y=0.0,
                           l_y=1.0, l_z=0.0, domain_bound=10.0)
    return DriverSpec((0.0, 0.0, -1.0), 0.0, cons)


POSITIVITY_TAMINGS = {
    "inner": TamingSpec(kind="inner_proj", r0=0.6),
    "outer": TamingSpec(kind="outer_proj", r0=1.5),
    "mult_c": TamingSpec(kind="mult_c", r0=1.2),
    "mult_d": TamingSpec(kind="mult_d", r0=1.0),
}


def test_criterion_6_positivity(tmp_path):
    driver = _positivity_driver()
    sde = SdeSpec(x0=0.0, diff_const=1.25)
    term = TerminalSpec((0.0, 0.0, 1.0))
    grid = build_grid(1.0, 10)

    conditions_ok = True
    for taming in POSITIVITY_TAMINGS.values():
        condition = grid.h * derive_constants(TamedDriver(driver, taming, grid.h)).l_y
        conditions_ok &= condition < 1.0

    tamings = [SchemeRun(name, SchemeSpec(kind="explicit_tamed"), taming)
               for name, taming in POSITIVITY_TAMINGS.items()]
    cfg = ExperimentConfig(
        horizon=1.0, seed=SEED, sde=sde, terminal=term, driver=driver,
        schemes=tamings + [SchemeRun("implicit", SchemeSpec(kind="implicit"), TamingSpec(kind="none"))],
        grids=[10], paths=20_000, basis_size=12,
        noise=NoiseModel(), output_path=str(tmp_path / "positivity.csv"))
    # the tree extrema of the four tamings, as the tree-oracle CLI writes them
    # (NaN where a scheme exploded, which fails the check)
    global_min = float(np.min(tree_oracle_study(replace(cfg, schemes=tamings)).mins))
    tree_ok = conditions_ok and global_min >= 0.0

    # regression backend: report-only CSV of the per-step extrema
    study = positivity_study(cfg)
    emit_csv(study, cfg.output_path)
    csv_ok = (tmp_path / "positivity.csv").read_text().startswith("scheme,i,t,min_Y,max_Y")

    ok = tree_ok and csv_ok
    report(6, "positivity", ok)
    assert conditions_ok
    assert global_min >= 0.0
    assert csv_ok


def test_criterion_7_discrete_comparison():
    rng = np.random.default_rng(4242)
    kinds = ["inner_proj", "outer_proj", "mult_c", "mult_d"]
    instances = 0
    violations = 0
    attempts = 0
    while instances < 200:
        attempts += 1
        assert attempts < 5000, "instance generator starved"
        degree = int(rng.integers(1, 4))
        coeffs = rng.uniform(-1.5, 1.5, size=degree + 1)
        coeffs[-1] = -abs(coeffs[-1]) - 0.1
        steps = int(rng.integers(2, 11))
        grid = build_grid(float(rng.uniform(0.5, 1.5)), steps)
        taming = TamingSpec(kind=kinds[int(rng.integers(0, 4))], r0=float(rng.uniform(0.2, 1.5)))
        low = polynomial_driver(coeffs, domain_bound=8.0)
        shifted = list(coeffs)
        shifted[0] += float(rng.uniform(0.0, 1.0))
        high = polynomial_driver(shifted, domain_bound=8.0)
        tamed_high = TamedDriver(high, taming, grid.h)
        tamed_low = TamedDriver(low, taming, grid.h)
        scheme = SchemeSpec(kind="explicit_tamed", theta_prime=float(rng.choice([0.0, 0.5, 1.0])))
        if step_size_condition(scheme, derive_constants(tamed_high), 1.0 / math.sqrt(grid.h)) >= 1.0:
            continue
        g0, g1 = rng.uniform(-1.0, 1.0, size=2)
        shift = float(rng.uniform(0.0, 1.0))
        term_high = TerminalSpec((float(g0) + shift, float(g1)))
        term_low = TerminalSpec((float(g0), float(g1)))
        tree = build_tree(SdeSpec(x0=float(rng.uniform(-0.5, 0.5)),
                                  diff_const=float(rng.uniform(0.3, 1.0))), grid)
        result = comparison_check(scheme, tamed_high, term_high, tamed_low, term_low, tree)
        assert result.condition_ok and result.inputs_ordered
        assert result.min_b_factor > 0.0
        instances += 1
        violations += result.violations
    ok = violations == 0
    report(7, "discrete comparison", ok)
    assert violations == 0


def test_criterion_8_taming_assumption_suite():
    suite_ok = True
    for base in (CUBIC, FHN):
        for taming in (TamingSpec(kind="inner_proj", r0=1.0),
                       TamingSpec(kind="outer_proj", r0=1.5, exponent=0.5),
                       TamingSpec(kind="mult_c", r0=1.0, exponent=0.5),
                       TamingSpec(kind="mult_d", r0=1.0, exponent=0.5)):
            # default probe; inner resolves its critical exponent 1/(2(m-1))
            rep = verify_assumptions(TamedDriver(base, taming, h=0.125))
            suite_ok &= rep.passed

    # witness flatness across the ladder at the critical exponent; the
    # radius term must dominate the certified constants' fixed offsets for
    # the 1% band, hence the large r0 here
    witness_taming = TamingSpec(kind="inner_proj", r0=10.0)
    k_w, l_w = [], []
    for k in range(3, 12):
        tamed = TamedDriver(CUBIC, witness_taming, h=2.0**-k)
        cons = derive_constants(tamed)
        k_w.append(cons.k_y_sq_h)
        l_w.append(cons.l_y_sq_h)
    k_var = (max(k_w) - min(k_w)) / min(k_w)
    l_var = (max(l_w) - min(l_w)) / min(l_w)
    witness_ok = k_var < 0.01 and l_var < 0.01

    ok = suite_ok and witness_ok
    report(8, "taming assumption suite", ok)
    assert suite_ok
    assert witness_ok, (k_var, l_var)


def test_criterion_9_truncated_increments():
    from scipy.integrate import quad
    from scipy.stats import norm as normal

    model = NoiseModel(kind="truncated_gaussian", radius0=2.0, use_log_schedule=True)
    in_band = True
    quad_ok = True
    for k in range(1, 12):
        h = 2.0**-k
        radius = truncation_radius(model, h)
        lam = lambda_of_truncation(radius, h)
        in_band &= 0.5 <= lam <= 1.0
        # quadrature oracle in the standardized variable u = x / sqrt(h):
        # E[min(|X|, R)^2] / h = integral of min(|u|, R/sqrt(h))^2 phi(u)
        rho = radius / math.sqrt(h)
        oracle = quad(lambda u: min(abs(u), rho) ** 2 * normal.pdf(u),
                      -np.inf, np.inf, limit=200)[0]
        quad_ok &= abs(lam - oracle) <= 1e-8
    limit_ok = abs(lambda_of_truncation(1e3, 1.0) - 1.0) < 1e-12

    ok = in_band and quad_ok and limit_ok
    report(9, "truncated increments", ok)
    assert in_band
    assert quad_ok
    assert limit_ok


REPRO_CONFIG = """
horizon = 1.0
seed = 20240
sde.sigma = 1.0
terminal.coeffs = 0,1
driver.y_poly = 0,0,0,-1
grids = 4,8,16
paths = 2000
basis.size = 4
scheme.1.label = implicit
scheme.1.kind = implicit
scheme.1.taming = none
scheme.2.label = inner
scheme.2.kind = explicit_tamed
scheme.2.taming = inner_proj
scheme.2.exponent = 0.25
scheme.3.label = outer
scheme.3.kind = explicit_tamed
scheme.3.taming = outer_proj
scheme.3.r0 = 1.5
output = replaced-by-cli.csv
"""


def test_criterion_10_reproducibility(tmp_path):
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(REPRO_CONFIG)
    outputs = {}
    for name, threads in (("a", 1), ("b", 8), ("c", 1)):
        out = tmp_path / f"{name}.csv"
        assert main(["converge", str(cfg), "--threads", str(threads), "--out", str(out)]) == 0
        outputs[name] = out.read_bytes()
    ok = outputs["a"] == outputs["b"] == outputs["c"]
    report(10, "reproducibility", ok)
    assert ok
