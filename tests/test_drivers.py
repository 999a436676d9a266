import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from tamedbsde import (
    DriverSpec,
    ProbePlan,
    TamedDriver,
    TamingSpec,
    TerminalSpec,
    derive_constants,
    eval_driver,
    polynomial_driver,
    verify_assumptions,
)
from tamedbsde.drivers import DriverConstants, TamingBlock, horner, polynomial_terms

CUBIC = polynomial_driver([0.0, 0.0, 0.0, -1.0])          # f(y) = -y^3
FHN = polynomial_driver([0.0, 1.0, 0.0, -1.0])            # f(y) = y - y^3
QUADRATIC = polynomial_driver([0.0, 0.0, -1.0])           # f(y) = -y^2


def tamed(base, kind, r0=1.0, exponent=None, h=0.125):
    return TamedDriver(base, TamingSpec(kind=kind, r0=r0, exponent=exponent), h=h)


# ---------------------------------------------------------------- evaluation

def test_eval_cubic():
    assert eval_driver(CUBIC, 2.0, 0.0) == -8.0


def test_eval_fhn_root():
    assert eval_driver(FHN, 1.0, 0.0) == 0.0


def test_eval_quadratic():
    assert eval_driver(QUADRATIC, 3.0, 0.0) == -9.0


def test_eval_z_part():
    spec = polynomial_driver([1.0], z_coeff=0.5)
    assert eval_driver(spec, 0.0, 4.0) == 3.0


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200, 1e308]
COEFFS = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300]),
                            st.floats(allow_nan=False, allow_infinity=False)),
                  min_size=1, max_size=6)
POINT = st.one_of(st.sampled_from(SPECIAL), st.floats())
POINTS = st.one_of(POINT, st.lists(POINT, min_size=1, max_size=8).map(np.array))


def _same_bits(a, b):
    return type(a) is type(b) and np.shape(a) == np.shape(b) \
        and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@given(coeffs=COEFFS, x=POINTS)
@settings(max_examples=300, deadline=None)
def test_horner_bitwise_equals_polyval(coeffs, x):
    spec = DriverSpec(tuple(coeffs), 0.0, DriverConstants(0, 0, 0, 0, 0, 0, 1))
    c = np.asarray(coeffs, dtype=float)
    with np.errstate(all="ignore"):
        assert _same_bits(spec.y_part(x), npoly.polyval(x, c))
        assert _same_bits(spec.y_part_slope(x), npoly.polyval(x, npoly.polyder(c)))
        if len(coeffs) <= 5:
            assert _same_bits(TerminalSpec(tuple(coeffs))(x), npoly.polyval(x, c))


# horner skips the add of an interior zero term unless the constant term is
# -0.0: at x = -0.0, (-0.0, 0.0, 1.0) needs its interior add for polyval's
# sign, and the other polynomials skip theirs
@pytest.mark.parametrize("coeffs", [(-0.0, 0.0, 1.0), (-0.0, -0.0, 0.0, -1.0),
                                    (0.0, 0.0, 0.0, -1.0), (0.0, -0.0, 1.0), (1.0, 0.0, -0.0, 2.0)])
def test_horner_zero_terms_keep_the_signs_of_polyval(coeffs):
    x = np.array([0.0, -0.0, 1e-200, -1e-200, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 2.0, -2.0])
    with np.errstate(all="ignore"):
        assert horner(polynomial_terms(coeffs), x).tobytes() == npoly.polyval(x, coeffs).tobytes()


# ---------------------------------------------------------------- taming maps

# ---------------------------------------------------------------- taming blocks

def _reference_tamed_y_part(driver, y):
    """f^h's y-part written out per kind from the formulas: P by polyval,
    the projections by clip, the multiplicative kinds as P / (1 + F/r)."""
    base, kind, r, m = driver.base, driver.taming.kind, driver.radius, driver.base.growth_power
    y = np.asarray(y, dtype=float)
    if kind == "inner_proj":
        return npoly.polyval(np.clip(y, -r, r), base.y_coeffs)
    p = npoly.polyval(y, base.y_coeffs)
    if kind == "none":
        return p
    if kind == "outer_proj":
        return np.clip(p, -r, r)
    with np.errstate(divide="ignore", invalid="ignore"):
        damping = {
            "mult_a": lambda: np.abs(p),
            "mult_b": lambda: np.where(y == 0.0, 0.0, np.abs(p - npoly.polyval(0.0, base.y_coeffs))
                                       / np.abs(y)),
            "mult_c": lambda: np.abs(y) ** m,
            "mult_d": lambda: np.abs(y) ** (m - 1),
        }[kind]()
    return p / (1.0 + damping / r)


def _seven_drivers(base, h=0.01):
    """One driver of each taming kind, each with its own radius; the kind
    "none" is the untamed explicit scheme's driver, its taming reset."""
    inner = tamed(base, "inner_proj", r0=0.7, exponent=0.25, h=h)
    return [
        tamed(base, "mult_b", r0=0.9, exponent=0.5, h=h),
        inner,
        tamed(base, "mult_d", r0=1.1, exponent=0.5, h=h),
        tamed(base, "outer_proj", r0=1.5, exponent=0.5, h=h),
        replace(inner, taming=TamingSpec(kind="none")),
        tamed(base, "mult_a", r0=1.3, exponent=0.4, h=h),
        tamed(base, "mult_c", r0=0.8, exponent=0.5, h=h),
    ]


def _block_inputs(drivers):
    """+-0, +-inf, NaN, tiny and overflowing values, and |y| on both sides
    of every driver's radius."""
    radii = np.array([d.radius for d in drivers if d.taming.kind != "none"])
    near = np.concatenate([radii * f for f in (0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0)])
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-300, 1e200, 0.25, -3.0]
    return np.concatenate([special, near, -near])


@pytest.mark.parametrize("base", [FHN, polynomial_driver([0.5, -2.0]),
                                  polynomial_driver([0.3, 0.0, 0.0, -1.0])],
                         ids=["fhn", "linear", "shifted-cubic"])
def test_taming_block_bitwise_equals_per_driver_taming(base):
    drivers = _seven_drivers(base)
    y = _block_inputs(drivers)
    rng = np.random.default_rng(3)
    with np.errstate(over="ignore", invalid="ignore"):
        alone = [d.tamed_y_part(y) for d in drivers]
        for d, got in zip(drivers, alone):
            assert got.tobytes() == _reference_tamed_y_part(d, y).tobytes(), d.taming.kind
            # a block of one takes a scalar too
            assert np.float64(d.tamed_y_part(y[7])).tobytes() == got[7].tobytes()
        # the seven rows in the listed order (no kind in one run of rows),
        # sorted by kind (every kind one run) and one scrambled order; each
        # row sees the same y or its own shuffle of it
        for order in (range(7), sorted(range(7), key=lambda k: drivers[k].taming.kind),
                      [3, 0, 6, 2, 5, 1, 4]):
            block = TamingBlock([drivers[k] for k in order])
            assert [row.tobytes() for row in block.tamed_y_part(np.tile(y, (7, 1)))] == \
                [alone[k].tobytes() for k in order]
            shuffled = np.array([rng.permutation(y) for _ in order])
            out = block.tamed_y_part(shuffled)
            for k, row, got in zip(order, shuffled, out):
                assert got.tobytes() == drivers[k].tamed_y_part(row).tobytes()
        # a block of one row, and of rows of one kind with different radii
        for d, got in zip(drivers, alone):
            assert TamingBlock([d]).tamed_y_part(y[None])[0].tobytes() == got.tobytes()
        mult = [d for d in drivers if d.taming.kind.startswith("mult")]
        out = TamingBlock(mult[:1] * 2 + [replace(mult[0], h=0.5)]).tamed_y_part(np.tile(y, (3, 1)))
        assert out[0].tobytes() == out[1].tobytes() == alone[0].tobytes()
        assert out[2].tobytes() == replace(mult[0], h=0.5).tamed_y_part(y).tobytes()


def test_taming_block_needs_one_base_driver():
    with pytest.raises(ValueError, match="one base driver"):
        TamingBlock([tamed(CUBIC, "inner_proj"), tamed(FHN, "inner_proj")])


def test_inner_projection_forced():
    d = tamed(CUBIC, "inner_proj", r0=1.0, exponent=0.0)
    assert d(2.0, 0.0) == -1.0


def test_outer_projection_forced():
    d = tamed(CUBIC, "outer_proj", r0=1.5, exponent=0.0)
    assert d(2.0, 0.0) == -1.5


def test_mult_c_value():
    d = tamed(CUBIC, "mult_c", r0=1.0, exponent=0.0)
    assert d(2.0, 0.0) == pytest.approx(-8.0 / 9.0, rel=1e-14)


def test_projections_are_identity_inside_the_ball():
    inner = tamed(CUBIC, "inner_proj", r0=2.0, exponent=0.0)
    outer = tamed(CUBIC, "outer_proj", r0=2.0, exponent=0.0)
    for y in (-1.2, -0.5, 0.0, 0.7, 1.2):
        if abs(y) <= 2.0:
            assert inner(y, 0.0) == eval_driver(CUBIC, y, 0.0)
        if abs(y**3) <= 2.0:
            assert outer(y, 0.0) == eval_driver(CUBIC, y, 0.0)


def test_mult_b_zero_convention():
    d = tamed(FHN, "mult_b", r0=1.0, exponent=0.0)
    # damping factor is 1 at y = 0, so the tamed driver agrees with f there
    assert d(0.0, 0.0) == eval_driver(FHN, 0.0, 0.0)


@given(y=st.floats(min_value=-25.0, max_value=25.0),
       kind=st.sampled_from(["none", "inner_proj", "outer_proj", "mult_a", "mult_b", "mult_c", "mult_d"]))
@settings(max_examples=200)
def test_pointwise_domination_on_cubic(y, kind):
    d = tamed(CUBIC, kind, r0=1.0, h=0.25)
    assert abs(d(y, 0.0)) <= abs(eval_driver(CUBIC, y, 0.0)) + 1e-12


def test_residual_zero_inside_identity_region():
    inner = tamed(CUBIC, "inner_proj", r0=1.0, exponent=0.0)
    assert eval_driver(CUBIC, 0.5, 0.0) - inner(0.5, 0.0) == 0.0
    outer = tamed(CUBIC, "outer_proj", r0=1.0, exponent=0.0)
    assert eval_driver(CUBIC, 0.9, 0.0) - outer(0.9, 0.0) == 0.0


def test_residual_mult_c_value():
    d = tamed(CUBIC, "mult_c", r0=1.0, exponent=0.0)
    assert eval_driver(CUBIC, 2.0, 0.0) - d(2.0, 0.0) == pytest.approx(-8.0 + 8.0 / 9.0, rel=1e-14)


def test_residual_vanishes_with_h():
    # for the projection kinds the residual is monotone along h = T/2^k once
    # the radius exceeds the relevant magnitude
    y = 3.0
    prev = np.inf
    for k in range(1, 10):
        d = tamed(CUBIC, "inner_proj", r0=1.0, h=2.0**-k)
        res = abs(eval_driver(CUBIC, y, 0.0) - d(y, 0.0))
        assert res <= prev + 1e-12
        prev = res
    assert prev == 0.0


# ---------------------------------------------------------------- derived constants

def test_inner_growth_constant():
    d = tamed(CUBIC, "inner_proj", r0=4.0, exponent=0.0)
    cons = derive_constants(d)
    assert cons.k_y == pytest.approx(CUBIC.constants.k_y * 16.0)
    assert cons.k_t == CUBIC.constants.k_t


def test_inner_lipschitz_constant():
    d = tamed(CUBIC, "inner_proj", r0=1.0, exponent=0.0)
    cons = derive_constants(d)
    assert cons.l_y == pytest.approx(2.0 * CUBIC.constants.l_y * 3.0)


def test_mult_d_lipschitz_constant():
    base = polynomial_driver([0.0, 0.0, 0.0, -1.0 / 3.0])
    d = TamedDriver(base, TamingSpec(kind="mult_d", r0=2.0, exponent=0.0), h=0.125)
    cons = derive_constants(d)
    assert cons.l_y == pytest.approx(base.constants.l_y * 7.0)


def test_mult_c_lipschitz_constant():
    d = tamed(CUBIC, "mult_c", r0=2.0, exponent=0.0)
    assert derive_constants(d).l_y == pytest.approx(CUBIC.constants.l_y * 5.0)


def test_outer_constants_are_exact_for_polynomials():
    d = tamed(QUADRATIC, "outer_proj", r0=4.0, exponent=0.0)
    cons = derive_constants(d)
    # clamp(-y^2, +-4) has slope -2y wherever y^2 <= 4
    assert cons.l_y == pytest.approx(4.0)
    assert cons.k_t == 4.0 and cons.k_y == 0.0


def test_empirical_flag():
    assert derive_constants(tamed(CUBIC, "mult_a")).empirical
    assert derive_constants(tamed(CUBIC, "mult_b")).empirical
    assert derive_constants(tamed(CUBIC, "none")).empirical
    assert not derive_constants(tamed(CUBIC, "inner_proj")).empirical


def test_critical_exponent_keeps_growth_witness_flat():
    values = [derive_constants(tamed(CUBIC, "inner_proj", h=1.0 / n)).k_y_sq_h
              for n in (8, 64, 512, 2048)]
    assert max(values) - min(values) < 1e-12


def test_supercritical_exponent_grows():
    values = [derive_constants(tamed(CUBIC, "inner_proj", exponent=1.0, h=1.0 / n)).k_y_sq_h
              for n in (8, 64, 512)]
    assert values[0] < values[1] < values[2]


# ---------------------------------------------------------------- verifier

@pytest.mark.parametrize("kind,exponent", [
    ("inner_proj", None), ("outer_proj", 0.5), ("mult_c", 0.5), ("mult_d", 0.5)])
@pytest.mark.parametrize("base", [CUBIC, FHN])
def test_assumptions_pass_for_standard_tamings(base, kind, exponent):
    report = verify_assumptions(tamed(base, kind, exponent=exponent))
    assert report.passed, dict(report.checks)


@pytest.mark.parametrize("kind,r0", [("inner_proj", 1e300), ("mult_c", 1e300)])
def test_verifier_rejects_constants_that_are_not_finite_before_probing(monkeypatch, kind, r0):
    # (K^h_y)^2 h overflows for inner (K^h_y = r^2), (L^h_y)^2 h for mult_c
    from tamedbsde import drivers

    def no_probe(*args):
        raise AssertionError("probed")

    monkeypatch.setattr(drivers, "eval_driver", no_probe)
    with pytest.raises(ValueError, match="derived constants .* are not all finite"):
        verify_assumptions(tamed(CUBIC, kind, r0=r0, exponent=0.5))


def test_untamed_growth_passes_but_lipschitz_fails_at_large_range():
    report = verify_assumptions(tamed(CUBIC, "none"), ProbePlan(y_max=50.0))
    assert report.checks["growth"].passed
    assert report.checks["domination"].passed
    assert not report.checks["lipschitz_y"].passed
    assert report.checks["lipschitz_y"].violations


def test_a_probe_that_overflows_fails_its_checks_without_warnings():
    # at |y| up to 1e300 the mult_b probe overflows and every margin is NaN:
    # each check fails (a NaN margin is not within its slack), and the
    # overflow stays inside the verifier (RuntimeWarnings are errors here)
    report = verify_assumptions(tamed(CUBIC, "mult_b", exponent=0.5), ProbePlan(y_max=1e300))
    assert all(math.isnan(check.worst_margin) for check in report.checks.values())
    assert not any(check.passed for check in report.checks.values())
    assert all(check.violations for check in report.checks.values())


# y_slope is the implicit Newton step's slope: a wrong one only slows
# Newton down, so it is checked against a central difference of
# tamed_y_part (step 1e-5 max(1, |y|)) on 6001 points of [-3, 3], at the
# points whose stencil +-1e-3 crosses no kink of the kind (|y| = r, |P| = r,
# a sign change of P, of P - P(0) or of y).  The tolerance was set before
# the first run: 1e-6 relative to max(1, |slope|); mult_b's own slope is a
# difference of step 1e-7 max(1, |y|), whose rounding dominates.
SLOPE_RTOL = 1e-6


def _kink_side(d, y):
    """A value that changes only across a kink of d's tamed y-part."""
    kind, r, p = d.taming.kind, d.radius, d.base.y_part(y)
    if kind == "inner_proj":
        return np.abs(y) <= r
    if kind == "outer_proj":
        return np.abs(p) <= r
    if kind == "mult_a":
        return np.sign(p)
    if kind == "mult_b":
        return 3 * np.sign(p - d.base.value_at_zero) + np.sign(y)
    return np.sign(y) if kind != "none" else np.zeros_like(y)


@pytest.mark.parametrize("base", [CUBIC, FHN, QUADRATIC, polynomial_driver([0.0, -0.3, 1.3, -1.0]),
                                  polynomial_driver([0.5, -2.0])],
                         ids=["cubic", "fhn", "quadratic", "fitzhugh-nagumo", "linear"])
@pytest.mark.parametrize("kind", ["none", "inner_proj", "outer_proj", "mult_a", "mult_b",
                                  "mult_c", "mult_d"])
def test_y_slope_matches_a_central_difference(base, kind):
    d = tamed(base, kind, r0=0.8, h=1 / 16)
    y = np.linspace(-3.0, 3.0, 6001)
    side = _kink_side(d, y)
    y = y[(_kink_side(d, y - 1e-3) == side) & (_kink_side(d, y + 1e-3) == side)]
    assert y.size > 4000
    eps = 1e-5 * np.maximum(1.0, np.abs(y))
    reference = (d.tamed_y_part(y + eps) - d.tamed_y_part(y - eps)) / (2.0 * eps)
    slope = d.y_slope(y)
    assert np.all(np.abs(slope - reference) <= SLOPE_RTOL * np.maximum(1.0, np.abs(reference)))


def test_outer_stays_below_radius():
    d = tamed(CUBIC, "outer_proj", r0=1.5, exponent=0.5)
    ys = np.linspace(-10, 10, 1001)
    assert np.all(np.abs(d.tamed_y_part(ys)) <= d.radius + 1e-12)


def test_monotone_growth_preserved():
    for kind in ("inner_proj", "outer_proj", "mult_a", "mult_b", "mult_c", "mult_d"):
        d = tamed(FHN, kind)
        cons = derive_constants(d)
        ys = np.linspace(-10, 10, 2001)
        lhs = ys * d.tamed_y_part(ys)
        assert np.all(lhs <= cons.mbar_t + cons.mbar_y * ys**2 + 1e-9), kind


def test_verifier_reports_fitted_constants_for_mult_kinds():
    report = verify_assumptions(tamed(CUBIC, "mult_d", exponent=0.5))
    assert report.checks["lipschitz_y"].fitted_constant is not None
    assert np.isfinite(report.checks["residual"].fitted_constant)


def test_driver_spec_validation():
    with pytest.raises(ValueError):
        DriverSpec((), 0.0, DriverConstants(0, 0, 0, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        TamingSpec(kind="sideways")
    with pytest.raises(ValueError):
        TamingSpec(kind="inner_proj", r0=0.0)
    with pytest.raises(ValueError, match="exponent"):
        TamingSpec(kind="mult_c", exponent=math.nan)
    for bad in ({"y_max": -1.0}, {"z_max": 0.0}, {"y_max": math.nan}):
        with pytest.raises(ValueError, match="probe range must be positive"):
            ProbePlan(**bad)
    with pytest.raises(ValueError, match="rel_slack"):
        ProbePlan(rel_slack=math.nan)
