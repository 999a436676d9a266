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
    taming_residual,
    verify_assumptions,
)
from tamedbsde.drivers import DriverConstants

CUBIC = polynomial_driver([0.0, 0.0, 0.0, -1.0])          # f(y) = -y^3
FHN = polynomial_driver([0.0, 1.0, 0.0, -1.0])            # f(y) = y - y^3
QUADRATIC = polynomial_driver([0.0, 0.0, -1.0])           # f(y) = -y^2


def tamed(base, kind, r0=1.0, exponent=None, h=0.125):
    return TamedDriver(base, TamingSpec(kind=kind, r0=r0, exponent=exponent), h=h)


# ---------------------------------------------------------------- evaluation

def test_eval_cubic():
    assert eval_driver(CUBIC, 0.0, 2.0, 0.0) == -8.0


def test_eval_fhn_root():
    assert eval_driver(FHN, 0.0, 1.0, 0.0) == 0.0


def test_eval_quadratic():
    assert eval_driver(QUADRATIC, 0.0, 3.0, 0.0) == -9.0


def test_eval_z_part():
    spec = polynomial_driver([1.0], z_coeff=0.5)
    assert eval_driver(spec, 0.0, 0.0, 4.0) == 3.0


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
    spec = DriverSpec(tuple(coeffs), 0.0, DriverConstants(0, 0, 0, 0, 0, 0, 0, 1))
    c = np.asarray(coeffs, dtype=float)
    with np.errstate(all="ignore"):
        assert _same_bits(spec.y_part(x), npoly.polyval(x, c))
        assert _same_bits(spec.y_part_slope(x), npoly.polyval(x, npoly.polyder(c)))
        if len(coeffs) <= 5:
            assert _same_bits(TerminalSpec(tuple(coeffs))(x), npoly.polyval(x, c))


# ---------------------------------------------------------------- taming maps

def test_inner_projection_forced():
    d = tamed(CUBIC, "inner_proj", r0=1.0, exponent=0.0)
    assert d(0.0, 2.0, 0.0) == -1.0


def test_outer_projection_forced():
    d = tamed(CUBIC, "outer_proj", r0=1.5, exponent=0.0)
    assert d(0.0, 2.0, 0.0) == -1.5


def test_mult_c_value():
    d = tamed(CUBIC, "mult_c", r0=1.0, exponent=0.0)
    assert d(0.0, 2.0, 0.0) == pytest.approx(-8.0 / 9.0, rel=1e-14)


def test_projections_are_identity_inside_the_ball():
    inner = tamed(CUBIC, "inner_proj", r0=2.0, exponent=0.0)
    outer = tamed(CUBIC, "outer_proj", r0=2.0, exponent=0.0)
    for y in (-1.2, -0.5, 0.0, 0.7, 1.2):
        if abs(y) <= 2.0:
            assert inner(0.0, y, 0.0) == eval_driver(CUBIC, 0.0, y, 0.0)
        if abs(y**3) <= 2.0:
            assert outer(0.0, y, 0.0) == eval_driver(CUBIC, 0.0, y, 0.0)


def test_mult_b_zero_convention():
    d = tamed(FHN, "mult_b", r0=1.0, exponent=0.0)
    # damping factor is 1 at y = 0, so the tamed driver agrees with f there
    assert d(0.0, 0.0, 0.0) == eval_driver(FHN, 0.0, 0.0, 0.0)


@given(y=st.floats(min_value=-25.0, max_value=25.0),
       kind=st.sampled_from(["none", "inner_proj", "outer_proj", "mult_a", "mult_b", "mult_c", "mult_d"]))
@settings(max_examples=200)
def test_pointwise_domination_on_cubic(y, kind):
    d = tamed(CUBIC, kind, r0=1.0, h=0.25)
    assert abs(d(0.0, y, 0.0)) <= abs(eval_driver(CUBIC, 0.0, y, 0.0)) + 1e-12


def test_residual_zero_inside_identity_region():
    inner = tamed(CUBIC, "inner_proj", r0=1.0, exponent=0.0)
    assert taming_residual(inner, 0.0, 0.5, 0.0) == 0.0
    outer = tamed(CUBIC, "outer_proj", r0=1.0, exponent=0.0)
    assert taming_residual(outer, 0.0, 0.9, 0.0) == 0.0


def test_residual_mult_c_value():
    d = tamed(CUBIC, "mult_c", r0=1.0, exponent=0.0)
    assert taming_residual(d, 0.0, 2.0, 0.0) == pytest.approx(-8.0 + 8.0 / 9.0, rel=1e-14)


def test_residual_vanishes_with_h():
    # for the projection kinds the residual is monotone along h = T/2^k once
    # the radius exceeds the relevant magnitude
    y = 3.0
    prev = np.inf
    for k in range(1, 10):
        d = tamed(CUBIC, "inner_proj", r0=1.0, h=2.0**-k)
        res = abs(taming_residual(d, 0.0, y, 0.0))
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


def test_untamed_growth_passes_but_lipschitz_fails_at_large_range():
    report = verify_assumptions(tamed(CUBIC, "none"), ProbePlan(y_max=50.0))
    assert report.checks["growth"].passed
    assert report.checks["domination"].passed
    assert not report.checks["lipschitz_y"].passed
    assert report.checks["lipschitz_y"].violations


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
        DriverSpec(())
    with pytest.raises(ValueError):
        TamingSpec(kind="sideways")
    with pytest.raises(ValueError):
        TamingSpec(kind="inner_proj", r0=0.0)
