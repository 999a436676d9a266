"""Polynomial drivers, the taming family, derived step-size constants and
the runtime assumption verifier.

A driver is f(y, z) = P(y) + z_coeff * z with P polynomial.  Tamings act
on the y-part P only, leaving the (linear, Lipschitz) z-part untouched; this
keeps the z-regularity constant exact under every taming and matches all the
experiment configurations, which are z-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

NONE = "none"
INNER_PROJ = "inner_proj"
OUTER_PROJ = "outer_proj"
MULT_A = "mult_a"
MULT_B = "mult_b"
MULT_C = "mult_c"
MULT_D = "mult_d"
TAMING_KINDS = (NONE, INNER_PROJ, OUTER_PROJ, MULT_A, MULT_B, MULT_C, MULT_D)
MULT_KINDS = (MULT_A, MULT_B, MULT_C, MULT_D)

# the default |y| range on which a driver's m_y (and l_y) are certified
DOMAIN_BOUND = 10.0


@dataclass(frozen=True)
class DriverConstants:
    """Growth / monotonicity / regularity constants of the base driver.

    k_t, k_y, k_z : |f| <= k_t + k_y |y|^m + k_z |z|
    m_y           : one-sided Lipschitz constant in y
    l_y, l_z      : local-Lipschitz-in-y, Lipschitz-in-z
    domain_bound  : |y| range on which m_y (and l_y) were certified; the
                    growth constants are global for polynomials.
    """

    k_t: float
    k_y: float
    k_z: float
    m_y: float
    l_y: float
    l_z: float
    domain_bound: float


def _real_roots(coeffs) -> np.ndarray:
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if c.size <= 1:
        return np.array([])
    roots = npoly.polyroots(c)
    real = roots[np.abs(roots.imag) < 1e-9].real
    return real


# a polynomial far beyond its certified range overflows quietly: a constant
# comes out non-finite instead of warning (checked_constants rejects those
# of a tamed driver)
@np.errstate(over="ignore", invalid="ignore")
def derive_base_constants(y_coeffs, z_coeff: float, domain_bound: float) -> DriverConstants:
    """Constants for a polynomial driver, exact where the polynomial allows.

    The growth constants are global.  The one-sided Lipschitz constant is
    sup P' over [-domain_bound, domain_bound] (critical points included),
    which is global whenever P' is bounded above, e.g. for odd degree with
    negative leading coefficient.
    """
    if not 0.0 < domain_bound < math.inf:
        raise ValueError(f"driver domain_bound must be positive and finite, got {domain_bound}")
    c = np.asarray(y_coeffs, dtype=float)
    nz = np.nonzero(c)[0]
    m = int(nz[-1]) if nz.size else 0
    mm = max(m, 1)
    abs_c = np.abs(c)
    k_t = float(np.sum(abs_c[:mm])) if c.size > 1 else float(abs_c.sum())
    k_y = float(np.sum(abs_c))
    dP = npoly.polyder(c) if c.size > 1 else np.zeros(1)
    ddP = npoly.polyder(dP) if dP.size > 1 else np.zeros(1)
    cands = list(_real_roots(ddP)) + [-domain_bound, domain_bound]
    cands = [u for u in cands if abs(u) <= domain_bound + 1e-12]
    m_y = float(np.max(horner(polynomial_terms(dP), np.asarray(cands, dtype=float))))
    # |y'^k - y^k| <= k max(|y'|,|y|)^{k-1} |y'-y| gives the global local-
    # Lipschitz certificate below
    l_y = float(sum(k * abs(ck) for k, ck in enumerate(c)))
    return DriverConstants(
        k_t=k_t, k_y=k_y, k_z=abs(float(z_coeff)),
        m_y=m_y, l_y=l_y, l_z=abs(float(z_coeff)),
        domain_bound=float(domain_bound),
    )


@dataclass(frozen=True)
class DriverSpec:
    """Base driver f(y, z) = sum_k a_k y^k + z_coeff * z with its constants
    (polynomial_driver derives them)."""

    y_coeffs: tuple[float, ...]
    z_coeff: float
    constants: DriverConstants

    def __post_init__(self):
        if len(self.y_coeffs) == 0:
            raise ValueError("driver needs at least one y coefficient")

    # The properties below are computed once per instance; cached_property
    # stores them in the instance dict, which a frozen dataclass allows.
    @cached_property
    def growth_power(self) -> int:
        """Polynomial growth degree m >= 1 used by the taming formulas: the
        degree of P, or 1 for a constant P."""
        return max([1] + [k for k, a in enumerate(self.y_coeffs) if a != 0.0])

    @cached_property
    def y_terms(self) -> tuple[np.float64, ...]:
        """y_coeffs as float64 scalars for `horner`, lowest degree first."""
        return polynomial_terms(self.y_coeffs)

    @cached_property
    def slope_terms(self) -> tuple[np.float64, ...]:
        """Coefficients of P' for `horner` ((0.0,) for a constant P)."""
        return polynomial_terms(npoly.polyder(np.asarray(self.y_coeffs, dtype=float)))

    @cached_property
    def value_at_zero(self) -> np.float64:
        """P(0), as y_part(0.0) computes it."""
        return self.y_part(0.0)

    def y_part(self, y):
        return horner(self.y_terms, y)

    def y_part_slope(self, y):
        return horner(self.slope_terms, y)


def polynomial_terms(coeffs) -> tuple[np.float64, ...]:
    """Polynomial coefficients, lowest degree first, as the float64 scalars
    `horner` takes."""
    return tuple(np.asarray(coeffs, dtype=float))


def horner(terms: tuple[np.float64, ...], x):
    """sum_k terms[k] x^k for a scalar or an array x.

    The operations and their order are those of
    numpy.polynomial.polynomial.polyval (zero terms included), so the result
    is bitwise equal to polyval(x, terms), signed zeros and inf * 0 -> nan
    included; only polyval's per-call coercion and reshape are left out.
    """
    acc = x * 0.0
    acc += terms[-1]
    # in place on an array (a scalar rebinds): the same operations without
    # a temporary per term
    for a in terms[-2::-1]:
        acc *= x
        acc += a
    return acc


def polynomial_driver(y_coeffs, z_coeff: float = 0.0, domain_bound: float = DOMAIN_BOUND) -> DriverSpec:
    """DriverSpec with constants derived for the polynomial on |y| <= domain_bound."""
    coeffs = tuple(float(a) for a in y_coeffs)
    return DriverSpec(coeffs, float(z_coeff), derive_base_constants(coeffs, z_coeff, domain_bound))


def eval_driver(spec: DriverSpec, y, z):
    """f(y, z)."""
    return spec.y_part(y) + spec.z_coeff * np.asarray(z, dtype=float)


@dataclass(frozen=True)
class TamingSpec:
    """Which modification to apply to the y-part and how fast its radius grows.

    radius(h) = r0 * h^(-exponent).  When exponent is None a kind-specific
    default is resolved against the driver degree m: 1/(2(m-1)) for the
    inner projection (1/2 when m = 1), 1/2 for the outer projection and the
    multiplicative kinds, 0 for kind "none".
    """

    kind: str = NONE
    r0: float = 1.0
    exponent: float | None = None

    def __post_init__(self):
        if self.kind not in TAMING_KINDS:
            raise ValueError(f"unknown taming kind {self.kind!r}; expected one of {TAMING_KINDS}")
        if not self.r0 > 0.0:
            raise ValueError("taming r0 must be positive")
        if self.exponent is not None and not self.exponent >= 0.0:
            raise ValueError("taming exponent must be >= 0")

    def resolved_exponent(self, degree: int) -> float:
        if self.exponent is not None:
            return float(self.exponent)
        if self.kind == NONE:
            return 0.0
        if self.kind == INNER_PROJ:
            return 0.5 if degree <= 1 else 1.0 / (2.0 * (degree - 1))
        return 0.5


def _damping_numerator(kind: str, base: DriverSpec, y, p):
    """F(y) in the damping factor 1 / (1 + F(y)/r) of a multiplicative
    kind; p is P(y)."""
    m = base.growth_power
    if kind == MULT_A:
        return np.abs(p)
    if kind == MULT_B:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.abs(p - base.value_at_zero) / np.abs(y)
        return np.where(y == 0.0, 0.0, ratio)
    if kind == MULT_C:
        return np.abs(y) ** m
    if kind == MULT_D:
        return np.abs(y) ** (m - 1)
    raise AssertionError(kind)


def _rows(mask: np.ndarray):
    """An index of the rows where `mask` holds: Ellipsis for all of them, a
    slice for one run of rows (both give views), else the row numbers."""
    rows = np.flatnonzero(mask)
    if rows.size == mask.size:
        return ...
    if rows[-1] - rows[0] == rows.size - 1:
        return slice(rows[0], rows[-1] + 1)
    return rows


class TamingBlock:
    """The tamed y-parts f^h of drivers that share one base driver, on the
    rows of a (rows, nodes) block: row k is tamed as drivers[k] tames it.
    A block of one driver tames an array of any shape.

    One Horner pass serves every row: the inner-projection rows of y are
    clipped into a copy first, then the outer-projection rows of P are
    clipped and the multiplicative rows damped by 1 / (1 + F(y)/r), each
    row with its own radius r.  Every operation is elementwise, so a row
    comes out the same whatever else is in the block.
    """

    def __init__(self, drivers):
        base = drivers[0].base
        if any(d.base != base for d in drivers[1:]):
            raise ValueError("the drivers of a taming block must share one base driver")
        self.base = base
        kinds = np.array([d.taming.kind for d in drivers])
        radius = np.array([[d.radius] for d in drivers])
        if len(drivers) == 1:
            radius = radius[0, 0]

        def part(mask):
            if not mask.any():
                return None
            rows = _rows(mask)
            r = radius if rows is ... else radius[rows]
            return rows, -r, r

        self.inner = part(kinds == INNER_PROJ)
        self.outer = part(kinds == OUTER_PROJ)
        mult = np.isin(kinds, MULT_KINDS)
        self.mult = part(mult)
        # each multiplicative kind's rows among the multiplicative rows
        self.mult_kinds = [(kind, _rows(kinds[mult] == kind)) for kind in MULT_KINDS
                           if kind in kinds]

    def tamed_y_part(self, y):
        """f^h's y-part of each row of y, as a new array of y's shape (a
        scalar for a scalar y)."""
        y = np.asarray(y, dtype=float)
        if y.ndim == 0:
            return self.tamed_y_part(y.reshape(1))[0]
        x = y
        if self.inner is not None:
            rows, lo, hi = self.inner
            x = y.copy()
            x[rows] = np.clip(y[rows], lo, hi)
        p = horner(self.base.y_terms, x)
        if self.outer is not None:
            rows, lo, hi = self.outer
            p[rows] = np.clip(p[rows], lo, hi)
        if self.mult is not None:
            rows, _, r = self.mult
            y_m, p_m = y[rows], p[rows]
            # with one kind, its F is the whole (fresh) damping array
            damping = np.empty_like(p_m) if len(self.mult_kinds) > 1 else None
            for kind, sub in self.mult_kinds:
                f = _damping_numerator(kind, self.base, y_m[sub], p_m[sub])
                if damping is None:
                    damping = f
                else:
                    damping[sub] = f
            # p / (1 + F/r), the quotient written over the damping
            damping /= r
            damping += 1.0
            np.divide(p_m, damping, out=damping)
            p[rows] = damping
        return p


@dataclass(frozen=True)
class TamedDriver:
    """A base driver with its taming instantiated at a fixed step size h."""

    base: DriverSpec
    taming: TamingSpec
    h: float

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError("h must be positive")

    @cached_property
    def exponent(self) -> float:
        return self.taming.resolved_exponent(self.base.growth_power)

    @cached_property
    def radius(self) -> float:
        return self.taming.r0 * self.h ** (-self.exponent)

    @cached_property
    def _taming(self) -> TamingBlock:
        return TamingBlock((self,))

    def tamed_y_part(self, y):
        """f^h's y-part at y: the block of one of TamingBlock."""
        return self._taming.tamed_y_part(y)

    def __call__(self, y, z):
        return self.tamed_y_part(y) + self.base.z_coeff * np.asarray(z, dtype=float)

    def y_slope(self, y):
        """d f^h / dy, used by the implicit solver's Newton step.

        Analytic for every kind except mult_b, which falls back to a central
        difference (its damping factor has no convenient closed derivative).
        """
        y = np.asarray(y, dtype=float)
        base, kind, r = self.base, self.taming.kind, self.radius
        if kind == NONE:
            return base.y_part_slope(y)
        if kind == INNER_PROJ:
            return np.where(np.abs(y) <= r, base.y_part_slope(np.clip(y, -r, r)), 0.0)
        if kind == OUTER_PROJ:
            return np.where(np.abs(base.y_part(y)) <= r, base.y_part_slope(y), 0.0)
        if kind == MULT_B:
            eps = 1e-7 * np.maximum(1.0, np.abs(y))
            return (self.tamed_y_part(y + eps) - self.tamed_y_part(y - eps)) / (2.0 * eps)
        p = base.y_part(y)
        dp = base.y_part_slope(y)
        f_num = _damping_numerator(kind, base, y, p)
        m = base.growth_power
        if kind == MULT_A:
            df_num = np.sign(p) * dp
        elif kind == MULT_C:
            df_num = m * np.abs(y) ** (m - 1) * np.sign(y)
        else:  # MULT_D
            df_num = 0.0 * y if m == 1 else (m - 1) * np.abs(y) ** (m - 2) * np.sign(y)
        denom = 1.0 + f_num / r
        return (dp * denom - p * df_num / r) / denom**2


@dataclass(frozen=True)
class DerivedConstants:
    """Step-size constants of a tamed driver.

    k_t + k_y |y|^growth_degree + k_z |z| bounds |f^h|; l_* are its
    regularity constants, mbar_* its monotone-growth constants, m_y its
    one-sided Lipschitz constant (remainder-up-to for projection kinds).
    empirical=True marks constants certified on a sampling grid rather than
    in closed form.
    """

    h: float
    radius: float
    k_t: float
    k_y: float
    k_z: float
    l_y: float
    l_z: float
    mbar_t: float
    mbar_y: float
    mbar_z: float
    m_y: float
    growth_degree: int
    empirical: bool

    @property
    def k_y_sq_h(self) -> float:
        """Boundedness witness (K^h_y)^2 h; stays bounded along h -> 0 for admissible exponents."""
        return self.k_y**2 * self.h

    @property
    def l_y_sq_h(self) -> float:
        """Boundedness witness (L^h_y)^2 h."""
        return self.l_y**2 * self.h


def _outer_lipschitz(coeffs, r: float) -> float:
    """max |P'(u)| over the sub-level set {|P(u)| <= r}.

    Exact for polynomials: the maximum is attained at a boundary point of
    the sub-level set (a root of P -+ r) or at a critical point of P'.
    """
    c = np.asarray(coeffs, dtype=float)
    dP = npoly.polyder(c) if c.size > 1 else np.zeros(1)
    ddP = npoly.polyder(dP) if dP.size > 1 else np.zeros(1)
    cands = [0.0]
    hi = c.copy(); hi[0] -= r
    lo = c.copy(); lo[0] += r
    cands += list(_real_roots(hi)) + list(_real_roots(lo)) + list(_real_roots(ddP))
    cands = np.asarray(cands, dtype=float)
    inside = np.abs(horner(polynomial_terms(c), cands)) <= r * (1.0 + 1e-12) + 1e-12
    if not inside.any():
        return 0.0
    return float(np.max(np.abs(horner(polynomial_terms(dP), cands[inside]))))


# Young parameter of the monotone-growth constants
_YOUNG_ALPHA = 1.0
# grid points of an empirical (grid-certified) constant on [-domain_bound, domain_bound]
_PROFILE_POINTS = 2001


def _monotone_growth_base(base: DriverSpec) -> tuple[float, float, float]:
    """(mbar_t, mbar_y, mbar_z) with y.f <= mbar_t + mbar_y y^2 + mbar_z z^2,
    obtained from the monotonicity and growth constants with Young parameter
    _YOUNG_ALPHA."""
    c = base.constants
    return c.k_t**2 / (2 * _YOUNG_ALPHA), c.m_y + _YOUNG_ALPHA, c.k_z**2 / (2 * _YOUNG_ALPHA)


def _empirical_profile(driver: TamedDriver):
    b = driver.base.constants.domain_bound
    ys = np.linspace(-b, b, _PROFILE_POINTS)
    vals = driver.tamed_y_part(ys)
    return ys, vals


@np.errstate(over="ignore", invalid="ignore")  # as derive_base_constants
def derive_constants(driver: TamedDriver) -> DerivedConstants:
    """Constants of f^h at the driver's step size.

    Closed forms for the inner/outer projections and the multiplicative
    kinds (c) and (d); the black-box kinds (a), (b) and the untamed driver
    get grid-certified constants flagged `empirical` (their growth is known
    qualitatively but carries no published closed form).
    """
    base, kind, h, r = driver.base, driver.taming.kind, driver.h, driver.radius
    c = base.constants
    m = base.growth_power
    mbar_t, mbar_y, mbar_z = _monotone_growth_base(base)
    common = dict(h=h, radius=r, k_z=c.k_z, l_z=c.l_z, m_y=c.m_y)

    if kind == INNER_PROJ:
        return DerivedConstants(
            k_t=c.k_t, k_y=c.k_y * r ** (m - 1),
            l_y=2.0 * c.l_y * (1.0 + 2.0 * r ** (m - 1)),
            mbar_t=c.k_t**2 / 2.0, mbar_y=max(0.0, c.m_y) + 1.0, mbar_z=c.k_z**2 / 2.0,
            growth_degree=1, empirical=False, **common,
        )
    if kind == OUTER_PROJ:
        return DerivedConstants(
            k_t=r, k_y=0.0,
            l_y=_outer_lipschitz(base.y_coeffs, r),
            mbar_t=max(0.0, mbar_t), mbar_y=max(0.0, mbar_y), mbar_z=mbar_z,
            growth_degree=1, empirical=False, **common,
        )
    if kind == MULT_C:
        return DerivedConstants(
            k_t=c.k_t + c.k_y * r, k_y=0.0,
            l_y=c.l_y * (1.0 + 2.0 * r),
            mbar_t=mbar_t, mbar_y=max(0.0, mbar_y), mbar_z=mbar_z,
            growth_degree=1, empirical=False, **common,
        )
    if kind == MULT_D:
        return DerivedConstants(
            k_t=c.k_t, k_y=c.k_y * r,
            l_y=c.l_y * (3.0 + 2.0 * r),
            mbar_t=mbar_t, mbar_y=max(0.0, mbar_y), mbar_z=mbar_z,
            growth_degree=1, empirical=False, **common,
        )

    if kind == NONE:
        # the base growth bound (degree m) is the honest certificate; a
        # finite global Lipschitz constant does not exist for m >= 2, so the
        # grid value below is domain-limited by construction
        ys, vals = _empirical_profile(driver)
        slopes = np.abs(np.diff(vals) / np.diff(ys))
        return DerivedConstants(
            k_t=c.k_t, k_y=c.k_y,
            l_y=float(slopes.max()),
            mbar_t=mbar_t, mbar_y=mbar_y, mbar_z=mbar_z,
            growth_degree=m, empirical=True, **common,
        )

    # mult_a / mult_b: grid-certified linear growth and Lipschitz constants;
    # the monotone-growth constants stay closed-form (any damping factor in
    # [0, 1] preserves them)
    ys, vals = _empirical_profile(driver)
    av = np.abs(vals)
    v0 = float(np.abs(driver.tamed_y_part(0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        slope_bound = (av - v0) / np.abs(ys)
    k_y = float(np.nanmax(np.where(np.abs(ys) > 1e-9, slope_bound, -np.inf)))
    k_y = max(k_y, 0.0)
    k_t = float(np.max(av - k_y * np.abs(ys)))
    slopes = np.abs(np.diff(vals) / np.diff(ys))
    return DerivedConstants(
        k_t=k_t, k_y=k_y,
        l_y=float(slopes.max()),
        mbar_t=mbar_t, mbar_y=max(0.0, mbar_y), mbar_z=mbar_z,
        growth_degree=1, empirical=True, **common,
    )


@dataclass(frozen=True)
class ProbePlan:
    """Sampling plan of the assumption verifier."""

    y_max: float = 10.0
    z_max: float = 10.0
    samples: int = 10_000
    rel_slack: float = 1e-9

    def __post_init__(self):
        if not (self.y_max > 0.0 and self.z_max > 0.0):
            raise ValueError(f"probe range must be positive, got y_max={self.y_max}, z_max={self.z_max}")
        if self.samples < 0:
            raise ValueError(f"probe samples must be >= 0, got {self.samples}")
        if not self.rel_slack >= 0.0:
            raise ValueError(f"probe rel_slack must be >= 0, got {self.rel_slack}")


@dataclass
class AssumptionCheck:
    name: str
    passed: bool
    worst_margin: float
    fitted_constant: float | None = None
    violations: list = field(default_factory=list)


@dataclass
class AssumptionReport:
    constants: DerivedConstants
    checks: dict[str, AssumptionCheck]

    @property
    def passed(self) -> bool:
        return all(ch.passed for ch in self.checks.values())


# violations an AssumptionCheck lists, the first in probe order
_MAX_VIOLATIONS = 10


def _collect(name, margins, samples, slack, fitted=None) -> AssumptionCheck:
    worst = float(np.max(margins)) if margins.size else 0.0
    bad = np.nonzero(~(margins <= slack))[0]  # a NaN margin (the probe overflowed) fails too
    viol = [tuple(float(v) for v in samples[j]) + (float(margins[j]),)
            for j in bad[:_MAX_VIOLATIONS]]
    return AssumptionCheck(name, bad.size == 0, worst, fitted, viol)


def _fit_constant(excess, weight):
    """Smallest C with excess <= C * weight on the probe; 0 when nothing exceeds."""
    pos = excess > 0
    if not pos.any():
        return 0.0
    return float(np.max(excess[pos] / weight[pos]))


def checked_constants(driver: TamedDriver) -> DerivedConstants:
    """derive_constants(driver), which needs a finite taming radius
    r0 h^(-exponent) and must give finite K^h_y, L^h_y, (K^h_y)^2 h and
    (L^h_y)^2 h; ValueError rejects a driver that breaks either, the radius
    first.  Every study applies this rule to the drivers it runs."""
    try:
        radius = driver.radius
    except OverflowError:
        radius = math.inf
    if not math.isfinite(radius):
        raise ValueError("the taming radius r0 * h^(-exponent) is not finite")
    try:
        cons = derive_constants(driver)
        finite = all(map(math.isfinite, (cons.k_y, cons.l_y, cons.k_y_sq_h, cons.l_y_sq_h)))
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError("the derived constants K^h_y, L^h_y, (K^h_y)^2 h and (L^h_y)^2 h "
                         "are not all finite")
    return cons


# a probe far beyond the certified range overflows quietly: its margins fail
@np.errstate(over="ignore", invalid="ignore")
def verify_assumptions(driver: TamedDriver, probe: ProbePlan | None = None) -> AssumptionReport:
    """Evaluate the tamed-driver assumptions on a quasi-uniform probe.

    Checks, in order: pointwise domination |f^h| <= |f|, linear (or, for the
    untamed driver, degree-m) growth with the derived constants, the
    monotone-growth inequality, the almost-Lipschitz-in-y inequality and the
    almost-monotonicity inequality with their kind-specific remainders, and
    the vanishing of the residual f - f^h on the identity region.  Where a
    remainder only admits an existence statement, the verifier fits the
    constant on the probe and reports it instead of asserting a value.
    Failures are report entries, never exceptions; only derived constants
    that are not finite are rejected, before any probe (checked_constants).
    """
    probe = probe or ProbePlan()
    cons = checked_constants(driver)
    base, kind = driver.base, driver.taming.kind
    m = base.growth_power
    r = driver.radius
    h_pow = driver.h ** driver.exponent if kind in MULT_KINDS else 1.0

    n_y = max(int(math.isqrt(probe.samples)), 2)
    ys = np.linspace(-probe.y_max, probe.y_max, n_y)
    zs = np.array([0.0]) if base.z_coeff == 0.0 else np.array([-probe.z_max, 0.0, probe.z_max])

    checks: dict[str, AssumptionCheck] = {}

    # pointwise checks on (y, z) singles
    yy = np.repeat(ys, zs.size)
    zz = np.tile(zs, ys.size)
    fh = driver(yy, zz)
    f = eval_driver(base, yy, zz)
    singles = np.column_stack([yy, zz])

    rhs = np.abs(f)
    slack = probe.rel_slack * (1.0 + np.abs(rhs))
    checks["domination"] = _collect("domination", np.abs(fh) - rhs, singles, slack)

    rhs = cons.k_t + cons.k_y * np.abs(yy) ** cons.growth_degree + cons.k_z * np.abs(zz)
    slack = probe.rel_slack * (1.0 + np.abs(rhs))
    checks["growth"] = _collect("growth", np.abs(fh) - rhs, singles, slack)

    rhs = cons.mbar_t + cons.mbar_y * yy**2 + cons.mbar_z * zz**2
    slack = probe.rel_slack * (1.0 + np.abs(rhs))
    checks["monotone_growth"] = _collect("monotone_growth", yy * fh - rhs, singles, slack)

    # pair checks on (y', y) at z = 0 (the z-part is linear and untouched)
    yp, y = [a.ravel() for a in np.meshgrid(ys, ys, indexing="ij")]
    pairs = np.column_stack([yp, y])
    dy = yp - y
    dfh = driver(yp, 0.0) - driver(y, 0.0)

    lip_excess = np.abs(dfh) - cons.l_y * np.abs(dy)
    mon_excess = dy * dfh - cons.m_y * dy**2
    if kind in MULT_KINDS:
        w_reg = (1.0 + np.abs(yp) ** (2 * m) + np.abs(y) ** (2 * m)) * h_pow
        c_reg = _fit_constant(lip_excess, w_reg)
        sl = probe.rel_slack * (1.0 + cons.l_y * np.abs(dy) + c_reg * w_reg)
        checks["lipschitz_y"] = _collect(
            "lipschitz_y", lip_excess - c_reg * w_reg, pairs, sl, fitted=c_reg)
        c_mon = _fit_constant(mon_excess, w_reg)
        sl = probe.rel_slack * (1.0 + np.abs(cons.m_y) * dy**2 + c_mon * w_reg)
        checks["monotonicity"] = _collect(
            "monotonicity", mon_excess - c_mon * w_reg, pairs, sl, fitted=c_mon)
    else:
        # projections (and the untamed driver) are exactly L^h_y-Lipschitz
        sl = probe.rel_slack * (1.0 + cons.l_y * np.abs(dy))
        checks["lipschitz_y"] = _collect("lipschitz_y", lip_excess, pairs, sl)
        if kind == NONE:
            sl = probe.rel_slack * (1.0 + np.abs(cons.m_y) * dy**2)
            checks["monotonicity"] = _collect("monotonicity", mon_excess, pairs, sl)
        else:
            if kind == INNER_PROJ:
                outside = (np.abs(yp) > r) | (np.abs(y) > r)
            else:
                outside = (np.abs(base.y_part(yp)) > r) | (np.abs(base.y_part(y)) > r)
            w_mon = 1.0 + np.abs(yp) ** (2 * m) + np.abs(y) ** (2 * m)
            c_mon = _fit_constant(np.where(outside, mon_excess, -np.inf), w_mon)
            rem = np.where(outside, c_mon * w_mon, 0.0)
            sl = probe.rel_slack * (1.0 + np.abs(cons.m_y) * dy**2 + rem)
            checks["monotonicity"] = _collect(
                "monotonicity", mon_excess - rem, pairs, sl, fitted=c_mon)

    # residual consistency: zero on the identity region, fitted bound beyond
    res = np.abs(f - fh)
    if kind == NONE:
        checks["residual"] = _collect("residual", res, singles, probe.rel_slack * (1.0 + np.abs(f)))
    elif kind == INNER_PROJ or kind == OUTER_PROJ:
        inside = np.abs(yy) <= r if kind == INNER_PROJ else np.abs(f) <= r
        w = 1.0 + np.abs(yy) ** m + np.abs(zz)
        c_res = _fit_constant(np.where(~inside, res, -np.inf), w)
        rem = np.where(inside, 0.0, c_res * w)
        sl = probe.rel_slack * (1.0 + np.abs(f) + rem)
        checks["residual"] = _collect("residual", res - rem, singles, sl, fitted=c_res)
    else:
        w = (1.0 + np.abs(yy) ** (2 * m) + np.abs(zz)) * h_pow
        c_res = _fit_constant(res, w)
        sl = probe.rel_slack * (1.0 + np.abs(f) + c_res * w)
        checks["residual"] = _collect("residual", res - c_res * w, singles, sl, fitted=c_res)

    return AssumptionReport(constants=cons, checks=checks)
