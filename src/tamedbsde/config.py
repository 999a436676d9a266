"""Flat key/value experiment configuration.

The file format is line-oriented `section.key = value` pairs, `#` comments
and blank lines.  Values are scalars or comma-separated lists.  Example::

    horizon = 1.0
    seed = 7
    sde.x0 = 0.0
    sde.sigma = 1.25
    terminal.coeffs = 0,0,1          # g(x) = x^2
    driver.y_poly = 0,0,-1           # f(y) = -y^2
    grids = 10
    paths = 20000
    basis.size = 12
    scheme.1.label = inner
    scheme.1.kind = explicit_tamed
    scheme.1.taming = inner_proj
    scheme.1.r0 = 0.5
    output = positivity.csv

Scheme entries are numbered; each carries its own taming, `none` when it
names no `scheme.<n>.taming` (its `r0` and `exponent` keys are then unknown
keys).  Every number must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .drivers import DriverSpec, ProbePlan, TamedDriver, TamingSpec, polynomial_driver
from .forward import SdeSpec, TerminalSpec
from .grids import GAUSSIAN, NoiseModel, TRUNCATED, check_horizon, truncation_lambda
from .backward import IMPLICIT, SchemeSpec, check_implicit_guard


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


def checked_seed(seed: int) -> int:
    """The seed, if it is a Philox key: an integer in [0, 2^128)."""
    if not 0 <= seed < 2**128:
        raise ConfigError(f"seed must lie in [0, 2^128), got {seed}")
    return seed


@dataclass(frozen=True)
class SchemeRun:
    label: str
    scheme: SchemeSpec
    taming: TamingSpec


@dataclass
class ExperimentConfig:
    horizon: float
    seed: int
    sde: SdeSpec
    terminal: TerminalSpec
    driver: DriverSpec
    schemes: list[SchemeRun]
    grids: list[int]
    paths: int
    basis_size: int
    noise: NoiseModel
    output_path: str
    probe: ProbePlan = field(default_factory=ProbePlan)


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


_REQUIRED = object()
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _getter(convert, expected: str):
    """A _Reader method: the value of a key through `convert`, or the
    default as given; a value `convert` rejects is a ConfigError."""

    def get(self, key, default=_REQUIRED):
        v = self.str_(key, default)
        if not isinstance(v, str):
            return v
        try:
            return convert(v)
        except (KeyError, ValueError):
            raise ConfigError(f"key {key!r}: expected {expected}, got {v!r}") from None

    return get


class _Reader:
    def __init__(self, pairs: dict[str, str]):
        self.pairs = pairs
        self.seen: set[str] = set()

    def str_(self, key, default=_REQUIRED):
        self.seen.add(key)
        if key in self.pairs:
            return self.pairs[key]
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default

    float_ = _getter(_finite, "a finite number")
    int_ = _getter(int, "an integer")
    bool_ = _getter(lambda v: _BOOLS[v.lower()], "true/false")
    float_list = _getter(lambda v: [_finite(part) for part in v.split(",")],
                         "comma-separated finite numbers")
    int_list = _getter(lambda v: [int(part) for part in v.split(",")], "comma-separated integers")

    def unknown_keys(self):
        return sorted(set(self.pairs) - self.seen)


def _taming_from(reader: _Reader, prefix: str, kind: str) -> TamingSpec:
    r0 = reader.float_(f"{prefix}.r0", default=1.0)
    exponent = reader.float_(f"{prefix}.exponent", default=None)
    try:
        return TamingSpec(kind=kind, r0=r0, exponent=exponent)
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key/value format into an ExperimentConfig.

    Raises ConfigError on unknown keys, malformed values or inconsistent
    sections (nested grids, scheme numbering, noise model fields), and when
    an N of the ladder violates the implicit step guard or the truncated
    noise's Lambda floor.
    """
    pairs = _parse_pairs(text)
    r = _Reader(pairs)

    horizon = r.float_("horizon")
    seed = checked_seed(r.int_("seed"))
    try:
        check_horizon(horizon)
        sde = SdeSpec(
            x0=r.float_("sde.x0", default=0.0),
            drift_const=r.float_("sde.b0", default=0.0),
            drift_slope=r.float_("sde.b1", default=0.0),
            diff_const=r.float_("sde.sigma", default=1.0),
            diff_slope=r.float_("sde.sigma_slope", default=0.0),
        )
        terminal = TerminalSpec(tuple(r.float_list("terminal.coeffs")))
        driver = polynomial_driver(
            r.float_list("driver.y_poly"),
            z_coeff=r.float_("driver.z_coeff", default=0.0),
            domain_bound=r.float_("driver.domain_bound", default=10.0),
        )
        # optional sharper declarations, e.g. M_y = 0 for a driver that is
        # monotone on the domain the solution actually lives in
        m_y = r.float_("driver.m_y", default=None)
        l_y = r.float_("driver.l_y", default=None)
        if m_y is not None or l_y is not None:
            cons = replace(
                driver.constants,
                **({"m_y": m_y} if m_y is not None else {}),
                **({"l_y": l_y} if l_y is not None else {}),
            )
            driver = DriverSpec(driver.y_coeffs, driver.z_coeff, cons)
        probe = ProbePlan(
            y_max=r.float_("tolerances.probe_y_max", default=10.0),
            z_max=r.float_("tolerances.probe_z_max", default=10.0),
            samples=r.int_("tolerances.probe_samples", default=10_000),
            rel_slack=r.float_("tolerances.rel_slack", default=1e-9),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    grids = r.int_list("grids")
    if any(n < 1 for n in grids):
        raise ConfigError("grids must be positive integers")
    if grids != sorted(grids) or len(set(grids)) != len(grids):
        raise ConfigError("grids must be strictly ascending")
    if any(grids[-1] % n for n in grids):
        raise ConfigError(f"grids must be nested: every N must divide the largest ({grids[-1]})")

    paths = r.int_("paths")
    if paths < 1:
        raise ConfigError("paths must be >= 1")

    kind = r.str_("noise.kind", default=GAUSSIAN)
    try:
        noise = NoiseModel(
            kind=kind,
            radius0=r.float_("noise.r0", default=2.0) if kind == TRUNCATED else None,
            use_log_schedule=r.bool_("noise.log_schedule", default=True) if kind == TRUNCATED else False,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    indices = sorted({int(k.split(".")[1]) for k in pairs if k.startswith("scheme.")
                      if k.split(".")[1].isdigit()})
    schemes: list[SchemeRun] = []
    for idx in indices:
        prefix = f"scheme.{idx}"
        kind = r.str_(f"{prefix}.kind")
        label = r.str_(f"{prefix}.label", default=f"scheme{idx}")
        taming_kind = r.str_(f"{prefix}.taming", default=None)
        taming = TamingSpec() if taming_kind is None else _taming_from(r, prefix, taming_kind)
        try:
            scheme = SchemeSpec(kind=kind, theta_prime=r.float_(f"{prefix}.theta_prime", default=1.0))
        except ValueError as exc:
            raise ConfigError(f"{prefix}: {exc}") from None
        schemes.append(SchemeRun(label=label, scheme=scheme, taming=taming))
    if len({run.label for run in schemes}) != len(schemes):
        raise ConfigError("scheme labels must be unique")

    # accepted for old configs and ignored: every study runs on one thread
    if r.int_("threads", default=1) < 1:
        raise ConfigError("threads must be >= 1")

    cfg = ExperimentConfig(
        horizon=horizon,
        seed=seed,
        sde=sde,
        terminal=terminal,
        driver=driver,
        schemes=schemes,
        grids=grids,
        paths=paths,
        basis_size=r.int_("basis.size", default=6),
        noise=noise,
        output_path=r.str_("output", default="report.csv"),
        probe=probe,
    )
    unknown = r.unknown_keys()
    if unknown:
        raise ConfigError(f"unknown configuration keys: {', '.join(unknown)}")
    if cfg.basis_size < 1:
        raise ConfigError("basis.size must be >= 1")
    if not cfg.schemes:
        raise ConfigError("at least one scheme.<n>.* entry is required")
    _check_ladder(cfg)
    return cfg


def _check_ladder(cfg: ExperimentConfig) -> None:
    """What must hold at every N of the ladder: the implicit step guard, when
    an implicit scheme is configured, the Lambda floor of truncated noise,
    and a finite taming radius r0 h^(-exponent) for every scheme."""
    implicit = any(run.scheme.kind == IMPLICIT for run in cfg.schemes)
    for n in cfg.grids:
        h = cfg.horizon / n
        try:
            if implicit:
                check_implicit_guard(h, cfg.driver.constants.m_y)
            if cfg.noise.kind == TRUNCATED:
                truncation_lambda(cfg.noise, h)
        except ValueError as exc:
            raise ConfigError(f"N={n}: {exc}") from None
        for run in cfg.schemes:
            try:
                radius = TamedDriver(cfg.driver, run.taming, h).radius
            except OverflowError:
                radius = math.inf
            if not math.isfinite(radius):
                raise ConfigError(f"scheme {run.label!r}, N={n}: the taming radius "
                                  "r0 * h^(-exponent) is not finite")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8 text: {exc}") from None
    return parse_config(text)
