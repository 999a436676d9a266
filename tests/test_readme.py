import math
import os
import re

from tamedbsde import parse_config
from tamedbsde.grids import TRUNCATED, NoiseModel

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_example_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert math.isfinite(float(capsys.readouterr().out))


# where parse_config puts the value of each key whose README default is a
# number; the config below sets none of them
DOCUMENTED_DEFAULTS = {
    "sde.x0": lambda cfg: cfg.sde.x0,
    "sde.b0": lambda cfg: cfg.sde.drift_const,
    "sde.b1": lambda cfg: cfg.sde.drift_slope,
    "sde.sigma": lambda cfg: cfg.sde.diff_const,
    "sde.sigma_slope": lambda cfg: cfg.sde.diff_slope,
    "driver.z_coeff": lambda cfg: cfg.driver.z_coeff,
    "driver.domain_bound": lambda cfg: cfg.driver.constants.domain_bound,
    "tolerances.probe_y_max": lambda cfg: cfg.probe.y_max,
    "tolerances.probe_z_max": lambda cfg: cfg.probe.z_max,
    "tolerances.probe_samples": lambda cfg: cfg.probe.samples,
    "tolerances.rel_slack": lambda cfg: cfg.probe.rel_slack,
    "scheme.<n>.r0": lambda cfg: cfg.schemes[0].taming.r0,
    "scheme.<n>.theta_prime": lambda cfg: cfg.schemes[0].scheme.theta_prime,
}
MINIMAL = """
horizon = 1.0
seed = 1
terminal.coeffs = 0,1
driver.y_poly = 0,0,0,-1
grids = 4
paths = 10
scheme.1.kind = explicit_tamed
scheme.1.taming = inner_proj
"""


def _documented_defaults() -> dict[str, str]:
    """{key: default} from the README's config-key table: a row's keys (a
    `prefix.a/b` cell names prefix.a and prefix.b) paired in order with
    the comma-separated entries of its default cell."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Config file format", 1)[1]
    table = next(block for block in section.split("\n\n") if block.startswith("| key |"))
    defaults = {}
    for line in table.splitlines()[2:]:
        keys_cell, _, default_cell = [cell.strip() for cell in line.strip("|").split("|")]
        keys = []
        for key in re.findall(r"`([^`]+)`", keys_cell):
            prefix, _, last = key.rpartition(".")
            keys += [f"{prefix}.{part}" for part in last.split("/")]
        defaults.update(zip(keys, (entry.strip() for entry in default_cell.split(","))))
    return defaults


def test_readme_numeric_defaults_are_the_parsed_ones():
    documented = _documented_defaults()
    cfg = parse_config(MINIMAL)
    for key, value in DOCUMENTED_DEFAULTS.items():
        assert float(documented[key]) == value(cfg), key


def test_readme_noise_defaults_are_the_model_types():
    # a config that names only the truncated kind builds the library's
    # truncated NoiseModel, with the README's R0 and schedule
    documented = _documented_defaults()
    noise = parse_config(MINIMAL + "noise.kind = truncated_gaussian\n").noise
    assert noise == NoiseModel(kind=TRUNCATED)
    assert (noise.radius0, noise.use_log_schedule) == (float(documented["noise.r0"]), True)
    assert documented["noise.log_schedule"] == "true"
