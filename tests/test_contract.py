"""The CLI contract under edge-valued configs: every run of every
subcommand ends in exit 0, 2, 3 or 4, raises nothing and lets no warning
escape; exit 0 writes the output, and any other code leaves an existing
output file byte-identical (and no temporary file beside it); an exit-2
message names a config key, a scheme or an N, except the allocation
failure's ("cannot allocate memory"), which passes numpy's message on.

Each example starts from BASE, a tiny config every subcommand accepts, sets
one to MAX_CHANGES of its keys (drawn from POOLS, which holds every key
config.py reads) to values from that key's pool, or leaves the key out
(None), and runs all four subcommands on it in process through
`cli.main`.  The pools are edge values: 0, +-1e-300, +-1e300, 1e308, nan,
+-inf, grids beyond the trees' caps (15, 2001), one path, non-nested and
descending ladders, malformed entries, and sizes of 10^15 (N, paths,
basis size) whose arrays exceed the address space.  `derandomize=True` and
a fixed max_examples keep the examples the same on every run.
"""

import contextlib
import io
import os
import re
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings, strategies as st

from tamedbsde.cli import main
from tamedbsde.drivers import TAMING_KINDS
from tamedbsde.experiments import CONVERGENCE_HEADER, EXTREMA_HEADER, TAMING_HEADER

COMMANDS = {"converge": CONVERGENCE_HEADER, "positivity": EXTREMA_HEADER,
            "tree-oracle": EXTREMA_HEADER, "verify-taming": TAMING_HEADER}
MAX_CHANGES = 5
MAX_EXAMPLES = 500

# every subcommand exits 0 on it: the proxy runs (implicit, inner) and an
# untamed entry that names a taming it does not run
BASE = {
    "horizon": "1.0",
    "seed": "7",
    "sde.x0": "0.5",
    "sde.sigma": "1.0",
    "terminal.coeffs": "0,1",
    "driver.y_poly": "0,0,0,-1",
    "grids": "4",
    "paths": "20",
    "basis.size": "3",
    "tolerances.probe_samples": "400",
    "scheme.1.label": "implicit",
    "scheme.1.kind": "implicit",
    "scheme.1.taming": "none",
    "scheme.2.label": "inner",
    "scheme.2.kind": "explicit_tamed",
    "scheme.2.taming": "inner_proj",
    "scheme.2.exponent": "0.25",
    "scheme.3.label": "untamed",
    "scheme.3.kind": "explicit_untamed",
    "scheme.3.taming": "mult_c",
}

FLOATS = ("0", "1e-300", "-1e-300", "1e300", "-1e300", "1e308", "nan", "inf", "-inf",
          "1", "-1", "0.5", "x", None)
INTS = ("0", "1", "-1", "2", "1.5", "nan", None)
LISTS = ("0", "1e300", "0,0,0,0,1e300", "1e-300,-1e300,1e300", "0,nan", "0,inf",
         "0,0,0,0,0,1", "0,,1", None)
BOOLS = ("true", "false", "yes", "0", "maybe", None)
# a size whose arrays exceed the 47-bit address space: their allocation
# fails at once (exit 2)
HUGE = str(10**15)
SCHEME = {
    "kind": ("implicit", "explicit_tamed", "explicit_untamed", "sideways", None),
    "label": ("implicit", "inner", "x", None),
    "taming": TAMING_KINDS + ("bogus", None),
    "r0": FLOATS,
    "exponent": FLOATS + ("200",),
    "theta_prime": FLOATS,
}
POOLS = {
    "horizon": FLOATS,
    "seed": INTS + (str(2**128 - 1), str(2**128)),
    **{f"sde.{key}": FLOATS for key in ("x0", "b0", "b1", "sigma", "sigma_slope")},
    "terminal.coeffs": LISTS,
    "driver.y_poly": LISTS + ("0,0,0,-1e300", "1e300,0,0,-1"),
    **{f"driver.{key}": FLOATS for key in ("z_coeff", "domain_bound", "m_y", "l_y")},
    **{f"tolerances.{key}": FLOATS for key in ("probe_y_max", "probe_z_max", "rel_slack")},
    "tolerances.probe_samples": INTS + (str(2**128),),
    "grids": INTS + ("15", "2001", "2,4", "4,2", "3,4", "1,2,4,8,16", HUGE),
    "paths": INTS + (HUGE,),
    "basis.size": INTS + ("400", HUGE),
    "noise.kind": ("gaussian", "truncated_gaussian", "rademacher", "bogus", None),
    "noise.r0": FLOATS,
    "noise.log_schedule": BOOLS,
    "threads": INTS,
    "output": ("report.csv", None),
    **{f"scheme.{n}.{key}": pool for n in (1, 2, 3, 4) for key, pool in SCHEME.items()},
}


# what an exit-2 message may name: a key of POOLS as a whole word (a dotted
# key whole too), a scheme by label or number (scheme 'x', scheme.3 or
# scheme.<n>), or an N (N=8)
SUBJECT = re.compile("|".join([r"(?<![\w.])(?:" + "|".join(map(re.escape, sorted(POOLS, key=len, reverse=True)))
                               + r")(?![\w.])", r"scheme '[^']*'", r"scheme\.(?:\d+|<n>)", r"\bN=\d"]))
ALLOCATION_FAILURE = "error: cannot allocate memory: "


@st.composite
def configs(draw) -> dict:
    keys = draw(st.lists(st.sampled_from(sorted(POOLS)), unique=True, min_size=1, max_size=MAX_CHANGES))
    cfg = dict(BASE)
    for key in keys:
        value = draw(st.sampled_from(POOLS[key]))
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    return cfg


def run(command: str, text: str) -> int:
    """Run `command` on the config `text`, check the contract and return
    the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "c.cfg"), os.path.join(tmp, "out.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(out, "wb") as fh:
            fh.write(b"old\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main([command, path, "--out", out])
        message = stderr.getvalue()
        assert code in (0, 2, 3, 4), (command, code, message)
        if code == 2:
            assert message.startswith(ALLOCATION_FAILURE) or SUBJECT.search(message), (command, message)
        with open(out, "rb") as fh:
            written = fh.read()
        left = sorted(os.listdir(tmp))
        if code == 0:
            assert written.decode().splitlines()[0] == COMMANDS[command], command
            sidecar = ["out.timings.csv"] if command == "converge" else []
            assert left == sorted(["c.cfg", "out.csv"] + sidecar), (command, left)
        else:
            assert written == b"old\n", (command, code)
            assert left == ["c.cfg", "out.csv"], (command, left)
    return code


def test_base_config_runs_every_subcommand():
    text = "".join(f"{key} = {value}\n" for key, value in BASE.items())
    assert [run(command, text) for command in COMMANDS] == [0, 0, 0, 0]


@settings(derandomize=True, max_examples=MAX_EXAMPLES, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_config_ends_in_a_documented_state(cfg):
    text = "".join(f"{key} = {value}\n" for key, value in cfg.items())
    for command in COMMANDS:
        run(command, text)
