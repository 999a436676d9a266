import errno
import json
import os
import subprocess
import sys

import pytest

import tamedbsde
from tamedbsde import backward
from tamedbsde.cli import main
from tamedbsde.config import load_config

CONV = """
horizon = 1.0
seed = 7
sde.sigma = 1.0
terminal.coeffs = 0,1
driver.y_poly = 0,0,0,-1
grids = 4,8
paths = 600
basis.size = 4
scheme.1.label = implicit
scheme.1.kind = implicit
scheme.1.taming = none
scheme.2.label = inner
scheme.2.kind = explicit_tamed
scheme.2.taming = inner_proj
scheme.2.exponent = 0.25
output = {out}
"""

POSITIVITY = """
horizon = 1.0
seed = 7
sde.sigma = 1.25
terminal.coeffs = 0,0,1
driver.y_poly = 0,0,-1
driver.m_y = 0
driver.l_y = 1
grids = 10
paths = 500
basis.size = 6
scheme.1.label = outer
scheme.1.kind = explicit_tamed
scheme.1.taming = outer_proj
scheme.1.r0 = 1.5
output = {out}
"""


def write(tmp_path, name, text, out):
    cfg = tmp_path / name
    cfg.write_text(text.format(out=out))
    return str(cfg)


def test_converge_roundtrip(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    cfg = write(tmp_path, "c.cfg", CONV, out)
    assert main(["converge", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,N,h,error,wallclock_ms,exploded,seed"
    assert len(lines) == 5
    assert "proxy: implicit+inner" in capsys.readouterr().out


def test_positivity_roundtrip(tmp_path, capsys):
    out = tmp_path / "pos.csv"
    cfg = write(tmp_path, "p.cfg", POSITIVITY, out)
    assert main(["positivity", cfg]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,i,t,min_Y,max_Y"
    assert len(lines) == 12
    assert "h*L_y^h" in capsys.readouterr().out


def test_tree_oracle_roundtrip(tmp_path):
    out = tmp_path / "tree.csv"
    cfg = write(tmp_path, "t.cfg", POSITIVITY, out)
    assert main(["tree-oracle", cfg]) == 0
    assert out.read_text().splitlines()[0] == "scheme,i,t,min_Y,max_Y"


def test_verify_taming_roundtrip(tmp_path):
    out = tmp_path / "taming.csv"
    cfg = write(tmp_path, "v.cfg", POSITIVITY, out)
    assert main(["verify-taming", cfg]) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("taming,N,h,radius")


def test_verify_taming_names_the_tamings_whose_growth_witness_grows(tmp_path, capsys):
    # inner at exponent 1/2 instead of its critical 1/(2(m-1)) = 1/4 for
    # f = -y^3: its radius grows faster than the growth assumption allows
    scripts = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
    with open(os.path.join(scripts, "taming_check.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    cfg = tmp_path / "grow.cfg"
    cfg.write_text(with_keys(text, "scheme.1.exponent = 0.5\n"))
    assert main(["verify-taming", str(cfg), "--out", str(tmp_path / "t.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "growth witness (K_y^h)^2 h grows along the ladder for: inner"
    assert main(["verify-taming", os.path.join(scripts, "taming_check.cfg"),
                 "--out", str(tmp_path / "u.csv")]) == 0
    assert "growth witness" not in capsys.readouterr().out


def test_seed_override_changes_output(tmp_path):
    out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    cfg = write(tmp_path, "c.cfg", CONV, "{placeholder}")
    assert main(["converge", cfg, "--out", str(out_a)]) == 0
    assert main(["converge", cfg, "--out", str(out_b), "--seed", "8"]) == 0
    assert main(["converge", cfg, "--out", str(out_c), "--seed", "7"]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()
    assert out_a.read_bytes() == out_c.read_bytes()


def test_invalid_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("horizon = -1\n")
    assert main(["converge", str(cfg)]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_config_exit_code(tmp_path):
    assert main(["converge", str(tmp_path / "absent.cfg")]) == 2


def test_config_that_is_not_utf8_exit_code(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"horizon = 1.0\xff\n")
    assert main(["converge", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8" in err and str(cfg) in err


def test_unwritable_output_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "c.cfg", CONV, str(tmp_path / "no" / "dir" / "x.csv"))
    assert main(["converge", cfg]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_failed_write_keeps_the_old_output(tmp_path, capsys, monkeypatch):
    out = tmp_path / "tree.csv"
    cfg = write(tmp_path, "t.cfg", POSITIVITY, out)
    out.write_text("old\n")

    def failing_replace(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main(["tree-oracle", cfg]) == 3
    assert "i/o error" in capsys.readouterr().err
    assert out.read_text() == "old\n"
    # the temporary file written next to it is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.cfg", "tree.csv"]


def test_unknown_scheme_kind_is_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONV.format(out=tmp_path / "x.csv").replace(
        "scheme.1.kind = implicit", "scheme.1.kind = sideways"))
    assert main(["converge", str(cfg)]) == 2


def with_keys(text, extra):
    """`text` with the `key = value` lines of `extra`, each in place of the
    line of its key where `text` has one."""
    keys = {line.split("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in text.splitlines() if line.split("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + extra


@pytest.mark.parametrize("command, extra, args, message", [
    ("converge", "report.inline_timing = true\n", [], "report.inline_timing"),
    ("converge", "basis.standardize = false\n", [], "basis.standardize"),
    ("converge", "scheme.1.implicit_tol = 1e-10\n", [], "scheme.1.implicit_tol"),
    ("converge", "scheme.1.implicit_max_iter = 10\n", [], "scheme.1.implicit_max_iter"),
    ("converge", "threads = 0\n", [], "threads must be >= 1"),
    ("converge", "", ["--threads", "0"], "threads must be >= 1"),
    # a value a model type rejects names the keys it was read from
    ("verify-taming", "tolerances.probe_samples = -5\n", [],
     "key 'tolerances.probe_samples': probe samples must be >= 0"),
    # a probe of 2^128 samples: rejected at parse time, not blamed on a scheme
    ("verify-taming", f"tolerances.probe_samples = {2**128}\n", [],
     "key 'tolerances.probe_samples': probe samples must be <= 10000000"),
    ("verify-taming", "driver.domain_bound = -1\n", [],
     "keys 'driver.y_poly', 'driver.domain_bound': driver domain_bound must be positive"),
    ("verify-taming", "driver.domain_bound = nan\n", [],
     "key 'driver.domain_bound': expected a finite number, got 'nan'"),
    ("verify-taming", "driver.domain_bound = inf\n", [],
     "key 'driver.domain_bound': expected a finite number, got 'inf'"),
    ("tree-oracle", "horizon = inf\n", [], "key 'horizon': expected a finite number, got 'inf'"),
    ("verify-taming", "horizon = inf\n", [], "key 'horizon': expected a finite number, got 'inf'"),
    ("converge", "seed = -1\n", [], "seed must lie in [0, 2^128), got -1"),
    ("converge", "", ["--seed", str(2**128)], f"seed must lie in [0, 2^128), got {2**128}"),
    ("verify-taming", "taming.kind = none\n", [], "unknown configuration keys: taming.kind"),
    ("verify-taming", "taming.kind = mult_d\ntaming.r0 = 0.5\ntaming.exponent = 0.5\n", [],
     "unknown configuration keys: taming.exponent, taming.kind, taming.r0"),
    ("verify-taming", "scheme.2.exponent = nan\n", [],
     "key 'scheme.2.exponent': expected a finite number, got 'nan'"),
    ("verify-taming", "scheme.2.r0 = inf\n", [], "key 'scheme.2.r0': expected a finite number, got 'inf'"),
    ("verify-taming", "driver.z_coeff = nan\n", [],
     "key 'driver.z_coeff': expected a finite number, got 'nan'"),
    ("verify-taming", "driver.m_y = nan\n", [], "key 'driver.m_y': expected a finite number, got 'nan'"),
    ("verify-taming", "driver.l_y = inf\n", [], "key 'driver.l_y': expected a finite number, got 'inf'"),
    ("verify-taming", "terminal.coeffs = nan\n", [],
     "key 'terminal.coeffs': expected comma-separated finite numbers, got 'nan'"),
    ("converge", "driver.y_poly = 0,nan,0,-1\n", [],
     "key 'driver.y_poly': expected comma-separated finite numbers, got '0,nan,0,-1'"),
    # finite coefficients whose P'' companion matrix overflows
    ("verify-taming", "driver.y_poly = 0,0,1e300,0,1e-300\n", [],
     "key 'driver.y_poly': the driver's polynomial coefficients span too many orders of magnitude "
     "for a root search"),
    ("verify-taming", "tolerances.rel_slack = nan\n", [],
     "key 'tolerances.rel_slack': expected a finite number, got 'nan'"),
    ("verify-taming", "tolerances.probe_z_max = nan\n", [],
     "key 'tolerances.probe_z_max': expected a finite number, got 'nan'"),
    ("verify-taming", "tolerances.probe_y_max = -1\n", [],
     "key 'tolerances.probe_y_max': probe range must be positive"),
    ("verify-taming", "tolerances.rel_slack = -1\n", [],
     "key 'tolerances.rel_slack': probe rel_slack must be >= 0"),
    ("converge", "terminal.coeffs = 0,0,0,0,0,1\n", [],
     "key 'terminal.coeffs': terminal polynomial must have degree between 0 and 4"),
    # a scheme's malformed number is named once, by its key
    ("converge", "scheme.2.theta_prime = inf\n", [],
     "error: key 'scheme.2.theta_prime': expected a finite number, got 'inf'"),
    *[(command, "grids = 64\nscheme.2.exponent = 200\n", [],
       "scheme 'inner', N=64: the taming radius r0 * h^(-exponent) is not finite")
      for command in ("converge", "positivity", "verify-taming", "tree-oracle")],
    ("verify-taming", "scheme.2.r0 = 1e308\nscheme.2.exponent = 0.5\n", [],
     "scheme 'inner', N=4: the taming radius r0 * h^(-exponent) is not finite"),
    # a finite radius whose derived constants overflow: (K^h_y)^2 h for
    # inner (K^h_y = r^2), (L^h_y)^2 h for mult_c (L^h_y = 3 (1 + 2r))
    *[(command, "grids = 4\nscheme.2.r0 = 1e300\n", [],
       "scheme 'inner', N=4: the derived constants K^h_y, L^h_y, (K^h_y)^2 h and (L^h_y)^2 h "
       "are not all finite")
      for command in ("positivity", "verify-taming", "tree-oracle", "converge")],
    # the only proxy tamed at a radius whose K^h_y = r^2 overflows: rejected
    # before it runs, at the finest N first
    ("converge", "horizon = 2.0\nterminal.coeffs = 0,0,0,10\nscheme.1.kind = explicit_untamed\n"
     "scheme.2.exponent = 0\nscheme.2.r0 = 1e200\n", [],
     "scheme 'inner', N=8: the derived constants K^h_y, L^h_y, (K^h_y)^2 h and (L^h_y)^2 h "
     "are not all finite"),
    ("verify-taming", "scheme.3.label = mult_c\nscheme.3.kind = explicit_tamed\n"
     "scheme.3.taming = mult_c\nscheme.3.r0 = 1e300\nscheme.3.exponent = 0.5\n", [],
     "scheme 'mult_c', N=4: the derived constants K^h_y, L^h_y, (K^h_y)^2 h and (L^h_y)^2 h "
     "are not all finite"),
    ("converge", "oops\n", [], "expected 'key = value', got 'oops'"),
    ("converge", " = 3\n", [], "empty key or value in ' = 3'"),
    ("converge", "grids = 0\n", [], "grids must be positive integers"),
    ("converge", "grids = 10,5\n", [], "grids must be strictly ascending"),
    ("converge", "paths = 0\n", [], "paths must be >= 1"),
    ("converge", "basis.size = 0\n", [], "basis.size must be >= 1"),
    ("converge", "scheme.2.label = implicit\n", [],
     "scheme labels must be unique: scheme.1 and scheme.2 are both labelled 'implicit'"),
    ("converge", "noise.kind = bogus\n", [], "key 'noise.kind': unknown noise kind 'bogus'"),
    ("converge", "scheme.3.kind = explicit_tamed\nscheme.3.taming = mult_a\nscheme.3.r0 = -1\n", [],
     "scheme.3: taming r0 must be positive"),
], ids=["inline-timing", "standardize", "implicit-tol", "implicit-max-iter", "threads-key",
        "threads-option", "probe-samples", "probe-samples-huge", "domain-bound",
        "domain-bound-nan", "domain-bound-inf",
        "horizon-inf-tree", "horizon-inf-taming", "seed-key", "seed-option",
        "taming-kind", "taming-section", "exponent-nan", "r0-inf", "z-coeff-nan", "m-y-nan",
        "l-y-inf", "terminal-nan", "y-poly-nan", "y-poly-span", "rel-slack-nan", "probe-z-max-nan",
        "probe-y-max-negative", "rel-slack-negative", "terminal-degree", "theta-prime-inf",
        "radius-overflow-converge", "radius-overflow-positivity",
        "radius-overflow-taming", "radius-overflow-tree", "radius-inf",
        "radius-overflow-constants-positivity", "radius-overflow-constants-taming",
        "radius-overflow-constants-tree", "radius-overflow-constants-converge",
        "radius-overflow-constants-proxy", "radius-overflow-constants-mult-c",
        "line-without-equals", "empty-key", "grids-zero", "grids-descending", "paths-zero",
        "basis-size-zero", "duplicate-label", "noise-kind", "r0-negative"])
def test_rejected_value_is_config_error(tmp_path, capsys, command, extra, args, message):
    out = tmp_path / "x.csv"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(with_keys(CONV.format(out=out), extra))
    assert main([command, str(cfg), *args]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# sizes whose arrays exceed the 47-bit user address space, so that their
# allocation fails at once whatever the overcommit policy: the time grid
# of N = 10^15 (7.11 PiB), the N = 8 increments of 10^15 paths (56.8 PiB),
# and a design of 10^15 basis functions at 5000 paths, whose byte count
# (4e19) overflows intp
@pytest.mark.parametrize("command, text, extra, message", [
    ("positivity", POSITIVITY, "grids = 1000000000000000\n", "Unable to allocate 7.11 PiB"),
    ("converge", CONV, "paths = 1000000000000000\n", "Unable to allocate 56.8 PiB"),
    ("positivity", POSITIVITY, "paths = 5000\nbasis.size = 1000000000000000\n",
     "array is too big"),
], ids=["grids", "paths", "basis"])
def test_unallocatable_size_is_config_error(tmp_path, capsys, command, text, extra, message):
    out = tmp_path / "x.csv"
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(with_keys(text.format(out=out), extra))
    assert main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot allocate memory: {message}")
    assert not out.exists()


def test_threads_key_and_option_are_accepted_and_ignored(tmp_path):
    plain, threaded = tmp_path / "plain.csv", tmp_path / "threaded.csv"
    assert main(["converge", write(tmp_path, "a.cfg", CONV, plain)]) == 0
    cfg = write(tmp_path, "b.cfg", CONV + "threads = 4\n", threaded)
    assert main(["converge", cfg, "--threads", "8"]) == 0
    assert plain.read_bytes() == threaded.read_bytes()


def test_nonpositive_horizon_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONV.format(out=tmp_path / "x.csv").replace("horizon = 1.0", "horizon = -1.0"))
    assert main(["converge", str(cfg)]) == 2
    assert "horizon must be positive" in capsys.readouterr().err


def test_implicit_guard_violation_is_config_error(tmp_path, capsys):
    # f(y) = 3y - y^3 with M_y = 3: h*M_y = 3 at N=1
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONV.format(out=tmp_path / "x.csv")
                   .replace("driver.y_poly = 0,0,0,-1", "driver.y_poly = 0,3,0,-1\ndriver.m_y = 3")
                   .replace("grids = 4,8", "grids = 1,2"))
    assert main(["converge", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "N=1" in err and "implicit step guard" in err


def test_truncated_lambda_below_floor_is_config_error(tmp_path, capsys):
    # radius 0.9 sqrt(h) gives Lambda ~ 0.45 at N=1; the log schedule passes at N=2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONV.format(out=tmp_path / "x.csv").replace("grids = 4,8", "grids = 1,2")
                   + "noise.kind = truncated_gaussian\nnoise.r0 = 0.9\n")
    assert main(["converge", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "N=1" in err and "Lambda" in err and "N=2" not in err


def test_rademacher_noise_across_grids_is_config_error(tmp_path, capsys):
    # sign increments summed over coarse intervals are no longer signs
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONV.format(out=tmp_path / "x.csv") + "noise.kind = rademacher\n")
    assert main(["converge", str(cfg)]) == 2
    assert "'rademacher'" in capsys.readouterr().err


@pytest.mark.parametrize("steps, sde", [(2048, ""), (20, "sde.b1 = 0.1\n"), (10**15, "")],
                         ids=["recombining", "branching", "recombining-huge"])
def test_tree_beyond_its_cap_is_config_error(tmp_path, capsys, steps, sde):
    # the recombining tree is capped at N=2000, the branching one at N=14;
    # the cap is checked before the N + 1 grid times are made, so N = 10^15
    # (7.11 PiB of them) gets the cap message, not an allocation failure
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(POSITIVITY.format(out=tmp_path / "x.csv").replace("grids = 10", f"grids = {steps}")
                   + sde)
    assert main(["tree-oracle", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"N={steps}" in err and "cap" in err


def test_tree_one_step_beyond_the_recombining_cap_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(POSITIVITY.format(out=tmp_path / "x.csv").replace("grids = 10", "grids = 2001"))
    assert main(["tree-oracle", str(cfg)]) == 2
    assert "N=2001: tree with 2001 steps exceeds the recombining cap 2000" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["positivity", "tree-oracle"])
@pytest.mark.parametrize("extra", ["scheme.4.r0 = 1e300\n", "scheme.4.r0 = 1e300\nsde.sigma = 1e150\n"],
                         ids=["radius", "radius-and-blowup"])
def test_extrema_study_checks_constants_before_any_work(tmp_path, capsys, monkeypatch, command, extra):
    # mult_c's (L^h_y)^2 h overflows at r0 = 1e300: the config is invalid,
    # and that is known before a path is sampled or a scheme is swept (the
    # sigma = 1e150 forward would blow up)
    from tamedbsde import experiments

    calls = []
    for name in ("sample_increments", "euler_simulate", "sweep"):
        monkeypatch.setattr(experiments, name, lambda *args, name=name, original=getattr(experiments, name),
                            **kwargs: calls.append(name) or original(*args, **kwargs))
    scripts = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
    with open(os.path.join(scripts, "positivity_study.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(with_keys(text, extra))
    out = tmp_path / "x.csv"
    assert main([command, str(cfg), "--out", str(out)]) == 2
    assert "scheme 'mult_c', N=10: the derived constants" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_converge_checks_constants_before_it_samples(tmp_path, capsys, monkeypatch):
    # inner's (K^h_y)^2 h overflows at r0 = 1e300: converge rejects the
    # config with the message the other three subcommands give, before a
    # path is sampled or a scheme is swept
    from tamedbsde import experiments

    calls = []
    for name in ("sample_increments", "sweep"):
        monkeypatch.setattr(experiments, name, lambda *args, name=name, original=getattr(experiments, name),
                            **kwargs: calls.append(name) or original(*args, **kwargs))
    out = tmp_path / "x.csv"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(with_keys(CONV.format(out=out), "grids = 4\nscheme.2.r0 = 1e300\n"))
    assert main(["converge", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: scheme 'inner', N=4: the derived constants K^h_y, L^h_y, (K^h_y)^2 h and "
        "(L^h_y)^2 h are not all finite\n")
    assert calls == [] and not out.exists()


UNTAMED_ENTRY = """
scheme.3.label = untamed
scheme.3.kind = explicit_untamed
scheme.3.taming = {taming}
"""


def test_untamed_entry_runs_untamed_whatever_taming_it_names(tmp_path, capsys):
    # the entry names a taming whose radius 1e300 * 8^200 is not finite:
    # the three sweep subcommands run the entry untamed, as they would with
    # taming none, and only verify-taming, which checks every named
    # taming, rejects it
    base = with_keys(CONV.format(out="{out}"), "grids = 8\n")
    named = base + UNTAMED_ENTRY.format(taming="inner_proj\nscheme.3.r0 = 1e300\nscheme.3.exponent = 200")
    plain = base + UNTAMED_ENTRY.format(taming="none")
    for command in ("converge", "positivity", "tree-oracle"):
        outputs = []
        for name, text in (("named", named), ("plain", plain)):
            out = tmp_path / f"{command}_{name}.csv"
            assert main([command, write(tmp_path, f"{name}.cfg", text, out)]) == 0, (command, name)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], command
        assert "untamed" in outputs[0].decode()
    capsys.readouterr()
    out = tmp_path / "taming.csv"
    assert main(["verify-taming", write(tmp_path, "named.cfg", named, out)]) == 2
    assert capsys.readouterr().err == (
        "error: scheme 'untamed', N=8: the taming radius r0 * h^(-exponent) is not finite\n")
    assert not out.exists()


def _positivity_study_with(tmp_path, extra):
    """scripts/positivity_study.cfg (grids = 10) with the lines of `extra`."""
    scripts = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
    with open(os.path.join(scripts, "positivity_study.cfg"), encoding="utf-8") as fh:
        text = fh.read()
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(with_keys(text, extra))
    return str(cfg)


@pytest.mark.parametrize("command", ["converge", "positivity", "tree-oracle"])
def test_drift_overflow_is_a_forward_blowup(tmp_path, capsys, command):
    # b1 x0 = 1e309 overflows in the drift of the first step on every path
    # (and node): a forward blow-up, not a RuntimeWarning (an error here)
    out = tmp_path / "x.csv"
    cfg = _positivity_study_with(tmp_path, "sde.x0 = 1e308\nsde.b1 = 10\n")
    assert main([command, cfg, "--out", str(out)]) == 4
    assert capsys.readouterr().err == ("numerical failure: forward state non-finite or beyond 1e+12 "
                                       "at path 0, step 1 of N=10 (value inf)\n")
    assert not out.exists()


@pytest.mark.parametrize("command, code", [("converge", 4), ("positivity", 0), ("tree-oracle", 0)])
def test_terminal_map_overflow_is_data(tmp_path, capsys, command, code):
    # 1e300 x^4 overflows at |x| > ~116, which sigma = 100 reaches on some
    # paths and nodes: those terminal values are inf, so the proxy explodes
    # in converge and the extrema studies record the explosions as data
    out = tmp_path / "x.csv"
    cfg = _positivity_study_with(tmp_path, "sde.sigma = 100\nterminal.coeffs = 0,0,0,0,1e300\n")
    assert main([command, cfg, "--out", str(out)]) == code
    captured = capsys.readouterr()
    if code == 4:
        assert captured.err.startswith(
            "numerical failure: proxy scheme 'implicit' (N=10) exploded at step 9")
        assert not out.exists()
    else:
        assert captured.err == ""
        lines = out.read_text().splitlines()
        assert lines[0] == "scheme,i,t,min_Y,max_Y" and len(lines) == 56
        # the terminal level holds the overflowed values as they are
        assert any(line.split(",")[1] == "10" and line.endswith(",inf") for line in lines)


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs more to import than the rest of the package
    src = os.path.dirname(os.path.dirname(os.path.abspath(tamedbsde.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, tamedbsde.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.strip() == "False"


def run_python(code, *args):
    """Runs code in a fresh interpreter on this checkout's sources; its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tamedbsde.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300, check=True).stdout


def test_cli_import_adds_only_numpy_and_the_standard_library():
    # scipy, and what it pulls in, is imported at the first Gaussian draw
    code = ("import sys\nbefore = set(sys.modules)\nimport tamedbsde.cli\n"
            "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "print(' '.join(sorted(added - set(sys.stdlib_module_names))))")
    assert run_python(code).split() == ["numpy", "tamedbsde"]


def test_only_gaussian_draws_load_scipy(tmp_path):
    scripts = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
    tree = write(tmp_path, "t.cfg", POSITIVITY, tmp_path / "tree.csv")
    truncated = write(tmp_path, "n.cfg", CONV + "noise.kind = truncated_gaussian\nnoise.r0 = 2.0\n",
                      tmp_path / "n.csv")
    gaussian = write(tmp_path, "g.cfg", CONV, tmp_path / "g.csv")
    code = """
import json
import sys
from tamedbsde.cli import main
from tamedbsde.config import load_config
tree, taming, taming_out, truncated, gaussian = sys.argv[1:]
loaded = lambda: sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
steps = {}
assert main(["tree-oracle", tree]) == 0
steps["tree-oracle"] = loaded()
assert main(["verify-taming", taming, "--out", taming_out]) == 0
steps["verify-taming"] = loaded()
load_config(truncated)
steps["load_config"] = loaded()
assert main(["converge", gaussian]) == 0
steps["converge"] = "scipy.special" in sys.modules
print(json.dumps(steps))
"""
    out = run_python(code, tree, os.path.join(scripts, "taming_check.cfg"), tmp_path / "taming.csv",
                     truncated, gaussian)
    steps = json.loads(out.splitlines()[-1])
    assert steps == {"tree-oracle": [], "verify-taming": [], "load_config": [], "converge": True}


def test_forward_blowup_is_numerical_failure(tmp_path, capsys):
    # x0 = 1 and drift slope 1e8: every path passes 1e12 at step 2 of N=8
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONV.format(out=tmp_path / "x.csv") + "sde.x0 = 1.0\nsde.b1 = 1e8\n")
    assert main(["converge", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and "path 0, step 2 of N=8" in err


@pytest.mark.parametrize("command, code", [("converge", 2), ("positivity", 2), ("tree-oracle", 2),
                                           ("verify-taming", 2)])
def test_driver_domain_bound_far_beyond_overflow_derives_constants_quietly(tmp_path, capsys,
                                                                         command, code):
    # P'(+-1e300) of f(y) = -y^3 overflows to -inf: the base m_y stays 0, the
    # true supremum, so the config parses, and the tamed drivers' constants
    # are not finite, which every study rejects; no RuntimeWarning escapes
    # (they are errors here)
    text = with_keys(CONV.format(out=tmp_path / "x.csv"), "grids = 8\ndriver.domain_bound = 1e300\n")
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(text)
    assert load_config(str(cfg)).driver.constants.m_y == 0.0
    assert main([command, str(cfg)]) == code
    if code == 2:
        err = capsys.readouterr().err
        assert err.startswith("error: scheme 'implicit', N=8: the derived constants ")
        assert err.rstrip().endswith("are not all finite")


@pytest.mark.parametrize("extra", ["sde.x0 = 1e308\n", "sde.b0 = 1e300\n"], ids=["x0", "b0"])
def test_tree_forward_blowup_is_the_paths_numerical_failure(tmp_path, capsys, extra):
    # both backends apply one blow-up rule to the forward states: the first
    # state beyond the overflow limit is at step 1 of N=8, path (node) 0
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(with_keys(POSITIVITY.format(out=tmp_path / "x.csv"), "grids = 8\n" + extra))
    messages = []
    for command in ("positivity", "tree-oracle"):
        assert main([command, str(cfg)]) == 4, command
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1]
    assert messages[1].startswith("numerical failure: forward state non-finite or beyond 1e+12 "
                                  "at path 0, step 1 of N=8 (value ")
    assert not (tmp_path / "x.csv").exists()


def test_implicit_non_convergence_is_numerical_failure(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONV.format(out=tmp_path / "x.csv"))
    monkeypatch.setattr(backward, "IMPLICIT_MAX_ITER", 1)
    assert main(["converge", str(cfg)]) == 4
    err = capsys.readouterr().err
    # the finest grid's last step comes first
    assert "scheme 'implicit' (N=8): implicit solve did not converge at path" in err
    assert err.rstrip().endswith("step 7")


@pytest.mark.parametrize("command", ["positivity", "tree-oracle"])
def test_streamed_study_implicit_non_convergence_is_numerical_failure(tmp_path, capsys, monkeypatch,
                                                                    command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONV.format(out=tmp_path / "x.csv").replace("grids = 4,8", "grids = 8"))
    monkeypatch.setattr(backward, "IMPLICIT_MAX_ITER", 1)
    assert main([command, str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: scheme 'implicit' (N=8): implicit solve did not converge "
                          "at path ")
    assert err.rstrip().endswith("step 7")
    assert not (tmp_path / "x.csv").exists()


def test_proxy_explosion_is_numerical_failure(tmp_path, capsys):
    # the only proxy scheme starts from terminal values that overflow
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(with_keys(CONV.format(out=tmp_path / "x.csv"),
                             "sde.sigma = 100\nterminal.coeffs = 0,0,0,0,1e300\n"
                             "scheme.1.kind = explicit_untamed\n"))
    assert main(["converge", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "proxy scheme 'inner' (N=8) exploded at step" in err and "path" in err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command, text", [("converge", CONV), ("positivity", POSITIVITY)],
                         ids=["converge", "positivity"])
def test_non_finite_design_is_numerical_failure(tmp_path, capsys, command, text):
    # He_k of the standardized states overflows for k in the hundreds,
    # first at the last step of the finest grid
    out = tmp_path / "x.csv"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(with_keys(text.format(out=out), "paths = 200\nbasis.size = 400\n"))
    assert main([command, str(cfg)]) == 4
    err = capsys.readouterr().err
    n = 8 if command == "converge" else 10
    assert err.startswith(f"numerical failure: N={n}, step {n - 1}: non-finite design entry at row ")
    assert not out.exists()


def test_output_does_not_depend_on_blas_threads(tmp_path):
    # one K = 12, 40k-path design per step: OpenBLAS adds up in another
    # order with two threads unless the CLI holds it to one
    src = os.path.dirname(os.path.dirname(os.path.abspath(tamedbsde.__file__)))
    config = os.path.join(os.path.dirname(src), "perfbench", "configs", "lsmc_wide.cfg")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"wide_{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        subprocess.run([sys.executable, "-m", "tamedbsde", "positivity", config, "--out", str(out)],
                       env=env, capture_output=True, timeout=300, check=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
