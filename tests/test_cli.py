import errno
import os
import subprocess
import sys

import pytest

import tamedbsde
from tamedbsde import backward
from tamedbsde.cli import main

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
    ("verify-taming", "tolerances.probe_samples = -5\n", [], "probe samples must be >= 0"),
    ("verify-taming", "driver.domain_bound = -1\n", [], "domain_bound must be positive"),
    ("verify-taming", "driver.domain_bound = nan\n", [], "domain_bound must be positive"),
    ("verify-taming", "driver.domain_bound = inf\n", [], "domain_bound must be positive"),
    ("tree-oracle", "horizon = inf\n", [], "horizon must be positive and finite, got inf"),
    ("verify-taming", "horizon = inf\n", [], "horizon must be positive and finite, got inf"),
    ("converge", "seed = -1\n", [], "seed must lie in [0, 2^128), got -1"),
    ("converge", "", ["--seed", str(2**128)], f"seed must lie in [0, 2^128), got {2**128}"),
], ids=["inline-timing", "standardize", "implicit-tol", "implicit-max-iter", "threads-key",
        "threads-option", "probe-samples", "domain-bound", "domain-bound-nan", "domain-bound-inf",
        "horizon-inf-tree", "horizon-inf-taming", "seed-key", "seed-option"])
def test_rejected_value_is_config_error(tmp_path, capsys, command, extra, args, message):
    out = tmp_path / "x.csv"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(with_keys(CONV.format(out=out), extra))
    assert main([command, str(cfg), *args]) == 2
    assert message in capsys.readouterr().err
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


@pytest.mark.parametrize("steps, sde", [(2048, ""), (20, "sde.b1 = 0.1\n")],
                         ids=["recombining", "branching"])
def test_tree_beyond_its_cap_is_config_error(tmp_path, capsys, steps, sde):
    # the recombining tree is capped at N=2000, the branching one at N=14
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(POSITIVITY.format(out=tmp_path / "x.csv").replace("grids = 10", f"grids = {steps}")
                   + sde)
    assert main(["tree-oracle", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"N={steps}" in err and "cap" in err


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs more to import than the rest of the package
    src = os.path.dirname(os.path.dirname(os.path.abspath(tamedbsde.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, tamedbsde.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.strip() == "False"


def test_forward_blowup_is_numerical_failure(tmp_path, capsys):
    # x0 = 1 and drift slope 1e8: every path passes 1e12 at step 2 of N=8
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONV.format(out=tmp_path / "x.csv") + "sde.x0 = 1.0\nsde.b1 = 1e8\n")
    assert main(["converge", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "numerical failure" in err and "path 0, step 2 of N=8" in err


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
    assert err.startswith("numerical failure: scheme 'implicit': implicit solve did not converge at path ")
    assert err.rstrip().endswith("step 7")
    assert not (tmp_path / "x.csv").exists()


def test_proxy_explosion_is_numerical_failure(tmp_path, capsys):
    # the only proxy scheme is tamed at a radius past overflow, i.e. untamed
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONV.format(out=tmp_path / "x.csv")
                   .replace("horizon = 1.0", "horizon = 2.0")
                   .replace("terminal.coeffs = 0,1", "terminal.coeffs = 0,0,0,10")
                   .replace("scheme.1.kind = implicit", "scheme.1.kind = explicit_untamed")
                   .replace("scheme.2.exponent = 0.25", "scheme.2.exponent = 0\nscheme.2.r0 = 1e200"))
    assert main(["converge", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "proxy scheme 'inner' (N=8) exploded at step" in err and "path" in err
    assert not (tmp_path / "x.csv").exists()


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
