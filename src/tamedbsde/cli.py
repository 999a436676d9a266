"""Command-line entry point.

Subcommands: `converge`, `positivity`, `verify-taming`, `tree-oracle`, each
taking a flat key/value config file.  `--seed` and `--out` override the
corresponding config entries; `--threads`, like the `threads` key, is
accepted and ignored, as every study runs on one thread.  OpenBLAS is held
to one thread, so the output does not depend on the core count.  Exit
codes: 0 success, 2 invalid config or a size whose arrays cannot be
allocated (MemoryError), 3 I/O error, 4 numerical failure
(ForwardBlowupError on the paths or the tree's levels, ImplicitSolverError, DesignError when a step's
regression design is not finite, or SchemeExplodedError when a
convergence proxy scheme explodes; the message names the scheme, N, path
and step where they apply).  Explosions of the schemes under study are
recorded in the report, not process failures.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import sys

from .backward import DesignError, ImplicitSolverError, SchemeExplodedError
from .config import ConfigError, checked_seed, load_config
from .experiments import (
    convergence_study,
    emit_csv,
    positivity_study,
    tree_oracle_study,
    verify_taming_study,
)
from .forward import ForwardBlowupError


@contextlib.contextmanager
def _one_blas_thread():
    """Hold every OpenBLAS loaded in the process (found in /proc/self/maps;
    elsewhere nothing changes) to one thread, and restore its count on
    exit: with more threads its kernels may add up in another order.  At
    entry that is numpy's, the one numpy.linalg runs on; scipy's own loads
    later, at the first Gaussian draw, and is left as it is: its `ndtri`
    does no BLAS work."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    restore = []
    for lib in map(ctypes.CDLL, libs):
        for prefix in ("scipy_openblas", "openblas"):
            suffix = "64_" if hasattr(lib, f"{prefix}_get_num_threads64_") else ""
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                restore.append((set_, get()))
                set_(1)
                break
    try:
        yield
    finally:
        for set_, threads in restore:
            set_(threads)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamedbsde",
        description="Backward-SDE scheme experiments: convergence, positivity, taming checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in (
        ("converge", "convergence study against the fine-grid proxy"),
        ("positivity", "per-step extrema of Y at one grid size (regression backend)"),
        ("verify-taming", "tamed-driver assumption checks across the N ladder"),
        ("tree-oracle", "per-step extrema of Y on the exact Rademacher tree"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="path to the flat key/value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored (every study runs on one thread)")
        p.add_argument("--out", default=None, help="override the config output path")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    with _one_blas_thread():
        return _run(args)


def _run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = checked_seed(args.seed)
        if args.threads is not None and args.threads < 1:
            raise ConfigError("threads must be >= 1")
        if args.out is not None:
            cfg.output_path = args.out

        if args.command == "converge":
            report = convergence_study(cfg)
            emit_csv(report, cfg.output_path)
            exploded = sum(row.exploded for row in report.rows)
            print(f"wrote {len(report.rows)} rows to {cfg.output_path} "
                  f"(proxy: {'+'.join(report.proxy_labels)}, exploded runs: {exploded})")
        elif args.command == "verify-taming":
            report = verify_taming_study(cfg)
            emit_csv(report, cfg.output_path)
            failing = sorted({row.taming for row in report.rows if not all(row.checks.values())})
            growing = sorted(label for label, grows in report.witness_growth().items() if grows)
            if growing:
                print(f"growth witness (K_y^h)^2 h grows along the ladder for: {', '.join(growing)}")
            print(f"wrote {len(report.rows)} rows to {cfg.output_path}"
                  + (f"; failing tamings: {', '.join(failing)}" if failing else "; all checks pass"))
        else:  # the extrema study: positivity or tree-oracle
            if args.command == "positivity":
                report, condition = positivity_study(cfg), "h*L_y^h"
            else:
                report, condition = tree_oracle_study(cfg), "step condition"
            emit_csv(report, cfg.output_path)
            for label, cond, ok in report.conditions:
                print(f"{label}: {condition} = {cond:.6g} ({'ok' if ok else 'violated'})")
            print(f"wrote {report.mins.size} rows to {cfg.output_path}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: cannot allocate memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ForwardBlowupError, ImplicitSolverError, SchemeExplodedError, DesignError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
