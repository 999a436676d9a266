"""The comparison table of the README, rebuilt from `comparison_check`.

Two instances of each explicit scheme run on the tree of
perfbench/configs/tree_ladder.cfg (x0 = 0.5, sigma = 1, T = 1, its
tamings and radii) with one driver f for both, g1(x) = x >= g2(x) = x - 0.1
and theta' = 1, at N = 2, 4, ..., 128; the config's implicit row is
replaced by the untamed explicit kind, which the check admits.
"""

import functools
import os

import numpy as np

from tamedbsde import (SchemeSpec, TamedDriver, TamingSpec, TerminalSpec, build_grid, build_tree,
                       comparison_check, load_config, polynomial_driver)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NS = (2, 4, 8, 16, 32, 64, 128)
DRIVERS = {"-y^3": (0.0, 0.0, 0.0, -1.0), "FitzHugh-Nagumo": (0.0, -0.3, 1.3, -1.0)}
TERMINALS = TerminalSpec((0.0, 1.0)), TerminalSpec((-0.1, 1.0))


def _schemes():
    """(label, scheme, taming) per row: the config's tamed rows, after the
    untamed explicit kind in place of its implicit row."""
    cfg = load_config(os.path.join(ROOT, "perfbench", "configs", "tree_ladder.cfg"))
    rows = [("untamed", SchemeSpec(kind="explicit_untamed"), TamingSpec(kind="none"))]
    rows += [(run.label, run.scheme, run.taming) for run in cfg.schemes if run.scheme.kind != "implicit"]
    return cfg, rows


@functools.lru_cache(maxsize=None)
def comparison_reports():
    """{driver: {label: [ComparisonReport per N]}}."""
    cfg, rows = _schemes()
    reports = {name: {label: [] for label, _, _ in rows} for name in DRIVERS}
    for n in NS:
        grid = build_grid(cfg.horizon, n)
        tree = build_tree(cfg.sde, grid)
        for name, coeffs in DRIVERS.items():
            base = polynomial_driver(coeffs)
            for label, scheme, taming in rows:
                tamed = TamedDriver(base, taming, grid.h)
                reports[name][label].append(
                    comparison_check(scheme, tamed, TERMINALS[0], tamed, TERMINALS[1], tree))
    return reports


def cell(report) -> str:
    return f"{report.violations} / {report.min_b_factor:.3g} / {report.condition_value:.3g}"


def _readme_tables() -> dict[str, dict[str, list[str]]]:
    """{driver: {label: cells}} from the README's comparison section: each
    table's header names the driver and the N of each column."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("### Comparison on the tree", 1)[1].split("\n## ", 1)[0]
    tables = {}
    for block in section.split("\n\n"):
        if not block.startswith("| f = "):
            continue
        lines = [[c.strip() for c in line.strip().strip("|").split("|")] for line in block.splitlines()]
        header, rows = lines[0], lines[2:]
        assert header[1:] == [f"N = {n}" for n in NS]
        tables[header[0].removeprefix("f = ")] = {row[0]: row[1:] for row in rows}
    return tables


def test_readme_comparison_table_is_what_comparison_check_computes():
    computed = {name: {label: [cell(r) for r in reps] for label, reps in table.items()}
                for name, table in comparison_reports().items()}
    assert _readme_tables() == computed


def test_comparison_table_facts():
    reports = comparison_reports()
    tamings = [label for label in reports["-y^3"] if label != "untamed"]
    assert len(tamings) == 6
    for table in reports.values():
        for reps in table.values():
            assert all(r.inputs_ordered and r.outputs_ordered == (r.violations == 0) for r in reps)

    def column(name, label, field):
        return [getattr(r, field) for r in reports[name][label]]

    # untamed explicit violates at every N, on both drivers, and more as N grows
    assert column("-y^3", "untamed", "violations") == [2, 4, 9, 31, 108, 389, 1525]
    assert [f"{b:.3g}" for b in column("-y^3", "untamed", "min_b_factor")][::6] == ["-4.21", "-2.24"]
    assert [f"{c:.3g}" for c in column("-y^3", "untamed", "condition_value")][::6] == ["150", "2.34"]
    fhn = column("FitzHugh-Nagumo", "untamed", "violations")
    assert fhn[0] == 3 and fhn[-1] == 1501 and all(v > 0 for v in fhn)
    for name in DRIVERS:
        assert np.all(np.diff(column(name, "untamed", "violations")) > 0)

    # -y^3: no taming violates at any N <= 128, though the sufficient
    # condition fails for inner at every N, for mult_c and mult_d up to
    # N = 32 and for outer at N = 2 and 4, and min B < 0 for inner and
    # outer at N = 2 and 4
    assert all(column("-y^3", label, "violations") == [0] * len(NS) for label in tamings)
    failing = {(label, n) for label in tamings
               for n, c in zip(NS, column("-y^3", label, "condition_value")) if c >= 1.0}
    assert failing == ({("inner", n) for n in NS} | {(k, n) for k in ("mult_c", "mult_d") for n in NS[:5]}
                       | {("outer", 2), ("outer", 4)})
    negative_b = {(label, n) for label in tamings
                  for n, b in zip(NS, column("-y^3", label, "min_b_factor")) if b < 0.0}
    assert negative_b == {(k, n) for k in ("inner", "outer") for n in (2, 4)}

    # FitzHugh-Nagumo: inner violates once, at N = 2, and no taming from N = 4 on
    violating = {(label, n) for label in tamings
                 for n, v in zip(NS, column("FitzHugh-Nagumo", label, "violations")) if v}
    assert violating == {("inner", 2)} and reports["FitzHugh-Nagumo"]["inner"][0].violations == 1
