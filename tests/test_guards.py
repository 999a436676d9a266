"""The argument checks of the library's public entry points: each raises
its error type with its message."""

import math
import re

import numpy as np
import pytest

from tamedbsde import (
    BasisSpec,
    ExactTreeBasis,
    IncrementBatch,
    NoiseModel,
    PathEnsemble,
    SchemeSpec,
    SdeSpec,
    TamedDriver,
    TamingSpec,
    build_grid,
    build_tree,
    emit_csv,
    enumerate_tree_paths,
    euler_simulate,
    fit_least_squares,
    lambda_of_truncation,
    polynomial_driver,
    run_backward,
    run_backward_group,
    sample_increments,
    truncation_l2_gap,
    truncation_radius,
)
from tamedbsde.grids import TRUNCATED

GRID = build_grid(1.0, 4)
SDE = SdeSpec(x0=0.5)
DRIVER = TamedDriver(polynomial_driver([0.0, 0.0, 0.0, -1.0]), TamingSpec(kind="inner_proj"), GRID.h)
EXPLICIT = SchemeSpec(kind="explicit_tamed")


def _ensemble(paths: int) -> PathEnsemble:
    return euler_simulate(SDE, GRID, sample_increments(GRID, paths, 1, NoiseModel()))


def _short_increments():
    # a hand-built ensemble whose increments miss the last step
    ens = _ensemble(8)
    inc = ens.increments
    short = PathEnsemble(ens.X, IncrementBatch(inc.dW[:-1], inc.H[:-1], inc.lam), GRID)
    run_backward(EXPLICIT, DRIVER, short, ens.X[-1], BasisSpec(size=2))


def _exact_basis_wrong_paths():
    ens = _ensemble(5)
    run_backward(EXPLICIT, DRIVER, ens, ens.X[-1], ExactTreeBasis())


def _terminal_wrong_shape():
    ens = _ensemble(8)
    run_backward_group([(EXPLICIT, DRIVER)], ens, ens.X[-1][:3], BasisSpec(size=2))


GUARDS = {
    "path-operator-H-shape": (_short_increments, ValueError,
                              "ensemble increments have shape (3, 8), expected (4, 8)"),
    "path-operator-2^N-paths": (_exact_basis_wrong_paths, ValueError,
                                "exact tree basis expects 2^4 paths, got 5"),
    "backward-group-xi-shape": (_terminal_wrong_shape, ValueError,
                                "terminal values have shape (3,), expected (8,)"),
    "tamed-driver-h-zero": (lambda: TamedDriver(DRIVER.base, DRIVER.taming, 0.0), ValueError,
                            "h must be positive"),
    "tamed-driver-h-negative": (lambda: TamedDriver(DRIVER.base, DRIVER.taming, -0.25), ValueError,
                                "h must be positive"),
    "sde-x0-nan": (lambda: SdeSpec(x0=math.nan), ValueError, "SdeSpec.x0 must be finite"),
    "sde-diff-slope-inf": (lambda: SdeSpec(diff_slope=math.inf), ValueError,
                           "SdeSpec.diff_slope must be finite"),
    "noise-truncated-radius-zero": (lambda: NoiseModel(kind=TRUNCATED, radius0=0.0), ValueError,
                                    "truncated_gaussian noise needs radius0 > 0"),
    "truncation-radius-h-zero": (lambda: truncation_radius(NoiseModel(kind=TRUNCATED), 0.0),
                                 ValueError, "h must be positive"),
    "lambda-radius-zero": (lambda: lambda_of_truncation(0.0, 0.25), ValueError,
                           "radius and h must be positive"),
    "l2-gap-radius-negative": (lambda: truncation_l2_gap(-1.0, 0.25), ValueError,
                               "radius and h must be positive"),
    "sample-no-paths": (lambda: sample_increments(GRID, 0, 1, NoiseModel()), ValueError,
                        "paths must be >= 1"),
    "sample-path-range-reversed": (lambda: sample_increments(GRID, 8, 1, NoiseModel(), (3, 2)),
                                   ValueError, "invalid path_range (3, 2) for 8 paths"),
    "sample-path-range-beyond": (lambda: sample_increments(GRID, 8, 1, NoiseModel(), (0, 9)),
                                 ValueError, "invalid path_range (0, 9) for 8 paths"),
    "basis-size-zero": (lambda: BasisSpec(size=0), ValueError, "basis size must be >= 1"),
    # the row check comes before the factorization is read
    "fit-row-mismatch": (lambda: fit_least_squares(np.ones((3, 2)), np.ones(4), BasisSpec(size=2),
                                                   0.0, 1.0, None),
                         ValueError, "design has 3 rows, targets 4"),
    "enumerate-beyond-cap": (lambda: enumerate_tree_paths(build_tree(SDE, build_grid(1.0, 15))),
                             ValueError, "enumerating 2^15 paths exceeds the cap 2^14"),
    "emit-unknown-report": (lambda: emit_csv(object(), "unused.csv"), TypeError,
                            "no CSV writer for report type object"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_error_and_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
