"""Monte-Carlo and exact-tree solvers for backward SDEs with monotone
polynomial drivers, built around tamed explicit time-stepping."""

from .grids import (
    IncrementBatch,
    NoiseModel,
    PartitionGrid,
    build_grid,
    lambda_of_truncation,
    sample_increments,
    truncation_l2_gap,
    truncation_radius,
)
from .forward import (
    ForwardBlowupError,
    PathEnsemble,
    SdeSpec,
    TerminalSpec,
    euler_simulate,
    terminal_values,
)
from .drivers import (
    AssumptionReport,
    DerivedConstants,
    DriverSpec,
    ProbePlan,
    TamedDriver,
    TamingSpec,
    derive_constants,
    eval_driver,
    polynomial_driver,
    taming_residual,
    verify_assumptions,
)
from .regression import BasisSpec, RegressionFit, design_matrix, fit_basis, fit_least_squares, predict
from .trees import TreeModel, build_tree, enumerate_tree_paths
from .backward import (
    ComparisonReport,
    ExactTreeBasis,
    PositivityReport,
    SchemeOutput,
    SchemeSpec,
    TreeSchemeOutput,
    ZetaDiagnostic,
    comparison_check,
    positivity_report,
    run_backward,
    run_backward_group,
    tree_exact_run,
    zeta_diagnostic,
)
from .config import ConfigError, ExperimentConfig, SchemeRun, load_config, parse_config
from .experiments import (
    ErrorReport,
    aggregate_to_grid,
    convergence_study,
    emit_csv,
    positivity_study,
    tree_oracle_study,
    verify_taming_study,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
