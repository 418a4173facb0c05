"""Bond percolation on a finite box merged with a sparse random graph.

Simulation of the merged model, exact and empirical cluster-size laws,
and solvers for the phase diagram: the critical curve, the giant
component fraction, and the subcritical logarithmic growth constant.
"""

__version__ = "0.1.0"

from .branching import estimate_survival, simulate_progeny
from .distributions import (
    ClusterSizeDistribution,
    exact_d1,
    from_empirical,
    from_table,
    point_mass,
)
from .errors import (
    CheckFailure,
    ConfigError,
    ConvergenceError,
    DivergenceError,
    DomainError,
)
from .experiments import (
    ExperimentConfig,
    concentration_check,
    estimate_cluster_law,
    evaluate_checks,
    load_config,
    run_cell,
    run_experiment,
    subcritical_scaling,
    sweep,
)
from .lattice import (
    LatticeGeometry,
    build_geometry,
    cluster_census,
    origin_cluster_size,
    sample_percolation,
)
from .merged import build_macro_graph, overlay_long_range, verify_correspondence
from .theory import (
    CRITICAL_BAND,
    TheoryPoint,
    beta_derivative_at_cr,
    c_critical,
    critical_mean_degree_d1,
    p_critical_d1,
    phase_of,
    rho_of_type,
    solve_A_z,
    solve_alpha,
    solve_beta,
    theory_point,
)

__all__ = [
    "__version__",
    "ClusterSizeDistribution", "exact_d1", "from_empirical", "from_table",
    "point_mass",
    "LatticeGeometry", "build_geometry", "sample_percolation",
    "cluster_census", "origin_cluster_size",
    "overlay_long_range", "build_macro_graph", "verify_correspondence",
    "CRITICAL_BAND", "c_critical", "p_critical_d1", "phase_of", "solve_beta",
    "solve_alpha", "solve_A_z", "rho_of_type", "beta_derivative_at_cr",
    "critical_mean_degree_d1", "theory_point", "TheoryPoint",
    "simulate_progeny", "estimate_survival",
    "ExperimentConfig", "load_config", "run_cell", "sweep",
    "subcritical_scaling", "concentration_check", "estimate_cluster_law",
    "evaluate_checks", "run_experiment",
    "ConfigError", "DomainError", "DivergenceError", "ConvergenceError",
    "CheckFailure",
]
