"""ETEL and EL estimation as stacked estimating-equation systems, with
mechanically verified higher-order expansion identities.

Public surface, by layer:

* models: moment-condition models, built-ins, simulation
* population: plug-in population measures and moment tensors
* projections: P/H/Sigma, the stacked system matrix and its closed inverse
* estimators: the stacked moment rows, their Jacobian and the stacked Newton solver
* derivatives: closed-form and finite-difference derivative tensors, sample bars
* expansion: the expansion terms and every cancellation / orthogonality check
* harness: experiment configs, verification suites, reports
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DimensionError,
    DomainError,
    GelError,
    HullError,
    OverflowGuardError,
    SingularMatrixError,
)
from .models import (
    AnalyticMoments,
    Dataset,
    IndexLayout,
    MODEL_NAMES,
    MomentModel,
    build_model,
    simulate,
)
from .population import (
    MomentTensors,
    PluginMeasure,
    PopulationMoments,
    moment_tensors,
    population_moments,
    reference_measure,
)
from .projections import (
    PhiSystem,
    ProjectionSet,
    identity_residuals,
    phi_inverse_matrix,
    phi_system,
    projection_set,
    random_population_moments,
)
from .estimators import (
    BetaVector,
    SolveReport,
    solve_stacked,
    stacked_jacobian,
    stacked_residual,
)
from .derivatives import (
    DerivTensors,
    SampleStats,
    phi1_population,
    phi2_jacobian_seeded,
    phi3_diff_theta_jacobian_seeded,
    population_tensors,
    sample_stats,
)
from .expansion import (
    ExpansionTerms,
    RDiffReport,
    StudyResult,
    TOLERANCES,
    expansion_difference_study,
    orthogonality_xi7_study,
    psi_bar,
    psi_bar_generic,
    q_bar,
    q_diff_decomposition,
    r_diff_terms,
    var_psi_bar_study,
)

__version__ = "0.1.0"
