"""ETEL and EL estimation as stacked estimating-equation systems, with
mechanically verified higher-order expansion identities.

Public surface, by layer:

* models: moment-condition models, built-ins, simulation
* population: plug-in population measures and moment tensors
* projections: P/H/Sigma, the stacked system matrix and its closed inverse
* estimators: inner dual solvers and the full stacked Newton solver
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
    eval_g,
    jacobian_fd_error,
    make_just_ident_model,
    make_mean_var_model,
    make_skew_model,
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
    el_inner_solve,
    et_inner_solve,
    phi_el,
    phi_etel,
    pilot_theta,
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
    psi_tensors,
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
    var_psi_bar,
    var_psi_bar_study,
    xi7_kernel,
    xi_weight_matrix,
)

__version__ = "0.1.0"
