"""Interacting truncated birth-and-death chains on finite graphs.

Spins on the vertices of a finite connected graph jump up at rate
exp((A_b xi)_x) and down at rate exp((A_d xi)_x), truncated to
{-l, ..., r}.  The package simulates the chain exactly, solves its
stationary law (closed-form Gibbs measure in the reversible case), and
checks its two scaling limits at desk scale: the linear additive-noise
diffusion du = A u dt + sqrt(2) dW under eps^2-scaled rates, and the fluid
ODE under eps-scaled rates.  A spectral toolbox classifies positive
recurrence of the limit via positive definiteness of -A, with closed-form
spectra for star and path graphs.
"""

from .chain import (
    ChainSpec,
    GibbsDistribution,
    Trajectory,
    build_generator,
    check_detailed_balance,
    enumerate_states,
    gibbs_measure,
    simulate,
    state_index,
    stationary_solve,
)
from .diffusion import (
    euler_maruyama_terminal,
    exact_transition,
    lyapunov_residual,
    stationary_gaussian,
)
from .errors import (
    AsymmetricMatrixError,
    BdlimitsError,
    BudgetExceededError,
    ConfigError,
    DimensionMismatchError,
    DisconnectedGraphError,
    InconclusiveSpectrumError,
    InvalidEdgeError,
    NotHurwitzError,
    NumericError,
    PatternViolationError,
    RateOverflowError,
    SingularSystemError,
    StateSpaceTooLargeError,
    SupportNotCoveredError,
    ValidationError,
)
from .experiments import (
    ConvergenceRow,
    ConvergenceTable,
    DiffusionExperimentConfig,
    FluidExperimentConfig,
    GeneratorCheckConfig,
    ScalingSchedule,
    generator_convergence_check,
    geometric_schedule,
    run_diffusion_experiment,
    run_fluid_experiment,
)
from .fluid import rk4_integrate
from .graphs import (
    Graph,
    alpha_beta_matrix,
    build_graph,
    complete_graph,
    cycle_graph,
    load_graph,
    parse_graph_text,
    path_graph,
    single_vertex,
    star_graph,
    validate_interaction,
)
from .paths import SamplePath
from .spectral import (
    SpectralReport,
    classify_pd,
    eigen_sym,
    is_hurwitz,
    matrix_exp,
    numeric_report,
    path_spectrum,
    star_spectrum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
