"""Solver suite for the steady hydrodynamic semiconductor model with sonic boundary."""

from .errors import (
    BracketFailure,
    ComplexSlope,
    DegenerateLaunch,
    EntropyViolation,
    GlueMismatch,
    InsufficientWindow,
    IntegrationFailure,
    LastCrossingMissing,
    LemmaViolation,
    NewtonDivergence,
    NoSolutionInRegime,
    NotConstantDoping,
    NotSonicDoping,
    NumericalError,
    PreconditionViolation,
    RegimeError,
    RegimeRejection,
    ShootingDivergence,
    SonicDoping,
    SonicFlowError,
    SonicSingularity,
)
from .model_core import (
    CriticalPointInfo,
    DopingProfile,
    ModelParams,
    ShockData,
    State,
    c1_transition_slope,
    critical_point_analysis,
    rh_jump,
    sonic_coefficient,
    supersonic_min_density_bracket,
    tau0_bound,
    undamped_energy_potential,
    vector_field,
    xi_curve,
)
from .integrator import (
    DomainEnd,
    Event,
    IntegratorConfig,
    TargetDensity,
    TrajectorySegment,
    integrate,
    integrate_from_sonic,
)
from .solution import (
    BOUNDARY_TOL,
    SOLUTION_KINDS,
    Solution,
    TransitionData,
    graded_grid,
    grid_derivative,
)
from .solvers import (
    SweepSample,
    residual_sign_change,
    solve_c1_transonic,
    solve_sonic,
    solve_subsonic_elliptic,
    solve_subsonic_shooting,
    solve_supersonic,
    solve_transonic_shock,
    supersonic_residual_sweep,
)
from .analysis import (
    ExponentFit,
    KindVerdict,
    RegimeReport,
    TrajectoryLemmaReport,
    check_trajectory_lemmas,
    classify_regime,
    fit_holder_exponent,
    lemma_tau_threshold,
    residual_norm,
)
from .svg import render_portrait, render_profile

__version__ = "0.1.0"
