"""Information-optimal vehicle trajectory planning.

Solves a Hamilton-Jacobi PDE for the maximal-information-gain value function
with a hybrid method of lines (spatial grid over the vehicle state, grid-free
ODE for the gradient with respect to the accumulated Fisher information), and
extracts optimal trajectories through the characteristic system.
"""

from infotraj.dynamics import (
    AugmentedState,
    CascadeSystem,
    ControlSignal,
    DubinsCar,
    State,
    ToyCascade,
    Trajectory,
    simulate_open_loop,
    trajectory_from_csv,
    trajectory_to_csv,
    wrap_angle,
)
from infotraj.grid import Axis, ExtrapolationError, GridSpec
from infotraj.hjsolver import (
    HybridSolution,
    InstabilityError,
    bang_bang,
    cfl_dt,
    classic_solve,
    hybrid_solve,
    info_rate_on_grid,
    lf_rate,
    load_solution,
    solve_to_disk,
)
from infotraj.matrixcore import (
    DimensionError,
    LogDetMetric,
    NotPositiveDefiniteError,
    curvature_contraction,
    logdet_spd,
    sym_pack,
    sym_unpack,
    unvec,
    vec,
)
from infotraj.sensing import (
    DopplerSensor,
    GaussianPrior,
    GeometryError,
    Sensor,
    conditional_fim,
    doppler_jacobian,
    doppler_mean,
    expected_fim,
    prior_fim,
    suite_fim,
    suite_info_rate,
)
from infotraj.trajectories import (
    BoundaryExitError,
    ValidationReport,
    brute_force_value,
    extract_characteristic,
    extract_receding,
    gradient_consistency_check,
)

__all__ = [
    "AugmentedState",
    "Axis",
    "BoundaryExitError",
    "CascadeSystem",
    "ControlSignal",
    "DimensionError",
    "DopplerSensor",
    "DubinsCar",
    "ExtrapolationError",
    "GaussianPrior",
    "GeometryError",
    "GridSpec",
    "HybridSolution",
    "InstabilityError",
    "LogDetMetric",
    "NotPositiveDefiniteError",
    "Sensor",
    "State",
    "ToyCascade",
    "Trajectory",
    "ValidationReport",
    "bang_bang",
    "brute_force_value",
    "cfl_dt",
    "classic_solve",
    "conditional_fim",
    "curvature_contraction",
    "doppler_jacobian",
    "doppler_mean",
    "expected_fim",
    "extract_characteristic",
    "extract_receding",
    "gradient_consistency_check",
    "hybrid_solve",
    "info_rate_on_grid",
    "lf_rate",
    "load_solution",
    "logdet_spd",
    "prior_fim",
    "simulate_open_loop",
    "solve_to_disk",
    "suite_fim",
    "suite_info_rate",
    "sym_pack",
    "sym_unpack",
    "trajectory_from_csv",
    "trajectory_to_csv",
    "unvec",
    "vec",
    "wrap_angle",
]

__version__ = "0.1.0"
